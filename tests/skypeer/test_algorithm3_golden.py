"""The one Algorithm-3 node held to the numbers of the three it replaced.

``algorithm3_golden.json`` is recorded by running this file as a script:
for three seeded networks — a single super-peer, a six-super-peer mesh
and a sparse backbone whose BFS tree is at least three hops deep — every
``k`` in ``{1, 2, d}`` and all five variants it holds the result (ids
and ``f`` in order), every deterministic count and, under a fixed-tick
``time.perf_counter``, both model times to the last bit.

It was first recorded from the parent commit of the PR that unified
Algorithm 3 (the plan-based executor), and re-recorded nine times since.
Once when ``f`` came off the backbone (a RESULT record is id + the k
queried coordinates; a merged answer is ordered by, and its ``f`` is,
the minimum over the queried coordinates): against the tree before,
every case kept its id set, ``message_count``, ``local_result_points``,
``comparisons``, ``critical_path_examined`` and each scan's own
``comparisons`` / ``examined``, and ``volume_bytes`` fell by exactly
``8 * point_hops``.  Once when the query became ``q(U, t, p)`` (a
receiving super-peer drops what ``p`` dominates): every case kept
``ids``, ``f``, ``message_count`` and ``initial_threshold``, every naive
case stayed byte-identical, and ``point_hops`` and
``local_result_points`` stayed equal or fell.  Once when a RESULT
message's ids became one column in the fewest whole bytes ``w`` that
hold its largest id: every case kept ``ids``, ``f``, every count,
``computational_time`` and ``initial_threshold``, ``volume_bytes`` fell
by exactly the sum of ``n * (8 - w)`` over its result messages, and
``total_time`` fell with the transfers.  Once when Algorithms 1 and 2
became a stop-point loop plus the skyline filter: ``comparisons`` now
counts the pairs the filter tested, and it alone moved, in the eight
full-space SKYPEER cases of ``mesh`` and ``deep``; every other key of
all 45 cases, naive included, stayed byte-equal.  Once when a RESULT
message's coordinates began to send the high bytes they all share once
and ``c`` low bytes each: every case kept ``ids``, ``f``, every count,
``computational_time`` and ``initial_threshold``, and ``volume_bytes``
fell by exactly the sum of ``(8 - c) * (n * k - 1)`` over its result
messages (in the 20 cases where some message has ``n * k > 1``), and
``total_time`` with the transfers.  Once when a SKYPEER super-peer
began to drop, from every list it relays and every merge it ships up,
what its known points (the received ``p`` and its own list's
smallest-sum point) dominate, and a RESULT block could send one width
per column when that is smaller: every case kept ``ids``, ``f``,
``message_count``, ``initial_threshold``, ``local_result_points`` and
``computational_time``; the per-column layout alone moved no key of any
case (no message of these networks is smaller per column); with the
known points every naive and FTPM case stayed byte-equal, and in nine
FTFM / RTFM / RTPM cases ``point_hops`` fell, ``volume_bytes`` with it
(``total_time`` in eight of them), and ``comparisons`` and
``critical_path_examined`` with the shorter merges.  Once when
Algorithm 1 began to cut its examined rows at the final threshold on
U's own minimum before the filter: ``comparisons`` alone moved, in 24
of the 45 cases (every SKYPEER case with ``k`` in ``{1, 2}``), and fell
in each; every other key of every case, naive included, stayed
byte-equal.  Once when a RESULT record began to send its ids in
ascending order, as LEB128 gaps when that is strictly smaller than the
``n * w`` column: every case kept ``ids``, ``f``, every count,
``computational_time`` and ``initial_threshold``; ``volume_bytes`` fell
by exactly the sum of ``n * w - id_bytes(ids)`` over its result
messages in the 20 cases with ``k`` in ``{2, d}`` on ``mesh`` and
``deep`` (166 474 → 164 063 B over all 45), and ``total_time`` with the
transfers in those 20 alone.  Once when a RESULT block of non-negative
finite doubles could travel as bit-packed integers of one power of two
per column, when that is strictly smaller (wire version 9): every case
kept ``ids``, ``f``, every count, ``computational_time`` and
``initial_threshold``; ``volume_bytes`` fell by exactly the sum of each
result message's version 8 charge less its version 9 one in the 10
full-space cases of ``mesh`` and ``deep`` (164 063 → 162 299 B over all
45), and ``total_time`` with the transfers in 8 of them.  CHANGES.md has
all nine comparisons.

The first file's ``critical_path_examined`` was right for the \\*PM
variants only (the plan dropped the ``work`` component from every
relayed result, so its \\*FM / naive values ignored all remote scans);
the re-recorded file holds the one node's values for all five, and the
\\*FM / naive ones are also checked against the longest path written out
by hand below.

Re-recording (only ever from a tree whose numbers are the reference)::

    PYTHONPATH=src python tests/skypeer/test_algorithm3_golden.py
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np
import pytest

from repro.core.merging import merge_sorted_skylines
from repro.data.workload import Query
from repro.p2p import cost as cost_module
from repro.p2p.cost import Quanta, coord_width, id_bytes, id_width
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.wire import ResultMessage
from repro.skypeer.executor import _ModelClocks, execute_query, run_on_model_clocks, spanning_tree
from repro.skypeer.variants import Variant

GOLDEN = os.path.join(os.path.dirname(__file__), "algorithm3_golden.json")

#: name -> build arguments; ``deep`` has few links so its BFS tree is deep.
NETWORKS = {
    "single": dict(n_peers=6, points_per_peer=15, dimensionality=3, n_superpeers=1, seed=8),
    "mesh": dict(n_peers=36, points_per_peer=20, dimensionality=5, n_superpeers=6, seed=7),
    "deep": dict(
        n_peers=48, points_per_peer=12, dimensionality=4, n_superpeers=12,
        degree=2.0, seed=3,
    ),
}
#: A power of two, so every duration, sum and comparison below is exact.
TICK = 2.0 ** -10


def _subspaces(d: int) -> list[tuple[int, ...]]:
    return [(d - 1,), (0, d - 1), tuple(range(d))]


def _cases():
    for name in NETWORKS:
        d = NETWORKS[name]["dimensionality"]
        for subspace in _subspaces(d):
            for variant in Variant:
                yield name, subspace, variant


@pytest.fixture(scope="module")
def networks() -> dict[str, SuperPeerNetwork]:
    return {name: SuperPeerNetwork.build(**args) for name, args in NETWORKS.items()}


@pytest.fixture(scope="module")
def anti_network() -> SuperPeerNetwork:
    """Anticorrelated, so its lists hold values clipped to +0.0 and their
    blocks carry a zero bitmap (the uniform networks' never do)."""
    return SuperPeerNetwork.build(
        n_peers=36, points_per_peer=20, dimensionality=4, n_superpeers=6, seed=7,
        dataset="anticorrelated",
    )


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def _fixed_tick(setattr) -> None:
    ticks = iter(range(1, 1 << 40))
    setattr(time, "perf_counter", lambda: next(ticks) * TICK)


def _initiator(network: SuperPeerNetwork) -> int:
    # Super-peer 1 sees the mesh two hops deep, the deep backbone three.
    return network.topology.superpeer_ids[min(1, network.n_superpeers - 1)]


def _measure(network: SuperPeerNetwork, subspace, variant: Variant) -> dict:
    run = execute_query(network, Query(subspace=subspace, initiator=_initiator(network)), variant)
    return {
        "ids": [int(i) for i in run.result.points.ids],
        "f": [float(v) for v in run.result.f],
        "comparisons": run.comparisons,
        "message_count": run.message_count,
        "volume_bytes": run.volume_bytes,
        "initial_threshold": None if math.isinf(run.initial_threshold) else run.initial_threshold,
        "local_result_points": run.local_result_points,
        "point_hops": run.point_hops,
        "critical_path_examined": run.critical_path_examined,
        "computational_time": run.computational_time,
        "total_time": run.total_time,
    }


def _key(name: str, subspace, variant: Variant) -> str:
    return f"{name}/{','.join(map(str, subspace))}/{variant.value}"


def test_deep_network_is_deep(networks):
    topology = networks["deep"].topology
    assert max(topology.hops_from(_initiator(networks["deep"])).values()) >= 3
    assert networks["single"].n_superpeers == 1


@pytest.mark.parametrize("name,subspace,variant", list(_cases()), ids=lambda v: str(getattr(v, "value", v)))
def test_matches_the_parent(networks, golden, monkeypatch, name, subspace, variant):
    _fixed_tick(monkeypatch.setattr)
    got = _measure(networks[name], subspace, variant)
    assert got == golden[_key(name, subspace, variant)]


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_volume_is_headers_plus_point_hops(networks, anti_network, monkeypatch, variant):
    """``volume_bytes`` written out: a query message per query — carrying
    the bound's one point under the four SKYPEER variants and none under
    naive — an envelope and the ``8 − c`` shared high coordinate bytes
    per result, its id block and ``c`` per sent coordinate, and a
    ``⌈n·k/8⌉``-byte zero bitmap for a block that sends fewer than its
    ``n·k`` coordinates.  The id block is ``n·w`` bytes, ``w`` the fewest
    whole bytes that hold the largest id of the message, or, when
    strictly smaller, the varint bytes of the smallest id and the
    ascending gaps (``id_bytes``); ``nz`` is the coordinates it sends
    (its non-+0.0 ones when it mixes +0.0 with others, else all) and
    ``c`` the low bytes those do not all share (all read here through a
    spy on the carrier).  A block laid out per column pays ``k − 1`` width
    bytes and each column's ``8 − c_j`` and ``nz_j·c_j`` instead, and a
    quantum-coded one (``coord_width`` a ``Quanta``) its ``nbytes``.
    Nothing else travels, so a change to either record shows here and
    not only in a bench."""
    sent: list[tuple[int, int, int, int]] = []  # (points, id bytes, coord bytes, nz)
    columns: list[tuple[int, int]] = []  # (n·w, id bytes): the gaps when smaller
    quanta: list[bool] = []  # whether each block is quantum-coded
    send_result = _ModelClocks.send_result

    def spy(self, src, dst, origin, result, final, at):
        layout = coord_width(result.points.values[:, list(self._subspace)])
        if isinstance(layout[0], Quanta):
            block, nonzero = layout[0].nbytes(len(result)), np.atleast_1d(layout[1])
        else:
            low, nonzero = map(np.atleast_1d, layout)
            block = len(low) - 1 + int((8 - low).sum()) + int(nonzero @ low)
        quanta.append(isinstance(layout[0], Quanta))
        ids = result.points.ids
        sent.append((len(result), id_bytes(ids), block, int(nonzero.sum())))
        columns.append((len(ids) * id_width(ids), id_bytes(ids)))
        send_result(self, src, dst, origin, result, final, at)

    monkeypatch.setattr(_ModelClocks, "send_result", spy)
    bitmaps = gapped = 0
    for name, network in {**networks, "anti": anti_network}.items():
        cost = network.cost_model
        for subspace in _subspaces(network.dimensionality):
            sent.clear()
            columns.clear()
            run = run_on_model_clocks(
                network, Query(subspace=subspace, initiator=_initiator(network)), variant
            )
            k, execution = len(subspace), run.execution
            n_result = execution.message_count - run.query_messages
            points = 0 if variant is Variant.NAIVE else 1
            assert run.query_messages == network.n_superpeers - 1, name
            assert sum(n for n, _, _, _ in sent) == execution.point_hops
            assert execution.volume_bytes == (
                run.query_messages * cost.query_bytes(k, points)
                + n_result * cost.message_header_bytes
                + sum(
                    ids + ((n * k + 7) // 8 if nz < n * k else 0) + block
                    for n, ids, block, nz in sent
                )
            ), (name, subspace)
            bitmaps += sum(nz < n * k for n, _, _, nz in sent)
            gapped += sum(ids < column for column, ids in columns)
    assert bitmaps > 0 and gapped > 0 and any(quanta) and not all(quanta)


def test_each_record_saves_what_its_charge_saves(networks, monkeypatch):
    """Over the uniform mesh, every RESULT record of every variant and
    subspace is shorter than its version 8 layout by exactly what the
    model's charge saves, and some are."""
    sent: list[tuple[np.ndarray, np.ndarray]] = []
    send_result = _ModelClocks.send_result

    def spy(self, src, dst, origin, result, final, at):
        sent.append((result.points.ids, result.points.values[:, list(self._subspace)]))
        send_result(self, src, dst, origin, result, final, at)

    monkeypatch.setattr(_ModelClocks, "send_result", spy)
    network = networks["mesh"]
    for subspace in _subspaces(network.dimensionality):
        for variant in Variant:
            execute_query(network, Query(subspace=subspace, initiator=_initiator(network)), variant)
    model, saved = network.cost_model, []
    for ids, values in sent:
        message = ResultMessage(1, 0, ids, values)
        v9 = len(message.encode()), model.list_bytes(ids, values)
        with monkeypatch.context() as patch:
            patch.setattr(cost_module, "quantize", lambda block: None)
            v8 = len(message.encode()), model.list_bytes(ids, values)
        assert v8[0] - v9[0] == v8[1] - v9[1] >= 0
        saved.append(v8[0] - v9[0])
    assert sum(map(bool, saved)) > 0


@pytest.mark.parametrize("name", ["mesh", "deep"])
@pytest.mark.parametrize("variant", [Variant.FTFM, Variant.RTFM, Variant.NAIVE], ids=lambda v: v.value)
def test_relayed_work_is_the_longest_path(networks, monkeypatch, name, variant):
    """*FM / naive: every scan ends on a path from P_init, every list
    reaches P_init with the work of the path it came by, and P_init
    merges after the latest of them — its own list and what arrived,
    which a relay's known points may have shortened on the way."""
    network = networks[name]
    arrived: dict[int, object] = {}   # origin -> the list P_init received
    send_result = _ModelClocks.send_result

    def spy(self, src, dst, origin, result, final, at):
        if dst == self._query.initiator:
            arrived[origin] = result
        send_result(self, src, dst, origin, result, final, at)

    monkeypatch.setattr(_ModelClocks, "send_result", spy)
    for subspace in _subspaces(network.dimensionality):
        root = _initiator(network)
        arrived.clear()
        run = execute_query(network, Query(subspace=subspace, initiator=root), variant)
        _tree, rank = spanning_tree(network, root)
        parent, _children = network.topology.bfs_tree(root)
        examined = {sp: scan.examined for sp, scan in run.traces.items()}
        if variant is Variant.NAIVE:
            assert examined == {sp: len(network.store_of(sp)) for sp in parent}

        def scan_ends(sp: int) -> int:
            if sp == root:
                return examined[root]
            if variant is Variant.RTFM:       # scans cascade down the path
                return scan_ends(parent[sp]) + examined[sp]
            if variant is Variant.FTFM:       # P_init scans, then all others at once
                return examined[root] + examined[sp]
            return examined[sp]               # naive: nobody waits for anybody

        merge_examined = run.critical_path_examined - max(scan_ends(sp) for sp in parent)
        if variant is Variant.NAIVE:
            assert merge_examined == run.local_result_points
        else:
            assert set(arrived) == set(parent) - {root}
            merged = merge_sorted_skylines(
                [run.traces[root].result] + [arrived[sp] for sp in sorted(arrived, key=rank.get)],
                tuple(subspace),
            )
            assert merge_examined == merged.examined


if __name__ == "__main__":
    built = {name: SuperPeerNetwork.build(**args) for name, args in NETWORKS.items()}
    _fixed_tick(setattr)
    recorded = {
        _key(name, subspace, variant): _measure(built[name], subspace, variant)
        for name, subspace, variant in _cases()
    }
    with open(GOLDEN, "w", encoding="utf-8") as handle:  # one case a line
        rows = (f"{json.dumps(key)}: {json.dumps(recorded[key], sort_keys=True)}" for key in sorted(recorded))
        handle.write("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"recorded {len(recorded)} cases into {GOLDEN}")
