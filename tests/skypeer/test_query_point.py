"""The bound's point, checked against a skyline written out here.

A query is ``q(U, t, p)``: a receiving super-peer drops from its scan
result what ``p`` dominates on ``U``, and an RT* relay forwards the
smaller-sum of the ``p`` it received and its own list.  Over random
backbones, stores with ties and duplicates, every variant and every
subspace size, with links delivered in any order: the answer is the
skyline; every super-peer's own list (what it ships under *FM, what its
merge starts from under *PM) is its scan minus exactly what the received
``p`` dominates; and no forwarded ``p`` is larger in sum than the one
received.  On the model carrier, no list a super-peer relays or ships
holds a point its known points (the received ``p`` and its own list's
smallest-sum point) dominate, and dropping those moves no message.
Nothing below checks with ``repro.core.dominance``.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import PointSet
from repro.core.store import SortedByF
from repro.core.local_skyline import local_subspace_skyline
from repro.data.workload import Query
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.topology import Topology
from repro.skypeer.executor import _ModelClocks, execute_query
from repro.skypeer.protocol import ProtocolNode, QueryBound, SkylineKernels, make_kernels
from repro.skypeer.variants import Variant
from tests.conftest import brute_force_skyline_ids
from tests.skypeer.test_node import LinkQueues, backbones


def dominates(a, b) -> bool:
    """``a`` is nowhere worse than ``b`` and somewhere better."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def skyline_ids(rows) -> set[int]:
    """Ids of the ``(id, coordinates)`` rows no other row dominates."""
    return {
        pid for pid, row in rows
        if not any(dominates(other, row) for _, other in rows)
    }


def on(subspace, row) -> tuple[float, ...]:
    return tuple(float(row[i]) for i in subspace)


class Recording(LinkQueues):
    """:class:`LinkQueues` that also keeps every bound and every list sent."""

    def __init__(self, pick):
        super().__init__(pick)
        self.bounds: dict[tuple[int, int], QueryBound] = {}
        self.shipped: list[tuple[int, int, SortedByF]] = []

    def send_query(self, src, dst, bound, at):
        self.bounds[src, dst] = bound
        super().send_query(src, dst, bound, at)

    def send_result(self, src, dst, origin, result, final, at):
        self.shipped.append((src, origin, result))
        super().send_result(src, dst, origin, result, final, at)


@given(
    backbones(),
    st.sampled_from(list(Variant)),
    st.integers(0, 2**31 - 1),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_the_point_prunes_only_what_is_not_in_the_answer(backbone, variant, seed, k, random):
    adjacency, _ = backbone
    rng = np.random.default_rng(seed)
    d = 3
    stores, next_id = {}, 0
    for sp in adjacency:
        count = int(rng.integers(0, 9))
        # A coarse grid: equal coordinates, equal sums and duplicates occur,
        # and every sum is exact.
        values = rng.integers(0, 5, size=(count, d)).astype(float)
        stores[sp] = SortedByF.from_points(PointSet(values, np.arange(next_id, next_id + count)))
        next_id += count
    subspace = tuple(sorted(rng.choice(d, size=k, replace=False).tolist()))
    initiator = int(rng.integers(0, len(adjacency)))

    scanned: dict[int, SortedByF] = {}    # what Algorithm 1 returned
    own: dict[int, SortedByF] = {}        # what the super-peer kept of it

    def scan(sp, sub, threshold):
        computation = local_subspace_skyline(stores[sp], sub, initial_threshold=threshold)
        scanned[sp] = computation.result
        return computation

    carrier = Recording(random.choice)
    network = SimpleNamespace(scan=scan, store_of=stores.__getitem__, dimensionality=d)
    kernels = make_kernels(variant, subspace, network)
    scan = kernels.scan

    def keep(sp, bound):
        computation = scan(sp, bound)
        own[sp] = computation.result
        return computation

    kernels.scan = keep
    for sp, neighbours in adjacency.items():
        carrier.nodes[sp] = ProtocolNode(
            sp, neighbours=neighbours, variant=variant, kernels=kernels, carrier=carrier
        )
    carrier.nodes[initiator].start(None)
    carrier.run()

    everything = [(int(pid), row) for s in stores.values() for pid, row in s.points]
    assert carrier.answer.points.id_set() == skyline_ids(
        [(pid, on(subspace, row)) for pid, row in everything]
    )

    for sp, node in carrier.nodes.items():
        received = QueryBound(math.inf) if node.parent is None else carrier.bounds[node.parent, sp]
        p = received.point
        if variant is Variant.NAIVE or node.parent is None:
            assert p is None
        raw = scanned[sp] if variant is not Variant.NAIVE else own[sp]
        expected = [
            int(pid) for pid, row in raw.points
            if p is None or not dominates(tuple(p), on(subspace, row))
        ]
        assert own[sp].points.ids.tolist() == expected, sp

        sent = {
            None if bound.point is None else tuple(bound.point)
            for (src, _), bound in carrier.bounds.items() if src == sp
        }
        if not sent:
            continue
        (forwarded,) = sent       # one bound to every neighbour
        if variant is Variant.NAIVE:
            assert forwarded is None
        elif variant.refined_threshold or node.parent is None:
            # The smaller-sum of the received p and the own list; p wins a tie.
            candidates = ([tuple(p)] if p is not None else []) + [
                on(subspace, row) for _, row in own[sp].points
            ]
            best = min(candidates, key=sum) if candidates else None
            assert forwarded == best, sp
            if p is not None:
                assert sum(forwarded) <= sum(p)
        else:
            assert forwarded == (None if p is None else tuple(p))   # FT* relays it unchanged

    merges = variant.progressive_merging
    for src, origin, result in carrier.shipped:
        if origin == src and not merges and carrier.nodes[src].parent is not None:
            assert result.points.ids.tolist() == own[src].points.ids.tolist()


@given(
    backbones(),
    st.sampled_from(Variant.skypeer_variants()),
    st.integers(0, 2**31 - 1),
    st.integers(1, 3),
)
@settings(max_examples=100, deadline=None)
def test_no_list_passed_up_holds_what_its_sender_knows_dominated(backbone, variant, seed, k):
    """On the model carrier, over random backbones with ties and
    duplicates: every list a super-peer relays or ships holds no point
    that the ``p`` it received, or its own list's smallest-sum point,
    dominates on ``U``; the answer is the skyline; and the filter moves
    no message."""
    adjacency, _ = backbone
    rng = np.random.default_rng(seed)
    d = 3
    partitions, next_id = {}, 0
    for sp in adjacency:
        count = int(rng.integers(1, 9))
        values = rng.integers(0, 5, size=(count, d)).astype(float)
        partitions[sp] = PointSet(values, np.arange(next_id, next_id + count))
        next_id += count
    topology = Topology(
        adjacency={sp: tuple(nbs) for sp, nbs in adjacency.items()},
        peers_of={sp: (sp,) for sp in adjacency},
    )
    network = SuperPeerNetwork.from_partitions(topology, partitions)
    subspace = tuple(sorted(rng.choice(d, size=k, replace=False).tolist()))
    query = Query(subspace=subspace, initiator=int(rng.integers(0, len(adjacency))))

    received: dict[int, QueryBound] = {}
    passed_up: list[tuple[int, SortedByF]] = []
    send_query, send_result = _ModelClocks.send_query, _ModelClocks.send_result

    def spy_query(self, src, dst, bound, at):
        received[dst] = bound
        send_query(self, src, dst, bound, at)

    def spy_result(self, src, dst, origin, result, final, at):
        passed_up.append((src, result))
        send_result(self, src, dst, origin, result, final, at)

    with patch.object(_ModelClocks, "send_query", spy_query), \
            patch.object(_ModelClocks, "send_result", spy_result):
        run = execute_query(network, query, variant)

    assert run.result_ids == brute_force_skyline_ids(network.all_points(), subspace)
    for src, result in passed_up:
        own = [on(subspace, row) for _, row in run.traces[src].result.points]
        known = [tuple(received[src].point)] if src in received else []
        if own:
            known.append(min(own, key=sum))   # the first on a tie
        for _, row in result.points:
            assert not any(dominates(point, on(subspace, row)) for point in known), src

    with patch.object(SkylineKernels, "drop", lambda self, result, known: result):
        unfiltered = execute_query(network, query, variant)
    assert run.message_count == unfiltered.message_count
    assert run.result.points.ids.tolist() == unfiltered.result.points.ids.tolist()
    assert run.point_hops <= unfiltered.point_hops
