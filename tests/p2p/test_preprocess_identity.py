"""Every ext-skyline the network holds equals what strict Algorithm 1 / 2
returned.

Pre-processing, joins, peer-failure rebuilds and super-peer failures
compute ext-skylines with the pivot-partitioned filter
(:mod:`repro.core.extended_skyline`).  The references here come from
``tests.conftest.ordered_ext_skyline``, plain loops that return what
Algorithm 1 (each peer's list) and Algorithm 2 (each store, over the
f-sorted union of its lists) computed under ext-domination, on the same
inputs in the same order.  Every list and store must equal them in ids,
values, ``f`` and order — on all four generators, serially and on the
process pool.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.core.store import SortedByF
from repro.p2p.churn import fail_peer, fail_superpeer, join_peer
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.workload import fresh_points
from repro.parallel import ParallelEngine

from tests.conftest import ordered_ext_skyline

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

DATASETS = ("uniform", "anticorrelated", "clustered", "correlated")

#: Peers big enough that every super-peer merge splits into pivot cells.
SHAPE = dict(n_peers=24, points_per_peer=200, dimensionality=6, n_superpeers=3, seed=11)


def reference_list(network: SuperPeerNetwork, peer_id: int):
    return ordered_ext_skyline(SortedByF.from_points(network.peers[peer_id].data)).result


def reference_merge(network: SuperPeerNetwork, lists):
    """Algorithm 2's input order: the lists concatenated, stably f-sorted."""
    union = PointSet(
        np.concatenate([lst.points.values for lst in lists]),
        np.concatenate([lst.points.ids for lst in lists]),
    )
    return ordered_ext_skyline(SortedByF.from_points(union)).result


def assert_same(got: SortedByF, expected) -> None:
    assert got.points.ids.tolist() == expected.points.ids.tolist()
    assert np.array_equal(got.points.values, expected.points.values)
    assert np.array_equal(got.f, expected.f)


def assert_lists_match(network: SuperPeerNetwork) -> None:
    for superpeer in network.superpeers.values():
        for peer_id, uploaded in superpeer.peer_skylines.items():
            assert_same(uploaded, reference_list(network, peer_id))


@pytest.fixture(scope="module")
def engine():
    with ParallelEngine(workers=2) as pool:
        yield pool


@pytest.mark.parametrize("backend", ["serial", "engine"])
@pytest.mark.parametrize("dataset", DATASETS)
def test_preprocessing_and_churn_match_algorithms_1_and_2(dataset, backend, request):
    engine = request.getfixturevalue("engine") if backend == "engine" else None
    network = SuperPeerNetwork.build(dataset=dataset, engine=engine, **SHAPE)
    assert_lists_match(network)
    stores = {}
    for sp, superpeer in network.superpeers.items():
        lists = [reference_list(network, p) for p in network.topology.peers_of[sp]]
        stores[sp] = reference_merge(network, lists)
        assert_same(superpeer.store, stores[sp])
        assert sum(len(lst.points.ids) for lst in lists) > 256  # the merge took the split path

    # A join merges the new list into the current store.
    sp = network.topology.superpeer_ids[0]
    joined = join_peer(network, sp, fresh_points(network, 150, dataset=dataset, seed=3))
    assert joined.examined == len(stores[sp].points.ids) + joined.peer_skyline_delta
    stores[sp] = reference_merge(
        network, [stores[sp], reference_list(network, joined.peer_id)]
    )
    assert_same(network.superpeers[sp].store, stores[sp])

    # A peer failure with no ledger to ask re-merges the surviving lists.
    victim = network.topology.peers_of[sp][0]
    with mock.patch("repro.p2p.node.build_witness_ledger", return_value=None):
        failed = fail_peer(network, victim)
    assert failed.path == "rebuilt"
    superpeer = network.superpeers[sp]
    stores[sp] = reference_merge(
        network, [reference_list(network, p) for p in superpeer.peer_skylines]
    )
    assert_same(superpeer.store, stores[sp])

    # A super-peer failure: every adopter merges each orphan's list in turn.
    victim_sp = network.topology.superpeer_ids[-1]
    failure = fail_superpeer(network, victim_sp)
    for peer_id in failure.orphaned_peers:
        adopter = failure.adopters[peer_id]
        stores[adopter] = reference_merge(
            network, [stores[adopter], reference_list(network, peer_id)]
        )
    for sp, superpeer in network.superpeers.items():
        assert_same(superpeer.store, stores[sp])
    assert_lists_match(network)


def test_preprocessing_imports_nothing_new():
    """Every module a pool worker loads costs its resident memory
    (``np.median`` pulls in ``numpy.ma``, ≈ 2–3 MB): computing a
    super-peer's ext-skylines imports nothing that building the network
    did not already import.  A fresh interpreter, so nothing is cached."""
    source = (
        "import sys\n"
        "from repro.p2p.network import SuperPeerNetwork\n"
        "network = SuperPeerNetwork.build(preprocess=False, dataset='anticorrelated',"
        " n_peers=12, points_per_peer=300, dimensionality=6, n_superpeers=2, seed=4)\n"
        "before = set(sys.modules)\n"
        "for sp in network.superpeers:\n"
        "    computed = network.compute_superpeer_preprocess(sp)\n"
        "    assert computed.merge.input_size > 256\n"
        "    assert any(scan.input_size > 256 for _, _, scan in computed.peer_results)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", source], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
