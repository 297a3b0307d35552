"""Property-based serial-vs-parallel differential.

Randomized networks, workloads and variant mixes; every example runs
the workload serially and through a 2-worker pool and demands
byte-identical result sets plus equal work, message, volume and merged
counter accounting.  Wall-clock fields are exempt by design.

Examples are few and tiny: each one pays for a process-pool spin-up,
and the deterministic differential in ``test_differential.py`` already
covers the common shapes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dataset import PointSet
from repro.data.workload import Query
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import install, uninstall
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.topology import Topology
from repro.parallel import get_engine
from repro.skypeer.executor import execute_query
from repro.skypeer.variants import Variant
from tests.parallel.pooled import pooled_runs


@st.composite
def differential_cases(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    d = draw(st.integers(2, 4))
    n_superpeers = draw(st.integers(1, 3))
    peers_per_sp = draw(st.integers(1, 3))
    points_per_peer = draw(st.integers(1, 8))
    topo = Topology.generate(
        n_peers=n_superpeers * peers_per_sp,
        n_superpeers=n_superpeers,
        degree=3.0,
        seed=seed,
    )
    partitions = {}
    next_id = 0
    for peers in topo.peers_of.values():
        for pid in peers:
            partitions[pid] = PointSet(
                rng.random((points_per_peer, d)),
                np.arange(next_id, next_id + points_per_peer),
            )
            next_id += points_per_peer
    net = SuperPeerNetwork.from_partitions(topo, partitions)
    queries = []
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(1, d))
        dims = draw(st.lists(st.integers(0, d - 1), min_size=k, max_size=k, unique=True))
        initiator = draw(st.sampled_from(sorted(topo.superpeer_ids)))
        queries.append(Query(subspace=tuple(sorted(dims)), initiator=initiator))
    variants = draw(
        st.lists(st.sampled_from(list(Variant)), min_size=1, max_size=2, unique=True)
    )
    return net, queries, variants


@given(differential_cases())
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_parallel_run_is_indistinguishable_from_serial(case):
    net, queries, variants = case

    serial_reg = MetricsRegistry()
    install(None, serial_reg)
    try:
        serial = {v: [execute_query(net, q, v) for q in queries] for v in variants}
    finally:
        uninstall()

    parallel_reg = MetricsRegistry()
    install(None, parallel_reg)
    try:
        parallel = pooled_runs(get_engine(2), net, queries, variants)
    finally:
        uninstall()

    for variant in variants:
        for s, p in zip(serial[variant], parallel[variant]):
            assert s.result_ids == p.result_ids
            assert np.array_equal(s.result.points.values, p.result.points.values)
            assert s.comparisons == p.comparisons
            assert s.message_count == p.message_count
            assert s.volume_bytes == p.volume_bytes
            assert s.critical_path_examined == p.critical_path_examined

    for name in {n for n, _, _ in serial_reg.counters()}:
        assert parallel_reg.total(name) == serial_reg.total(name), name
