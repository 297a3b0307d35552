"""Figure 4(d): computational time vs. super-peer degree.

Shape: computational time is essentially flat in DEG_sp — the degree
changes routing, not the skyline work.
"""

import numpy as np
import pytest

from repro.data.workload import generate_workload
from repro.p2p.network import SuperPeerNetwork
from repro.skypeer.executor import execute_query
from repro.skypeer.variants import Variant

DEGREES = (4, 7)


def _network(degree):
    return SuperPeerNetwork.build(
        n_peers=400, points_per_peer=50, dimensionality=8, degree=float(degree), seed=3
    )


def _comp_times(networks, n_queries=16, repetitions=5):
    """Per degree, the mean over ``n_queries`` queries of each query's
    median wall-clock ``computational_time`` over ``repetitions`` runs.

    A query takes a few ms, so one run reads host noise as much as
    work: the median drops the slow outliers, and the repetitions
    alternate between the networks so that a slow spell of the host
    lands on both degrees alike.
    """
    workloads = {
        deg: generate_workload(
            n_queries, 8, 3, net.topology.superpeer_ids, np.random.default_rng(23)
        )
        for deg, net in networks.items()
    }
    samples = {deg: [[] for _ in range(n_queries)] for deg in networks}
    for _ in range(repetitions):
        for deg, net in networks.items():
            for times, query in zip(samples[deg], workloads[deg]):
                times.append(execute_query(net, query, Variant.FTPM).computational_time)
    return {deg: np.mean([np.median(times) for times in samples[deg]]) for deg in networks}


@pytest.mark.parametrize("degree", DEGREES)
def test_degree_benchmark(benchmark, degree):
    network = _network(degree)
    rng = np.random.default_rng(23)
    query = generate_workload(1, 8, 3, network.topology.superpeer_ids, rng)[0]
    benchmark(execute_query, network, query, Variant.FTPM)


def test_comp_time_flat_in_degree():
    comp = _comp_times({deg: _network(deg) for deg in DEGREES})
    ratio = comp[7] / comp[4]
    assert 0.5 < ratio < 2.0, comp  # flat up to wall-clock jitter
