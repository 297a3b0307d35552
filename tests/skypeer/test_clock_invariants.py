"""Hypothesis invariants for the executor's two-clock timing model.

Three families of guarantees:

* algebraic — a computation keeps ``comp <= total`` and never moves
  any component backwards (given non-negative durations), and the
  carrier's join is the element-wise max;
* schedule — in a traced execution every recorded hop/span is
  non-decreasing on both clocks and the per-track schedule is properly
  nested or disjoint;
* determinism — ``Clock.work`` (and the comparison counters feeding it)
  is identical across repeated runs of the same seeded query, so
  figures built on it cannot flake on scheduler noise.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.workload import Query
from repro.obs import observed
from repro.p2p.network import SuperPeerNetwork
from repro.skypeer.executor import Clock, _ModelClocks, execute_query
from repro.skypeer.variants import Variant

finite = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def clocks(draw):
    comp = draw(finite)
    extra = draw(finite)
    work = draw(finite)
    return Clock(comp=comp, total=comp + extra, work=work)


@given(clocks(), finite, finite)
def test_after_compute_advances_both_clocks(clock, seconds, work):
    advanced = clock.after_compute(seconds, work=work)
    assert advanced.comp >= clock.comp
    assert advanced.total >= clock.total
    assert advanced.work >= clock.work
    assert advanced.comp <= advanced.total


@given(st.lists(clocks(), min_size=1, max_size=6))
def test_latest_is_elementwise_max(branch_clocks):
    joined = reduce(_ModelClocks.join, branch_clocks)
    assert joined.comp == max(c.comp for c in branch_clocks)
    assert joined.total == max(c.total for c in branch_clocks)
    assert joined.work == max(c.work for c in branch_clocks)
    assert joined.comp <= joined.total
    # Joining is idempotent and order-insensitive.
    assert _ModelClocks.join(joined, joined) == joined
    assert reduce(_ModelClocks.join, reversed(branch_clocks)) == joined


@st.composite
def seeded_queries(draw):
    seed = draw(st.integers(0, 2**16))
    d = draw(st.integers(2, 4))
    n_peers = draw(st.integers(4, 12))
    k = draw(st.integers(1, d))
    dims = draw(st.lists(st.integers(0, d - 1), min_size=k, max_size=k, unique=True))
    variant = draw(st.sampled_from(list(Variant)))
    return seed, d, n_peers, tuple(sorted(dims)), variant


def _build(seed: int, d: int, n_peers: int) -> SuperPeerNetwork:
    return SuperPeerNetwork.build(
        n_peers=n_peers, points_per_peer=8, dimensionality=d, seed=seed
    )


@given(seeded_queries())
@settings(max_examples=20, deadline=None)
def test_every_reported_hop_is_non_decreasing(case):
    seed, d, n_peers, subspace, variant = case
    network = _build(seed, d, n_peers)
    query = Query(subspace=subspace, initiator=network.topology.superpeer_ids[0])
    with observed() as (tracer, _):
        execution = execute_query(network, query, variant)
    assert 0.0 <= execution.computational_time <= execution.total_time + 1e-12
    assert execution.critical_path_examined >= 0
    for span in tracer.spans:
        comp = span.interval("comp")
        total = span.interval("total")
        if comp is None or total is None:
            continue
        assert comp[1] >= comp[0], span
        assert total[1] >= total[0], span
        # A point in model time never has comp ahead of total.
        assert comp[0] <= total[0] + 1e-12, span
        assert comp[1] <= total[1] + 1e-12, span
    assert tracer.validate() == []


@given(seeded_queries())
@settings(max_examples=12, deadline=None)
def test_work_is_deterministic_across_repeated_runs(case):
    seed, d, n_peers, subspace, variant = case
    network = _build(seed, d, n_peers)
    query = Query(subspace=subspace, initiator=network.topology.superpeer_ids[0])
    first = execute_query(network, query, variant)
    second = execute_query(network, query, variant)
    rebuilt = execute_query(_build(seed, d, n_peers), query, variant)
    for other in (second, rebuilt):
        assert other.critical_path_examined == first.critical_path_examined
        assert other.comparisons == first.comparisons
        assert other.volume_bytes == first.volume_bytes
        assert other.message_count == first.message_count
        assert other.result_ids == first.result_ids
        assert np.array_equal(other.result.points.values, first.result.points.values)
