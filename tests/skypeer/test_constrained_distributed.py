"""Tests for distributed constrained subspace skylines."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constrained import RangeConstraint, constrained_subspace_skyline
from repro.core.local_skyline import local_subspace_skyline
from repro.core.store import SortedByF
from repro.data.workload import Query
from repro.p2p.network import SuperPeerNetwork
from repro.skypeer.constrained import (
    ConstrainedQuery,
    execute_constrained_query,
)
from repro.skypeer.executor import execute_query
from repro.skypeer.inspection import execution_report
from repro.skypeer.variants import Variant


def _oracle_ids(network, subspace, constraint):
    return constrained_subspace_skyline(
        network.all_points(), subspace, constraint
    ).id_set()


class TestStoreMode:
    """Upper-bound-only boxes: answerable from the ext-skyline stores."""

    def test_exact(self, small_network):
        constraint = RangeConstraint.from_dict({0: (0.0, 0.6), 2: (0.0, 0.8)})
        query = ConstrainedQuery(
            subspace=(0, 2, 3),
            initiator=small_network.topology.superpeer_ids[0],
            constraint=constraint,
        )
        got = execute_constrained_query(small_network, query)
        assert not got.used_full_data
        assert got.peer_uploads == 0
        assert got.result_ids == _oracle_ids(small_network, (0, 2, 3), constraint)

    def test_unconstrained_equals_plain_skyline(self, small_network):
        """An empty box is the plain FTPM query, byte for byte."""
        constraint = RangeConstraint.from_dict({})
        for initiator in small_network.topology.superpeer_ids[:3]:
            got = execute_constrained_query(
                small_network, ConstrainedQuery((1, 3), initiator, constraint)
            )
            plain = execute_query(small_network, Query((1, 3), initiator), Variant.FTPM)
            assert got.result.points.ids.tolist() == plain.result.points.ids.tolist()
            assert got.message_count == plain.message_count
            assert got.volume_bytes == plain.volume_bytes
            assert got.comparisons == plain.comparisons
            assert got.point_hops == plain.point_hops
            assert got.result_ids == _oracle_ids(small_network, (1, 3), constraint)

    def test_box_excluding_everything(self, small_network):
        constraint = RangeConstraint.from_dict({0: (0.0, -1.0 + 1.0)})  # [0, 0]
        query = ConstrainedQuery(
            subspace=(0, 1),
            initiator=small_network.topology.superpeer_ids[0],
            constraint=constraint,
        )
        got = execute_constrained_query(small_network, query)
        assert got.result_ids == _oracle_ids(small_network, (0, 1), constraint)
        assert len(got.result) == 0
        assert got.result.dimensionality == small_network.dimensionality


class TestFullDataMode:
    """Boxes with lower bounds force the peer-level fallback."""

    def test_exact(self, small_network):
        constraint = RangeConstraint.from_dict({0: (0.4, 0.9)})
        query = ConstrainedQuery(
            subspace=(0, 1, 4),
            initiator=small_network.topology.superpeer_ids[0],
            constraint=constraint,
        )
        got = execute_constrained_query(small_network, query)
        assert got.used_full_data
        assert got.peer_uploads > 0
        assert got.result_ids == _oracle_ids(small_network, (0, 1, 4), constraint)

    def test_store_would_be_wrong(self, small_network):
        """The reason the fallback exists: answering a lower-bounded box
        from the ext-skyline stores misses points whose dominators fall
        below the bound.  Verify the discrepancy actually occurs."""
        constraint = RangeConstraint.from_dict({0: (0.5, 1.0)})
        subspace = (0, 1)
        truth = _oracle_ids(small_network, subspace, constraint)
        from repro.core.dataset import PointSet
        from repro.core.dominance import skyline_mask

        stores = PointSet.concat(
            [network_store.points for network_store in
             (small_network.store_of(sp) for sp in small_network.topology.superpeer_ids)]
        )
        inside = stores.mask(constraint.mask(stores.values))
        from_store = inside.mask(skyline_mask(inside.values, subspace)).id_set()
        assert from_store != truth  # stores alone are insufficient
        got = execute_constrained_query(
            small_network,
            ConstrainedQuery(subspace=subspace,
                             initiator=small_network.topology.superpeer_ids[0],
                             constraint=constraint),
        )
        assert got.result_ids == truth

    def test_costs_reported(self, small_network):
        constraint = RangeConstraint.from_dict({1: (0.3, 1.0)})
        query = ConstrainedQuery(
            subspace=(1, 2),
            initiator=small_network.topology.superpeer_ids[0],
            constraint=constraint,
        )
        got = execute_constrained_query(small_network, query)
        n_sp = len(small_network.topology.superpeer_ids)
        uploads = _peer_uploads(small_network, query, got.initial_threshold)
        assert got.peer_uploads == sum(uploads) > 0
        assert got.message_count == 2 * (n_sp - 1) + len(uploads)
        assert got.total_time >= got.computational_time

    def test_reports_like_any_query(self, small_network):
        query = ConstrainedQuery(
            subspace=(0, 3), initiator=small_network.topology.superpeer_ids[0],
            constraint=RangeConstraint.from_dict({3: (0.2, 0.9)}),
        )
        got = execute_constrained_query(small_network, query)
        report = execution_report(got)
        assert report["messages"] == got.message_count
        assert report["query"]["subspace"] == [0, 3]
        assert set(got.traces) == set(small_network.topology.superpeer_ids)
        assert got.comparisons >= sum(trace.comparisons for trace in got.traces.values())
        assert got.critical_path_examined > 0


def _peer_uploads(network, query, initiator_threshold):
    """Sizes of the non-empty peer uploads, recomputed: under FTPM the
    initiator scans with no threshold and every other super-peer with
    the initiator's."""
    sizes = []
    for sp in network.topology.superpeer_ids:
        threshold = math.inf if sp == query.initiator else initiator_threshold
        for peer_id in network.topology.peers_of[sp]:
            data = network.peers[peer_id].data
            inside = data.mask(query.constraint.mask(data.values))
            if len(inside):
                scan = local_subspace_skyline(
                    SortedByF.from_points(inside), query.subspace,
                    initial_threshold=threshold,
                )
                sizes += [len(scan.result)] if len(scan.result) else []
    return sizes


class TestValidation:
    def test_unknown_initiator(self, small_network):
        query = ConstrainedQuery(
            subspace=(0, 1), initiator=10**9,
            constraint=RangeConstraint.from_dict({}),
        )
        with pytest.raises(KeyError):
            execute_constrained_query(small_network, query)

    def test_dimension_beyond_the_data(self, small_network):
        d = small_network.dimensionality
        query = ConstrainedQuery(
            subspace=(0, 1), initiator=small_network.topology.superpeer_ids[0],
            constraint=RangeConstraint.from_dict({d: (0.0, 0.5)}),
        )
        with pytest.raises(ValueError, match="dimension"):
            execute_constrained_query(small_network, query)


@st.composite
def constrained_cases(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    d = draw(st.integers(2, 4))
    # A box over 1..d dimensions whose lows are often exactly 0 (no lower
    # bound), so boxes come in store and in full-data mode.
    box_dims = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True))
    bounds = {}
    for dim in box_dims:
        low = draw(st.one_of(st.just(0.0), st.floats(0, 0.7, allow_nan=False)))
        high = draw(st.floats(0.3, 1.0, allow_nan=False))
        bounds[dim] = (min(low, high), max(low, high))
    # The subspace may share no dimension with the box.
    k = draw(st.integers(1, d))
    dims = tuple(sorted(draw(
        st.lists(st.integers(0, d - 1), min_size=k, max_size=k, unique=True)
    )))
    return seed, d, bounds, dims


@given(constrained_cases())
@settings(max_examples=25, deadline=None)
def test_constrained_queries_always_exact(case):
    seed, d, bounds, dims = case
    network = SuperPeerNetwork.build(
        n_peers=12, points_per_peer=15, dimensionality=d,
        n_superpeers=3, seed=seed,
    )
    constraint = RangeConstraint.from_dict(bounds)
    query = ConstrainedQuery(
        subspace=dims,
        initiator=network.topology.superpeer_ids[seed % 3],
        constraint=constraint,
    )
    got = execute_constrained_query(network, query)
    assert got.result_ids == _oracle_ids(network, dims, constraint)
