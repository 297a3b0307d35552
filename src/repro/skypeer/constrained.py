"""Distributed *constrained* subspace skylines (extension after [6]).

A constrained query restricts the skyline to an axis-aligned box.  Two
regimes, decided by the constraint itself:

* **store mode** — boxes with no lower bounds.  Every dominator of an
  in-box point is itself in the box, so the super-peer ext-skyline
  stores still contain every possible answer and the query runs exactly
  like a plain SKYPEER query over box-filtered stores.  Algorithm 1's
  own running threshold still prunes each local scan (Observation 5
  holds verbatim among in-box points); cross-peer threshold propagation
  is intentionally not layered on top here, and neither is the point a
  plain SKYPEER query carries beside its threshold: this query is the
  paper's scalar ``q(U, t)`` plus its box, charged ``query_bytes(k)``.
* **full-data mode** — boxes with a lower bound.  A globally dominated
  point may be the best *inside* the box (its dominators fall below the
  bound), and the ext-skyline pre-aggregate is insufficient.  The
  super-peers go back to their peers: each peer filters its raw data,
  computes the constrained local skyline, and uploads it; the
  super-peer merges the peer lists into its local result.  The peer
  uplink traffic is accounted like every other transfer.

Either way the distributed answer is exact against the centralized
constrained skyline — asserted property-based in the test-suite.
Result flow uses progressive merging (the evaluation's best variant).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.constrained import RangeConstraint
from ..core.local_skyline import local_subspace_skyline
from ..core.merging import merge_sorted_skylines
from ..core.store import SortedByF
from ..core.subspace import normalize_subspace
from ..p2p.network import SuperPeerNetwork
from .executor import Clock, _bfs_preorder

__all__ = ["ConstrainedQuery", "ConstrainedExecution", "execute_constrained_query"]


@dataclass(frozen=True)
class ConstrainedQuery:
    """A subspace skyline query restricted to a range box."""

    subspace: tuple[int, ...]
    initiator: int
    constraint: RangeConstraint

    @property
    def k(self) -> int:
        return len(self.subspace)


@dataclass
class ConstrainedExecution:
    """Outcome and cost of one constrained query."""

    query: ConstrainedQuery
    result: SortedByF
    computational_time: float
    total_time: float
    volume_bytes: int
    message_count: int
    used_full_data: bool
    peer_uploads: int  # points shipped peer -> super-peer at query time

    @property
    def result_ids(self) -> frozenset[int]:
        return self.result.points.id_set()

    @property
    def volume_kb(self) -> float:
        return self.volume_bytes / 1024.0


def execute_constrained_query(
    network: SuperPeerNetwork,
    query: ConstrainedQuery,
) -> ConstrainedExecution:
    """Answer a constrained subspace skyline query exactly."""
    subspace = normalize_subspace(query.subspace, network.dimensionality)
    if query.initiator not in network.superpeers:
        raise KeyError(f"unknown initiator super-peer {query.initiator}")
    topology = network.topology
    cost = network.cost_model
    full_data = query.constraint.requires_full_data

    parent, children = topology.bfs_tree(query.initiator)
    order = _bfs_preorder(query.initiator, children)
    k = len(subspace)
    query_bytes = cost.query_bytes(k) + 16 * len(query.constraint.bounds)
    query_delay = cost.transfer_seconds(query_bytes)
    volume = query_bytes * (len(order) - 1)
    messages = len(order) - 1
    peer_uploads = 0

    # ------------------------------------------------------------------
    # Local computation per super-peer (mode-dependent).
    # ------------------------------------------------------------------
    local: dict[int, SortedByF] = {}
    local_clock: dict[int, float] = {}
    slowest_upload: dict[int, float] = {}
    for sp in order:
        started = time.perf_counter()
        if full_data:
            lists = []
            upload_seconds = 0.0
            for peer_id in topology.peers_of[sp]:
                peer = network.peers[peer_id]
                inside = peer.data.mask(query.constraint.mask(peer.data.values))
                if not len(inside):
                    continue
                store = SortedByF.from_points(inside)
                answer = local_subspace_skyline(store, subspace)
                lists.append(answer.result)
                peer_uploads += len(answer.result)
                nbytes = cost.result_bytes(len(answer.result), k)
                volume += nbytes
                messages += 1
                upload_seconds = max(upload_seconds, cost.transfer_seconds(nbytes))
            merged = merge_sorted_skylines(lists, subspace)
            local[sp] = merged.result
            slowest_upload[sp] = upload_seconds
        else:
            store = network.store_of(sp)
            inside = store.points.mask(query.constraint.mask(store.points.values))
            filtered = SortedByF.from_points(inside)
            answer = local_subspace_skyline(filtered, subspace)
            local[sp] = answer.result
        local_clock[sp] = time.perf_counter() - started

    # ------------------------------------------------------------------
    # Scheduling: fixed-threshold-style propagation, progressive merge.
    # (Peer uplinks run in parallel per peer; their slowest transfer is
    # folded into the super-peer's local duration on the total clock.)
    # ------------------------------------------------------------------
    arrive: dict[int, Clock] = {query.initiator: Clock()}
    compute_end: dict[int, Clock] = {}
    for sp in order:
        duration = local_clock[sp]
        compute_end[sp] = arrive[sp].after_compute(duration)
        if full_data:
            # Peer uploads run in parallel on distinct links; the
            # super-peer waits for the slowest one.
            compute_end[sp] = compute_end[sp].after_transfer(slowest_upload.get(sp, 0.0))
        forward_from = compute_end[sp] if sp == query.initiator else arrive[sp]
        for child in children[sp]:
            arrive[child] = forward_from.after_transfer(query_delay)

    up_list: dict[int, SortedByF] = {}
    up_ready: dict[int, Clock] = {}
    for sp in reversed(order):
        kids = children[sp]
        if not kids:
            up_list[sp] = local[sp]
            up_ready[sp] = compute_end[sp]
            continue
        inbound = [compute_end[sp]]
        for child in kids:
            nbytes = cost.result_bytes(len(up_list[child]), k)
            volume += nbytes
            messages += 1
            inbound.append(up_ready[child].after_transfer(cost.transfer_seconds(nbytes)))
        merged = merge_sorted_skylines([local[sp]] + [up_list[c] for c in kids], subspace)
        up_list[sp] = merged.result
        up_ready[sp] = Clock.latest(inbound).after_compute(merged.duration)

    finish = up_ready[query.initiator]
    return ConstrainedExecution(
        query=query,
        result=up_list[query.initiator],
        computational_time=finish.comp,
        total_time=finish.total,
        volume_bytes=volume,
        message_count=messages,
        used_full_data=full_data,
        peer_uploads=peer_uploads,
    )
