"""Distributed *constrained* subspace skylines (extension after [6]).

A constrained query restricts the skyline to an axis-aligned box.  It is
Algorithm 3 on the same driver as every other query, as FTPM; only the
super-peer's ``local_compute`` knows the box, and the box decides how:

* **store mode** — no lower bound.  Every dominator of an in-box point
  is itself in the box, so Algorithm 1 runs over the super-peer's
  ext-skyline store masked to the box.
* **full-data mode** — a lower bound.  A globally dominated point may be
  the best *inside* the box (its dominators fall below the bound), so the
  stores do not suffice: each peer runs Algorithm 1 over its in-box raw
  data and uploads the result, and the super-peer merges the uploads
  with Algorithm 2.

The query carries ``(t, p)`` like any SKYPEER query, and the peers scan
with ``t`` too.  Both always come from in-box points, so whatever they
prune is dominated inside the box: the answer is the centralized
constrained skyline (``docs/ALGORITHMS.md``).  The box (16 bytes a
bound) on every query message and the peer uploads are charged in bytes
and messages after the run, not on the clocks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.constrained import RangeConstraint
from ..core.local_skyline import SkylineComputation, local_subspace_skyline
from ..core.merging import merge_sorted_skylines
from ..core.store import SortedByF
from ..core.subspace import Subspace, normalize_subspace
from ..data.workload import Query
from ..p2p.cost import coord_width, id_width
from ..p2p.network import SuperPeerNetwork
from .executor import QueryExecution, run_on_model_clocks
from .variants import Variant

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
class ConstrainedExecution(QueryExecution):
    """A query execution whose ``query`` is the :class:`ConstrainedQuery`."""

    used_full_data: bool = False
    peer_uploads: int = 0  # points shipped peer -> super-peer at query time


def execute_constrained_query(
    network: SuperPeerNetwork,
    query: ConstrainedQuery,
) -> ConstrainedExecution:
    """Answer a constrained subspace skyline query exactly."""
    d = network.dimensionality
    subspace = normalize_subspace(query.subspace, d)
    box = query.constraint
    beyond = [dim for dim, _low, _high in box.bounds if dim >= d]
    if beyond:
        raise ValueError(f"constraint on dimension(s) {beyond} of {d}-dimensional data")
    uploads: list[SortedByF] = []  # every non-empty peer upload

    def store_scan(sp: int, sub: Subspace, t: float) -> SkylineComputation:
        store = network.store_of(sp)
        keep = box.mask(store.points.values)
        # A mask keeps f order: no re-sort.
        inside = SortedByF(store.points.mask(keep), store.f[keep])
        return local_subspace_skyline(inside, sub, initial_threshold=t)

    def full_data_scan(sp: int, sub: Subspace, t: float) -> SkylineComputation:
        runs = []
        for peer_id in network.topology.peers_of[sp]:
            data = network.peers[peer_id].data
            inside = data.mask(box.mask(data.values))
            if len(inside):
                runs.append(local_subspace_skyline(
                    SortedByF.from_points(inside), sub, initial_threshold=t
                ))
        lists = [run.result for run in runs if len(run.result)]
        uploads.extend(lists)
        runs.append(merge_sorted_skylines(lists or [SortedByF.empty(d)], sub, initial_threshold=t))
        # One computation: the merge's answer and threshold, everybody's work.
        return replace(runs[-1], **{
            name: sum(getattr(run, name) for run in runs)
            for name in ("examined", "comparisons", "duration", "input_size")
        })

    full_data = box.requires_full_data
    run = run_on_model_clocks(
        network, Query(subspace, query.initiator), Variant.FTPM,
        local_compute=full_data_scan if full_data else store_scan,
    )
    extra_bytes = 16 * len(box.bounds) * run.query_messages + sum(
        network.cost_model.result_bytes(
            len(lst), len(subspace), id_width(lst.points.ids),
            *coord_width(lst.points.values[:, list(subspace)]),
        )
        for lst in uploads
    )
    fields = vars(run.execution) | {
        "query": query,
        "volume_bytes": run.execution.volume_bytes + extra_bytes,
        "message_count": run.execution.message_count + len(uploads),
    }
    return ConstrainedExecution(
        **fields, used_full_data=full_data, peer_uploads=sum(map(len, uploads))
    )
