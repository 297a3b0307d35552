"""Algorithm 3 — the one super-peer state machine, and the kernels it runs.

:class:`ProtocolNode` is the only place in the package that knows how a
threshold propagates, who merges, and when a subtree is complete.  It is
**sans-IO, sans-wire and sans-clock**: it is handed its neighbour set
(BFS-tree edges for the paper's figures, the full adjacency when the
query floods), a *kernels* object that does the computing and a
*carrier* that moves messages and time:

``kernels.scan(sp, bound)`` / ``kernels.merge(lists)``
    return a :class:`~repro.core.local_skyline.SkylineComputation` —
    Algorithm 1 / Algorithm 2 for the four SKYPEER variants
    (:class:`SkylineKernels`), BNL / BNL for the naive baseline
    (:class:`NaiveKernels`), on full-space stores in process or on the
    queried coordinates alone where the lists crossed a wire.

``kernels.known(point, result)`` / ``kernels.drop(result, known)``
    the points a node knows once it has scanned — the ``p`` it received
    and its own list's smallest-sum point — and a list less what they
    dominate on the subspace; how a bound's ``p`` is chosen and refined,
    and what every list a SKYPEER node passes up is filtered by.

``carrier.send_query(src, dst, bound, at)``, ``carrier.send_result(src, dst, origin, result, final, at)``, ``carrier.decline(src, dst, at)``
    put a message on the ``src -> dst`` link, which must be FIFO.

``carrier.compute(sp, phase, at, computation, then)``
    accounts one scan or merge and calls ``then(stamp)`` when it is over.

``carrier.join(a, b)``
    the stamp at which two awaited things have both happened.

``carrier.finish(result, at)``
    hands the initiator's answer out.

The stamps ``at`` are opaque to the node.  Three carriers exist: the
model clocks of :mod:`repro.skypeer.executor` (``execute_query`` on the
BFS tree and :func:`run_protocol`, below, on the flooded backbone) and
the sockets of :mod:`repro.skypeer.netexec` (on the BFS tree too), whose
stamps are ``None``.

A query's bound is a :class:`QueryBound` ``(t, p)``: the paper's
threshold ``t``, and ``p``, the point with the smallest coordinate sum
on ``U`` in the sender's answer so far, which every receiving super-peer
drops the points it dominates for (``q(U, t, p)`` where the paper sends
``q(U, t)``).  Once it has scanned, a node also drops what its *known
points* — that ``p`` and its own list's smallest-sum point — dominate
from every list it relays and from the merge it ships to its parent
(``docs/ALGORITHMS.md`` has why the answer stays exact).  Five
behaviours are settled here, once, for every carrier (the paper
sentence each follows is in ``docs/ALGORITHMS.md``): the naive initiator
forwards the query before it scans; a relaying super-peer ships its own
list the moment its scan ends and relays every list it receives, empty
ones included; a merge point always merges; a subtree reports completion
with a ``final`` mark on the last message it puts on a link; and merge
inputs are taken in one canonical order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from ..algorithms.bnl import block_nested_loops
from ..core.dataset import PointSet
from ..core.dominance import dominated_mask
from ..core.local_skyline import SkylineComputation
from ..core.mapping import f_values
from ..core.merging import merge_sorted_skylines
from ..core.store import SortedByF
from ..core.subspace import Subspace
from ..data.workload import Query
from ..obs.runtime import active_metrics
from ..p2p.network import SuperPeerNetwork
from .variants import Variant

__all__ = [
    "NaiveKernels",
    "ProtocolNode",
    "ProtocolOutcome",
    "QueryBound",
    "SkylineKernels",
    "make_kernels",
    "run_protocol",
]


class QueryBound(NamedTuple):
    """What a query carries besides ``U``: the bound ``(t, p)``.

    ``threshold`` is the paper's ``t``; ``point`` is ``p`` on the queried
    coordinates, or ``None`` before anybody has scanned and throughout
    the naive baseline.
    """

    threshold: float
    point: np.ndarray | None = None

    @property
    def points(self) -> int:
        """How many points the bound carries (what a query is charged for)."""
        return 0 if self.point is None else 1


# ----------------------------------------------------------------------
# kernels: what a super-peer computes
# ----------------------------------------------------------------------
def _queried(result: SortedByF, subspace: Subspace) -> SortedByF:
    """``result`` on the queried coordinates only — all a wire message
    carries.  Order and ``f`` stay the scan's; a merge keys its input
    itself."""
    points = PointSet(result.points.values[:, list(subspace)], result.points.ids)
    return SortedByF(points, result.f)


def _masked(result: SortedByF, keep: np.ndarray) -> SortedByF:
    """``result``'s points where ``keep`` holds, in their order."""
    return SortedByF(result.points.mask(keep), result.f[keep])


class SkylineKernels:
    """Algorithm 1 scans, Algorithm 2 merges.

    A scan is the network's (:meth:`~repro.p2p.network.SuperPeerNetwork.
    scan`, Algorithm 1 through its scan memo), less what the bound's
    point dominates on the subspace.  ``on_wire`` keeps every list on the
    queried coordinates, which is how lists arrive once they have
    crossed a socket.
    """

    def __init__(self, network: SuperPeerNetwork, subspace: Subspace, on_wire: bool = False):
        self._network = network
        self._subspace = subspace
        self._on_wire = on_wire
        self._cols = list(range(len(subspace)) if on_wire else subspace)

    def scan(self, sp: int, bound: QueryBound) -> SkylineComputation:
        computation = self._network.scan(sp, self._subspace, bound.threshold)
        if self._on_wire:
            computation = replace(computation, result=_queried(computation.result, self._subspace))
        if bound.point is None:
            return computation
        keep = self._undominated(computation.result, bound.point[None])
        if keep is None:
            return computation
        positions = computation.positions
        return replace(
            computation,
            result=_masked(computation.result, keep),
            positions=None if positions is None else positions[keep],
        )

    def known(self, point: np.ndarray | None, result: SortedByF) -> np.ndarray:
        """The points a super-peer that received ``point`` and scanned
        ``result`` knows, one row each on the subspace: ``point`` (when
        there is one), then ``result``'s smallest-sum point (when it is
        not empty; the first in list order on a tie)."""
        own = result.points.values[:, self._cols]
        rows = [] if point is None else [point]
        if len(own):
            rows.append(own[int(np.argmin(own.sum(axis=1)))])
        return np.array(rows, dtype=np.float64).reshape(len(rows), len(self._cols))

    @staticmethod
    def best(known: np.ndarray) -> np.ndarray | None:
        """The smallest-sum row of ``known``, the first on a tie — so an
        RT* relay's forwarded ``p`` is never larger in sum than the one it
        received."""
        return known[int(np.argmin(known.sum(axis=1)))].copy() if len(known) else None

    def drop(self, result: SortedByF, known: np.ndarray) -> SortedByF:
        """``result`` less the points a row of ``known`` dominates."""
        keep = self._undominated(result, known)
        return result if keep is None else _masked(result, keep)

    def _undominated(self, result: SortedByF, points: np.ndarray) -> np.ndarray | None:
        """Which of ``result``'s points no row of ``points`` dominates on
        the subspace, or ``None`` when that is all of them."""
        values = result.points.values[:, self._cols]
        keep = np.ones(len(values), dtype=bool)
        for point in points:
            keep &= ~dominated_mask(values, point)
        return None if keep.all() else keep

    def merge(self, lists: Sequence[SortedByF]) -> SkylineComputation:
        return merge_sorted_skylines(lists, self._cols)


class NaiveKernels:
    """The baseline of section 3.2: BNL local skylines, a BNL merge.

    No threshold and no point, no early termination — a scan reads its
    whole store and a merge its whole input.  A merge sorts its survivors on the key
    Algorithm 2 merges on (the minimum over the queried coordinates), so
    the answer comes out ordered as every other variant's.
    """

    def __init__(
        self,
        store_of: Callable[[int], SortedByF],
        subspace: Subspace,
        dimensionality: int,
        on_wire: bool = False,
    ):
        self._store_of = store_of
        self._subspace = subspace
        self._on_wire = on_wire
        self._merge_cols = list(range(len(subspace)) if on_wire else subspace)
        self._dimensionality = len(subspace) if on_wire else dimensionality

    def _bnl(self, points: PointSet, cols: Sequence[int]) -> tuple[PointSet, int, float]:
        stats = {"comparisons": 0}
        started = time.perf_counter()
        survivors = block_nested_loops(points, cols, stats=stats)
        return survivors, stats["comparisons"], time.perf_counter() - started

    def known(self, point: np.ndarray | None, result: SortedByF) -> None:
        """The baseline knows no point: nothing it passes up is filtered."""
        return None

    def scan(self, sp: int, bound: QueryBound) -> SkylineComputation:
        store = self._store_of(sp)
        points, comparisons, duration = self._bnl(store.points, self._subspace)
        result = SortedByF(points, f_values(points.values))
        return SkylineComputation(
            result=_queried(result, self._subspace) if self._on_wire else result,
            threshold=math.inf, examined=len(store), comparisons=comparisons,
            duration=duration, input_size=len(store),
        )

    def merge(self, lists: Sequence[SortedByF]) -> SkylineComputation:
        lists = [lst for lst in lists if len(lst)]
        if not lists:
            return SkylineComputation(
                result=SortedByF.empty(self._dimensionality), threshold=math.inf,
                examined=0, comparisons=0, duration=0.0,
            )
        stacked = PointSet.concat([lst.points for lst in lists])
        points, comparisons, duration = self._bnl(stacked, self._merge_cols)
        keys = points.values[:, self._merge_cols].min(axis=1)
        order = np.argsort(keys, kind="stable")
        return SkylineComputation(
            result=SortedByF(points.take(order), keys[order]), threshold=math.inf,
            examined=len(stacked), comparisons=comparisons, duration=duration,
            input_size=len(stacked),
        )


def make_kernels(
    variant: Variant, subspace: Subspace, network: SuperPeerNetwork, *, on_wire: bool = False
) -> SkylineKernels | NaiveKernels:
    """The kernels ``variant`` runs over ``network``'s stores."""
    if variant is Variant.NAIVE:
        return NaiveKernels(
            network.store_of, subspace, network.dimensionality, on_wire=on_wire
        )
    return SkylineKernels(network, subspace, on_wire=on_wire)


# ----------------------------------------------------------------------
# the node: Algorithm 3 at one super-peer
# ----------------------------------------------------------------------
class ProtocolNode:
    """Algorithm 3 for **one** super-peer, for one query.

    ``rank`` orders the origins of the lists a merge takes (after the
    node's own, which always comes first): any key every carrier agrees
    on gives every carrier the same bytes.  It defaults to the origin's
    id; the model-clock and socket drivers pass the BFS position
    (:func:`~repro.skypeer.executor.spanning_tree`), because BNL's
    comparison count depends on its input order.
    """

    def __init__(
        self,
        superpeer_id: int,
        *,
        neighbours: Sequence[int],
        variant: Variant,
        kernels: Any,
        carrier: Any,
        rank: Callable[[int], Any] | None = None,
    ):
        self.superpeer_id = superpeer_id
        self.neighbours = tuple(neighbours)
        self.variant = variant
        self.kernels = kernels
        self.carrier = carrier
        self._rank = rank if rank is not None else (lambda origin: origin)
        self.parent: int | None = None     # whom the query was first heard from
        self.duplicate_queries = 0
        self._seen = False
        self._forwarded = False
        self._pending: set[int] = set()    # neighbours still to send their final
        self._own: SortedByF | None = None
        self._known: np.ndarray | None = None   # fixed by the scan, before any result
        self._collected: list[tuple[int, SortedByF]] = []
        self._ready: Any = None            # join of everything a merge waits for

    @property
    def done(self) -> bool:
        """Scanned, forwarded, and every neighbour asked has had its last word."""
        return self._forwarded and not self._pending and self._own is not None

    @property
    def _merges(self) -> bool:
        # *PM merges at every super-peer; *FM and naive at P_init only.
        return self.variant.progressive_merging or self.parent is None

    # ------------------------------------------------------------------
    # the query on its way down
    # ------------------------------------------------------------------
    def start(self, at: Any) -> None:
        """P_init receives the user's query at stamp ``at``."""
        self._receive(QueryBound(math.inf), at)

    def on_query(self, sender: int, bound: QueryBound, at: Any) -> None:
        if self._seen:
            # The paper leaves duplicates to the routing layer; on a
            # flooded backbone the second asker must still learn that
            # nothing will come back over this link.
            self.duplicate_queries += 1
            self.carrier.decline(self.superpeer_id, sender, at)
            return
        self.parent = sender
        self._receive(bound, at)

    def _receive(self, bound: QueryBound, at: Any) -> None:
        self._seen = True
        # q(U, t, p) goes on at once when its bound is already in hand
        # (FT*, and naive, which has none).  RT* forwards the refined t'
        # and the smaller-sum of p and its own list after the scan, and
        # P_init has no bound at all until it has scanned.
        after_scan = self.variant.refined_threshold or (
            self.parent is None and self.variant.uses_threshold
        )
        if not after_scan:
            self._forward(bound, at)
        scan = self.kernels.scan(self.superpeer_id, bound)
        # Every carrier runs the scan synchronously, so the known points
        # are fixed before this node handles any result.
        self._known = self.kernels.known(bound.point, scan.result)

        def scanned(at: Any) -> None:
            if after_scan:
                self._forward(QueryBound(scan.threshold, self.kernels.best(self._known)), at)
            self._own = scan.result
            if self._merges:
                self._await(at)
            else:
                # A relay's own list leaves the moment it exists.
                self.carrier.send_result(
                    self.superpeer_id, self.parent, self.superpeer_id,
                    self._own, self.done, at,
                )

        self.carrier.compute(self.superpeer_id, "scan", at, scan, scanned)

    def _forward(self, bound: QueryBound, at: Any) -> None:
        targets = [nb for nb in self.neighbours if nb != self.parent]
        self._pending = set(targets)
        self._forwarded = True
        for nb in targets:
            self.carrier.send_query(self.superpeer_id, nb, bound, at)

    # ------------------------------------------------------------------
    # results on their way up
    # ------------------------------------------------------------------
    def on_result(
        self, sender: int, origin: int, result: SortedByF, final: bool, at: Any
    ) -> None:
        """``origin``'s list arrived over the link from ``sender``;
        ``final`` says it is the last thing that link will carry."""
        if final:
            self._pending.discard(sender)
        if self._merges:
            self._collected.append((origin, result))
            self._await(at)
        else:
            self.carrier.send_result(
                self.superpeer_id, self.parent, origin, self._passed_up(result), self.done, at
            )

    def on_decline(self, sender: int, at: Any) -> None:
        """``sender`` has nothing for this node and never will."""
        self._pending.discard(sender)
        if self._merges:
            self._await(at)
        elif self.done:
            # The own list left unmarked and nothing else is coming that
            # could carry the mark: pass the bare mark up instead.
            self.carrier.decline(self.superpeer_id, self.parent, at)

    def _await(self, at: Any) -> None:
        """One more thing a merge point waits for has happened at ``at``."""
        self._ready = at if self._ready is None else self.carrier.join(self._ready, at)
        if not self.done:
            return
        if not self._collected and self.variant.progressive_merging:
            self._ship(self._own, self._ready)   # a *PM leaf has nothing to merge
            return
        self._collected.sort(key=lambda entry: self._rank(entry[0]))
        merged = self.kernels.merge([self._own] + [lst for _, lst in self._collected])
        self.carrier.compute(
            self.superpeer_id, "merge", self._ready, merged,
            lambda at: self._ship(merged.result, at),
        )

    def _ship(self, result: SortedByF, at: Any) -> None:
        if self.parent is None:
            self.carrier.finish(result, at)
        else:
            self.carrier.send_result(
                self.superpeer_id, self.parent, self.superpeer_id, self._passed_up(result),
                True, at,
            )

    def _passed_up(self, result: SortedByF) -> SortedByF:
        """``result`` less what this node's known points dominate (the
        naive baseline knows none)."""
        return result if self._known is None else self.kernels.drop(result, self._known)


# ----------------------------------------------------------------------
# the flooded backbone on the model clocks
# ----------------------------------------------------------------------
@dataclass
class ProtocolOutcome:
    """What a flooded run produced and what it cost."""

    query: Query
    variant: Variant
    result: SortedByF
    total_time: float
    volume_bytes: int
    message_count: int
    query_messages: int
    duplicate_replies: int
    events: int

    @property
    def result_ids(self) -> frozenset[int]:
        return self.result.points.id_set()


def run_protocol(
    network: SuperPeerNetwork,
    query: Query,
    variant: Variant | str = Variant.FTPM,
) -> ProtocolOutcome:
    """Flood one query through the backbone and collect the outcome.

    The same model-clock driver as
    :func:`~repro.skypeer.executor.execute_query`, handed the full
    adjacency instead of the BFS tree: every super-peer forwards to all
    neighbours but the one it heard from and duplicates are declined, so
    the counts are those of a real unstructured overlay rather than of an
    idealized spanning tree.  Bytes are the cost model's.
    """
    from .executor import run_on_model_clocks

    variant = Variant.parse(variant) if isinstance(variant, str) else variant
    run = run_on_model_clocks(
        network, query, variant,
        neighbours=network.topology.adjacency, obs_prefix="protocol",
    )
    flooding = {
        "query_messages": run.query_messages,
        "duplicate_replies": run.duplicate_queries,
        "events": run.events,
    }
    metrics = active_metrics()
    if metrics is not None:
        for name, count in flooding.items():
            metrics.counter(f"protocol.{name}", variant=variant.value).inc(count)
    return ProtocolOutcome(
        query=query,
        variant=variant,
        result=run.execution.result,
        total_time=run.execution.total_time,
        volume_bytes=run.execution.volume_bytes,
        message_count=run.execution.message_count,
        **flooding,
    )
