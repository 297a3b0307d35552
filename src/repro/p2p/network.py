"""The simulated super-peer network.

``SuperPeerNetwork`` owns the topology, the peers with their data
partitions and the super-peers with their ext-skyline stores.  Building
one runs the pre-processing phase of section 5.3 end-to-end:

1. every peer computes ``ext-SKY_D`` of its partition (Algorithm 1 in
   ext-domination mode),
2. every super-peer merges its peers' lists (Algorithm 2, ext mode)
   into its f-sorted query store,

and records the selectivity statistics Figure 3(a) reports.  Every
Algorithm 1 scan of a super-peer's store runs through
:meth:`SuperPeerNetwork.scan`, which memoizes it (:class:`ScanMemo`).
"""

from __future__ import annotations

import contextlib
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..core.dataset import PointSet
from ..core.extended_skyline import merge_ext_skylines
from ..core.local_skyline import SkylineComputation, local_subspace_skyline
from ..core.store import SortedByF
from ..data.generators import make_generator
from ..data.partition import partition_evenly
from ..obs.runtime import active_metrics, active_tracer
from .cost import DEFAULT_COST_MODEL, CostModel
from .node import Peer, SuperPeer
from .topology import Topology

if TYPE_CHECKING:
    from ..parallel.engine import ParallelEngine

__all__ = [
    "EpochGate", "PreprocessingReport", "ScanMemo", "SuperPeerPreprocess", "SuperPeerNetwork",
]

#: Scans a network memoizes: a skewed serving workload's working set (a
#: few hundred (super-peer, subspace, threshold) keys) fits; the cap only
#: bounds a cold sweep's memory.
_SCAN_MEMO_CAP = 1024


class ScanMemo:
    """An LRU of one network's Algorithm 1 scans.

    A scan is a pure function of its store and parameters, so an entry
    is keyed ``(sp, store generation, cols, threshold)`` and holds only
    the surviving store positions plus the scan's counters and
    ``duration``.  A hit *replays* the scan
    (:meth:`SkylineComputation.replay`): the result is rebuilt from the
    store and the counters and the duration are those of the miss, so
    nothing downstream (work counts, the model clocks) tells a hit from a
    recomputation.  The generation invalidates by *slot*: an update to
    one super-peer moves only its generation, so every other slot's
    entries keep hitting.  FT-variant siblings share thresholds, so their
    scans hit across variants.  Past ``cap`` entries the least recently
    used one goes.  One lock guards the table and the counters, so the
    gateway's dispatcher threads may share a memo; a scan runs outside it.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self._scans: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._scans)

    def counts(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}

    def scan(self, key: tuple, store: SortedByF) -> SkylineComputation:
        """Algorithm 1 over ``store`` for ``key = (sp, generation, cols,
        threshold)``, or its replay."""
        with self._lock:
            entry = self._scans.get(key)
            if entry is None:
                self.misses += 1
            else:
                self._scans.move_to_end(key)
                self.hits += 1
        if entry is not None:
            return SkylineComputation.replay(store, *entry)
        cols, threshold = key[2:]
        computation = local_subspace_skyline(store, cols, initial_threshold=threshold)
        computation.positions.setflags(write=False)  # shared with replays
        with self._lock:
            self._scans[key] = (
                computation.positions, computation.threshold, computation.examined,
                computation.comparisons, computation.input_size, computation.duration,
            )
            while len(self._scans) > self.cap:
                self._scans.popitem(last=False)
                self.evictions += 1
        return computation


class EpochGate:
    """Readers–writer gate serializing updates against in-flight queries.

    A query holds the *read* side for its whole run and an update the
    *write* side, so a query sees every super-peer before an update or
    every one after it, never a torn mix — and no scan memoizes
    positions taken from a store that was swapped before its generation
    moved.  The gateway holds one around its dispatches and updates on
    every backend; :class:`~repro.parallel.ParallelEngine` holds its own
    around each fan-out (submit through result collection), so an
    update's republish unlinks the slot segments it replaced only when
    no worker can still be asked to attach one.  Writers get priority
    (new readers queue behind a waiting writer), so a steady query
    stream cannot starve updates.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextlib.contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextlib.contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


@dataclass
class SuperPeerPreprocess:
    """Pure computation results of pre-processing one super-peer.

    ``peer_results`` holds ``(peer_id, n_points, ext-skyline scan)`` for
    every attached peer, in topology order; ``merge`` is the Algorithm 2
    run producing the super-peer's query store.  The struct is what the
    compute phase (serial loop or process-pool worker) hands to
    :meth:`SuperPeerNetwork._ingest_preprocessing`, which owns every
    side effect: node state, metrics, traces, the report.
    """

    superpeer_id: int
    peer_results: list[tuple[int, int, SkylineComputation]]
    merge: SkylineComputation


@dataclass(frozen=True)
class PreprocessingReport:
    """Statistics of the pre-processing phase (Fig. 3(a)).

    ``sel_p`` — fraction of all data points shipped peer → super-peer
    (the average relative size of a local ext-skyline).
    ``sel_sp`` — fraction of all data points surviving in the union of
    the super-peer stores.
    ``sel_ratio`` — ``sel_sp / sel_p``: how much the super-peer merge
    shaves off what the peers uploaded.
    ``upload_bytes`` — bytes of the peer uploads (full-space points:
    id + d coordinates each, per the cost model).
    ``compute_seconds`` — total wall-clock across all peer ext-skyline
    computations and super-peer merges (work done once, amortized over
    every later query).
    """

    total_points: int
    peer_skyline_points: int
    superpeer_store_points: int
    upload_bytes: int = 0
    compute_seconds: float = 0.0

    @property
    def sel_p(self) -> float:
        return self.peer_skyline_points / self.total_points if self.total_points else 0.0

    @property
    def sel_sp(self) -> float:
        return self.superpeer_store_points / self.total_points if self.total_points else 0.0

    @property
    def sel_ratio(self) -> float:
        return self.sel_sp / self.sel_p if self.peer_skyline_points else 0.0

    @property
    def upload_kb(self) -> float:
        return self.upload_bytes / 1024.0


class SuperPeerNetwork:
    """Topology + peers + super-peer stores, ready to answer queries."""

    def __init__(
        self,
        topology: Topology,
        peers: Mapping[int, Peer],
        dimensionality: int,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ):
        self.topology = topology
        self.peers: dict[int, Peer] = dict(peers)
        self.dimensionality = dimensionality
        self.cost_model = cost_model
        self.superpeers: dict[int, SuperPeer] = {
            sp: SuperPeer(superpeer_id=sp, dimensionality=dimensionality)
            for sp in topology.superpeer_ids
        }
        self.preprocessing: PreprocessingReport | None = None
        #: per-super-peer ``(peer_points, uploaded, stored, upload_bytes)``
        #: — maintained by delta so single-super-peer updates refresh the
        #: selectivity report without re-summing the whole network
        self._selectivity: dict[int, tuple[int, int, int, int]] | None = None
        #: bumped whenever stores change (pre-processing, churn, data
        #: updates); caches key their entries on it
        self.epoch = 0
        #: per-super-peer generation counters: bumped only when *that*
        #: super-peer's store (or peer set) changes, so incremental
        #: publication can republish just the touched slots
        self.store_generations: dict[int, int] = {
            sp: 0 for sp in topology.superpeer_ids
        }
        self.scan_memo = ScanMemo(_SCAN_MEMO_CAP)

    def __getstate__(self) -> dict:
        # The memo holds a lock and is a cache: a copy starts with its own.
        state = self.__dict__.copy()
        del state["scan_memo"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.scan_memo = ScanMemo(_SCAN_MEMO_CAP)

    def scan(
        self, superpeer_id: int, subspace: Sequence[int], threshold: float = math.inf
    ) -> SkylineComputation:
        """Algorithm 1 over ``superpeer_id``'s store on ``subspace`` from
        ``threshold``, through the network's scan memo.  Every SKYPEER
        query runs its local scans here, on every backend and carrier.
        A NaN ``threshold`` is refused: no point is at or below it, so
        the scan would keep nothing."""
        threshold = float(threshold)
        if math.isnan(threshold):
            raise ValueError("a scan's threshold is NaN")
        cols = tuple(int(c) for c in subspace)
        key = (superpeer_id, self.store_generations.get(superpeer_id, 0), cols, threshold)
        return self.scan_memo.scan(key, self.store_of(superpeer_id))

    def bump_store_generation(self, superpeer_id: int) -> int:
        """Record that ``superpeer_id``'s store changed; returns the new gen."""
        gen = self.store_generations.get(superpeer_id, 0) + 1
        self.store_generations[superpeer_id] = gen
        return gen

    def compute_superpeer_selectivity(self, superpeer_id: int) -> tuple[int, int, int, int]:
        """``(peer_points, uploaded, stored, upload_bytes)`` for one super-peer.

        Each peer list is priced once, when it is first summed after it
        was received or replaced; the price stays with the list.
        """
        superpeer = self.superpeers[superpeer_id]
        peer_points = sum(
            len(self.peers[p]) for p in self.topology.peers_of[superpeer_id]
        )
        uploaded = 0
        prices = superpeer.upload_bytes
        for peer_id, lst in superpeer.peer_skylines.items():
            uploaded += len(lst)
            if peer_id not in prices:
                prices[peer_id] = self.cost_model.list_bytes(lst.points.ids, lst.points.values)
        upload_bytes = sum(prices[peer_id] for peer_id in superpeer.peer_skylines)
        return peer_points, uploaded, superpeer.store_size, upload_bytes

    def refresh_selectivity(
        self, touched: Sequence[int] | None = None
    ) -> tuple[int, int, int, int]:
        """Network-wide selectivity totals, maintained by delta.

        ``touched`` names the super-peers whose peers/lists/stores may
        have changed: only their cache rows are recomputed (plus dead
        rows dropped), so a one-point update does O(touched) work, not a
        re-sum over every peer and list in the network.  ``None`` — or a
        cold cache — recomputes everything.
        """
        live = set(self.superpeers)
        cache = self._selectivity
        if cache is None or touched is None:
            cache = {sp: self.compute_superpeer_selectivity(sp) for sp in sorted(live)}
            self._selectivity = cache
        else:
            for stale in [sp for sp in cache if sp not in live]:
                del cache[stale]
            for sp_id in sorted(set(touched) & live):
                cache[sp_id] = self.compute_superpeer_selectivity(sp_id)
        total = uploaded = stored = upload_bytes = 0
        for peer_points, up, st, ub in cache.values():
            total += peer_points
            uploaded += up
            stored += st
            upload_bytes += ub
        return total, uploaded, stored, upload_bytes

    def advance_epoch(self, touched: Iterable[int] | None = None) -> None:
        """Record a change to the ``touched`` super-peers' stores or peer sets.

        The one refresh after pre-processing and after every update: the
        epoch moves (caches key their entries on it), the generation
        counters of the touched live super-peers advance and those of
        dead ones go (so shm publication republishes only the changed
        slots), and ``preprocessing`` is rebuilt from the selectivity
        rows :meth:`refresh_selectivity` recomputes for the touched
        super-peers alone.  ``compute_seconds`` carries over.  ``None``
        touches everyone.
        """
        touched_ids = None if touched is None else tuple(touched)
        total, uploaded, stored, upload_bytes = self.refresh_selectivity(touched_ids)
        self.epoch += 1
        live = set(self.superpeers)
        for stale in [sp for sp in self.store_generations if sp not in live]:
            del self.store_generations[stale]
        for sp_id in sorted(live if touched_ids is None else set(touched_ids) & live):
            self.bump_store_generation(sp_id)
        previous = self.preprocessing
        self.preprocessing = PreprocessingReport(
            total_points=total,
            peer_skyline_points=uploaded,
            superpeer_store_points=stored,
            upload_bytes=upload_bytes,
            compute_seconds=previous.compute_seconds if previous else 0.0,
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        n_peers: int,
        points_per_peer: int,
        dimensionality: int,
        n_superpeers: int | None = None,
        degree: float = 4.0,
        dataset: str = "uniform",
        seed: int = 0,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        preprocess: bool = True,
        workers: int | None = None,
        engine: "ParallelEngine | None" = None,
    ) -> "SuperPeerNetwork":
        """Generate topology and data, then (optionally) pre-process.

        ``dataset`` is one of the generator kinds; the clustered kind
        follows the paper: each super-peer draws its own centroid and
        all of its peers' points scatter around it.  ``workers > 1``
        (or an explicit ``engine``) fans the pre-processing out over
        the persistent process pool (see :mod:`repro.parallel`).
        """
        rng = np.random.default_rng(seed)
        topology = Topology.generate(
            n_peers=n_peers, n_superpeers=n_superpeers, degree=degree, seed=rng
        )
        peers = cls._generate_peer_data(
            topology, points_per_peer, dimensionality, dataset, rng
        )
        network = cls(
            topology=topology,
            peers=peers,
            dimensionality=dimensionality,
            cost_model=cost_model,
        )
        if preprocess:
            network.preprocess(workers=workers, engine=engine)
        return network

    @staticmethod
    def _generate_peer_data(
        topology: Topology,
        points_per_peer: int,
        dimensionality: int,
        dataset: str,
        rng: np.random.Generator,
    ) -> dict[int, Peer]:
        generator = make_generator(dataset)
        peers: dict[int, Peer] = {}
        next_id = 0
        for sp in topology.superpeer_ids:
            peer_ids = topology.peers_of[sp]
            if dataset == "clustered":
                centroid = rng.random((1, dimensionality))
                values = generator(
                    points_per_peer * len(peer_ids), dimensionality, rng, centroids=centroid
                )
            else:
                values = generator(points_per_peer * len(peer_ids), dimensionality, rng)
            ids = np.arange(next_id, next_id + values.shape[0], dtype=np.int64)
            next_id += values.shape[0]
            block = PointSet(values, ids)
            for peer_id, chunk in zip(peer_ids, partition_evenly(block, len(peer_ids))):
                peers[peer_id] = Peer(peer_id=peer_id, data=chunk)
        return peers

    @classmethod
    def from_partitions(
        cls,
        topology: Topology,
        partitions: Mapping[int, PointSet],
        cost_model: CostModel = DEFAULT_COST_MODEL,
        preprocess: bool = True,
        workers: int | None = None,
        engine: "ParallelEngine | None" = None,
    ) -> "SuperPeerNetwork":
        """Build a network over explicitly provided per-peer data."""
        expected = {p for peers in topology.peers_of.values() for p in peers}
        if set(partitions) != expected:
            raise ValueError("partitions must cover exactly the topology's peers")
        dims = {ps.dimensionality for ps in partitions.values()}
        if len(dims) != 1:
            raise ValueError(f"mismatched dimensionalities: {sorted(dims)}")
        peers = {pid: Peer(peer_id=pid, data=ps) for pid, ps in partitions.items()}
        network = cls(
            topology=topology,
            peers=peers,
            dimensionality=dims.pop(),
            cost_model=cost_model,
        )
        if preprocess:
            network.preprocess(workers=workers, engine=engine)
        return network

    # ------------------------------------------------------------------
    # pre-processing (section 5.3)
    # ------------------------------------------------------------------
    def preprocess(
        self, workers: int | None = None, engine: "ParallelEngine | None" = None
    ) -> PreprocessingReport:
        """Run the full pre-processing phase and record its statistics.

        ``workers > 1`` fans the per-super-peer computations (peer
        ext-skylines plus their merge) out over the
        persistent process-pool engine (an explicit ``engine`` pins the
        pool, see :func:`repro.parallel.get_engine`); the aggregation
        below is identical either way, so stores, selectivities and
        metric counters match the serial run exactly (wall-clock
        ``compute_seconds`` aside).
        """
        if engine is not None or (workers is not None and workers > 1):
            from ..parallel.engine import preprocess_network_parallel

            results = preprocess_network_parallel(self, workers or 0, engine=engine)
        else:
            results = [self.compute_superpeer_preprocess(sp) for sp in self.superpeers]
        return self._ingest_preprocessing(results)

    def compute_superpeer_preprocess(self, superpeer_id: int) -> SuperPeerPreprocess:
        """The pure compute half of pre-processing one super-peer.

        Independent across super-peers (only the topology and the
        attached peers' partitions are read), which is what lets the
        parallel engine run one task per super-peer.
        """
        peer_results: list[tuple[int, int, SkylineComputation]] = []
        for peer_id in self.topology.peers_of[superpeer_id]:
            peer = self.peers[peer_id]
            computation = peer.compute_extended_skyline()
            peer_results.append((peer_id, len(peer), computation))
        merge = merge_ext_skylines(
            [computation.result for _, _, computation in peer_results],
            self.dimensionality,
        )
        return SuperPeerPreprocess(
            superpeer_id=superpeer_id, peer_results=peer_results, merge=merge
        )

    def _ingest_preprocessing(
        self, results: Sequence[SuperPeerPreprocess]
    ) -> PreprocessingReport:
        """Apply computed pre-processing results: state, obs, report."""
        tracer = active_tracer()
        metrics = active_metrics()
        compute_seconds = 0.0
        for result in results:
            sp_id = result.superpeer_id
            superpeer = self.superpeers[sp_id]
            # Peers compute their ext-skylines in parallel; the
            # super-peer merge starts once the slowest one uploaded.
            slowest_peer = 0.0
            for peer_id, n_points, computation in result.peer_results:
                superpeer.receive_peer_skyline(peer_id, computation.result)
                if tracer is not None or metrics is not None:
                    # The report's total comes from advance_epoch below,
                    # which finds this price kept with the list.
                    peer_bytes = superpeer.upload_bytes[peer_id] = self.cost_model.list_bytes(
                        computation.result.points.ids, computation.result.points.values
                    )
                compute_seconds += computation.duration
                slowest_peer = max(slowest_peer, computation.duration)
                if tracer is not None:
                    tracer.interval(
                        "ext-skyline", category="preprocess",
                        track=f"peer{peer_id}", start=0.0,
                        end=computation.duration, clock="preprocess",
                        points=n_points, kept=len(computation.result),
                        upload_bytes=peer_bytes,
                    )
                if metrics is not None:
                    metrics.counter(
                        "preprocess.uploaded_points", superpeer=sp_id
                    ).inc(len(computation.result))
                    metrics.counter(
                        "preprocess.upload_bytes", superpeer=sp_id
                    ).inc(peer_bytes)
            superpeer.store = result.merge.result
            superpeer.store_ledger = None  # wholesale replacement
            compute_seconds += result.merge.duration
            if tracer is not None:
                tracer.interval(
                    "ext-skyline merge", category="preprocess",
                    track=f"sp{sp_id}", start=slowest_peer,
                    end=slowest_peer + result.merge.duration, clock="preprocess",
                    kept=superpeer.store_size,
                )
            if metrics is not None:
                metrics.counter(
                    "preprocess.store_points", superpeer=sp_id
                ).inc(superpeer.store_size)
        self.advance_epoch()
        self.preprocessing = replace(self.preprocessing, compute_seconds=compute_seconds)
        if metrics is not None:
            metrics.counter("preprocess.total_points").inc(self.preprocessing.total_points)
            metrics.histogram("preprocess.compute_seconds").observe(compute_seconds)
        return self.preprocessing

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def all_points(self) -> PointSet:
        """The global dataset ``S`` (for oracles and examples)."""
        parts = [peer.data for peer in self.peers.values() if len(peer.data)]
        if not parts:
            return PointSet.empty(self.dimensionality)
        return PointSet.concat(parts)

    def store_of(self, superpeer_id: int) -> SortedByF:
        return self.superpeers[superpeer_id].require_store()

    @property
    def n_superpeers(self) -> int:
        return self.topology.n_superpeers

    @property
    def n_peers(self) -> int:
        return len(self.peers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SuperPeerNetwork(N_p={self.n_peers}, N_sp={self.n_superpeers}, "
            f"d={self.dimensionality})"
        )
