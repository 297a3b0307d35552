"""Shared-memory data plane: publish a network once, attach everywhere.

Pool workers need the network's arrays, and get them without a copy:

* :func:`publish_network` writes what its consumer reads into one
  :class:`Segment` — for queries every super-peer store (coordinate
  block, ``f`` values, id arrays), which is all Algorithm 1 scans; for
  the one pre-processing fan-out (``partitions=True``) every raw peer
  partition instead — and returns a :class:`SharedNetwork` handle whose
  small picklable ``manifest`` describes the layout plus the non-array
  state (topology, cost model, epoch).
* :func:`attach_network` maps the segment in a worker and rebuilds a
  :class:`~repro.p2p.network.SuperPeerNetwork` whose
  ``PointSet``/``SortedByF`` objects are zero-copy, read-only views over
  the shared buffer — byte-identical to the parent's stores (no rebuild,
  so even incrementally-updated stores attach exactly).  A network
  attached from a query publication has stores and no peers.

**Incremental republish.**  A query publication is laid out as one
*slot per super-peer*: its store, nothing else.  When an update/churn
event touches one super-peer, :meth:`SharedNetwork.republish` writes
just that store into a small *overlay* segment and advances the
manifest's per-slot generation counter plus a ``subepoch``; the base
segment is never rewritten.  Workers holding an attached copy call
:meth:`AttachedNetwork.refresh` to re-map only the changed slots —
republished bytes and attach time scale with the touched stores, not
the network.  Retired overlay segments are kept until
:meth:`SharedNetwork.reap_retired` (or ``close``) unlinks them, so
in-flight attaches never race an unlink.

**Where a segment lives.**  A segment is a file that :class:`Segment`
creates, maps and unlinks itself — no helper process tracks it — so it
can live wherever files map.  :func:`segment_directory` puts each new
one (the base and every overlay, each on its own) in ``/dev/shm`` when
that takes new files and has room for it, else in the temp directory:
a host without ``/dev/shm``, or with one too small for the network (a
default container's is 64 MB, and writing past a full tmpfs is a
``SIGBUS``), runs the same plane over page-cache-backed files.  The
manifest names every segment by its path and attachers open what it
names; there is no other plane to fall back to.

Lifecycle: the publisher owns its segments.  ``SharedNetwork`` is a
context manager, registers an ``atexit`` unlink so an abandoned handle
cannot leak a file past interpreter exit, and ``close(unlink=True)`` is
idempotent.  Workers only ever *attach*, never unlink, so a worker's
exit cannot take a segment the parent still serves.  What a publisher
killed outright leaves behind — segments, nothing else — the next
engine start removes (:func:`sweep_dead_publishers`).
"""

from __future__ import annotations

import atexit
import contextlib
import dataclasses
import glob
import itertools
import mmap
import os
import secrets
import tempfile
from collections.abc import Iterable
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

if TYPE_CHECKING:
    from ..p2p.network import SuperPeerNetwork

__all__ = [
    "AttachedNetwork",
    "Segment",
    "SharedNetwork",
    "attach_network",
    "manifest_data_nbytes",
    "publish_network",
    "segment_directory",
    "sweep_dead_publishers",
]

_SEGMENT_PREFIX = "repro-shm"
_SHM_DIR = "/dev/shm"  # where POSIX shared memory lives on Linux
_ALIGN = 64  # cache-line alignment for every array start

_segment_counter = itertools.count()


def segment_directory(size: int) -> str:
    """Where a new segment of ``size`` bytes goes.

    ``/dev/shm`` when it takes new files and shows room for the segment,
    else the temp directory.  Asked of the directory, never tried with a
    throw-away file: the only ``repro-shm-<pid>-*`` names a process shows
    are publications.
    """
    if os.access(_SHM_DIR, os.W_OK | os.X_OK):
        room = os.statvfs(_SHM_DIR)
        if room.f_bavail * room.f_frsize >= size:
            return _SHM_DIR
    return tempfile.gettempdir()


class Segment:
    """One segment: a file mapped whole.

    ``Segment(name, size)`` creates the file in :func:`segment_directory`
    (``FileExistsError`` if the name is taken there); ``Segment(path)``
    attaches to the file a creator's ``path`` names.  ``buf`` is a
    read-write memoryview of the mapping.  A fresh segment reads as zeros
    and its pages become resident only when written.  Nothing else knows
    it exists: its creator calls :meth:`unlink`, attachers only ``close``.
    """

    __slots__ = ("path", "buf", "_mmap")

    def __init__(self, name: str, size: int | None = None):
        path = name if size is None else os.path.join(segment_directory(size), name)
        create = os.O_CREAT | os.O_EXCL if size is not None else 0
        fd = os.open(path, os.O_RDWR | create, 0o600)
        try:
            if size is not None:
                os.ftruncate(fd, size)
            self._mmap = mmap.mmap(fd, 0)
        except BaseException:
            if size is not None:
                os.unlink(path)
            raise
        finally:
            os.close(fd)  # the mapping outlives the descriptor
        self.path = path
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        """Unmap; ``BufferError`` while an export of ``buf`` (a slice, an
        ``np.frombuffer`` array) is alive.  The ``np.ndarray(buffer=...)``
        views this module hands out hold none: drop them first."""
        self.buf.release()
        self._mmap.close()

    def unlink(self) -> None:
        """Remove the file; mappings stay valid.  A second call is a no-op."""
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.path)


def _new_segment(nbytes: int) -> Segment:
    name = f"{_SEGMENT_PREFIX}-{os.getpid():x}-{next(_segment_counter)}-{secrets.token_hex(4)}"
    return Segment(name, size=max(1, nbytes))


def sweep_dead_publishers() -> None:
    """Remove what publishers that no longer exist left behind.

    A publisher killed outright (SIGKILL, the OOM killer) cannot unlink
    its ``repro-shm-<pid>-*`` segments.  Every engine start removes, from
    both directories a segment can live in, those whose publisher is
    gone (:func:`_publisher_gone`), and only those: a live publisher's
    files are never touched.
    """
    boot = _boot_time()
    for directory in {_SHM_DIR, tempfile.gettempdir()}:
        pattern = os.path.join(glob.escape(directory), f"{_SEGMENT_PREFIX}-*")
        for path in glob.glob(pattern):
            try:
                pid = int(os.path.basename(path).split("-")[2], 16)
                gone = _publisher_gone(pid, os.stat(path).st_mtime, boot)
            except (ValueError, OverflowError, OSError):
                continue  # not a name this module wrote, or a concurrent sweep won
            if gone:
                with contextlib.suppress(OSError):  # a concurrent sweep won
                    os.unlink(path)


#: ``btime`` counts whole seconds, so a process start time derived from
#: it is known to a second; a file must predate its pid's process by
#: more than that before the pid counts as reused.
_START_TIME_SLACK_S = 1.0


def _boot_time() -> float | None:
    """The boot time in seconds since the epoch (``btime`` of
    ``/proc/stat``), or ``None`` where there is no such file."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("btime "):
                    return float(line.split()[1])
    except OSError:
        pass
    return None


def _publisher_gone(pid: int, mtime: float, boot: float | None) -> bool:
    """True when ``pid`` cannot be the live publisher of a file last
    modified at ``mtime``: no process has that pid, the process is a
    zombie (dead, not yet reaped), or it started after the file was
    written — a live publisher always started before it wrote its files,
    so such a process got the pid by reuse.  Without ``/proc`` only the
    first case is seen."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        pass  # another user's live process: still a process, ask /proc
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            stat = handle.read()
    except FileNotFoundError:
        return True  # it ended since the signal
    except OSError:
        return False
    # Fields after the parenthesised command name, which may hold spaces:
    # the state (field 3), ..., the start time in clock ticks after boot (22).
    fields = stat[stat.rindex(")") + 2 :].split()
    if fields[0] == "Z":
        return True
    if boot is None:
        return False
    started = boot + int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return started > mtime + _START_TIME_SLACK_S


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class _Layout:
    """Accumulates arrays into (offset, shape, dtype) slots."""

    def __init__(self) -> None:
        self.arrays: list[tuple[dict[str, Any], np.ndarray]] = []
        self.nbytes = 0  # extent, alignment padding included
        self.payload = 0  # array bytes alone

    def add(self, array: np.ndarray) -> dict[str, Any]:
        array = np.ascontiguousarray(array)
        offset = _align(self.nbytes)
        slot = {
            "offset": offset,
            "shape": tuple(int(s) for s in array.shape),
            "dtype": array.dtype.str,
        }
        self.arrays.append((slot, array))
        self.nbytes = offset + array.nbytes
        self.payload += array.nbytes
        return slot


def _write_arrays(segment: Segment, layout: _Layout) -> None:
    for slot, array in layout.arrays:
        view = np.ndarray(
            slot["shape"], dtype=slot["dtype"],
            buffer=segment.buf, offset=slot["offset"],
        )
        view[...] = array
        del view  # release the buffer export so close() stays legal


def _pack_store(layout: _Layout, store: Any) -> dict[str, Any] | None:
    """Append one super-peer's query slot: its store's three arrays."""
    if store is None:
        return None
    return {
        "values": layout.add(store.points.values),
        "ids": layout.add(store.points.ids),
        "f": layout.add(store.f),
    }


def _release_segment(segment: Segment, unlink: bool = False) -> None:
    """Unmap one segment and, for its owner, remove its name."""
    try:
        segment.close()
    except BufferError:  # pragma: no cover - an export outlived us
        pass
    if unlink:
        segment.unlink()


def manifest_data_nbytes(manifest: Mapping[str, Any]) -> int:
    """Array bytes of the *current* data slots (a full republish's cost)."""
    return int(sum(manifest.get("slot_nbytes", {}).values()))


class SharedNetwork:
    """Parent-side handle of a published network (owns the segment)."""

    def __init__(self, segment: Segment, manifest: dict[str, Any]):
        self._segment = segment
        self.manifest = manifest
        self._closed = False
        #: live overlay segments, one per incrementally-republished slot
        self._overlays: dict[int, Segment] = {}
        #: superseded overlay segments awaiting ``reap_retired``
        self._retired: list[Segment] = []
        atexit.register(self.close)

    @property
    def path(self) -> str:
        """The base segment's file."""
        return self.manifest["segment"]

    @property
    def nbytes(self) -> int:
        return self.manifest["nbytes"]

    @property
    def subepoch(self) -> int:
        """Incremental-republish counter (0 for a fresh publication)."""
        return int(self.manifest.get("subepoch", 0))

    def republish(self, network: "SuperPeerNetwork", touched: Iterable[int]) -> int:
        """Republish only the ``touched`` super-peers' slots.

        Writes each touched store into a fresh overlay segment, updates
        the manifest *in place* (generations, ``peers_of``, ``epoch``,
        ``subepoch``, overlay locations) and retires any overlay it
        supersedes.  Returns the number of array bytes republished.  The
        super-peer *set* must be unchanged — topology surgery
        (``fail_superpeer``) needs a full :func:`publish_network` — and
        the publication must be a query publication: the pre-processing
        one is withdrawn after its fan-out, never refreshed.
        """
        if self._closed:
            raise RuntimeError("cannot republish a closed SharedNetwork")
        manifest = self.manifest
        if manifest["partitions"]:
            raise ValueError("a pre-processing publication cannot be republished")
        if set(network.superpeers) != {int(k) for k in manifest["generations"]}:
            raise ValueError("super-peer set changed; a full publish is required")
        republished = 0
        for sp_id in sorted({int(sp) for sp in touched}):
            if sp_id not in network.superpeers:
                raise KeyError(f"unknown super-peer {sp_id}")
            layout = _Layout()
            store_slots = _pack_store(layout, network.superpeers[sp_id].store)
            segment = _new_segment(layout.nbytes)
            try:
                _write_arrays(segment, layout)
            except BaseException:
                segment.close()
                segment.unlink()
                raise
            old = self._overlays.pop(sp_id, None)
            if old is not None:
                self._retired.append(old)
            self._overlays[sp_id] = segment
            manifest["overlays"][sp_id] = {
                "segment": segment.path,
                "nbytes": layout.payload,
                "store": store_slots,
            }
            manifest["generations"][sp_id] = int(network.store_generations.get(sp_id, 0))
            manifest["slot_nbytes"][sp_id] = layout.payload
            manifest["peers_of"][sp_id] = tuple(network.topology.peers_of[sp_id])
            republished += layout.payload
        manifest["epoch"] = network.epoch
        manifest["subepoch"] = int(manifest.get("subepoch", 0)) + 1
        return republished

    def reap_retired(self) -> int:
        """Unlink overlay segments superseded by later ``republish`` calls.

        Deferred so callers can quiesce attachers first (an unlink only
        breaks *new* attaches by path; existing mappings stay valid).
        Returns the number of segments reaped.
        """
        reaped = 0
        while self._retired:
            _release_segment(self._retired.pop(), unlink=True)
            reaped += 1
        return reaped

    def close(self, unlink: bool = True) -> None:
        """Release the mappings and (by default) remove the segments.

        Idempotent; also de-registers the ``atexit`` hook so a closed
        handle leaves no trace.  Retired overlays are always unlinked —
        nothing can reference them once superseded.
        """
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        self.reap_retired()
        for segment in self._overlays.values():
            _release_segment(segment, unlink=unlink)
        self._overlays.clear()
        _release_segment(self._segment, unlink=unlink)

    def __enter__(self) -> "SharedNetwork":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close(unlink=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedNetwork(path={self.path!r}, nbytes={self.nbytes})"


def publish_network(
    network: "SuperPeerNetwork", partitions: bool = False
) -> SharedNetwork:
    """Copy what a fan-out reads into one shared-memory segment.

    A query publication (the default) carries each super-peer's store
    and nothing else — queries never read a raw partition.
    ``partitions=True`` makes the pre-processing publication instead:
    the raw peer partitions the Section 5.3 fan-out builds stores
    *from*, and no stores.
    """
    layout = _Layout()
    partition_slots: dict[int, dict[str, Any]] = {}
    stores: dict[int, dict[str, Any]] = {}
    slot_nbytes: dict[int, int] = {}
    for sp_id in sorted(network.superpeers):
        start = layout.payload
        if partitions:
            for peer_id in network.topology.peers_of[sp_id]:
                data = network.peers[peer_id].data
                partition_slots[peer_id] = {
                    "values": layout.add(data.values),
                    "ids": layout.add(data.ids),
                }
        else:
            store_slots = _pack_store(layout, network.superpeers[sp_id].store)
            if store_slots is not None:
                stores[sp_id] = store_slots
        slot_nbytes[sp_id] = layout.payload - start
    segment = _new_segment(layout.nbytes)
    try:
        _write_arrays(segment, layout)
        manifest: dict[str, Any] = {
            "segment": segment.path,
            "nbytes": layout.nbytes,
            "dimensionality": network.dimensionality,
            "epoch": network.epoch,
            "adjacency": {k: tuple(v) for k, v in network.topology.adjacency.items()},
            "peers_of": {k: tuple(v) for k, v in network.topology.peers_of.items()},
            "cost_model": dataclasses.asdict(network.cost_model),
            "partitions": partition_slots,
            "stores": stores,
            "generations": {
                sp: int(network.store_generations.get(sp, 0)) for sp in network.superpeers
            },
            "subepoch": 0,
            "overlays": {},
            "slot_nbytes": slot_nbytes,
        }
    except BaseException:
        segment.close()
        segment.unlink()
        raise
    return SharedNetwork(segment, manifest)


class AttachedNetwork:
    """Worker-side view: a network plus the mapping keeping it alive."""

    def __init__(
        self,
        network: "SuperPeerNetwork",
        segment: Segment,
        manifest: Mapping[str, Any] | None = None,
        overlay_segments: Mapping[int, Segment] | None = None,
    ):
        self.network = network
        self._segment = segment
        self._closed = False
        self._overlay_segments: dict[int, Segment] = dict(
            overlay_segments or {}
        )
        self.subepoch = int(manifest.get("subepoch", 0)) if manifest is not None else 0

    def close(self) -> None:
        """Drop the network and release the mapping (never unlinks).

        The caller drops its store views first: they hold no export
        on the buffer (see :meth:`Segment.close`), so nothing keeps the
        mapping for a view that outlives this call.
        """
        if self._closed:
            return
        self._closed = True
        self.network = None
        for segment in self._overlay_segments.values():
            _release_segment(segment)
        self._overlay_segments.clear()
        _release_segment(self._segment)

    def refresh(self, manifest: Mapping[str, Any]) -> dict[str, Any]:
        """Re-attach only the slots whose generation advanced.

        ``manifest`` is a newer snapshot of the *same* publication (same
        base segment, higher ``subepoch``).  The store of every changed
        super-peer is swapped for zero-copy views over the new overlay
        segment; untouched slots keep their existing mappings
        (and any memoized scans keyed on their generation stay hot).
        Returns ``{"slots": n, "bytes": m}`` for the re-attached delta.

        Raises ``ValueError`` when the super-peer set differs — callers
        must re-attach from scratch instead (the engine republishes in
        full for topology surgery, so this only guards misuse).
        """
        if self._closed:
            raise RuntimeError("cannot refresh a closed AttachedNetwork")
        network = self.network
        subepoch = int(manifest.get("subepoch", 0))
        if subepoch == self.subepoch and int(manifest["epoch"]) == network.epoch:
            return {"slots": 0, "bytes": 0}
        generations = {int(k): int(v) for k, v in manifest.get("generations", {}).items()}
        if set(generations) != set(network.superpeers):
            raise ValueError("super-peer set changed; re-attach instead of refreshing")
        overlays = {int(k): v for k, v in manifest.get("overlays", {}).items()}
        peers_of = {int(k): tuple(v) for k, v in manifest["peers_of"].items()}
        changed = [
            sp_id
            for sp_id in sorted(generations)
            if generations[sp_id] != network.store_generations.get(sp_id)
        ]
        attached_bytes = 0
        for sp_id in changed:
            overlay = overlays.get(sp_id)
            if overlay is None:  # pragma: no cover - defensive
                raise ValueError(f"generation moved for super-peer {sp_id} with no overlay")
            segment = Segment(overlay["segment"])
            network.topology.peers_of[sp_id] = peers_of[sp_id]
            network.superpeers[sp_id].store = _store_view(segment, overlay["store"])
            old = self._overlay_segments.pop(sp_id, None)
            self._overlay_segments[sp_id] = segment
            if old is not None:
                _release_segment(old)
            network.store_generations[sp_id] = generations[sp_id]
            attached_bytes += int(overlay.get("nbytes", 0))
        network.epoch = int(manifest["epoch"])
        self.subepoch = subepoch
        return {"slots": len(changed), "bytes": attached_bytes}

    def __enter__(self) -> "SuperPeerNetwork":
        return self.network

    def __exit__(self, *exc: object) -> None:
        self.close()


def _view(segment: Segment, slot: Mapping[str, Any]) -> np.ndarray:
    return np.ndarray(
        tuple(slot["shape"]), dtype=slot["dtype"],
        buffer=segment.buf, offset=slot["offset"],
    )


def _store_view(
    segment: Segment, slots: Mapping[str, Any] | None
) -> Any:
    """A store over its published arrays (``None`` where none was published)."""
    from ..core.dataset import PointSet
    from ..core.store import SortedByF

    if slots is None:
        return None
    points = PointSet.from_trusted(
        _view(segment, slots["values"]), _view(segment, slots["ids"])
    )
    return SortedByF.from_trusted(points, _view(segment, slots["f"]))


def attach_network(manifest: Mapping[str, Any]) -> AttachedNetwork:
    """Rebuild a network as zero-copy views over a published segment.

    The attached stores are the parent's exact arrays (same bytes, no
    re-sort, no re-preprocessing), so validation is skipped via the
    trusted constructors and the per-store invariants hold by
    construction.
    """
    from ..core.dataset import PointSet
    from ..p2p.cost import CostModel
    from ..p2p.network import SuperPeerNetwork
    from ..p2p.node import Peer
    from ..p2p.topology import Topology

    segment = Segment(manifest["segment"])
    overlay_segments: dict[int, Segment] = {}
    try:
        overlays = {int(k): v for k, v in manifest.get("overlays", {}).items()}
        for sp_id, overlay in overlays.items():
            overlay_segments[sp_id] = Segment(overlay["segment"])
        topology = Topology(
            adjacency={int(k): tuple(v) for k, v in manifest["adjacency"].items()},
            peers_of={int(k): tuple(v) for k, v in manifest["peers_of"].items()},
        )
        peers = {
            int(peer_id): Peer(
                peer_id=int(peer_id),
                data=PointSet.from_trusted(
                    _view(segment, slots["values"]), _view(segment, slots["ids"])
                ),
            )
            for peer_id, slots in manifest["partitions"].items()
        }
        network = SuperPeerNetwork(
            topology=topology,
            peers=peers,
            dimensionality=manifest["dimensionality"],
            cost_model=CostModel(**manifest["cost_model"]),
        )
        for sp_id, slots in manifest["stores"].items():
            network.superpeers[int(sp_id)].store = _store_view(segment, slots)
        for sp_id, overlay in overlays.items():
            network.superpeers[sp_id].store = _store_view(
                overlay_segments[sp_id], overlay["store"]
            )
        network.epoch = manifest["epoch"]
        for sp_id, gen in manifest.get("generations", {}).items():
            network.store_generations[int(sp_id)] = int(gen)
    except BaseException:
        for overlay_segment in overlay_segments.values():
            overlay_segment.close()
        segment.close()
        raise
    return AttachedNetwork(network, segment, manifest, overlay_segments)
