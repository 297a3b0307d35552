"""Shared-memory data plane: one segment per super-peer slot.

Pool workers need the network's arrays, and get them without a copy.
A publication is laid out as one *slot* per super-peer, each slot one
:class:`Segment`: for queries the slot holds that super-peer's store
(coordinate block, ``f`` values, id arrays), which is all Algorithm 1
scans; for the one pre-processing fan-out (``partitions=True``) it holds
that super-peer's raw peer partitions instead.  A small picklable
``manifest`` names every slot's segment, array layout and store
generation, plus the non-array state (topology, cost model, epoch).
Each side has one operation:

* :meth:`SharedNetwork.sync` writes a fresh segment for every live
  super-peer whose generation differs from the manifest's, and retires
  the segments of replaced and vanished slots.
  :func:`publish_network` is a sync on an empty handle, so an update or
  churn event republishes exactly the stores it touched.
* :meth:`AttachedNetwork.sync` maps, in a worker, the slots whose
  segment changed, drops the vanished ones and takes the manifest's
  topology, mutating its :class:`~repro.p2p.network.SuperPeerNetwork` in
  place: its ``PointSet``/``SortedByF`` objects are zero-copy, read-only
  views over the slot buffers, byte-identical to the parent's stores (no
  rebuild, so even incrementally-updated stores attach exactly), and
  every untouched slot keeps its mapping.  :func:`attach_network` is a
  sync on an empty network.  A network attached from a query
  publication has stores and no peers.

Retired segments are kept until :meth:`SharedNetwork.reap_retired` (or
``close``) unlinks them, so in-flight attaches never race an unlink.

**Where a segment lives.**  A segment is a file that :class:`Segment`
creates, maps and unlinks itself — no helper process tracks it — so it
can live wherever files map.  :func:`segment_directory` puts each new
one, on its own, in ``/dev/shm`` when that takes new files and has room
for it, else in the temp directory: a host without ``/dev/shm``, or with
one too small for the network (a default container's is 64 MB, and
writing past a full tmpfs is a ``SIGBUS``), runs the same plane over
page-cache-backed files.  The manifest names every segment by its path
and attachers open what it names; there is no other plane to fall back
to.

Lifecycle: the publisher owns its segments.  ``SharedNetwork`` is a
context manager, registers an ``atexit`` unlink so an abandoned handle
cannot leak a file past interpreter exit, and ``close()`` is
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
    """Accumulates arrays into (offset, shape, dtype) entries."""

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


def _write_slot(
    network: "SuperPeerNetwork", sp_id: int, partitions: bool
) -> tuple[Segment, dict[str, Any]]:
    """Write one super-peer's slot into a fresh segment; the segment and
    the slot's manifest entry."""
    layout = _Layout()
    if partitions:
        arrays: dict[str, Any] = {"peers": {}}
        for peer_id in network.topology.peers_of[sp_id]:
            data = network.peers[peer_id].data
            arrays["peers"][peer_id] = {
                "values": layout.add(data.values),
                "ids": layout.add(data.ids),
            }
    else:
        store = network.superpeers[sp_id].store
        arrays = {"store": None if store is None else {
            "values": layout.add(store.points.values),
            "ids": layout.add(store.points.ids),
            "f": layout.add(store.f),
        }}
    segment = _new_segment(layout.nbytes)
    try:
        _write_arrays(segment, layout)
    except BaseException:
        _release_segment(segment, unlink=True)
        raise
    slot = {
        "segment": segment.path,
        "generation": int(network.store_generations.get(sp_id, 0)),
        "nbytes": layout.payload,
        **arrays,
    }
    return segment, slot


def _release_segment(segment: Segment, unlink: bool = False) -> None:
    """Unmap one segment and, for its owner, remove its name."""
    try:
        segment.close()
    except BufferError:  # pragma: no cover - an export outlived us
        pass
    if unlink:
        segment.unlink()


def manifest_data_nbytes(manifest: Mapping[str, Any]) -> int:
    """Array bytes of every live slot (what rewriting them all costs)."""
    return sum(slot["nbytes"] for slot in manifest["slots"].values())


class SharedNetwork:
    """Parent-side handle of a publication: owns one segment per slot.

    A fresh handle publishes nothing; :meth:`sync` brings it to a
    network (:func:`publish_network` does both).  ``partitions`` picks
    what every slot carries: the super-peer's store (queries) or its raw
    peer partitions (the pre-processing fan-out).
    """

    def __init__(self, partitions: bool = False):
        self.manifest: dict[str, Any] = {"partitions": partitions, "epoch": None, "slots": {}}
        self._segments: dict[int, Segment] = {}
        #: segments of replaced and vanished slots awaiting ``reap_retired``
        self._retired: list[Segment] = []
        self._closed = False
        atexit.register(self.close)

    @property
    def paths(self) -> list[str]:
        """The live slots' segment files."""
        return [segment.path for segment in self._segments.values()]

    @property
    def nbytes(self) -> int:
        """Bytes of the live slots' segments, alignment padding included."""
        return sum(len(segment.buf) for segment in self._segments.values())

    def sync(self, network: "SuperPeerNetwork") -> list[int]:
        """Bring the publication to ``network``; the super-peers rewritten.

        Writes a fresh segment for every live super-peer whose store
        generation differs from the manifest's (every one, on an empty
        handle), retires the segments of replaced and vanished slots,
        and swaps in a new manifest with the network's topology and
        epoch.  A manifest is never mutated once made, so one handed to
        a worker cannot tear.  If a write fails, the segments this call
        made are removed and the publication stays as it was.
        """
        if self._closed:
            raise RuntimeError("cannot sync a closed SharedNetwork")
        partitions = self.manifest["partitions"]
        old_slots = self.manifest["slots"]
        slots: dict[int, dict[str, Any]] = {}
        fresh: dict[int, Segment] = {}
        try:
            for sp_id in sorted(network.superpeers):
                slot = old_slots.get(sp_id)
                if slot is None or slot["generation"] != network.store_generations.get(sp_id, 0):
                    fresh[sp_id], slot = _write_slot(network, sp_id, partitions)
                slots[sp_id] = slot
        except BaseException:
            for segment in fresh.values():
                _release_segment(segment, unlink=True)
            raise
        for sp_id in [sp for sp in self._segments if sp in fresh or sp not in slots]:
            self._retired.append(self._segments.pop(sp_id))
        self._segments.update(fresh)
        topology = network.topology
        self.manifest = {
            "partitions": partitions,
            "dimensionality": network.dimensionality,
            "cost_model": dataclasses.asdict(network.cost_model),
            "epoch": network.epoch,
            "adjacency": {k: tuple(v) for k, v in topology.adjacency.items()},
            "peers_of": {k: tuple(v) for k, v in topology.peers_of.items()},
            "slots": slots,
        }
        return list(fresh)

    def reap_retired(self) -> int:
        """Unlink the segments later syncs replaced or dropped.

        Deferred so callers can quiesce attachers first (an unlink only
        breaks *new* attaches by path; existing mappings stay valid).
        Returns the number of segments reaped.
        """
        reaped = 0
        while self._retired:
            _release_segment(self._retired.pop(), unlink=True)
            reaped += 1
        return reaped

    def close(self) -> None:
        """Release and remove every segment, retired ones included.

        Idempotent; also de-registers the ``atexit`` hook so a closed
        handle leaves no trace.
        """
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        self._retired.extend(self._segments.values())
        self._segments.clear()
        self.reap_retired()

    def __enter__(self) -> "SharedNetwork":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedNetwork(slots={len(self._segments)}, nbytes={self.nbytes})"


def publish_network(
    network: "SuperPeerNetwork", partitions: bool = False
) -> SharedNetwork:
    """Copy what a fan-out reads into one segment per super-peer slot.

    A query publication (the default) carries each super-peer's store
    and nothing else — queries never read a raw partition.
    ``partitions=True`` makes the pre-processing publication instead:
    the raw peer partitions the Section 5.3 fan-out builds stores
    *from*, and no stores.
    """
    shared = SharedNetwork(partitions)
    try:
        shared.sync(network)
    except BaseException:
        shared.close()
        raise
    return shared


class AttachedNetwork:
    """Worker-side view: a network over the slot segments it maps.

    A fresh one holds an empty network; :meth:`sync` maps a manifest
    into it (:func:`attach_network` does both).
    """

    def __init__(self) -> None:
        from ..p2p.network import SuperPeerNetwork
        from ..p2p.topology import Topology

        self.network = SuperPeerNetwork(
            topology=Topology(adjacency={}, peers_of={}), peers={}, dimensionality=0
        )
        #: the epoch of the manifest last synced (``None`` before the first)
        self.epoch: int | None = None
        #: super-peer -> its mapped segment and the slot entry it maps
        self._mapped: dict[int, tuple[Segment, Mapping[str, Any]]] = {}
        self._closed = False

    def sync(self, manifest: Mapping[str, Any]) -> dict[str, int]:
        """Bring the network to ``manifest``, in place.

        Maps the slots whose segment changed, drops the vanished ones and
        takes the manifest's topology and epoch; every other slot keeps
        its mapping (and any memoized scan keyed on its generation stays
        hot).  Returns ``{"slots": n, "bytes": m}`` re-mapped.
        """
        from ..core.dataset import PointSet
        from ..p2p.cost import CostModel
        from ..p2p.node import Peer, SuperPeer
        from ..p2p.topology import Topology

        if self._closed:
            raise RuntimeError("cannot sync a closed AttachedNetwork")
        network = self.network
        slots = manifest["slots"]
        # Unmap everything stale before mapping anything: a peer may move
        # between two replaced slots.
        for sp_id in [
            sp for sp, (segment, _) in self._mapped.items()
            if sp not in slots or segment.path != slots[sp]["segment"]
        ]:
            segment, slot = self._mapped.pop(sp_id)
            for peer_id in slot.get("peers", ()):
                del network.peers[peer_id]
            if sp_id in slots:
                network.superpeers[sp_id].store = None
            else:
                del network.superpeers[sp_id]
                del network.store_generations[sp_id]
            _release_segment(segment)
        network.dimensionality = manifest["dimensionality"]
        network.cost_model = CostModel(**manifest["cost_model"])
        remapped = nbytes = 0
        for sp_id, slot in slots.items():
            if sp_id in self._mapped:
                continue
            segment = Segment(slot["segment"])
            self._mapped[sp_id] = (segment, slot)
            superpeer = network.superpeers.setdefault(
                sp_id, SuperPeer(superpeer_id=sp_id, dimensionality=network.dimensionality)
            )
            if "store" in slot:
                superpeer.store = _store_view(segment, slot["store"])
            for peer_id, arrays in slot.get("peers", {}).items():
                network.peers[peer_id] = Peer(
                    peer_id=peer_id,
                    data=PointSet.from_trusted(
                        _view(segment, arrays["values"]), _view(segment, arrays["ids"])
                    ),
                )
            network.store_generations[sp_id] = slot["generation"]
            remapped += 1
            nbytes += slot["nbytes"]
        network.topology = Topology(
            adjacency={k: tuple(v) for k, v in manifest["adjacency"].items()},
            peers_of={k: tuple(v) for k, v in manifest["peers_of"].items()},
        )
        network.epoch = self.epoch = manifest["epoch"]
        return {"slots": remapped, "bytes": nbytes}

    def close(self) -> None:
        """Drop the network and release the mappings (never unlinks).

        The caller drops its store views first: they hold no export
        on the buffer (see :meth:`Segment.close`), so nothing keeps the
        mapping for a view that outlives this call.
        """
        if self._closed:
            return
        self._closed = True
        self.network = None
        for segment, _ in self._mapped.values():
            _release_segment(segment)
        self._mapped.clear()

    def __enter__(self) -> "SuperPeerNetwork":
        return self.network

    def __exit__(self, *exc: object) -> None:
        self.close()


def _view(segment: Segment, slot: Mapping[str, Any]) -> np.ndarray:
    return np.ndarray(
        tuple(slot["shape"]), dtype=slot["dtype"],
        buffer=segment.buf, offset=slot["offset"],
    )


def _store_view(segment: Segment, slots: Mapping[str, Any] | None) -> Any:
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
    """Map a publication into a fresh network of zero-copy views.

    The attached stores are the parent's exact arrays (same bytes, no
    re-sort, no re-preprocessing), so validation is skipped via the
    trusted constructors and the per-store invariants hold by
    construction.
    """
    attached = AttachedNetwork()
    try:
        attached.sync(manifest)
    except BaseException:
        attached.close()
        raise
    return attached
