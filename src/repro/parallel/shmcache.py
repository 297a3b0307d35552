"""Cross-process (epoch, subspace, kind) → block cache in shared memory.

The shared-memory data plane (:mod:`repro.parallel.shm`) makes the
*input* arrays of every worker identical views of one segment, but each
worker still re-derives the expensive per-subspace artefact — the
output of the Algorithm 1 scan — privately.  This module appends a
fixed-slot, read-mostly cache region to every query publication's
segment so one worker's scan benefits the whole pool:

* **Slots.**  The region is a header, a directory of fixed-size slot
  descriptors, and a data area of fixed-size slots
  (``REPRO_SHM_CACHE_SLOTS`` × ``REPRO_SHM_CACHE_SLOT_BYTES``).  Keys
  are opaque byte strings built by :func:`make_key` from a *kind* tag
  (``"scan"``) plus whatever identifies the
  artefact (subspace, thresholds, scan parameters); a blake2b digest in
  the directory makes probes a straight directory sweep with no
  payload reads on mismatch.

* **Seqlock publication.**  Each slot carries a generation word: a
  writer flips it odd, writes the payload, then flips it even (one
  higher), so a concurrent reader observing an odd or changed
  generation discards its read.  Readers never lock; they copy (or
  borrow) the payload and then call :meth:`SharedBlockCache.still_valid`
  with the generation token — old-or-new, never torn.  Writers
  serialize on an ``flock`` of the segment file itself, so the
  single-writer assumption of the seqlock holds across processes and a
  publication is one kind of file; once the publisher has unlinked the
  segment there is nothing to lock, and a ``put`` through a mapping that
  outlived it publishes nothing.  (CPython offers
  no memory barriers; on the TSO hosts this targets, the ordered
  ``memoryview`` stores of one writer plus generation re-validation
  give the same guarantee in practice.)

* **Eviction and invalidation.**  A monotonically increasing clock in
  the header stamps every publication and probe hit; when all slots
  are full the writer evicts the minimum stamp (LRU by generation).
  The header also carries the publishing epoch: bumping it (the parent
  republished, or :meth:`SharedBlockCache.bump_epoch` for tests)
  invalidates every entry wholesale because probes require the entry
  epoch to match.

Payload layout inside a slot (offsets relative to the slot's data
area)::

    u32 key_len | key bytes | u32 meta_len | pickled meta | pad to 16 |
    array 0 | pad to 16 | array 1 | ...

``meta`` is a small dict of scalars plus an ``"arrays"`` descriptor
list of ``(name, shape, dtype, offset, nbytes)`` tuples.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

try:  # pragma: no cover - always present on the Linux CI hosts
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "CACHE_SLOTS_ENV",
    "CACHE_SLOT_BYTES_ENV",
    "CacheStats",
    "SharedBlockCache",
    "cache_geometry",
    "cache_region_nbytes",
    "make_key",
]

CACHE_SLOTS_ENV = "REPRO_SHM_CACHE_SLOTS"
CACHE_SLOT_BYTES_ENV = "REPRO_SHM_CACHE_SLOT_BYTES"

_DEFAULT_SLOTS = 64
_DEFAULT_SLOT_BYTES = 64 * 1024

_MAGIC = 0x53504243  # "SPBC"
_ALIGN = 64
_PAYLOAD_ALIGN = 16

#: Header: magic u32, slots u32, slot_bytes u64, epoch i64, clock u64.
_HEADER = struct.Struct("<IIQqQ")
#: Directory entry: gen u64, digest 16s, epoch i64, stamp u64, used u32.
_DIR = struct.Struct("<Q16sqQI")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
#: Byte offsets of the two words lock-free readers write: the header
#: clock and a directory entry's stamp.
_CLOCK_AT = struct.calcsize("<IIQq")
_STAMP_AT = struct.calcsize("<Q16sq")


def cache_geometry() -> tuple[int, int]:
    """(slots, slot_bytes) from the env knobs, validated and aligned."""
    slots = int(os.environ.get(CACHE_SLOTS_ENV) or _DEFAULT_SLOTS)
    slot_bytes = int(os.environ.get(CACHE_SLOT_BYTES_ENV) or _DEFAULT_SLOT_BYTES)
    if slots <= 0 or slot_bytes <= 0:
        raise ValueError(
            f"cache geometry must be positive, got slots={slots} "
            f"slot_bytes={slot_bytes}"
        )
    slot_bytes = (slot_bytes + _ALIGN - 1) // _ALIGN * _ALIGN
    return slots, slot_bytes


def cache_region_nbytes(slots: int, slot_bytes: int) -> int:
    """Total bytes of a cache region: header + directory + data slots."""
    return _ALIGN + slots * _ALIGN + slots * slot_bytes


def make_key(kind: str, *parts: Any) -> bytes:
    """A canonical cache key: kind tag plus identifying parts.

    Floats are rendered with ``float.hex`` so keys distinguish every
    representable threshold; sequences are flattened shallowly.
    """
    pieces = [kind]
    for part in parts:
        if isinstance(part, float):
            pieces.append(part.hex())
        elif isinstance(part, (tuple, list)):
            pieces.append(",".join(str(p) for p in part))
        else:
            pieces.append(str(part))
    return "|".join(pieces).encode()


@dataclass
class CacheStats:
    """Process-local counters for one cache handle."""

    hits: int = 0
    misses: int = 0
    publishes: int = 0
    evictions: int = 0
    oversize: int = 0
    invalid: int = 0
    _last: dict[str, int] = field(default_factory=dict, repr=False)

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "publishes": self.publishes,
            "evictions": self.evictions,
            "oversize": self.oversize,
            "invalid": self.invalid,
        }

    def delta(self) -> dict[str, int]:
        """Counters accumulated since the previous ``delta()`` call."""
        now = self.as_dict()
        out = {k: v - self._last.get(k, 0) for k, v in now.items()}
        self._last = now
        return out


class SharedBlockCache:
    """A view of the cache region inside a published segment.

    Parents and workers construct one over the *same* buffer (the
    parent right after :func:`repro.parallel.shm.publish_network`,
    workers over their attached mapping), so probes and publications
    from any process see each other immediately.
    """

    def __init__(self, buf: memoryview, offset: int, path: str):
        self._buf = buf
        self._offset = offset
        self._path = path  # the segment's file: what writers lock
        self.stats = CacheStats()
        magic, slots, slot_bytes, _epoch, _clock = _HEADER.unpack_from(buf, offset)
        if magic != _MAGIC:
            raise ValueError(f"bad cache region magic {magic:#x} at offset {offset}")
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._dir_base = offset + _ALIGN
        self._data_base = self._dir_base + slots * _ALIGN

    # ------------------------------------------------------------------
    # region initialisation (parent side, once per publication)
    # ------------------------------------------------------------------
    @staticmethod
    def format(buf: memoryview, offset: int, slots: int, slot_bytes: int, epoch: int) -> None:
        """Write the header and an empty directory; the data area is left
        as found (a slot is only read through a directory entry), so in a
        fresh segment its pages are not resident until published into."""
        head = _ALIGN + slots * _ALIGN
        buf[offset : offset + head] = bytes(head)
        _HEADER.pack_into(buf, offset, _MAGIC, slots, slot_bytes, epoch, 0)

    # ------------------------------------------------------------------
    # header helpers
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return _HEADER.unpack_from(self._buf, self._offset)[3]

    def bump_epoch(self, epoch: int) -> None:
        """Wholesale invalidation: entries of other epochs never hit."""
        magic, slots, slot_bytes, _old, clock = _HEADER.unpack_from(
            self._buf, self._offset
        )
        _HEADER.pack_into(self._buf, self._offset, magic, slots, slot_bytes, epoch, clock)

    def _tick(self) -> int:
        (clock,) = _U64.unpack_from(self._buf, self._offset + _CLOCK_AT)
        _U64.pack_into(self._buf, self._offset + _CLOCK_AT, clock + 1)
        return clock + 1

    def _dir_at(self, slot: int) -> tuple[int, bytes, int, int, int]:
        return _DIR.unpack_from(self._buf, self._dir_base + slot * _ALIGN)

    def _dir_write(
        self, slot: int, gen: int, digest: bytes, epoch: int, stamp: int, used: int
    ) -> None:
        _DIR.pack_into(
            self._buf, self._dir_base + slot * _ALIGN, gen, digest, epoch, stamp, used
        )

    # ------------------------------------------------------------------
    # probe
    # ------------------------------------------------------------------
    def get(
        self, key: bytes
    ) -> tuple[dict[str, Any], dict[str, np.ndarray], tuple[int, int]] | None:
        """Look the key up; returns ``(meta, arrays, token)`` or ``None``.

        The arrays are zero-copy views into the slot.  Callers that let
        a view escape the current computation must copy it; every
        caller must re-check :meth:`still_valid` with the token after
        consuming the payload and treat a failure as a miss.
        """
        digest = hashlib.blake2b(key, digest_size=16).digest()
        epoch = self.epoch
        for slot in range(self.slots):
            gen, slot_digest, slot_epoch, _stamp, used = self._dir_at(slot)
            if gen == 0 or gen & 1 or slot_digest != digest or slot_epoch != epoch:
                continue
            try:
                entry = self._read_payload(slot, used, key)
            except Exception:
                self.stats.invalid += 1
                continue
            if entry is None or self._dir_at(slot)[0] != gen:
                self.stats.invalid += 1
                continue
            meta, arrays = entry
            self.stats.hits += 1
            self._touch(slot, gen)
            return meta, arrays, (slot, gen)
        self.stats.misses += 1
        return None

    def still_valid(self, token: tuple[int, int]) -> bool:
        """True while the slot still holds the generation we read."""
        slot, gen = token
        return self._dir_at(slot)[0] == gen

    def _read_payload(
        self, slot: int, used: int, key: bytes
    ) -> tuple[dict[str, Any], dict[str, np.ndarray]] | None:
        base = self._data_base + slot * self.slot_bytes
        if used > self.slot_bytes:
            return None
        (key_len,) = _U32.unpack_from(self._buf, base)
        if key_len != len(key) or bytes(self._buf[base + 4 : base + 4 + key_len]) != key:
            return None
        meta_off = base + 4 + key_len
        (meta_len,) = _U32.unpack_from(self._buf, meta_off)
        meta = pickle.loads(bytes(self._buf[meta_off + 4 : meta_off + 4 + meta_len]))
        # Array offsets are not stored: both sides derive the identical
        # layout from the descriptor order, so the pickled meta length
        # can never disagree with the offsets it implies.
        cursor = _aligned(4 + key_len + 4 + meta_len)
        arrays: dict[str, np.ndarray] = {}
        for name, shape, dtype, nbytes in meta.get("arrays", ()):
            view = np.ndarray(
                tuple(shape), dtype=dtype, buffer=self._buf, offset=base + cursor
            )
            view.setflags(write=False)
            arrays[name] = view
            cursor = _aligned(cursor + nbytes)
        return meta, arrays

    def _touch(self, slot: int, gen: int) -> None:
        # Racy by design: a stale stamp merely skews LRU, never
        # correctness, so hits do not take the writer lock.  Only the
        # stamp word is written — rewriting the whole entry would put
        # back the generation a concurrent publisher has just advanced,
        # and the reader's own ``still_valid`` would then pass on a
        # payload that is being (or has been) replaced.
        if self._dir_at(slot)[0] == gen:
            _U64.pack_into(
                self._buf, self._dir_base + slot * _ALIGN + _STAMP_AT, self._tick()
            )

    # ------------------------------------------------------------------
    # publish
    # ------------------------------------------------------------------
    def put(
        self,
        key: bytes,
        meta: Mapping[str, Any],
        arrays: Mapping[str, np.ndarray],
    ) -> bool:
        """Publish a payload; returns False when it cannot fit or the
        segment's file is gone (its publisher has closed).

        Takes the cross-process writer lock, so concurrent publishers
        serialize and the per-slot seqlock sees a single writer.  A
        racing publication of the same key is detected under the lock
        and treated as success (the work is already shared).
        """
        packed = {
            name: np.ascontiguousarray(array) for name, array in arrays.items()
        }
        blob_meta = dict(meta)
        blob_meta["arrays"] = [
            (name, tuple(int(s) for s in array.shape), array.dtype.str, array.nbytes)
            for name, array in packed.items()
        ]
        meta_bytes = pickle.dumps(blob_meta, protocol=pickle.HIGHEST_PROTOCOL)
        prefix = 4 + len(key)
        cursor = _aligned(prefix + 4 + len(meta_bytes))
        offsets: list[int] = []
        for array in packed.values():
            offsets.append(cursor)
            cursor = _aligned(cursor + array.nbytes)
        used = cursor
        if used > self.slot_bytes:
            self.stats.oversize += 1
            return False
        digest = hashlib.blake2b(key, digest_size=16).digest()
        with _FlockGuard(self._path) as locked:
            if not locked:
                return False
            epoch = self.epoch
            slot = self._pick_slot(digest, epoch)
            if slot is None:  # raced publication of the same key
                self.stats.publishes += 1
                return True
            gen, _d, _e, _s, _u = self._dir_at(slot)
            if gen:
                self.stats.evictions += 1
            writing = gen + 1  # odd: publication in progress
            self._dir_write(slot, writing, digest, epoch, 0, used)
            base = self._data_base + slot * self.slot_bytes
            _U32.pack_into(self._buf, base, len(key))
            self._buf[base + 4 : base + 4 + len(key)] = key
            meta_off = base + prefix
            _U32.pack_into(self._buf, meta_off, len(meta_bytes))
            self._buf[meta_off + 4 : meta_off + 4 + len(meta_bytes)] = meta_bytes
            for rel, array in zip(offsets, packed.values()):
                dest = np.ndarray(
                    array.shape, dtype=array.dtype, buffer=self._buf, offset=base + rel
                )
                dest[...] = array
                del dest
            self._dir_write(slot, writing + 1, digest, epoch, self._tick(), used)
        self.stats.publishes += 1
        return True

    def _pick_slot(self, digest: bytes, epoch: int) -> int | None:
        """Choose the publication slot: dup → None, else empty/LRU."""
        victim = 0
        victim_stamp = None
        for slot in range(self.slots):
            gen, slot_digest, slot_epoch, stamp, _used = self._dir_at(slot)
            if gen and not gen & 1 and slot_digest == digest and slot_epoch == epoch:
                return None
            if gen == 0:
                return slot
            # Entries from other epochs are dead weight: evict first.
            rank = (slot_epoch == epoch, stamp)
            if victim_stamp is None or rank < victim_stamp:
                victim, victim_stamp = slot, rank
        return victim

    def as_dict(self) -> dict[str, Any]:
        """Geometry plus live directory occupancy (tests, bench)."""
        live = sum(
            1 for slot in range(self.slots)
            if (d := self._dir_at(slot))[0] and not d[0] & 1 and d[2] == self.epoch
        )
        return {
            "slots": self.slots,
            "slot_bytes": self.slot_bytes,
            "live_entries": live,
            "epoch": self.epoch,
            **self.stats.as_dict(),
        }


class _FlockGuard:
    """Context manager: exclusive flock on an existing file."""

    def __init__(self, path: str):
        self._path = path
        self._fd: int | None = None

    def __enter__(self) -> bool:
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            return False
        try:
            self._fd = os.open(self._path, os.O_RDWR)  # never creates it
            fcntl.flock(self._fd, fcntl.LOCK_EX)
        except OSError:  # the file is gone
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None
            return False
        return True

    def __exit__(self, *exc: object) -> None:
        if self._fd is not None:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            finally:
                os.close(self._fd)
            self._fd = None


def _aligned(offset: int) -> int:
    return (offset + _PAYLOAD_ALIGN - 1) // _PAYLOAD_ALIGN * _PAYLOAD_ALIGN
