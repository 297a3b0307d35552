"""Unit tests for the shared-memory block cache (``repro.parallel.shmcache``).

The cache is a plain region protocol over any buffer, so these tests
exercise the seqlock, eviction and invalidation machinery over an
ordinary ``bytearray`` — no actual shared-memory segment needed (a
scratch file stands in for the segment file writers lock); the
cross-process path is covered by the engine differential tests.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.parallel.shmcache import (
    SharedBlockCache,
    cache_geometry,
    cache_region_nbytes,
    make_key,
)
from repro.parallel.shmcache import _DIR, _HEADER  # type: ignore[attr-defined]

SLOTS = 4
SLOT_BYTES = 1024


@pytest.fixture
def segment_file(tmp_path) -> str:
    """What writers lock: it has to exist, ``put`` never creates it."""
    path = tmp_path / "segment"
    path.touch()
    return str(path)


@pytest.fixture
def cache(segment_file):
    buf = memoryview(bytearray(cache_region_nbytes(SLOTS, SLOT_BYTES)))
    SharedBlockCache.format(buf, 0, SLOTS, SLOT_BYTES, epoch=7)
    return SharedBlockCache(buf, 0, segment_file)


def _payload(seed: int = 0) -> tuple[dict, dict]:
    rng = np.random.default_rng(seed)
    meta = {"threshold": 0.25, "examined": 12 + seed}
    arrays = {
        "positions": rng.integers(0, 100, size=8, dtype=np.int64),
        "proj": rng.random((8, 3)),
    }
    return meta, arrays


class TestRoundTrip:
    def test_put_get_returns_identical_payload(self, cache):
        key = make_key("scan", (0, 2), 0.5)
        meta, arrays = _payload()
        assert cache.put(key, meta, arrays)
        hit = cache.get(key)
        assert hit is not None
        got_meta, got_arrays, token = hit
        assert got_meta["threshold"] == meta["threshold"]
        assert got_meta["examined"] == meta["examined"]
        for name, array in arrays.items():
            assert np.array_equal(got_arrays[name], array)
            assert not got_arrays[name].flags.writeable
        assert cache.still_valid(token)
        assert cache.stats.hits == 1 and cache.stats.publishes == 1

    def test_absent_key_misses(self, cache):
        assert cache.get(make_key("scan", (1,))) is None
        assert cache.stats.misses == 1

    def test_duplicate_publish_is_success_without_second_slot(self, cache):
        key = make_key("proj", (0, 1))
        meta, arrays = _payload()
        assert cache.put(key, meta, arrays)
        assert cache.put(key, meta, arrays)
        assert cache.stats.publishes == 2
        assert cache.as_dict()["live_entries"] == 1

    def test_make_key_distinguishes_thresholds_and_subspaces(self):
        assert make_key("scan", (0, 1), 0.5) != make_key("scan", (0, 1), 0.5000001)
        assert make_key("scan", (0, 1), 0.5) != make_key("scan", (0, 2), 0.5)
        assert make_key("scan", (0, 1), 0.5) != make_key("proj", (0, 1), 0.5)


class TestSeqlock:
    def test_odd_generation_entry_is_skipped(self, cache):
        key = make_key("scan", (0,))
        cache.put(key, *_payload())
        # Simulate a writer caught mid-publication: flip gen odd.
        gen, digest, epoch, stamp, used = _DIR.unpack_from(cache._buf, cache._dir_base)
        _DIR.pack_into(cache._buf, cache._dir_base, gen + 1, digest, epoch, stamp, used)
        assert cache.get(key) is None
        assert cache.stats.misses == 1

    def test_token_invalidates_when_slot_is_overwritten(self, cache):
        key = make_key("scan", (0,))
        cache.put(key, *_payload())
        _meta, _arrays, token = cache.get(key)
        assert cache.still_valid(token)
        # Fill every slot so a further publish evicts the one we read.
        for i in range(SLOTS):
            cache.put(make_key("scan", (9, i)), *_payload(i))
        assert not cache.still_valid(token)

    def test_hit_touch_cannot_revalidate_an_evicted_slot(self, cache, segment_file):
        """A publisher evicting the slot while a hit refreshes its LRU
        stamp must still fail the reader's ``still_valid`` — the stamp
        refresh may not write the generation it read a moment earlier
        back over the publisher's (that once validated a torn read: a
        wrong answer on skybench's ``hot_subspaces``)."""
        key = make_key("scan", (0,))
        cache.put(key, *_payload())
        for i in range(1, SLOTS):  # fill up, so the next publish must evict
            cache.put(make_key("scan", (9, i)), *_payload(i))
        publisher = SharedBlockCache(cache._buf, 0, segment_file)
        tick = cache._tick

        def tick_while_the_slot_is_evicted() -> int:
            publisher.put(make_key("scan", (7,)), *_payload(7))
            return tick()

        cache._tick = tick_while_the_slot_is_evicted
        _meta, arrays, token = cache.get(key)
        assert not cache.still_valid(token)
        assert publisher.get(make_key("scan", (7,))) is not None

    def test_second_handle_over_same_buffer_sees_publication(self, cache, segment_file):
        key = make_key("scan", 3, "block")
        meta, arrays = _payload(5)
        cache.put(key, meta, arrays)
        other = SharedBlockCache(cache._buf, 0, segment_file)
        hit = other.get(key)
        assert hit is not None
        assert np.array_equal(hit[1]["positions"], arrays["positions"])


class TestFormat:
    def test_format_writes_header_and_directory_only(self, segment_file):
        """A region is usable whatever its data area holds, and ``format``
        does not touch that area: in a fresh segment its pages stay
        non-resident until a worker publishes."""
        head = 64 + SLOTS * 64
        raw = bytearray(b"\xa5" * cache_region_nbytes(SLOTS, SLOT_BYTES))
        SharedBlockCache.format(memoryview(raw), 0, SLOTS, SLOT_BYTES, epoch=7)
        assert raw[head:] == b"\xa5" * (SLOTS * SLOT_BYTES)
        assert _HEADER.unpack_from(raw, 0)[1:] == (SLOTS, SLOT_BYTES, 7, 0)
        assert raw[_HEADER.size : head] == bytes(head - _HEADER.size)
        cache = SharedBlockCache(memoryview(raw), 0, segment_file)
        keys = [make_key("scan", (i,)) for i in range(2 * SLOTS)]
        assert all(cache.get(key) is None for key in keys)
        assert cache.stats.misses == len(keys) and cache.stats.invalid == 0
        assert cache.as_dict()["live_entries"] == 0
        # ...and the first publications land in empty slots, evicting nothing.
        for key in keys[:SLOTS]:
            assert cache.put(key, *_payload())
        assert cache.stats.evictions == 0
        assert all(cache.get(key) is not None for key in keys[:SLOTS])


class TestInvalidation:
    def test_epoch_bump_invalidates_wholesale(self, cache):
        key = make_key("scan", (0, 1))
        cache.put(key, *_payload())
        assert cache.get(key) is not None
        cache.bump_epoch(8)
        assert cache.get(key) is None
        assert cache.as_dict()["live_entries"] == 0

    def test_new_epoch_publications_hit_again(self, cache):
        key = make_key("scan", (0, 1))
        cache.put(key, *_payload())
        cache.bump_epoch(8)
        cache.put(key, *_payload(1))
        hit = cache.get(key)
        assert hit is not None
        assert hit[0]["examined"] == 13


class TestEviction:
    def test_lru_evicts_least_recently_stamped(self, cache):
        keys = [make_key("scan", (i,)) for i in range(SLOTS + 1)]
        for key in keys[:SLOTS]:
            cache.put(key, *_payload())
        cache.get(keys[0])  # refresh slot 0's stamp
        cache.put(keys[SLOTS], *_payload())
        assert cache.stats.evictions == 1
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[SLOTS]) is not None
        # Exactly one of the untouched middle entries was evicted.
        survivors = sum(cache.get(k) is not None for k in keys[1:SLOTS])
        assert survivors == SLOTS - 2

    def test_stale_epoch_entries_evicted_first(self, cache):
        old = make_key("scan", (0,))
        cache.put(old, *_payload())
        cache.bump_epoch(8)
        for i in range(SLOTS - 1):
            cache.put(make_key("scan", (1, i)), *_payload(i))
        # All slots now used; the next publish must pick the stale-epoch
        # slot over any current-epoch entry.
        cache.put(make_key("scan", (2,)), *_payload())
        assert cache.stats.evictions == 1
        assert cache.get(make_key("scan", (2,))) is not None
        for i in range(SLOTS - 1):
            assert cache.get(make_key("scan", (1, i))) is not None

    def test_oversize_payload_is_rejected(self, cache):
        huge = {"blob": np.zeros(SLOT_BYTES, dtype=np.float64)}
        assert not cache.put(make_key("scan", (0,)), {}, huge)
        assert cache.stats.oversize == 1
        assert cache.get(make_key("scan", (0,))) is None


class TestWriterLock:
    """The lock is the segment file itself: a publication is one kind of file."""

    @pytest.mark.parametrize(
        "segment_home", ["dev-shm", "no-dev-shm", "small-dev-shm"], indirect=True
    )
    def test_put_after_the_publisher_closed_creates_nothing(self, segment_home):
        from repro.p2p.network import SuperPeerNetwork
        from repro.parallel.shm import attach_network, publish_network

        network = SuperPeerNetwork.build(
            n_peers=6, points_per_peer=10, dimensionality=3, seed=0
        )
        others = segment_home.files()  # of engines other tests left running
        shared = publish_network(network)
        attached = attach_network(shared.manifest)
        early, late = make_key("scan", (0,)), make_key("scan", (1,))
        meta, arrays = _payload()
        assert attached.cache.put(early, meta, arrays)
        assert segment_home.files() == sorted([*others, shared.path])  # no lock file
        shared.close()
        # The mapping outlives the publication; the lock does not.
        assert attached.cache.put(late, meta, arrays) is False
        assert attached.cache.get(late) is None
        hit = attached.cache.get(early)
        assert hit is not None and np.array_equal(hit[1]["proj"], arrays["proj"])
        del hit
        assert segment_home.files() == others and os.listdir(segment_home.tmpdir) == []
        attached.close()


class TestKnobs:
    def test_geometry_aligns_and_validates(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_CACHE_SLOTS", "3")
        monkeypatch.setenv("REPRO_SHM_CACHE_SLOT_BYTES", "100")
        slots, slot_bytes = cache_geometry()
        assert slots == 3 and slot_bytes == 128
        monkeypatch.setenv("REPRO_SHM_CACHE_SLOTS", "0")
        with pytest.raises(ValueError):
            cache_geometry()

    def test_header_region_sizing(self):
        assert cache_region_nbytes(SLOTS, SLOT_BYTES) == 64 + SLOTS * 64 + SLOTS * SLOT_BYTES
        assert _HEADER.size <= 64 and _DIR.size <= 64
