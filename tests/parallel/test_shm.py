"""Shared-memory data plane: roundtrip fidelity and segment lifecycle.

The acceptance bar: attached networks are byte-identical views of the
published stores, no ``/dev/shm`` entry survives an engine close, a
handle close, or interpreter exit, and what a SIGKILLed publisher could
not remove is gone after the next engine start.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.p2p.network import SuperPeerNetwork
from repro.parallel import ParallelEngine
from repro.parallel.shm import (
    SHM_ENV,
    Segment,
    attach_network,
    manifest_data_nbytes,
    publish_network,
    shm_enabled,
    shm_supported,
    sweep_dead_publishers,
)

pytestmark = pytest.mark.skipif(
    not shm_supported(), reason="platform has no POSIX shared memory"
)

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _segment_exists(name: str) -> bool:
    return os.path.exists(os.path.join("/dev/shm", name))


@pytest.fixture(scope="module")
def network() -> SuperPeerNetwork:
    return SuperPeerNetwork.build(
        n_peers=12, points_per_peer=30, dimensionality=5, seed=3
    )


def _child_echo(name: str, size: int) -> None:
    """Attach by name, check the parent's bytes, answer in the second half."""
    segment = Segment(name)
    try:
        assert len(segment.buf) == size
        assert bytes(segment.buf[: size // 2]) == b"\x5a" * (size // 2)
        segment.buf[size // 2 :] = b"\xc3" * (size - size // 2)
    finally:
        segment.close()


class TestSegment:
    NAME = f"repro-shm-{os.getpid():x}-test-segment"

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_child_attaches_by_name_and_round_trips(self, method):
        size = 3 * 4096 + 17
        segment = Segment(self.NAME, size=size)
        try:
            assert bytes(segment.buf) == bytes(size)  # fresh segments read as zeros
            segment.buf[: size // 2] = b"\x5a" * (size // 2)
            child = multiprocessing.get_context(method).Process(
                target=_child_echo, args=(self.NAME, size)
            )
            child.start()
            child.join(timeout=60)
            assert child.exitcode == 0
            assert bytes(segment.buf[size // 2 :]) == b"\xc3" * (size - size // 2)
            assert _segment_exists(self.NAME)  # the attacher never unlinks
        finally:
            segment.close()
            segment.unlink()
        assert not _segment_exists(self.NAME)

    def test_close_with_a_live_view_raises(self):
        segment = Segment(self.NAME, size=64)
        try:
            view = np.frombuffer(segment.buf, dtype=np.float64)
            with pytest.raises(BufferError):
                segment.close()
            view[0] = 1.5  # the mapping is still there
            del view
            segment.close()
        finally:
            segment.unlink()

    def test_unlink_twice_is_a_noop(self):
        segment = Segment(self.NAME, size=1)
        segment.close()
        segment.unlink()
        assert not _segment_exists(self.NAME)
        segment.unlink()

    def test_name_collision_raises(self):
        segment = Segment(self.NAME, size=8)
        try:
            with pytest.raises(FileExistsError):
                Segment(self.NAME, size=8)
            assert _segment_exists(self.NAME)  # the loser removed nothing
        finally:
            segment.close()
            segment.unlink()

    def test_attaching_a_missing_name_raises(self):
        with pytest.raises(FileNotFoundError):
            Segment(self.NAME)


class TestRoundtrip:
    def test_attached_stores_are_byte_identical(self, network):
        with publish_network(network) as shared:
            with attach_network(shared.manifest) as attached:
                assert attached.dimensionality == network.dimensionality
                assert attached.index_kind == network.index_kind
                assert attached.epoch == network.epoch
                assert attached.topology.adjacency == network.topology.adjacency
                for sp_id in network.topology.superpeer_ids:
                    mine = network.superpeers[sp_id].store
                    theirs = attached.superpeers[sp_id].store
                    assert np.array_equal(mine.points.values, theirs.points.values)
                    assert np.array_equal(mine.points.ids, theirs.points.ids)
                    assert np.array_equal(mine.f, theirs.f)

    def test_attached_partitions_match(self, network):
        """The pre-processing publication: raw partitions, no stores."""
        with publish_network(network, partitions=True) as shared:
            assert shared.manifest["stores"] == {}
            with attach_network(shared.manifest) as attached:
                assert all(sp.store is None for sp in attached.superpeers.values())
                assert set(attached.peers) == set(network.peers)
                for peer_id, peer in network.peers.items():
                    assert np.array_equal(
                        peer.data.values, attached.peers[peer_id].data.values
                    )
                    assert np.array_equal(
                        peer.data.ids, attached.peers[peer_id].data.ids
                    )

    def test_query_publication_carries_stores_only(self, network):
        stores = [sp.store for sp in network.superpeers.values()]
        store_nbytes = sum(
            # spelled out: the publication must carry exactly these arrays
            s.points.values.nbytes + s.points.ids.nbytes + s.f.nbytes for s in stores
        )
        with publish_network(network) as shared:
            assert shared.manifest["partitions"] == {}
            assert manifest_data_nbytes(shared.manifest) == store_nbytes
            assert store_nbytes <= shared.nbytes < store_nbytes + 64 * 3 * len(stores)
            with attach_network(shared.manifest) as attached:
                assert attached.peers == {}
                assert attached.topology.peers_of == network.topology.peers_of

    def test_attached_views_are_read_only(self, network):
        with publish_network(network) as shared:
            with attach_network(shared.manifest) as attached:
                store = attached.superpeers[network.topology.superpeer_ids[0]].store
                with pytest.raises(ValueError):
                    store.points.values[0, 0] = 42.0
                with pytest.raises(ValueError):
                    store.f[0] = -1.0

    def test_attached_network_answers_queries_identically(self, network):
        from repro.data.workload import Query
        from repro.skypeer.executor import execute_query
        from repro.skypeer.variants import Variant

        query = Query(subspace=(0, 2, 4), initiator=network.topology.superpeer_ids[0])
        with publish_network(network) as shared:
            with attach_network(shared.manifest) as attached:
                for variant in Variant:
                    reference = execute_query(network, query, variant)
                    run = execute_query(attached, query, variant)
                    assert run.result_ids == reference.result_ids
                    assert run.volume_bytes == reference.volume_bytes
                    assert run.comparisons == reference.comparisons
                    assert run.initial_threshold == reference.initial_threshold

    def test_unpreprocessed_network_publishes_partitions_only(self):
        raw = SuperPeerNetwork.build(
            n_peers=12, points_per_peer=30, dimensionality=5, seed=3, preprocess=False
        )
        with publish_network(raw) as query_publication:
            assert manifest_data_nbytes(query_publication.manifest) == 0
        with publish_network(raw, partitions=True) as shared:
            assert shared.manifest["stores"] == {}
            with attach_network(shared.manifest) as attached:
                assert all(sp.store is None for sp in attached.superpeers.values())
                result = attached.compute_superpeer_preprocess(
                    attached.topology.superpeer_ids[0]
                )
                assert result.peer_results


class TestLifecycle:
    def test_close_unlinks_segment(self, network):
        shared = publish_network(network)
        name = shared.name
        assert _segment_exists(name)
        shared.close()
        assert not _segment_exists(name)
        shared.close()  # idempotent

    def test_context_manager_unlinks(self, network):
        with publish_network(network) as shared:
            name = shared.name
            assert _segment_exists(name)
        assert not _segment_exists(name)

    def test_engine_close_unlinks_publications(self, network):
        from repro.data.workload import Query

        engine = ParallelEngine(workers=2, use_shm=True)
        try:
            query = Query(subspace=(0, 1), initiator=network.topology.superpeer_ids[0])
            engine.run_queries(network, [query], ["FTPM"])
            segments = engine.published_segments()
            assert segments and all(_segment_exists(s) for s in segments)
        finally:
            engine.close()
        assert all(not _segment_exists(s) for s in segments)

    def test_interpreter_exit_unlinks(self, tmp_path):
        """An abandoned handle must not leak past interpreter exit."""
        script = (
            "import sys\n"
            "from repro.p2p.network import SuperPeerNetwork\n"
            "from repro.parallel.shm import publish_network\n"
            "net = SuperPeerNetwork.build(n_peers=6, points_per_peer=10,"
            " dimensionality=3, seed=0)\n"
            "shared = publish_network(net)\n"
            "print(shared.name)\n"
            "sys.stdout.flush()\n"
            # exit WITHOUT closing: the atexit hook must unlink
        )
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        name = out.stdout.strip().splitlines()[-1]
        assert name.startswith("repro-shm-")
        assert not _segment_exists(name)

    def test_engine_interpreter_exit_unlinks(self):
        """Engine publications unlink at exit even without close()."""
        script = (
            "import sys\n"
            "from repro.data.workload import Query\n"
            "from repro.p2p.network import SuperPeerNetwork\n"
            "from repro.parallel import ParallelEngine\n"
            "net = SuperPeerNetwork.build(n_peers=6, points_per_peer=10,"
            " dimensionality=3, seed=0)\n"
            "engine = ParallelEngine(workers=2, use_shm=True)\n"
            "engine.run_queries(net, [Query(subspace=(0, 1),"
            " initiator=net.topology.superpeer_ids[0])], ['FTPM'])\n"
            "print('\\n'.join(engine.published_segments()))\n"
            "sys.stdout.flush()\n"
            # no engine.close(): the atexit hook must run it
        )
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        names = [n for n in out.stdout.strip().splitlines() if n.startswith("repro-shm-")]
        assert names
        for name in names:
            assert not _segment_exists(name)

    def test_fork_pool_starts_no_resource_tracker(self):
        """Segments are nobody else's business: a forked pool that builds,
        serves and updates a network never starts multiprocessing's
        resource-tracker process."""
        script = (
            "from multiprocessing import resource_tracker\n"
            "from repro.data.workload import Query\n"
            "from repro.p2p.network import SuperPeerNetwork\n"
            "from repro.p2p.workload import fresh_points\n"
            "from repro.parallel import get_engine, shutdown_engines\n"
            "engine = get_engine(2)\n"
            "assert engine.start_method == 'fork' and engine.use_shm\n"
            "net = SuperPeerNetwork.build(n_peers=12, n_superpeers=3,"
            " points_per_peer=10, dimensionality=3, seed=0, engine=engine)\n"
            "query = Query(subspace=(0, 1), initiator=net.topology.superpeer_ids[0])\n"
            "engine.run_queries(net, [query], ['FTPM'])\n"
            "report = engine.apply_update(net, 'insert', peer_id=0,"
            " points=fresh_points(net, 2, seed=1))\n"
            "assert report.republished_bytes > 0  # an overlay segment was made\n"
            "engine.run_queries(net, [query], ['FTPM'])\n"
            "shutdown_engines()\n"
            "assert resource_tracker._resource_tracker._pid is None\n"
        )
        env = dict(os.environ, PYTHONPATH=REPO_SRC, REPRO_MP_START="fork", REPRO_SHM="1")
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr

    def test_no_leaked_segments_after_suite(self):
        """Belt and braces: nothing from this process lingers in /dev/shm."""
        from repro.parallel import shutdown_engines

        # Shared engines cache publications until closed by design —
        # drain them first so this check is independent of which other
        # test modules ran (and in what order) before this one.
        shutdown_engines()
        mine = f"repro-shm-{os.getpid():x}-"
        leaked = [n for n in os.listdir("/dev/shm") if n.startswith(mine)]
        assert leaked == []


#: Publishes a network with everything a hard kill can strand — base
#: segment, one overlay, the block cache's lockfile — writes the manifest
#: to argv[1], says "ready" and waits for a line before closing properly.
_PUBLISHER = """
import pickle, sys
import numpy as np
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.updates import insert_points
from repro.p2p.workload import fresh_points
from repro.parallel.shm import publish_network

net = SuperPeerNetwork.build(n_peers=6, points_per_peer=10, dimensionality=3, seed=0)
shared = publish_network(net)
assert shared.cache.put(b"key", {}, {"positions": np.arange(4)})
sp = net.topology.superpeer_ids[0]
insert_points(net, net.topology.peers_of[sp][0], fresh_points(net, 2, seed=1))
shared.republish(net, [sp])
with open(sys.argv[1], "wb") as handle:
    pickle.dump(shared.manifest, handle)
print("ready", flush=True)
sys.stdin.readline()
shared.close()
"""


class TestHardKill:
    """The defined crash outcome: SIGKILL strands a publisher's files,
    the next engine start — in any process — removes exactly those."""

    @staticmethod
    def _files(pid: int, tmpdir) -> tuple[list[str], list[str]]:
        prefix = f"repro-shm-{pid:x}-"
        segments = sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))
        return segments, sorted(os.listdir(tmpdir))

    def test_next_engine_start_reaps_the_dead_and_spares_the_living(self, tmp_path):
        tmpdir = tmp_path / "tmp"
        tmpdir.mkdir()
        env = dict(
            os.environ, PYTHONPATH=REPO_SRC, TMPDIR=str(tmpdir), REPRO_SHM_CACHE="1"
        )
        publishers, manifests, expected = [], [], []
        try:
            for role in ("victim", "live"):
                publisher = subprocess.Popen(
                    [sys.executable, "-c", _PUBLISHER, str(tmp_path / role)],
                    env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                )
                publishers.append(publisher)
                assert publisher.stdout.readline() == "ready\n"
                manifests.append(pickle.loads((tmp_path / role).read_bytes()))
            victim, live = publishers
            for manifest in manifests:
                (overlay,) = manifest["overlays"].values()
                expected.append((
                    sorted([manifest["segment"], overlay["segment"]]),
                    os.path.basename(manifest["cache"]["lockfile"]),
                ))
            (victim_segments, victim_lock), (live_segments, live_lock) = expected

            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
            # A hard kill leaves exactly these files, no more, no fewer.
            assert self._files(victim.pid, tmpdir) == (
                victim_segments, sorted([victim_lock, live_lock])
            )

            sweeper = subprocess.run(
                [sys.executable, "-c",
                 "from repro.parallel import ParallelEngine\n"
                 "ParallelEngine(workers=1).close()\n"],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert sweeper.returncode == 0, sweeper.stderr
            assert self._files(victim.pid, tmpdir) == ([], [live_lock])
            assert self._files(live.pid, tmpdir) == (live_segments, [live_lock])
            with attach_network(manifests[1]) as attached:  # base and overlay map
                assert all(len(sp.store) for sp in attached.superpeers.values())

            live.stdin.write("done\n")
            live.stdin.flush()
            assert live.wait(timeout=30) == 0
            assert self._files(live.pid, tmpdir) == ([], [])
        finally:
            for publisher in publishers:
                publisher.kill()
                publisher.wait(timeout=30)
                publisher.stdin.close()
                publisher.stdout.close()
            for segments, _lock in expected:
                for name in segments:  # a failed run cleans up too
                    try:
                        os.unlink(os.path.join("/dev/shm", name))
                    except FileNotFoundError:
                        pass

    def test_sweep_leaves_live_and_foreign_names_alone(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        gone = subprocess.Popen([sys.executable, "-c", "pass"])
        gone.wait(timeout=30)
        dead = f"repro-shm-{gone.pid:x}-0-deadbeef"
        mine = f"repro-shm-{os.getpid():x}-0-deadbeef"
        foreign = "repro-shm-nothex-0-deadbeef"
        paths = []
        for name in (dead, mine, foreign):
            paths += [f"/dev/shm/{name}", str(tmp_path / f"{name}.cachelock")]
        other = tmp_path / f"{dead}.pkl"  # right pid, not a lockfile
        try:
            for path in [*paths, other]:
                open(path, "wb").close()
            sweep_dead_publishers()
            assert [os.path.exists(p) for p in paths] == [False, False, True, True, True, True]
            assert other.exists()
        finally:
            for path in paths:
                if path.startswith("/dev/shm/") and os.path.exists(path):
                    os.unlink(path)


class TestToggle:
    def test_env_disables(self, monkeypatch):
        monkeypatch.setenv(SHM_ENV, "0")
        assert shm_enabled() is False
        monkeypatch.setenv(SHM_ENV, "off")
        assert shm_enabled() is False

    def test_env_forces(self, monkeypatch):
        monkeypatch.setenv(SHM_ENV, "1")
        assert shm_enabled() is True

    def test_default_is_autodetect(self, monkeypatch):
        monkeypatch.delenv(SHM_ENV, raising=False)
        assert shm_enabled() is shm_supported()

    def test_snapshot_fallback_gives_identical_results(self, network, monkeypatch):
        from repro.data.workload import Query
        from repro.skypeer.executor import execute_query
        from repro.skypeer.variants import Variant

        queries = [
            Query(subspace=(0, 2), initiator=network.topology.superpeer_ids[0]),
            Query(subspace=(1, 3), initiator=network.topology.superpeer_ids[-1]),
        ]
        serial = [execute_query(network, q, Variant.RTFM) for q in queries]
        with ParallelEngine(workers=2, use_shm=False) as engine:
            runs = engine.run_queries(network, queries, [Variant.RTFM])
            assert engine.stats.publish_modes == ["snapshot"]
            assert engine.published_segments() == []
        for s, p in zip(serial, runs[Variant.RTFM]):
            assert s.result_ids == p.result_ids
            assert s.volume_bytes == p.volume_bytes
            assert s.comparisons == p.comparisons
