"""Shared-memory data plane: roundtrip fidelity and segment lifecycle.

The acceptance bar: attached networks are byte-identical views of the
published stores, no segment file survives an engine close, a handle
close, or interpreter exit, and what a SIGKILLed publisher could not
remove is gone after the next engine start — wherever the segments
live: every class here runs on the host as it is and again, through
``off_dev_shm``, with ``/dev/shm`` absent and with it too small.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.p2p.network import SuperPeerNetwork
from repro.parallel import ParallelEngine
from repro.parallel.shm import (
    Segment,
    attach_network,
    manifest_data_nbytes,
    publish_network,
    segment_directory,
    sweep_dead_publishers,
)
from tests.conftest import off_dev_shm, place_segments


@pytest.fixture(scope="module")
def network() -> SuperPeerNetwork:
    return SuperPeerNetwork.build(
        n_peers=12, points_per_peer=30, dimensionality=5, seed=3
    )


def _child_echo(path: str, size: int) -> None:
    """Attach by path, check the parent's bytes, answer in the second half."""
    segment = Segment(path)
    try:
        assert len(segment.buf) == size
        assert bytes(segment.buf[: size // 2]) == b"\x5a" * (size // 2)
        segment.buf[size // 2 :] = b"\xc3" * (size - size // 2)
    finally:
        segment.close()


@pytest.mark.usefixtures("segment_home")
class TestSegment:
    NAME = f"repro-shm-{os.getpid():x}-test-segment"

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_child_attaches_by_name_and_round_trips(self, method, segment_home):
        size = 3 * 4096 + 17
        segment = Segment(self.NAME, size=size)
        try:
            assert segment.path == os.path.join(segment_home.directory, self.NAME)
            assert bytes(segment.buf) == bytes(size)  # fresh segments read as zeros
            segment.buf[: size // 2] = b"\x5a" * (size // 2)
            # The child knows nothing of where segments go: it opens the path.
            child = multiprocessing.get_context(method).Process(
                target=_child_echo, args=(segment.path, size)
            )
            child.start()
            child.join(timeout=60)
            assert child.exitcode == 0
            assert bytes(segment.buf[size // 2 :]) == b"\xc3" * (size - size // 2)
            assert os.path.exists(segment.path)  # the attacher never unlinks
        finally:
            segment.close()
            segment.unlink()
        assert not os.path.exists(segment.path)

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
        assert not os.path.exists(segment.path)
        segment.unlink()

    def test_name_collision_raises(self):
        segment = Segment(self.NAME, size=8)
        try:
            with pytest.raises(FileExistsError):
                Segment(self.NAME, size=8)
            assert os.path.exists(segment.path)  # the loser removed nothing
        finally:
            segment.close()
            segment.unlink()

    def test_attaching_a_missing_name_raises(self, segment_home):
        with pytest.raises(FileNotFoundError):
            Segment(os.path.join(segment_home.directory, self.NAME))


@off_dev_shm
class TestSegmentOffDevShm(TestSegment):
    pass


class TestPlacement:
    """A new segment goes where it is seen to fit; nothing is tried."""

    def test_dev_shm_when_it_takes_files_and_has_room(
        self, segment_home, tmp_path, monkeypatch
    ):
        assert segment_directory(1) == segment_home.directory != segment_home.tmpdir
        place_segments(monkeypatch.setattr, str(tmp_path))  # any directory that does
        assert segment_directory(1) == str(tmp_path)

    @off_dev_shm
    def test_temp_directory_otherwise(self, segment_home):
        assert segment_directory(1) == segment_home.tmpdir
        assert os.listdir(segment_home.tmpdir) == []  # asked, not tried

    def test_each_segment_is_placed_by_its_own_size(self, segment_home, monkeypatch):
        real = os.statvfs
        room = SimpleNamespace(f_bavail=2, f_frsize=4096)
        monkeypatch.setattr(
            os, "statvfs",
            lambda path: room if path == segment_home.directory else real(path),
        )
        assert segment_directory(8192) == segment_home.directory
        assert segment_directory(8193) == segment_home.tmpdir

    def test_overlay_in_the_other_directory_attaches_and_refreshes(
        self, segment_home, monkeypatch
    ):
        """One slot's segment rewritten into the temp directory, the
        others where the host put them: the manifest names both places
        and an attacher maps both."""
        import copy

        from repro.p2p.updates import insert_points
        from repro.p2p.workload import fresh_points

        net = SuperPeerNetwork.build(
            n_peers=12, n_superpeers=3, points_per_peer=10, dimensionality=3, seed=0
        )
        sp, other = net.topology.superpeer_ids[:2]
        with publish_network(net) as shared:
            attached = attach_network(copy.deepcopy(shared.manifest))
            place_segments(monkeypatch.setattr, "/no-such-dev-shm")
            insert_points(net, net.topology.peers_of[sp][0], fresh_points(net, 2, seed=1))
            assert shared.sync(net) == [sp]
            slots = shared.manifest["slots"]
            assert os.path.dirname(slots[sp]["segment"]) == segment_home.tmpdir
            assert os.path.dirname(slots[other]["segment"]) == segment_home.directory
            assert attached.sync(copy.deepcopy(shared.manifest))["slots"] == 1
            with attach_network(shared.manifest) as fresh:
                for view in (attached.network, fresh):
                    for sp_id in (sp, other):
                        mine = net.superpeers[sp_id].store
                        theirs = view.superpeers[sp_id].store
                        assert np.array_equal(mine.points.values, theirs.points.values)
                        assert np.array_equal(mine.f, theirs.f)
            attached.close()
        assert segment_home.files() == []


@pytest.mark.usefixtures("segment_home")
class TestRoundtrip:
    def test_attached_stores_are_byte_identical(self, network):
        with publish_network(network) as shared:
            with attach_network(shared.manifest) as attached:
                assert attached.dimensionality == network.dimensionality
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
            assert shared.manifest["partitions"]
            slots = shared.manifest["slots"].values()
            assert all("store" not in slot for slot in slots)
            assert {peer for slot in slots for peer in slot["peers"]} == set(network.peers)
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
            assert not shared.manifest["partitions"]
            assert all("peers" not in slot for slot in shared.manifest["slots"].values())
            assert len(shared.paths) == len(stores)  # one segment per slot
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
            assert all("store" not in slot for slot in shared.manifest["slots"].values())
            with attach_network(shared.manifest) as attached:
                assert all(sp.store is None for sp in attached.superpeers.values())
                result = attached.compute_superpeer_preprocess(
                    attached.topology.superpeer_ids[0]
                )
                assert result.peer_results


@off_dev_shm
class TestRoundtripOffDevShm(TestRoundtrip):
    pass


@pytest.mark.usefixtures("segment_home")
class TestLifecycle:
    def test_close_unlinks_segment(self, network, segment_home):
        shared = publish_network(network)
        paths = shared.paths
        assert paths and set(paths) <= set(segment_home.files())
        assert {os.path.dirname(path) for path in paths} == {segment_home.directory}
        shared.close()
        assert not set(paths) & set(segment_home.files())
        shared.close()  # idempotent

    def test_context_manager_unlinks(self, network, segment_home):
        with publish_network(network) as shared:
            paths = shared.paths
            assert paths and set(paths) <= set(segment_home.files())
        assert not set(paths) & set(segment_home.files())

    def test_engine_close_unlinks_publications(self, network, segment_home):
        from repro.data.workload import Query

        engine = ParallelEngine(workers=2)
        try:
            query = Query(subspace=(0, 1), initiator=network.topology.superpeer_ids[0])
            engine.run_query(network, query, "FTPM")
            segments = engine.published_segments()
            assert segments and set(segments) <= set(segment_home.files())
        finally:
            engine.close()
        assert not set(segments) & set(segment_home.files())
        if segment_home.directory == "/dev/shm":
            assert os.listdir(segment_home.tmpdir) == []  # nothing but segments, ever

    def test_interpreter_exit_unlinks(self, segment_home):
        """An abandoned handle must not leak past interpreter exit."""
        script = segment_home.child_source + (
            "import os, sys\n"
            "from repro.p2p.network import SuperPeerNetwork\n"
            "from repro.parallel.shm import publish_network\n"
            "net = SuperPeerNetwork.build(n_peers=6, points_per_peer=10,"
            " dimensionality=3, seed=0)\n"
            "shared = publish_network(net)\n"
            "print(os.getpid(), *shared.paths)\n"
            "sys.stdout.flush()\n"
            # exit WITHOUT closing: the atexit hook must unlink
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=segment_home.child_env,
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        pid, *paths = out.stdout.split()
        assert paths
        for path in paths:
            assert os.path.dirname(path) == segment_home.directory
            assert os.path.basename(path).startswith(f"repro-shm-{int(pid):x}-")
        assert segment_home.files(int(pid)) == []

    def test_engine_interpreter_exit_unlinks(self, segment_home):
        """Engine publications unlink at exit even without close()."""
        script = segment_home.child_source + (
            "import os, sys\n"
            "from repro.data.workload import Query\n"
            "from repro.p2p.network import SuperPeerNetwork\n"
            "from repro.parallel import ParallelEngine\n"
            "net = SuperPeerNetwork.build(n_peers=6, points_per_peer=10,"
            " dimensionality=3, seed=0)\n"
            "engine = ParallelEngine(workers=2)\n"
            "engine.run_query(net, Query(subspace=(0, 1),"
            " initiator=net.topology.superpeer_ids[0]), 'FTPM')\n"
            "print(os.getpid(), *engine.published_segments())\n"
            "sys.stdout.flush()\n"
            # no engine.close(): the atexit hook must run it
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=segment_home.child_env,
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        pid, *paths = out.stdout.split()
        assert paths
        assert {os.path.dirname(path) for path in paths} == {segment_home.directory}
        assert segment_home.files(int(pid)) == []

    def test_fork_pool_starts_no_resource_tracker(self, segment_home):
        """Segments are nobody else's business: a forked pool that builds,
        serves and updates a network never starts multiprocessing's
        resource-tracker process."""
        script = segment_home.child_source + (
            "from multiprocessing import resource_tracker\n"
            "from repro.data.workload import Query\n"
            "from repro.p2p.network import SuperPeerNetwork\n"
            "from repro.p2p.workload import fresh_points\n"
            "from repro.parallel import get_engine, shutdown_engines\n"
            "engine = get_engine(2)\n"
            "assert engine.start_method == 'fork'\n"
            "net = SuperPeerNetwork.build(n_peers=12, n_superpeers=3,"
            " points_per_peer=10, dimensionality=3, seed=0, engine=engine)\n"
            "query = Query(subspace=(0, 1), initiator=net.topology.superpeer_ids[0])\n"
            "engine.run_query(net, query, 'FTPM')\n"
            "report = engine.apply_update(net, 'insert', peer_id=0,"
            " points=fresh_points(net, 2, seed=1))\n"
            "assert report.republished_bytes > 0  # a slot segment was rewritten\n"
            "engine.run_query(net, query, 'FTPM')\n"
            "shutdown_engines()\n"
            "assert resource_tracker._resource_tracker._pid is None\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(segment_home.child_env, REPRO_MP_START="fork"),
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr

    def test_no_leaked_segments_after_suite(self, segment_home):
        """Belt and braces: nothing from this process lingers anywhere."""
        from repro.parallel import shutdown_engines

        # Shared engines cache publications until closed by design —
        # drain them first so this check is independent of which other
        # test modules ran (and in what order) before this one.
        shutdown_engines()
        assert segment_home.files() == []


@off_dev_shm
class TestLifecycleOffDevShm(TestLifecycle):
    pass


#: Publishes a network with everything a hard kill can strand — every
#: slot's segment, one retired by a sync and not yet reaped — writes the
#: manifest and those paths to argv[1], says "ready" and waits for a
#: line before closing properly.
_PUBLISHER = """
import pickle, sys
from repro.p2p.network import SuperPeerNetwork
from repro.p2p.updates import insert_points
from repro.p2p.workload import fresh_points
from repro.parallel.shm import publish_network

net = SuperPeerNetwork.build(
    n_peers=6, n_superpeers=2, points_per_peer=10, dimensionality=3, seed=0
)
shared = publish_network(net)
published = shared.paths
sp = net.topology.superpeer_ids[0]
insert_points(net, net.topology.peers_of[sp][0], fresh_points(net, 2, seed=1))
assert shared.sync(net) == [sp]
with open(sys.argv[1], "wb") as handle:
    pickle.dump((shared.manifest, sorted(set(published + shared.paths))), handle)
print("ready", flush=True)
sys.stdin.readline()
shared.close()
"""


@pytest.mark.usefixtures("segment_home")
class TestHardKill:
    """The defined crash outcome: SIGKILL strands a publisher's segments
    and nothing else; the next engine start — in any process — removes
    exactly those, in whichever directory they are."""

    def test_next_engine_start_reaps_the_dead_and_spares_the_living(
        self, tmp_path, segment_home
    ):
        env = segment_home.child_env
        publishers, manifests, expected = [], [], []
        try:
            for role in ("victim", "live"):
                publisher = subprocess.Popen(
                    [sys.executable, "-c", segment_home.child_source + _PUBLISHER,
                     str(tmp_path / role)],
                    env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                )
                publishers.append(publisher)
                assert publisher.stdout.readline() == "ready\n"
                manifest, stranded = pickle.loads((tmp_path / role).read_bytes())
                manifests.append(manifest)
                expected.append(stranded)
                assert len(stranded) == len(manifest["slots"]) + 1  # one retired
                assert {os.path.dirname(path) for path in stranded} == {
                    segment_home.directory
                }
            victim, live = publishers
            victim_segments, live_segments = expected

            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
            # A hard kill leaves exactly these files, no more, no fewer.
            assert segment_home.files(victim.pid) == victim_segments
            assert sorted(os.listdir(segment_home.tmpdir)) == sorted(
                os.path.basename(path)
                for path in victim_segments + live_segments
                if os.path.dirname(path) == segment_home.tmpdir
            )

            sweeper = subprocess.run(
                [sys.executable, "-c", segment_home.child_source
                 + "from repro.parallel import ParallelEngine\n"
                 "ParallelEngine(workers=1).close()\n"],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert sweeper.returncode == 0, sweeper.stderr
            assert segment_home.files(victim.pid) == []
            assert segment_home.files(live.pid) == live_segments
            with attach_network(manifests[1]) as attached:  # every slot maps
                assert all(len(sp.store) for sp in attached.superpeers.values())

            live.stdin.write("done\n")
            live.stdin.flush()
            assert live.wait(timeout=30) == 0
            assert segment_home.files(live.pid) == []
        finally:
            for publisher in publishers:
                publisher.kill()
                publisher.wait(timeout=30)
                publisher.stdin.close()
                publisher.stdout.close()
            for segments in expected:
                for path in segments:  # a failed run cleans up too
                    if os.path.exists(path):
                        os.unlink(path)

    def test_sweep_leaves_live_and_foreign_names_alone(self, segment_home):
        gone = subprocess.Popen([sys.executable, "-c", "pass"])
        gone.wait(timeout=30)
        dead = f"repro-shm-{gone.pid:x}-0-deadbeef"
        mine = f"repro-shm-{os.getpid():x}-0-deadbeef"
        foreign = "repro-shm-nothex-0-deadbeef"
        other = f"repro-other-{gone.pid:x}.pid"  # right pid, not a segment
        directories = sorted({segment_home.directory, segment_home.tmpdir})
        paths = [os.path.join(d, n) for d in directories for n in (dead, mine, foreign, other)]
        try:
            for path in paths:
                open(path, "wb").close()
            sweep_dead_publishers()
            assert [os.path.exists(p) for p in paths] == [False, True, True, True] * len(
                directories
            )
        finally:
            for path in paths:
                if os.path.exists(path):
                    os.unlink(path)

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
    def test_sweep_treats_zombies_and_reused_pids_as_gone(self, segment_home):
        """A pid names a live publisher only if its process is not a zombie
        and started before the file was written.  A zombie's files go; of
        two files named with a live child's pid, the one whose mtime
        predates the child (as a reused pid's would) goes, the one written
        after the child started stays."""
        zombie = subprocess.Popen([sys.executable, "-c", "pass"])
        child = subprocess.Popen(
            [sys.executable, "-c", "import sys; sys.stdin.read()"], stdin=subprocess.PIPE
        )
        directories = sorted({segment_home.directory, segment_home.tmpdir})
        names = (
            f"repro-shm-{zombie.pid:x}-0-deadbeef",
            f"repro-shm-{child.pid:x}-0-0ld0ld00",
            f"repro-shm-{child.pid:x}-1-5afe5afe",
        )
        paths = [os.path.join(d, n) for d in directories for n in names]
        try:
            deadline = time.monotonic() + 30
            while _process_state(zombie.pid) != "Z":   # exited, not reaped
                assert time.monotonic() < deadline, "the child never became a zombie"
                time.sleep(0.01)
            before = time.time() - 3600
            for path in paths:
                open(path, "wb").close()
                if "0ld0ld00" in path:
                    os.utime(path, (before, before))
            sweep_dead_publishers()
            assert [os.path.exists(p) for p in paths] == [False, False, True] * len(directories)
        finally:
            for process in (zombie, child):
                process.kill()
                process.wait(timeout=30)
            child.stdin.close()
            for path in paths:
                if os.path.exists(path):
                    os.unlink(path)


def _process_state(pid: int) -> str:
    with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
        stat = handle.read()
    return stat[stat.rindex(")") + 2]


@off_dev_shm
class TestHardKillOffDevShm(TestHardKill):
    pass
