"""Shared-memory data plane: roundtrip fidelity and segment lifecycle.

The acceptance bar: attached networks are byte-identical views of the
published stores, and no ``/dev/shm`` entry survives an engine close,
a handle close, or interpreter exit.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.p2p.network import SuperPeerNetwork
from repro.parallel import ParallelEngine
from repro.parallel.shm import (
    SHM_ENV,
    attach_network,
    manifest_data_nbytes,
    publish_network,
    shm_enabled,
    shm_supported,
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
