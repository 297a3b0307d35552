"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import math
import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.dataset import PointSet
from repro.core.store import SortedByF
from repro.p2p.network import SuperPeerNetwork

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def uniform_points(rng) -> PointSet:
    """200 uniform points in 5 dimensions."""
    return PointSet(rng.random((200, 5)))


@pytest.fixture
def paper_peer_a() -> PointSet:
    """Peer P_A of the paper's Figure 2 (4-dimensional)."""
    values = np.array(
        [
            [2, 2, 2, 2],  # A1
            [1, 3, 2, 3],  # A2
            [1, 3, 5, 4],  # A3
            [2, 3, 2, 1],  # A4
            [5, 2, 4, 1],  # A5
        ],
        dtype=float,
    )
    return PointSet(values, np.array([1, 2, 3, 4, 5]))


@pytest.fixture
def paper_peer_b() -> PointSet:
    """Peer P_B of the paper's Figure 2."""
    values = np.array(
        [
            [3, 1, 1, 3],  # B1
            [4, 5, 4, 6],  # B2
            [2, 3, 3, 3],  # B3
            [1, 2, 3, 4],  # B4
            [5, 5, 5, 5],  # B5
        ],
        dtype=float,
    )
    return PointSet(values, np.array([11, 12, 13, 14, 15]))


@pytest.fixture(scope="session")
def small_network() -> SuperPeerNetwork:
    """A pre-processed 60-peer network shared across tests (read-only)."""
    return SuperPeerNetwork.build(
        n_peers=60, points_per_peer=30, dimensionality=5, seed=99
    )


def brute_force_skyline_ids(points: PointSet, subspace, strict: bool = False) -> frozenset[int]:
    """O(n^2) dominance oracle, independent of all library code paths.

    Each row is tested against every other row at once.
    """
    cols = list(subspace)
    values = points.values[:, cols]
    keep = []
    for i, row in enumerate(values):
        if strict:
            dominators = np.all(values < row, axis=1)
        else:
            dominators = np.all(values <= row, axis=1) & np.any(values < row, axis=1)
        dominators[i] = False
        if not dominators.any():
            keep.append(int(points.ids[i]))
    return frozenset(keep)


def ordered_ext_skyline(store: SortedByF, subspace=None) -> SimpleNamespace:
    """``ext-SKY_U`` of an f-sorted store, the ordered reference the
    Section 5.3 filter's outcomes are checked against: one plain loop over
    the rows, each compared with every row (O(n^2)), independent of
    ``repro.core.dominance``.

    ``result`` keeps store order (ties and duplicate rows included) and
    each row's ``f``; ``threshold`` is ``min dist_U`` over the result,
    ``inf`` when it is empty — exactly what Algorithm 1 (a store) and
    Algorithm 2 (an f-sorted union of lists) return under ext-domination.
    """
    values = store.points.values
    rows = values if subspace is None else values[:, list(subspace)]
    kept = np.array(
        [i for i, p in enumerate(rows) if not np.all(rows < p, axis=1).any()],
        dtype=np.int64,
    )
    return SimpleNamespace(
        result=SortedByF(store.points.take(kept), store.f[kept]),
        threshold=min((float(rows[i].max()) for i in kept), default=math.inf),
        input_size=len(store),
    )


def network_state(network: SuperPeerNetwork) -> tuple:
    """Everything an update may move: epoch, generations, data, store bytes."""
    return (
        network.epoch,
        dict(network.store_generations),
        {peer_id: len(peer.data) for peer_id, peer in network.peers.items()},
        {
            sp_id: (
                sp.store.points.values.tobytes(),
                sp.store.points.ids.tobytes(),
                sp.store.f.tobytes(),
            )
            for sp_id, sp in network.superpeers.items()
        },
    )


# ----------------------------------------------------------------------
# where segments go: /dev/shm, or the temp directory when it will not do
# ----------------------------------------------------------------------
def place_segments(setattr, shm_dir: str, full: bool = False) -> None:
    """Make ``shm_dir`` this process's ``/dev/shm`` — one with no room left
    if ``full`` — through ``setattr(obj, name, value)``.  A child interpreter
    calls this too (:attr:`SegmentHome.child_source`)."""
    from repro.parallel import shm

    setattr(shm, "_SHM_DIR", shm_dir)
    if full:
        real = os.statvfs
        none_left = SimpleNamespace(f_bavail=0, f_frsize=4096)
        setattr(os, "statvfs", lambda path: none_left if path == shm_dir else real(path))


def segment_files(pid: int | None = None) -> list[str]:
    """Segment files of publisher ``pid`` (default: this process) in every
    directory one can be in: the host's ``/dev/shm``, whatever plays
    ``/dev/shm`` for this test, and the temp directory."""
    from repro.parallel import shm

    prefix = f"repro-shm-{os.getpid() if pid is None else pid:x}-"
    return sorted(
        os.path.join(directory, name)
        for directory in {"/dev/shm", shm._SHM_DIR, tempfile.gettempdir()}
        if os.path.isdir(directory)
        for name in os.listdir(directory)
        if name.startswith(prefix)
    )


def _takes_test_segments(directory: str) -> bool:
    """Room to spare for everything a test publishes (a few MB)."""
    if not os.access(directory, os.W_OK | os.X_OK):
        return False
    room = os.statvfs(directory)
    return room.f_bavail * room.f_frsize >= 64 << 20


class SegmentHome:
    """Where one test's new segments go, and how to look for them.

    ``dev-shm`` is a ``/dev/shm`` that takes files and has room: the
    host's, or a directory standing in for it where the host has none to
    offer; ``no-dev-shm`` makes it absent and ``small-dev-shm`` leaves it
    no room, both of which send segments to ``tmpdir``, a temp directory
    private to the test.  ``directory`` is where a new segment is
    expected.
    """

    def __init__(self, mode: str, monkeypatch, tmp_path):
        self.tmpdir = str(tmp_path / "segment-tmp")
        os.mkdir(self.tmpdir)
        monkeypatch.setattr(tempfile, "tempdir", self.tmpdir)
        shm_dir = "/dev/shm"
        if not _takes_test_segments(shm_dir):
            shm_dir = str(tmp_path / "dev-shm")
            os.mkdir(shm_dir)
        self.directory = shm_dir if mode == "dev-shm" else self.tmpdir
        if mode == "no-dev-shm":
            shm_dir = str(tmp_path / "no-such-dev-shm")
        elif mode not in ("dev-shm", "small-dev-shm"):
            raise ValueError(mode)
        full = mode == "small-dev-shm"
        place_segments(monkeypatch.setattr, shm_dir, full)
        #: Prepend to a ``python -c`` script run with :attr:`child_env`.
        self.child_source = (
            "from tests.conftest import place_segments\n"
            f"place_segments(setattr, {shm_dir!r}, {full!r})\n"
        )
        self.child_env = dict(
            os.environ,
            TMPDIR=self.tmpdir,
            PYTHONPATH=os.pathsep.join([os.path.join(REPO_ROOT, "src"), REPO_ROOT]),
        )

    files = staticmethod(segment_files)


@pytest.fixture
def segment_home(request, monkeypatch, tmp_path) -> SegmentHome:
    """A usable ``/dev/shm``; :data:`off_dev_shm` re-runs a class without one."""
    return SegmentHome(getattr(request, "param", "dev-shm"), monkeypatch, tmp_path)


#: Class decorator: run every test of a ``segment_home`` class with
#: ``/dev/shm`` absent and with it too small, i.e. on temp-directory files.
off_dev_shm = pytest.mark.parametrize(
    "segment_home", ["no-dev-shm", "small-dev-shm"], indirect=True
)
