"""The Algorithm-3 node on its own: a carrier written here, no clocks,
no ``repro.p2p``, no sockets.

The carrier keeps one FIFO per directed link and otherwise delivers in
whatever order Hypothesis picks, so every interleaving a real network
could produce is fair game.
"""

from __future__ import annotations

from collections import Counter, deque
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import PointSet
from repro.core.local_skyline import local_subspace_skyline
from repro.core.store import SortedByF
from repro.skypeer.protocol import ProtocolNode, make_kernels
from repro.skypeer.variants import Variant
from tests.conftest import brute_force_skyline_ids


class LinkQueues:
    """Per-link FIFO, arbitrary order across links, computations instant."""

    def __init__(self, pick):
        self.pick, self.links, self.nodes = pick, {}, {}
        self.queries, self.last_words, self.answer = Counter(), Counter(), None

    def _put(self, src, dst, deliver):
        self.links.setdefault((src, dst), deque()).append(deliver)

    def send_query(self, src, dst, t, at):
        self.queries[src, dst] += 1
        self._put(src, dst, lambda: self.nodes[dst].on_query(src, t, None))

    def send_result(self, src, dst, origin, result, final, at):
        self.last_words[src, dst] += final
        self._put(src, dst, lambda: self.nodes[dst].on_result(src, origin, result, final, None))

    def decline(self, src, dst, at):
        self.last_words[src, dst] += 1
        self._put(src, dst, lambda: self.nodes[dst].on_decline(src, None))

    def compute(self, sp, phase, at, computation, then):
        then(None)

    def join(self, a, b):
        return None

    def finish(self, result, at):
        assert self.answer is None, "the initiator answered twice"
        self.answer = result

    def run(self):
        while busy := sorted(link for link, queue in self.links.items() if queue):
            self.links[self.pick(busy)].popleft()()


@st.composite
def backbones(draw):
    """A random tree over ``n`` super-peers, plus some extra links."""
    n = draw(st.integers(1, 8))
    edges = {(draw(st.integers(0, child - 1)), child) for child in range(1, n)}
    tree_only = draw(st.booleans())
    if not tree_only and n > 2:
        extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
        edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    adjacency = {sp: sorted({b for a, b in edges if a == sp} | {a for a, b in edges if b == sp})
                 for sp in range(n)}
    return adjacency, len(edges) == n - 1


@given(
    backbones(),
    st.sampled_from(list(Variant)),
    st.integers(0, 2**31 - 1),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_every_interleaving_terminates_with_the_skyline(backbone, variant, seed, k, random):
    adjacency, is_tree = backbone
    rng = np.random.default_rng(seed)
    d = 3
    stores, next_id = {}, 0
    for sp in adjacency:
        count = int(rng.integers(0, 7))
        # A coarse grid, so equal coordinates and equal f values do occur.
        values = rng.integers(0, 5, size=(count, d)).astype(float)
        stores[sp] = SortedByF.from_points(PointSet(values, np.arange(next_id, next_id + count)))
        next_id += count
    subspace = tuple(sorted(rng.choice(d, size=k, replace=False).tolist()))
    initiator = int(rng.integers(0, len(adjacency)))

    carrier = LinkQueues(random.choice)
    network = SimpleNamespace(
        scan=lambda sp, sub, t: local_subspace_skyline(stores[sp], sub, initial_threshold=t),
        store_of=stores.__getitem__, dimensionality=d,
    )
    kernels = make_kernels(variant, subspace, network)
    scans, scan = Counter(), kernels.scan
    kernels.scan = lambda sp, t: (scans.update([sp]), scan(sp, t))[1]
    for sp, neighbours in adjacency.items():
        carrier.nodes[sp] = ProtocolNode(
            sp, neighbours=neighbours, variant=variant, kernels=kernels, carrier=carrier
        )
    carrier.nodes[initiator].start(None)
    carrier.run()

    nodes = carrier.nodes.values()
    assert scans == Counter(list(adjacency)), "every super-peer scans exactly once"
    assert all(node.done for node in nodes)
    # Every query is answered by exactly one last word on the way back:
    # a final-marked list, or a decline.
    assert {(dst, src): n for (src, dst), n in carrier.queries.items()} == dict(carrier.last_words)
    assert set(carrier.queries.values()) <= {1}
    if is_tree:
        assert sum(node.duplicate_queries for node in nodes) == 0
        assert sum(carrier.queries.values()) == len(adjacency) - 1
    everything = [s.points for s in stores.values() if len(s)]
    expected = (
        brute_force_skyline_ids(PointSet.concat(everything), subspace) if everything else frozenset()
    )
    assert carrier.answer.points.id_set() == expected
    assert np.all(np.diff(carrier.answer.f) >= 0)
