"""Store-and-forward transfers over shared FIFO links.

These cases used to drive a closed-form ``simulate_transfers`` pass; the
event loop's :class:`~repro.p2p.engine.LinkLayer` is the one transfer
model now, so they drive it the way the model-clock carrier does: a
relay hands a message to its next link the moment the previous hop has
delivered all of it.
"""

import pytest

from repro.p2p.cost import CostModel
from repro.p2p.engine import EventLoop, LinkLayer

#: Two bytes a second, so half-second hops are whole bytes.
BYTES_PER_SECOND = 2.0


def simulate(requests):
    """Delivery time of every ``(id, ready_at, path, seconds_per_hop)``."""
    loop = EventLoop()
    links = LinkLayer(loop, CostModel(bandwidth_bytes_per_sec=BYTES_PER_SECOND))
    delivered = {}

    def hop(message, path, nbytes, at):
        if at == len(path):
            delivered[message] = loop.now
        else:
            links.send(*path[at], nbytes, lambda: hop(message, path, nbytes, at + 1))

    for message, ready_at, path, seconds in requests:
        nbytes = seconds * BYTES_PER_SECOND
        loop.schedule_at(
            ready_at, lambda m=message, p=path, n=nbytes: hop(m, p, n, 0)
        )
    loop.run()
    return delivered


class TestSimulateTransfers:
    def test_empty(self):
        assert simulate([]) == {}

    def test_single_hop(self):
        out = simulate([("m", 1.0, ((1, 0),), 2.0)])
        assert out["m"] == pytest.approx(3.0)

    def test_multi_hop_store_and_forward(self):
        out = simulate([("m", 0.0, ((2, 1), (1, 0)), 1.5)])
        assert out["m"] == pytest.approx(3.0)

    def test_empty_path_delivers_at_ready(self):
        out = simulate([("m", 4.2, (), 1.0)])
        assert out["m"] == pytest.approx(4.2)

    def test_shared_edge_serializes(self):
        """Two messages funneling into the same link cannot overlap."""
        out = simulate([
            ("a", 0.0, ((1, 0),), 2.0),
            ("b", 0.0, ((1, 0),), 2.0),
        ])
        assert sorted(out.values()) == [pytest.approx(2.0), pytest.approx(4.0)]

    def test_disjoint_edges_parallel(self):
        out = simulate([
            ("a", 0.0, ((1, 0),), 2.0),
            ("b", 0.0, ((2, 0),), 2.0),
        ])
        assert out["a"] == pytest.approx(2.0)
        assert out["b"] == pytest.approx(2.0)

    def test_fifo_order_on_shared_edge(self):
        """The earlier-ready message goes first."""
        out = simulate([
            ("late", 1.0, ((1, 0),), 1.0),
            ("early", 0.0, ((1, 0),), 1.0),
        ])
        assert out["early"] == pytest.approx(1.0)
        assert out["late"] == pytest.approx(2.0)

    def test_relay_funnel(self):
        """Leaves behind a relay serialize on the relay's uplink — the
        fixed-merging bottleneck of the paper."""
        # 3 leaves -> relay node 1 -> root 0
        out = simulate([
            (f"leaf{i}", 0.0, ((10 + i, 1), (1, 0)), 1.0) for i in range(3)
        ])
        assert max(out.values()) == pytest.approx(4.0)  # 1s down, then 3 serialized

    def test_direction_matters(self):
        """Edges are directed: up and down traffic do not contend."""
        out = simulate([
            ("up", 0.0, ((1, 0),), 1.0),
            ("down", 0.0, ((0, 1),), 1.0),
        ])
        assert out["up"] == pytest.approx(1.0)
        assert out["down"] == pytest.approx(1.0)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            simulate([("m", 0.0, ((1, 0),), -1.0)])

    def test_zero_duration_messages(self):
        out = simulate([("m", 0.5, ((1, 0), (0, 2)), 0.0)])
        assert out["m"] == pytest.approx(0.5)
