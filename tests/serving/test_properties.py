"""Property: coalesced gateway answers are byte-identical to serial execution.

For any interleaving of concurrent client requests — arbitrary subspace
repetition, variant mix, connection assignment and send staggering —
every ``ok`` response's canonical ``result`` bytes must equal the bytes
of what a serial, uncoalesced :func:`gateway_dispatch` returns for that
``(subspace, variant)``.  Coalescing, dispatcher scheduling and the
shared-future fan-out must be entirely invisible in the payload.
"""

from __future__ import annotations

import asyncio

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.workload import Query
from repro.serving.client import GatewayClient
from repro.serving.gateway import GatewayConfig, QueryGateway
from repro.serving.proto import encode_payload, result_payload
from repro.skypeer.netexec import gateway_dispatch

from .conftest import build_network, run

NETWORK = build_network(seed=23, d=4)
SUBSPACES = [(0, 1), (1, 3), (0, 2, 3), (2,)]
VARIANTS = ["FTPM", "RTFM"]

#: Serial reference bytes, computed once per (subspace, variant).
_REFERENCE: dict[tuple, bytes] = {}


def reference_bytes(subspace: tuple[int, ...], variant: str) -> bytes:
    key = (subspace, variant)
    if key not in _REFERENCE:
        initiator = NETWORK.topology.superpeer_ids[0]
        store = gateway_dispatch(NETWORK, Query(subspace=subspace, initiator=initiator), variant)
        _REFERENCE[key] = encode_payload(result_payload(store))
    return _REFERENCE[key]


request_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(SUBSPACES) - 1),
        st.integers(min_value=0, max_value=len(VARIANTS) - 1),
        st.integers(min_value=0, max_value=2),  # connection assignment
        st.integers(min_value=0, max_value=3),  # stagger slot (ms)
    ),
    min_size=1,
    max_size=10,
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(requests=request_strategy, dispatchers=st.integers(min_value=1, max_value=3))
def test_any_interleaving_matches_serial_bytes(requests, dispatchers):
    async def scenario():
        gateway = QueryGateway(
            NETWORK, config=GatewayConfig(dispatchers=dispatchers)
        )
        async with gateway:
            host, port = gateway.address
            clients = [await GatewayClient.connect(host, port) for _ in range(3)]

            async def one(spec):
                subspace_i, variant_i, conn_i, slot = spec
                await asyncio.sleep(slot * 0.001)
                return await clients[conn_i].query(
                    SUBSPACES[subspace_i], VARIANTS[variant_i]
                )

            try:
                responses = await asyncio.gather(*[one(spec) for spec in requests])
            finally:
                for client in clients:
                    await client.close()
        return responses, gateway.stats

    responses, stats = run(asyncio.wait_for(scenario(), timeout=60.0))
    assert len(responses) == len(requests)
    for spec, response in zip(requests, responses):
        subspace_i, variant_i, _, _ = spec
        assert response.ok, response.payload
        got = encode_payload(response.payload["result"])
        assert got == reference_bytes(SUBSPACES[subspace_i], VARIANTS[variant_i])
    # accounting closes: every query either executed or coalesced
    assert stats.executed + stats.coalesce_hits == len(requests)


def test_coalesced_and_uncoalesced_responses_share_result_bytes():
    """Direct pairing: a forced-coalesced pair and a lone request agree."""
    import threading

    release = threading.Event()

    def dispatch(net, query, variant):
        release.wait(timeout=10.0)
        return gateway_dispatch(net, query, variant)

    async def scenario():
        gateway = QueryGateway(
            NETWORK, config=GatewayConfig(dispatchers=1), dispatch=dispatch
        )
        async with gateway:
            host, port = gateway.address
            async with await GatewayClient.connect(host, port) as client:
                pair = [asyncio.ensure_future(client.query([0, 1])) for _ in range(2)]
                await asyncio.sleep(0.1)
                release.set()
                a, b = await asyncio.gather(*pair)
        return a, b, gateway.stats

    a, b, stats = run(asyncio.wait_for(scenario(), timeout=30.0))
    assert stats.coalesce_hits == 1
    assert {a.payload["coalesced"], b.payload["coalesced"]} == {True, False}
    expected = reference_bytes((0, 1), "FTPM")
    assert encode_payload(a.payload["result"]) == expected
    assert encode_payload(b.payload["result"]) == expected
