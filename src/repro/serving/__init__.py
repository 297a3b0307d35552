"""Multi-tenant query serving: gateway, client, open-loop load.

The serving layer turns the one-query-at-a-time reproduction into a
concurrent endpoint: :class:`QueryGateway` accepts many clients over
the p2p framing, coalesces identical in-flight requests, sheds excess
load explicitly, and dispatches onto the warm parallel engine.  See
``docs/SERVING.md`` for the architecture and the
:class:`GatewayConfig` knobs.
"""

from .client import GatewayClient, GatewayResponse
from .gateway import GatewayConfig, GatewayStats, QueryGateway, TokenBucket
from .loadgen import LoadReport, run_open_loop
from .proto import (
    SHED_QUEUE_FULL,
    SHED_RATE_LIMITED,
    SHED_SHUTDOWN,
    ProtocolError,
    decode_payload,
    encode_payload,
)

__all__ = [
    "GatewayClient",
    "GatewayConfig",
    "GatewayResponse",
    "GatewayStats",
    "LoadReport",
    "ProtocolError",
    "QueryGateway",
    "SHED_QUEUE_FULL",
    "SHED_RATE_LIMITED",
    "SHED_SHUTDOWN",
    "TokenBucket",
    "decode_payload",
    "encode_payload",
    "run_open_loop",
]
