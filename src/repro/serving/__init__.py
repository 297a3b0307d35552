"""Multi-tenant query serving: gateway and client.

The serving layer turns the one-query-at-a-time reproduction into a
concurrent endpoint: :class:`QueryGateway` accepts many clients over
the p2p framing, coalesces identical in-flight requests, sheds excess
load explicitly, and dispatches onto the warm parallel engine.  See
``docs/SERVING.md`` for the architecture and the
:class:`GatewayConfig` knobs.
"""

from .client import GatewayClient, GatewayResponse
from .gateway import GatewayConfig, GatewayStats, QueryGateway, TokenBucket
from .proto import (
    ERROR_BACKEND,
    ERROR_REQUEST,
    SHED_QUEUE_FULL,
    SHED_RATE_LIMITED,
    SHED_SHUTDOWN,
    ProtocolError,
    decode_payload,
    encode_payload,
)

__all__ = [
    "ERROR_BACKEND",
    "ERROR_REQUEST",
    "GatewayClient",
    "GatewayConfig",
    "GatewayResponse",
    "GatewayStats",
    "ProtocolError",
    "QueryGateway",
    "SHED_QUEUE_FULL",
    "SHED_RATE_LIMITED",
    "SHED_SHUTDOWN",
    "TokenBucket",
    "decode_payload",
    "encode_payload",
]
