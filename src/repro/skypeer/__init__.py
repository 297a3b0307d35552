"""The SKYPEER distributed subspace-skyline engine (Algorithm 3)."""

from .executor import Clock, QueryExecution, execute_query
from .netexec import SocketOutcome, TransportReport, run_socket_query
from .protocol import ProtocolNode, ProtocolOutcome, run_protocol
from .variants import Variant

__all__ = [
    "Variant",
    "Clock",
    "QueryExecution",
    "execute_query",
    "ProtocolNode",
    "ProtocolOutcome",
    "run_protocol",
    "SocketOutcome",
    "TransportReport",
    "run_socket_query",
]
