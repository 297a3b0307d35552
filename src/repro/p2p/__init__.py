"""The super-peer P2P substrate: topology, nodes, cost model, churn."""

from .churn import fail_peer, join_peer
from .cost import DEFAULT_COST_MODEL, CostModel
from .engine import EventLoop, LinkLayer
from .network import PreprocessingReport, SuperPeerNetwork
from .node import Peer, SuperPeer
from .topology import Topology, superpeer_count_rule
from .transport import (
    FrameDecoder,
    SocketEndpoint,
    TransportConfig,
    TransportError,
    encode_frame,
    read_frame,
)
from .updates import UpdateOutcome, UpdateReport, delete_points, insert_points
from .workload import (
    ChurnOp,
    apply_op,
    churn_grid,
    churn_schedule,
    fresh_points,
    next_point_id,
    plan_op,
    rebuild_reference,
)
from .wire import QueryMessage, ResultMessage, WireError, cost_estimate, decode

__all__ = [
    "Topology",
    "superpeer_count_rule",
    "Peer",
    "SuperPeer",
    "SuperPeerNetwork",
    "PreprocessingReport",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "join_peer",
    "fail_peer",
    "EventLoop",
    "LinkLayer",
    "QueryMessage",
    "ResultMessage",
    "WireError",
    "cost_estimate",
    "decode",
    "FrameDecoder",
    "SocketEndpoint",
    "TransportConfig",
    "TransportError",
    "encode_frame",
    "read_frame",
    "UpdateOutcome",
    "UpdateReport",
    "insert_points",
    "delete_points",
    "ChurnOp",
    "apply_op",
    "churn_grid",
    "churn_schedule",
    "fresh_points",
    "next_point_id",
    "plan_op",
    "rebuild_reference",
]
