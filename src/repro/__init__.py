"""SKYPEER — subspace skyline computation over distributed data.

A faithful, self-contained reproduction of Vlachou, Doulkeridis,
Kotidis & Vazirgiannis, *"SKYPEER: Efficient Subspace Skyline
Computation over Distributed Data"*, ICDE 2007.

Quickstart
----------
>>> from repro import SuperPeerNetwork, Query, Variant, execute_query
>>> net = SuperPeerNetwork.build(n_peers=100, points_per_peer=50,
...                              dimensionality=6, seed=7)
>>> query = Query(subspace=(0, 2, 5), initiator=net.topology.superpeer_ids[0])
>>> answer = execute_query(net, query, Variant.FTPM)
>>> len(answer.result.points) > 0
True

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduction of every table and figure of the paper.
"""

from .core import (
    PointSet,
    SkylineComputation,
    SortedByF,
    extended_skyline,
    local_subspace_skyline,
    merge_sorted_skylines,
    subspace_skyline,
    subspace_skyline_points,
)
from .data import Query, generate_workload, load_csv
from .io import load_network, load_pointset, save_network, save_pointset
from .obs import MetricsRegistry, Tracer, observed, write_chrome_trace
from .p2p import (
    CostModel,
    PreprocessingReport,
    SuperPeerNetwork,
    Topology,
    delete_points,
    fail_peer,
    insert_points,
    join_peer,
)
from .skypeer import (
    QueryExecution,
    Variant,
    execute_query,
    run_protocol,
    run_socket_query,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "PointSet",
    "SortedByF",
    "SkylineComputation",
    "extended_skyline",
    "subspace_skyline",
    "subspace_skyline_points",
    "local_subspace_skyline",
    "merge_sorted_skylines",
    # data
    "Query",
    "generate_workload",
    "load_csv",
    "save_pointset",
    "load_pointset",
    "save_network",
    "load_network",
    # p2p
    "Topology",
    "SuperPeerNetwork",
    "PreprocessingReport",
    "CostModel",
    "join_peer",
    "fail_peer",
    "insert_points",
    "delete_points",
    # observability
    "Tracer",
    "MetricsRegistry",
    "observed",
    "write_chrome_trace",
    # engine
    "Variant",
    "QueryExecution",
    "execute_query",
    "run_protocol",
    "run_socket_query",
]
