"""Command-line interface.

::

    skypeer figure fig3b --scale tiny       # one experiment
    skypeer all --scale default             # every table/figure
    skypeer serve --peers 60 --dims 5       # asyncio query gateway
    skypeer update insert --peer-id 3 --random 4 --port-file gw.port
                                            # live update on a gateway
    skypeer export --scale default          # regenerate EXPERIMENTS.md
    skypeer query --peers 400 --dims 8 --subspace 0,3,6 --variant FTPM \
            [--transport socket] [--explain] [--json]
    skypeer list                            # available experiments

(Equivalently: ``python -m repro.cli ...``.)
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from typing import Sequence

from .data.workload import Query
from .p2p.network import SuperPeerNetwork
from .skypeer.executor import execute_query
from .skypeer.variants import Variant

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skypeer",
        description="SKYPEER (ICDE 2007) reproduction: distributed subspace skylines",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    transport_help = (
        "execution carrier: 'sim' (discrete-event simulation, default) or "
        "'socket' (real TCP via asyncio)"
    )

    def figure_arguments(fig: argparse.ArgumentParser) -> None:
        from . import bench

        fig.add_argument("experiment", choices=sorted(bench.EXPERIMENTS))
        fig.add_argument("--scale", choices=_scales(), default=None)
        fig.add_argument("--markdown", action="store_true", help="emit Markdown instead of text")

    def all_arguments(allp: argparse.ArgumentParser) -> None:
        allp.add_argument("--scale", choices=_scales(), default=None)
        allp.add_argument("--markdown", action="store_true")

    def export_arguments(ex: argparse.ArgumentParser) -> None:
        ex.add_argument("--scale", choices=_scales(), default=None)
        ex.add_argument("--output", default="EXPERIMENTS.md")

    sub.add_parser("figure", help="run one paper experiment", arguments=figure_arguments)
    sub.add_parser("all", help="run every experiment", arguments=all_arguments)
    sub.add_parser("list", help="list experiments")

    sv = sub.add_parser(
        "serve",
        help="run the asyncio query gateway in front of a built network",
    )
    sv.add_argument("--peers", type=int, default=60)
    sv.add_argument("--points-per-peer", type=int, default=30)
    sv.add_argument("--dims", type=int, default=5)
    sv.add_argument("--dataset", choices=("uniform", "clustered", "correlated", "anticorrelated"),
                    default="uniform")
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--host", default=None,
                    help="bind host (default 127.0.0.1)")
    sv.add_argument("--port", type=int, default=None,
                    help="bind port (default: ephemeral)")
    sv.add_argument("--backend", choices=("engine", "serial"), default="engine",
                    help="execution path for admitted queries (default engine)")
    sv.add_argument("--workers", type=int, default=None,
                    help="engine pool size (default: one worker; negative = one per CPU)")
    sv.add_argument("--duration", type=float, default=None,
                    help="serve for N seconds then shut down "
                         "(default: until interrupted)")
    sv.add_argument("--port-file", default=None, metavar="PATH",
                    help="write 'host port' to PATH once bound (for scripts)")

    up = sub.add_parser(
        "update",
        help="apply one live update (insert/delete/join/fail) to a running gateway",
    )
    up.add_argument("kind", choices=("insert", "delete", "join", "fail", "fail-superpeer"))
    up.add_argument("--host", default="127.0.0.1")
    up.add_argument("--port", type=int, default=None)
    up.add_argument("--port-file", default=None, metavar="PATH",
                    help="read 'host port' as written by skypeer serve --port-file")
    up.add_argument("--peer-id", type=int, default=None,
                    help="target peer (insert/delete/fail; optional id for join)")
    up.add_argument("--superpeer-id", type=int, default=None,
                    help="target super-peer (join/fail-superpeer)")
    up.add_argument("--point-ids", type=str, default=None,
                    help="comma-separated point ids to delete")
    up.add_argument("--points", type=str, default=None,
                    help="JSON rows ([[...], ...]) for insert/join")
    up.add_argument("--random", type=int, default=None, metavar="N",
                    help="server-side draw of N fresh points (insert/join)")
    up.add_argument("--seed", type=int, default=0, help="seed for --random")
    up.add_argument("--dataset",
                    choices=("uniform", "clustered", "correlated", "anticorrelated"),
                    default="uniform", help="distribution for --random")

    q = sub.add_parser("query", help="run one distributed query and print metrics")
    q.add_argument("--peers", type=int, default=400)
    q.add_argument("--points-per-peer", type=int, default=50)
    q.add_argument("--dims", type=int, default=8)
    q.add_argument("--subspace", type=str, default="0,3,6",
                   help="comma-separated dimension indices")
    q.add_argument("--variant", type=str, default="FTPM",
                   help="FTFM | FTPM | RTFM | RTPM | naive")
    q.add_argument("--dataset", choices=("uniform", "clustered", "correlated", "anticorrelated"),
                   default="uniform")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--transport", choices=("sim", "socket"), default="sim",
                   help=transport_help)
    q.add_argument("--explain", action="store_true",
                   help="print a per-super-peer execution breakdown "
                        "(sim transport only)")
    q.add_argument("--json", action="store_true",
                   help="emit the execution report as JSON")

    tr = sub.add_parser(
        "trace",
        help="run one query under the tracer and write a Chrome-trace JSON",
    )
    tr.add_argument("--peers", type=int, default=60)
    tr.add_argument("--points-per-peer", type=int, default=30)
    tr.add_argument("--dims", type=int, default=5)
    tr.add_argument("--subspace", type=str, default="0,2,4",
                    help="comma-separated dimension indices")
    tr.add_argument("--variant", type=str, default="FTPM",
                    help="FTFM | FTPM | RTFM | RTPM | naive")
    tr.add_argument("--dataset", choices=("uniform", "clustered", "correlated", "anticorrelated"),
                    default="uniform")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--transport", choices=("sim", "socket"), default="sim",
                    help=transport_help)
    tr.add_argument("--output", default="query-trace.json",
                    help="Chrome-trace JSON path (open in chrome://tracing or Perfetto)")
    tr.add_argument("--metrics-output", default=None,
                    help="optional path for the metrics snapshot JSON")

    sub.add_parser("export", help="regenerate EXPERIMENTS.md", arguments=export_arguments)
    return parser


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser that may add its arguments when first used.

    ``figure``, ``all`` and ``export`` take their choices
    from :mod:`repro.bench`, which imports every figure runner.  Their
    arguments are added only once one of them parses its command line
    (which is also where it prints its help or an error), so ``serve``,
    ``update``, ``query`` and ``trace`` start without that import.
    """

    def __init__(self, *args, arguments=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._arguments = arguments

    def _add_arguments(self) -> None:
        if self._arguments is not None:
            add, self._arguments = self._arguments, None
            add(self)

    def parse_known_args(self, args=None, namespace=None):
        self._add_arguments()
        return super().parse_known_args(args, namespace)


def _scales() -> list[str]:
    from .bench.config import SCALES

    return sorted(SCALES)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command in ("list", "figure", "all"):
        from . import bench
    if args.command == "list":
        for name in sorted(bench.EXPERIMENTS):
            headline = inspect.getdoc(bench.EXPERIMENTS[name]).splitlines()[0]
            print(f"{name}: {headline}")
        return 0
    if args.command == "figure":
        table = bench.run_experiment(args.experiment, args.scale)
        print(table.to_markdown() if args.markdown else table.to_text())
        return 0
    if args.command == "all":
        for name in sorted(bench.EXPERIMENTS):
            started = time.time()
            table = bench.run_experiment(name, args.scale)
            print(table.to_markdown() if args.markdown else table.to_text())
            print(f"[{name} finished in {time.time() - started:.1f}s]")
            print()
        return 0
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "update":
        return _run_update(args)
    if args.command == "query":
        return _run_single_query(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "export":
        from .bench.export import main as export_main

        return export_main(["--output", args.output] +
                           (["--scale", args.scale] if args.scale else []))
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def _run_serve(args: argparse.Namespace) -> int:
    """``skypeer serve``: stand up the gateway until interrupted.

    Lifecycle: pool → data → pre-process on the pool → bind.  The
    engine comes first so its workers fork before the network is built
    (they attach the published segment, never the parent's heap) and
    Section 5.3 pre-processing fans out over them; the query
    publication follows with the first query.  The parent is not lean
    when they fork: the package ``__init__``s and the imports above have
    already loaded nearly all of ``repro`` (all but ``repro.bench`` and
    a few leaf modules), ``asyncio`` and ``ssl`` with it, the gateway
    and the socket transport included, and every worker inherits that
    heap.  SIGTERM takes the
    SIGINT path, so either one closes the gateway and then the pool;
    SIGINT does so even when the server started with it ignored (as a
    background job of a non-interactive shell does).
    """
    import asyncio
    import json
    import signal
    import threading

    from .parallel import get_engine, shutdown_engines
    from .serving.gateway import GatewayConfig, QueryGateway

    # Handlers can only be set from the main thread; an embedding host
    # that runs ``serve`` on another thread owns its own signals.
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, signal.default_int_handler)
    overrides = {}
    if args.host is not None:
        overrides["host"] = args.host
    if args.port is not None:
        overrides["port"] = args.port
    config = GatewayConfig(**overrides)

    async def serve() -> None:
        gateway = QueryGateway(
            network, config=config, engine=engine, backend=args.backend
        )
        host, port = await gateway.start()
        print(f"gateway listening on {host}:{port} (backend: {args.backend})")
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{host} {port}\n")
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            await gateway.close()
            print("gateway stats:")
            print(json.dumps(gateway.stats.as_dict(), indent=2, sort_keys=True))

    engine = None
    try:
        if args.backend == "engine":
            engine = get_engine(args.workers)
        print(
            f"building network: {args.peers} peers x {args.points_per_peer} points, "
            f"d={args.dims}, dataset={args.dataset}"
        )
        network = SuperPeerNetwork.build(
            n_peers=args.peers,
            points_per_peer=args.points_per_peer,
            dimensionality=args.dims,
            dataset=args.dataset,
            seed=args.seed,
            engine=engine,
        )
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    finally:
        if engine is not None:
            shutdown_engines()
    return 0


def _run_update(args: argparse.Namespace) -> int:
    """``skypeer update``: one live mutation against a running gateway."""
    import asyncio
    import json

    from .serving.client import GatewayClient

    host, port = args.host, args.port
    if args.port_file:
        with open(args.port_file, "r", encoding="utf-8") as handle:
            host, port_text = handle.read().split()
            port = int(port_text)
    if port is None:
        print("no gateway address: pass --port or --port-file", file=sys.stderr)
        return 2
    fields: dict = {}
    if args.peer_id is not None:
        fields["peer_id"] = args.peer_id
    if args.superpeer_id is not None:
        fields["superpeer_id"] = args.superpeer_id
    if args.point_ids is not None:
        fields["point_ids"] = [int(x) for x in args.point_ids.split(",") if x]
    if args.points is not None:
        fields["points"] = json.loads(args.points)
    elif args.kind in ("insert", "join"):
        fields["points"] = {
            "random": args.random if args.random is not None else 4,
            "seed": args.seed,
            "dataset": args.dataset,
        }

    async def go():
        client = await GatewayClient.connect(host, port)
        try:
            return await client.update(args.kind, **fields)
        finally:
            await client.close()

    response = asyncio.run(go())
    print(json.dumps(response.payload, indent=2, sort_keys=True))
    return 0 if response.ok else 1


def _format_transport_report(report) -> str:
    """Measured wire traffic next to the cost model's estimate."""
    lines = [
        f"transport          : socket, {report.wall_seconds * 1e3:.1f} ms wall",
        f"  messages         : {report.messages} "
        f"({report.query_messages} query, {report.result_messages} result)",
        f"  measured bytes   : {report.payload_bytes} payload, "
        f"{report.frame_bytes} framed "
        f"(+{report.framing_overhead_bytes} framing)",
        f"  estimated bytes  : {report.estimated_bytes} "
        f"(cost model; {report.estimate_delta_bytes:+d} vs measured = "
        f"constant per-message envelope delta)",
        f"  initiator idle   : {report.initiator_idle_seconds * 1e3:.1f} ms",
    ]
    return "\n".join(lines)


def _run_single_query(args: argparse.Namespace) -> int:
    subspace = tuple(int(x) for x in args.subspace.split(","))
    variant = Variant.parse(args.variant)
    print(
        f"building network: {args.peers} peers x {args.points_per_peer} points, "
        f"d={args.dims}, dataset={args.dataset}"
    )
    network = SuperPeerNetwork.build(
        n_peers=args.peers,
        points_per_peer=args.points_per_peer,
        dimensionality=args.dims,
        dataset=args.dataset,
        seed=args.seed,
    )
    report = network.preprocessing
    print(
        f"pre-processing: SEL_p={100 * report.sel_p:.1f}% "
        f"SEL_sp={100 * report.sel_sp:.1f}%"
    )
    query = Query(subspace=subspace, initiator=network.topology.superpeer_ids[0])
    if args.transport == "socket":
        return _run_socket_cli_query(args, network, query, variant)
    execution = execute_query(network, query, variant)
    if args.json:
        from .skypeer.inspection import execution_report_json

        print(execution_report_json(execution))
        return 0
    print(f"variant {variant.value}: |SKY_U| = {len(execution.result)}")
    print(f"  computational time : {execution.computational_time * 1e3:.2f} ms")
    print(f"  total time (4KB/s) : {execution.total_time:.3f} s")
    print(f"  transferred volume : {execution.volume_kb:.1f} KB")
    print(f"  messages           : {execution.message_count}")
    if args.explain:
        from .skypeer.inspection import format_execution

        print()
        print(format_execution(execution))
    return 0


def _run_socket_cli_query(args, network, query, variant) -> int:
    """The ``--transport socket`` path of ``skypeer query``."""
    from .skypeer.netexec import run_socket_query

    outcome = run_socket_query(network, query, variant)
    if args.json:
        import json

        report = outcome.report
        payload = {
            "variant": variant.value,
            "transport": "socket",
            "result_size": len(outcome.result),
            "result_ids": sorted(outcome.result_ids),
            "wall_seconds": report.wall_seconds,
            "initiator_idle_seconds": report.initiator_idle_seconds,
            "messages": report.messages,
            "query_messages": report.query_messages,
            "result_messages": report.result_messages,
            "payload_bytes": report.payload_bytes,
            "frame_bytes": report.frame_bytes,
            "framing_overhead_bytes": report.framing_overhead_bytes,
            "estimated_bytes": report.estimated_bytes,
            "estimate_delta_bytes": report.estimate_delta_bytes,
            "per_superpeer": {
                str(sp): stats for sp, stats in report.per_superpeer.items()
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"variant {variant.value}: |SKY_U| = {len(outcome.result)}")
    print(_format_transport_report(outcome.report))
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    """``skypeer trace``: one observed query, written as a Chrome trace."""
    import json

    from .obs import chrome_trace, observed, write_chrome_trace
    from .skypeer.inspection import format_execution

    subspace = tuple(int(x) for x in args.subspace.split(","))
    variant = Variant.parse(args.variant)
    outcome = None
    with observed() as (tracer, metrics):
        network = SuperPeerNetwork.build(
            n_peers=args.peers,
            points_per_peer=args.points_per_peer,
            dimensionality=args.dims,
            dataset=args.dataset,
            seed=args.seed,
        )
        query = Query(subspace=subspace, initiator=network.topology.superpeer_ids[0])
        if args.transport == "socket":
            from .skypeer.netexec import run_socket_query

            outcome = run_socket_query(network, query, variant)
        else:
            execution = execute_query(network, query, variant)
    write_chrome_trace(args.output, tracer, indent=None)
    trace = chrome_trace(tracer)
    if outcome is not None:
        print(f"variant {variant.value}: |SKY_U| = {len(outcome.result)}")
        print(_format_transport_report(outcome.report))
    else:
        print(format_execution(execution))
    print()
    print(
        f"trace: {len(tracer)} spans / {len(trace['traceEvents'])} events "
        f"over {len(tracer.tracks())} tracks -> {args.output}"
    )
    print("open it in chrome://tracing or https://ui.perfetto.dev")
    if args.metrics_output:
        with open(args.metrics_output, "w", encoding="utf-8") as handle:
            json.dump(metrics.snapshot(), handle, indent=2, sort_keys=True)
        print(f"metrics snapshot -> {args.metrics_output}")
    print()
    print("metrics:")
    print(metrics.format_text())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
