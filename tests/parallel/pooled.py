"""A workload run on an engine, one ``run_query`` per (query, variant)."""

from __future__ import annotations

from repro.skypeer.variants import Variant


def pooled_runs(engine, network, queries, variants):
    """Every (query, variant) execution on ``engine``: per variant, in query order."""
    variants = [Variant.parse(v) if isinstance(v, str) else v for v in variants]
    return {v: [engine.run_query(network, q, v) for q in queries] for v in variants}
