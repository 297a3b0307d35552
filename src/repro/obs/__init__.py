"""Query-level tracing and metrics (observability).

The package has three parts and one switch:

* :mod:`repro.obs.tracer` — :class:`Tracer` records :class:`Span`
  intervals on the executor's model clocks (and on the single
  timeline of the flooded run / pre-processing phase).
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` holds labelled
  counters and histograms (dominance comparisons, points examined,
  messages, bytes, cache hits, threshold refinements, ...).
* :mod:`repro.obs.export` — Chrome-trace/Perfetto JSON export, so a
  query's parallel schedule opens in ``chrome://tracing`` or
  https://ui.perfetto.dev.
* :mod:`repro.obs.runtime` — the process-wide ``install`` switch.
  Observability is **off by default**; instrumented code checks
  ``active_tracer() is None`` and records nothing.

Typical use::

    from repro.obs import observed, write_chrome_trace

    with observed() as (tracer, metrics):
        execution = execute_query(network, query, "FTPM")
    write_chrome_trace("query-trace.json", tracer)
    print(metrics.format_text())

See ``docs/OBSERVABILITY.md`` for the counter glossary and the trace
viewer walkthrough, and the ``skypeer trace`` CLI subcommand for the
one-shot version of the snippet above.
"""

from .export import chrome_trace, chrome_trace_json, write_chrome_trace
from .metrics import Counter, Histogram, MetricsRegistry
from .runtime import active_metrics, active_tracer, install, observed, uninstall
from .tracer import Span, Tracer

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "active_metrics",
    "active_tracer",
    "chrome_trace",
    "chrome_trace_json",
    "install",
    "observed",
    "uninstall",
    "write_chrome_trace",
]
