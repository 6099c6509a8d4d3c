"""Observability: tracing, time-series telemetry and trace exporters.

Four layers of increasing interpretation — spans, interval attribution,
host profiling, causal chains:

* :mod:`repro.obs.tracer` — a zero-cost-when-disabled :class:`Tracer`
  keyed to the simulated clock, recording typed spans, instants and
  counters on per-machine engine/device/NIC tracks;
* :mod:`repro.obs.critpath` — the bottleneck-attribution analyzer: an
  exact per-machine decomposition of wall clock into resource
  categories, the Eq. 4 utilization check and the straggler detector;
* :mod:`repro.obs.host` — real host wall/CPU time per engine phase
  next to the simulated spans (the sim-to-host skew table);
* :mod:`repro.obs.causal` — message-level causal tracing: every
  simulated message carries a ``(trace, span, parent)`` context, the
  full causal DAG serializes into the trace, and the slowest-chain
  analyzer names the exact chain that bound each barrier
  (cross-checked against critpath's decomposition).

Supporting modules:

* :mod:`repro.obs.log` — the one append-only :class:`EventLog` of flat
  tuples every recorder writes to, its column view, and the loader that
  rebuilds it from a saved trace;
* :mod:`repro.obs.counters` — :class:`CounterRegistry` time series plus
  the :class:`ResourceSampler` process that snapshots device and NIC
  meters periodically (Fig. 5-style utilization timelines from a live
  run);
* :mod:`repro.obs.export` / :mod:`repro.obs.report` — Chrome/Perfetto
  ``trace_event`` JSON (including causal ``flow`` arrows), flat CSV of
  every time series, and the one ``repro trace-report`` document with
  its JSON and text renderings (plus the loader ``trace query`` uses);
* :mod:`repro.obs.bench` — the seven tracked scenarios, rendered as
  the lines of ``benchmarks/results/tracked_scenarios.txt`` that a
  tier-1 test compares byte for byte.  Import it as
  ``repro.obs.bench`` (not re-exported here: it pulls in the full
  runtime, which would cycle back into this package at init time).

Typical use::

    from repro import ClusterConfig, PageRank, rmat_graph, run_algorithm
    from repro.obs import Tracer, write_chrome_trace

    tracer = Tracer(sample_interval=1e-3)
    result = run_algorithm(PageRank(iterations=5), rmat_graph(12),
                           machines=4, tracer=tracer)
    write_chrome_trace(tracer, "run.trace.json")   # open in Perfetto
"""

from repro.obs.causal import (
    BarrierChain,
    CausalError,
    CausalRecorder,
    barrier_chains,
    causal_events_from_trace,
    chain_of,
    cross_check,
    filter_events,
    format_chain,
    format_chain_table,
    parse_where,
    slowest_chains,
)
from repro.obs.counters import CounterRegistry, ResourceSampler, TimeSeries
from repro.obs.critpath import (
    ATTRIBUTION_CATEGORIES,
    RECOVERY_WALL_CATEGORIES,
    AttributionError,
    AttributionReport,
    analyze_chrome_trace,
    analyze_events,
    analyze_tracer,
    format_attribution_report,
    format_iteration_table,
)
from repro.obs.export import (
    chrome_trace_dict,
    dumps_chrome_trace,
    write_chrome_trace,
    write_counters_csv,
)
from repro.obs.host import (
    ENGINE_PHASES,
    HOST_SCHEMA_VERSION,
    HostProfiler,
    check_host_schema,
    format_host_report,
    parse_collapsed_stack,
    to_collapsed_stack,
    to_prometheus,
    validate_prometheus,
)
from repro.obs.log import NULL, EventLog, NullObserver
from repro.obs.report import (
    RECOVERY_CATEGORIES,
    format_trace_report,
    load_trace,
    trace_report,
)
from repro.obs.tracer import (
    TID_CPU,
    TID_DEVICE,
    TID_ENGINE,
    TID_JOB,
    TID_NIC_RX,
    TID_NIC_TX,
    TraceError,
    Tracer,
    Track,
)

__all__ = [
    "ATTRIBUTION_CATEGORIES",
    "AttributionError",
    "AttributionReport",
    "BarrierChain",
    "CausalError",
    "CausalRecorder",
    "CounterRegistry",
    "ENGINE_PHASES",
    "EventLog",
    "HOST_SCHEMA_VERSION",
    "HostProfiler",
    "NULL",
    "NullObserver",
    "RECOVERY_CATEGORIES",
    "RECOVERY_WALL_CATEGORIES",
    "ResourceSampler",
    "TID_CPU",
    "TID_DEVICE",
    "TID_ENGINE",
    "TID_JOB",
    "TID_NIC_RX",
    "TID_NIC_TX",
    "TimeSeries",
    "analyze_chrome_trace",
    "analyze_events",
    "analyze_tracer",
    "barrier_chains",
    "causal_events_from_trace",
    "chain_of",
    "cross_check",
    "filter_events",
    "format_attribution_report",
    "format_iteration_table",
    "TraceError",
    "Tracer",
    "Track",
    "check_host_schema",
    "chrome_trace_dict",
    "dumps_chrome_trace",
    "format_chain",
    "format_chain_table",
    "format_host_report",
    "format_trace_report",
    "load_trace",
    "parse_collapsed_stack",
    "parse_where",
    "slowest_chains",
    "to_collapsed_stack",
    "to_prometheus",
    "trace_report",
    "validate_prometheus",
    "write_chrome_trace",
    "write_counters_csv",
]
