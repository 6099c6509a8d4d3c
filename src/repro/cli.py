"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``
    Produce a graph (RMAT or web-like) as a binary edge list.
``run``
    Run one of the ten algorithms on a simulated Chaos cluster, from a
    generated graph or a binary edge-list file; prints the result
    summary, runtime breakdown and I/O statistics.
``capacity``
    Paper-scale capacity projection (model mode): hours, terabytes,
    aggregate bandwidth for a trillion-edge-class job.
``utilization``
    The closed-form storage-utilization table of Figure 5.
``trace-report``
    Summarize a ``--trace`` JSON file in the terminal: per-device and
    per-NIC utilization, breakdown categories, integrity counters, top
    spans, counters, the per-iteration bottleneck-attribution table and
    the slowest causal barrier chains (``--format json`` emits the same
    tables machine-readably).
``trace query``
    Query the causal message-level event DAG of a ``--trace`` file:
    ``--where`` filters events with a small expression language,
    ``--chain-of`` walks the backward causal chain of one event, and
    ``--slowest-chains N`` prints the chains that bound the barriers.
``check``
    Determinism lint: run the CHX rules (:mod:`repro.analysis`) over
    source trees; non-zero exit on findings.  ``--format github`` emits
    workflow commands that annotate PR diffs.
``fuzz``
    Chaos-schedule fuzzer: sample seeded random fault schedules against
    the tracked PageRank configuration, check the recovery invariants
    (byte-identical final values, graceful degradation, bounded
    recovery), and shrink any violation to a minimal ``--inject-fault``
    reproducer file; non-zero exit on violations.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

import numpy as np

from repro.algorithms import (
    BFS,
    MIS,
    SSSP,
    WCC,
    BeliefPropagation,
    Conductance,
    PageRank,
    SpMV,
    run_mcst,
    run_scc,
)
from repro.core.batching import utilization, utilization_limit
from repro.core.config import ClusterConfig
from repro.core.metrics import ledger_lines
from repro.core.runtime import run_algorithm
from repro.graph.convert import to_undirected
from repro.graph.datasets import data_commons_like
from repro.graph.edgelist import read_edges, write_edges
from repro.graph.rmat import rmat_graph
from repro.graph.stats import out_degrees
from repro.net.topology import GIGE_1, GIGE_40
from repro.perf.capacity import project_capacity
from repro.perf.profiles import bfs_profile, fixed_profile
from repro.store.device import HDD_RAID0, SSD_480GB

ALGORITHMS = (
    "BFS",
    "WCC",
    "MCST",
    "MIS",
    "SSSP",
    "SCC",
    "PR",
    "Cond",
    "SpMV",
    "BP",
)

UNDIRECTED = {"BFS", "WCC", "MCST", "MIS", "SSSP"}
WEIGHTED = {"MCST", "SSSP"}

DEVICES = {"ssd": SSD_480GB, "hdd": HDD_RAID0}
NETWORKS = {"40g": GIGE_40, "1g": GIGE_1}


class UsageError(Exception):
    """A bad command line or unreadable input.  :func:`main` prints it to
    stderr and exits 2, a code no command uses for a verdict."""


def _count(text: str) -> int:
    """The type of every count flag (rows, RMAT scales): a whole number >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a whole number >= 0, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Chaos (SOSP 2015) reproduction: scale-out graph "
        "processing from secondary storage.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a graph file")
    generate.add_argument("--kind", choices=("rmat", "web"), default="rmat")
    generate.add_argument("--scale", type=_count, default=14,
                          help="RMAT scale (2^scale vertices)")
    generate.add_argument("--pages", type=int, default=100_000,
                          help="web graph page count")
    generate.add_argument("--weighted", action="store_true")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output path (binary)")

    run = commands.add_parser("run", help="run an algorithm on a cluster")
    run.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    run.add_argument("--machines", type=int, default=4)
    run.add_argument("--scale", type=_count, default=12,
                     help="generate an RMAT graph of this scale")
    run.add_argument("--input", help="binary edge-list file instead")
    run.add_argument("--vertices", type=int,
                     help="vertex count of the --input file")
    run.add_argument("--weighted", action="store_true",
                     help="the --input file has weights")
    run.add_argument("--iterations", type=int, default=5,
                     help="iterations for PR/BP")
    run.add_argument("--root", type=int, default=None,
                     help="BFS/SSSP root (default: highest-degree vertex)")
    run.add_argument("--chunk-kb", type=int, default=64)
    run.add_argument("--device", choices=DEVICES, default="ssd")
    run.add_argument("--network", choices=NETWORKS, default="40g")
    run.add_argument("--cores", type=int, default=16)
    run.add_argument("--alpha", type=float, default=1.0,
                     help="steal bias (0 disables stealing, inf always)")
    run.add_argument("--checkpoint", action="store_true")
    run.add_argument("--aggregate-updates", action="store_true")
    run.add_argument("--partitions-per-machine", type=int, default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--json", action="store_true",
                     help="print the result as JSON instead of text")
    run.add_argument("--trace", metavar="PATH",
                     help="write a Chrome/Perfetto trace_event JSON file")
    run.add_argument("--trace-sample-interval", type=float, default=0.001,
                     metavar="SECONDS",
                     help="counter sampling period in simulated seconds "
                          "(0 disables time-series sampling)")
    run.add_argument("--trace-csv", metavar="PATH",
                     help="also dump the counter time series as CSV")
    run.add_argument("--inject-fault", action="append", metavar="SPEC",
                     dest="inject_fault",
                     help="inject a machine fault into the simulation; "
                          "SPEC is kind:machine@trigger[,key=value...] "
                          "e.g. crash:1@iter=3  crash-restart:0@t=0.02,"
                          "down=0.01  partition:2@iter=2,for=0.05  "
                          "slow-device:1@t=0.01,factor=8,for=0.02  "
                          "msg-corrupt:1@iter=2,count=2  "
                          "chunk-bitflip:0@iter=1 — or a path to a "
                          "fault-plan file (one spec per line, # "
                          "comments), e.g. a fuzz reproducer "
                          "(repeatable; specs and files combine)")
    run.add_argument("--no-integrity", action="store_true",
                     help="disable the integrity hardening (checksums, "
                          "duplicate suppression, freshness checks) — "
                          "test hook for reproducing what byzantine "
                          "faults do to an unprotected cluster")
    run.add_argument("--verify-recovery", action="store_true",
                     help="with --inject-fault: also run an undisturbed "
                          "twin and exit non-zero unless the final vertex "
                          "values are byte-identical")
    run.add_argument("--host-profile", nargs="?", const="on",
                     choices=("on", "tracemalloc"), default=None,
                     help="measure real host wall/CPU time per engine "
                          "phase (scatter/gather/apply, chunk serialize/"
                          "deserialize); 'tracemalloc' also "
                          "records allocation deltas; prints the "
                          "host-profile report and embeds the metrics in "
                          "--trace files")
    run.add_argument("--host-json", metavar="PATH",
                     help="with --host-profile: write the host metrics "
                          "as JSON")
    run.add_argument("--host-flamegraph", metavar="PATH",
                     help="with --host-profile: write collapsed-stack "
                          "flamegraph text (machine;phase;iteration "
                          "wall-microseconds)")
    run.add_argument("--host-prometheus", metavar="PATH",
                     help="with --host-profile: write Prometheus text "
                          "exposition format")
    run.add_argument("--attribute", action="store_true",
                     help="record a trace (even without --trace) and "
                          "print the bottleneck-attribution report: "
                          "per-category time, binding resource, "
                          "utilization vs the Eq. 4 prediction, "
                          "stragglers")

    capacity = commands.add_parser(
        "capacity", help="paper-scale capacity projection (model mode)"
    )
    capacity.add_argument("--algorithm", choices=("BFS", "PR"), default="BFS")
    capacity.add_argument("--scale", type=_count, default=36)
    capacity.add_argument("--machines", type=int, default=32)
    capacity.add_argument("--device", choices=DEVICES, default="hdd")
    capacity.add_argument("--iterations", type=int, default=5,
                          help="PR iterations / BFS passes")
    capacity.add_argument("--chunk-mb", type=int, default=1024,
                          help="macro-chunk size for the projection")

    util = commands.add_parser(
        "utilization", help="theoretical utilization table (Figure 5)"
    )
    util.add_argument("--max-machines", type=int, default=32)

    report = commands.add_parser(
        "trace-report", help="summarize a --trace JSON file"
    )
    report.add_argument("path", help="trace file written by run --trace")
    report.add_argument("--top", type=_count, default=None,
                        help="rows to show: top spans (default 12) and, "
                             "for traces recorded with --host-profile, "
                             "hottest host phases (default 10)")
    report.add_argument("--format", choices=("text", "json"),
                        default="text", dest="fmt",
                        help="output format (json = every table of the "
                             "text report, machine-readable)")

    trace = commands.add_parser(
        "trace", help="query the causal event DAG of a --trace JSON file"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    query = trace_commands.add_parser(
        "query", help="filter causal events / walk causal chains"
    )
    query.add_argument("path", help="trace file written by run --trace")
    query.add_argument("--where", metavar="EXPR",
                       help="filter expression over causal events, e.g. "
                            "'cat=steal_request and machine=3 and dur>5ms' "
                            "(fields: id parent kind cat src dst machine "
                            "size epoch label phase barrier attempt trace "
                            "t t0 t1 dur; time values take s/ms/us/ns)")
    query.add_argument("--chain-of", type=int, metavar="EVENT",
                       dest="chain_of",
                       help="print the backward causal chain ending at "
                            "this event id, root first")
    query.add_argument("--slowest-chains", type=_count, nargs="?", const=5,
                       metavar="N", dest="slowest_chains",
                       help="print the N slowest barrier chains "
                            "(default 5), each walked root-first")
    query.add_argument("--limit", type=_count, default=50,
                       help="max events to print for --where (default 50)")
    query.add_argument("--format", choices=("text", "json"),
                       default="text", dest="fmt",
                       help="output format")
    conform = trace_commands.add_parser(
        "conform", help="replay a causal trace against the declared "
                        "message kinds (unmodeled transitions, barrier "
                        "consensus, stuck transitions)"
    )
    conform.add_argument("path", help="trace file written by run --trace "
                                      "(or a fuzz deadlock capture)")
    conform.add_argument("--report-json", metavar="FILE", default=None,
                         help="also write the conformance report as JSON")
    conform.add_argument("--format", choices=("text", "json"),
                         default="text", dest="fmt",
                         help="output format")

    check = commands.add_parser(
        "check", help="determinism lint (CHX rules) over source trees"
    )
    check.add_argument("paths", nargs="*", default=["src"],
                       help="files or directories to lint (default: src)")
    check.add_argument("--format", choices=("text", "json", "github"),
                       default="text", dest="fmt",
                       help="output format (github = PR annotations)")
    check.add_argument("--rules", metavar="IDS",
                       help="comma-separated rule ids to run "
                            "(default: all CHX rules)")
    check.add_argument("--stats", action="store_true",
                       help="print per-rule finding/suppression counts "
                            "(text format only; json always includes them)")

    fuzz = commands.add_parser(
        "fuzz", help="chaos-schedule fuzzer: random fault plans vs the "
                     "recovery invariants, with shrinking"
    )
    fuzz.add_argument("--episodes", type=_count, default=25,
                      help="number of random fault schedules to run")
    fuzz.add_argument("--seed", type=int, default=7,
                      help="fuzz seed: the whole campaign (schedules, "
                           "jitter, placement) is reproducible from it")
    fuzz.add_argument("--scale", type=_count, default=12,
                      help="RMAT scale of the fuzzed graph")
    fuzz.add_argument("--machines", type=int, default=2)
    fuzz.add_argument("--iterations", type=int, default=3,
                      help="PageRank iterations of the fuzzed job")
    fuzz.add_argument("--max-specs", type=_count, default=3,
                      help="max faults per sampled schedule")
    fuzz.add_argument("--no-integrity", action="store_true",
                      help="fuzz the unhardened cluster (checksums, "
                           "dedup, freshness checks off) — the fuzzer "
                           "should then find, shrink and emit "
                           "reproducers for corruption violations")
    fuzz.add_argument("--out-dir", default=".",
                      help="directory for shrunk reproducer plan files")
    fuzz.add_argument("--json", metavar="PATH", default=None,
                      help="write the full campaign report as JSON")

    return parser


def _make_algorithm(name: str, args, graph):
    if name == "BFS" or name == "SSSP":
        root = args.root
        if root is None:
            root = int(np.argmax(out_degrees(graph)))
        elif not 0 <= root < graph.num_vertices:
            raise ValueError(
                f"--root {root} out of range for {graph.num_vertices} vertices"
            )
        return BFS(root=root) if name == "BFS" else SSSP(root=root)
    if name == "WCC":
        return WCC()
    if name == "MIS":
        return MIS()
    if name == "PR":
        return PageRank(iterations=args.iterations)
    if name == "Cond":
        return Conductance()
    if name == "SpMV":
        return SpMV(seed=args.seed)
    if name == "BP":
        return BeliefPropagation(iterations=args.iterations)
    raise ValueError(name)


def _check_run_flags(args) -> None:
    """Reject every bad flag combination of ``run`` before any work."""
    if args.input and args.vertices is None:
        raise UsageError("--input requires --vertices")
    for flag, given in (("--host-profile", args.host_profile),
                        ("--inject-fault", args.inject_fault)):
        if given and args.algorithm in ("MCST", "SCC"):
            raise UsageError(
                f"{flag} does not support {args.algorithm}: it is "
                f"a multi-run driver, not a single GAS job"
            )
    if not args.host_profile and (
        args.host_json or args.host_flamegraph or args.host_prometheus
    ):
        raise UsageError(
            "--host-json/--host-flamegraph/--host-prometheus require "
            "--host-profile"
        )
    if args.verify_recovery and not args.inject_fault:
        raise UsageError("--verify-recovery requires --inject-fault")
    interval = args.trace_sample_interval
    if not (math.isfinite(interval) and interval >= 0):
        raise UsageError(
            f"--trace-sample-interval must be a finite number of seconds "
            f">= 0 (0 disables sampling), got {interval}"
        )


def _load_fault_plan(args, config):
    """The ``--inject-fault`` specs and plan files as one checked plan."""
    import os

    from repro.faults import FaultPlan, parse_fault_spec

    try:
        specs = []
        for item in args.inject_fault:
            if os.path.isfile(item):
                # A fault-plan file (e.g. a fuzz reproducer): one
                # spec per line, '#' starts a comment.
                specs.extend(FaultPlan.load(item).specs)
            else:
                specs.append(parse_fault_spec(item))
        fault_plan = FaultPlan(specs=tuple(specs))
        fault_plan.validate(config)
    except (OSError, ValueError) as error:
        raise UsageError(f"bad --inject-fault: {error}")
    return fault_plan


def _load_graph(args):
    if args.input:
        try:
            graph = read_edges(
                args.input, args.vertices, weighted=args.weighted
            )
        except (OSError, ValueError) as error:
            raise UsageError(f"cannot read --input {args.input!r}: {error}")
    else:
        weighted = args.weighted or args.algorithm in WEIGHTED
        graph = rmat_graph(args.scale, seed=args.seed, weighted=weighted)
    if args.algorithm in UNDIRECTED:
        graph = to_undirected(graph)
    return graph


def _command_generate(args) -> int:
    if args.kind == "rmat":
        graph = rmat_graph(args.scale, seed=args.seed, weighted=args.weighted)
    else:
        graph = data_commons_like(args.pages, seed=args.seed)
    size = write_edges(graph, args.out)
    print(f"wrote {graph} to {args.out} ({size / 1e6:.1f} MB)")
    return 0


def _command_run(args) -> int:
    # Every usage error (flags, config, fault plan, input file, algorithm
    # parameters) is raised before the first line of output and the
    # first simulated event.
    _check_run_flags(args)
    try:
        config = ClusterConfig(
            machines=args.machines,
            cores=args.cores,
            device=DEVICES[args.device],
            network=NETWORKS[args.network],
            chunk_bytes=args.chunk_kb * 1024,
            steal_alpha=args.alpha,
            checkpointing=args.checkpoint,
            aggregate_updates=args.aggregate_updates,
            partitions_per_machine=args.partitions_per_machine,
            seed=args.seed,
            integrity_checks=not args.no_integrity,
        )
    except ValueError as error:
        raise UsageError(f"run: {error}")
    fault_plan = _load_fault_plan(args, config) if args.inject_fault else None
    graph = _load_graph(args)
    algorithm = None
    if args.algorithm not in ("MCST", "SCC"):
        try:
            algorithm = _make_algorithm(args.algorithm, args, graph)
        except ValueError as error:
            raise UsageError(f"run: {error}")

    tracer = None
    if args.trace or args.trace_csv:
        from repro.obs import Tracer

        interval = args.trace_sample_interval
        tracer = Tracer(sample_interval=interval if interval > 0 else None)
    elif args.attribute:
        from repro.obs import Tracer

        # Attribution only needs spans, not counter time series.
        tracer = Tracer(sample_interval=None)

    host = None
    if args.host_profile:
        from repro.obs import HostProfiler

        host = HostProfiler(
            trace_allocations=args.host_profile == "tracemalloc"
        )

    if not args.json:
        print(f"graph: {graph}")
        print(
            f"cluster: {config.machines} machines, {config.device.name}, "
            f"{config.network.name}, "
            f"window {config.effective_request_window()}"
        )

    timeline = None
    if args.algorithm == "MCST":
        result = run_mcst(graph, config, tracer=tracer)
    elif args.algorithm == "SCC":
        result = run_scc(graph, config, tracer=tracer)
    else:
        from repro.core.runtime import ChaosCluster

        if host is not None:
            # Which job the host metrics document describes.
            host.job = {
                "algorithm": algorithm.name,
                "cli_name": args.algorithm,
                "machines": args.machines,
                "seed": args.seed,
            }
        cluster = ChaosCluster(config, tracer=tracer, host=host)
        from repro.faults.diagnosis import UnrecoverableJobError

        try:
            result = cluster.run(algorithm, graph, fault_plan=fault_plan)
        except UnrecoverableJobError as error:
            # Graceful degradation: the cluster refused to resume from
            # damaged state.  Exit 3 so chaos campaigns can tell a clean
            # refusal apart from a crash (1/2) or success (0).
            print(error.diagnosis.render(), file=sys.stderr)
            return 3
        timeline = cluster.last_fault_timeline

    host_doc = None
    if host is not None:
        host_doc = host.finalize().to_dict()

    recovery_mismatch = False
    if args.verify_recovery:
        twin = run_algorithm(
            _make_algorithm(args.algorithm, args, graph), graph, config
        )
        recovery_mismatch = set(result.values) != set(twin.values) or any(
            not np.array_equal(result.values[name], twin.values[name])
            for name in result.values
        )

    if tracer is not None:
        from repro.obs import write_chrome_trace, write_counters_csv

        if args.trace:
            size = write_chrome_trace(tracer, args.trace, host_metrics=host_doc)
            if not args.json:
                print(f"trace: {len(tracer.log.columns().trace)} events -> "
                      f"{args.trace} ({size / 1e3:.1f} kB)")
        if args.trace_csv:
            write_counters_csv(tracer, args.trace_csv)
            if not args.json:
                print(f"counters: {len(tracer.registry.names())} series -> "
                      f"{args.trace_csv}")

    if host_doc is not None:
        import json as json_module

        from repro.obs import to_collapsed_stack, to_prometheus

        if args.host_json:
            with open(args.host_json, "w") as handle:
                json_module.dump(host_doc, handle, sort_keys=True, indent=2)
                handle.write("\n")
            if not args.json:
                print(f"host metrics: {len(host_doc['phases'])} phase "
                      f"record(s) -> {args.host_json}")
        if args.host_flamegraph:
            with open(args.host_flamegraph, "w") as handle:
                handle.write(to_collapsed_stack(host_doc))
            if not args.json:
                print(f"host flamegraph: -> {args.host_flamegraph}")
        if args.host_prometheus:
            with open(args.host_prometheus, "w") as handle:
                handle.write(
                    to_prometheus(host_doc, integrity=result.integrity)
                )
            if not args.json:
                print(f"host prometheus: -> {args.host_prometheus}")

    attribution = None
    if args.attribute:
        from repro.obs.critpath import analyze_tracer

        attribution = analyze_tracer(tracer)

    if args.json:
        if attribution is not None or host_doc is not None:
            import json as json_module

            payload = result.to_dict()
            if attribution is not None:
                payload["attribution"] = attribution.to_dict()
            if host_doc is not None:
                payload["host"] = host_doc
            print(json_module.dumps(payload, sort_keys=True, indent=2))
        else:
            print(result.to_json(indent=2))
        if timeline is not None:
            print(timeline.summary(), file=sys.stderr)
        if args.verify_recovery:
            verdict = "MISMATCH" if recovery_mismatch else "identical"
            print(f"recovery verification: {verdict}", file=sys.stderr)
        return 1 if recovery_mismatch else 0

    print()
    print(result.summary())
    print(f"  preprocessing: {result.preprocessing_seconds:.3f}s")
    print(f"  storage I/O:   {result.storage_bytes / 1e6:.1f} MB")
    print(f"  network:       {result.network_bytes / 1e6:.1f} MB")
    print(
        f"  steals:        {result.steals_accepted} accepted, "
        f"{result.steals_rejected} rejected"
    )
    # Engine-seconds summed over machines (they total machines x
    # runtime); the shares are of Figure 17's six categories.
    print("  breakdown (engine-seconds, Figure 17 share):")
    for line in ledger_lines(result.total_breakdown().seconds()):
        print(f"    {line}")
    if timeline is not None:
        print()
        print("fault timeline:")
        for line in timeline.summary().splitlines():
            print(f"  {line}")
    if args.verify_recovery:
        verdict = (
            "MISMATCH vs undisturbed run"
            if recovery_mismatch
            else "final values identical to undisturbed run"
        )
        print(f"  recovery verification: {verdict}")
    if attribution is not None:
        from repro.obs.critpath import format_attribution_report

        print()
        print(format_attribution_report(attribution))
    if host_doc is not None:
        from repro.obs import format_host_report

        print()
        print(format_host_report(host_doc))
    return 1 if recovery_mismatch else 0


def _command_capacity(args) -> int:
    try:
        config = ClusterConfig(
            machines=args.machines,
            device=DEVICES[args.device],
            network=GIGE_40,
            chunk_bytes=args.chunk_mb * 1024 * 1024,
            partitions_per_machine=1,
        )
        if args.algorithm == "BFS":
            algorithm, profile = BFS(), bfs_profile(13)
        else:
            algorithm = PageRank(iterations=args.iterations)
            profile = fixed_profile(args.iterations)
    except ValueError as error:
        raise UsageError(f"capacity: {error}")
    projection = project_capacity(
        algorithm, profile, scale=args.scale,
        machines=args.machines, config=config,
    )
    print(projection.summary())
    return 0


def _command_utilization(args) -> int:
    machine_counts = [m for m in (5, 10, 15, 20, 25, 30, 32)
                      if m <= args.max_machines] or [args.max_machines]
    print("rho(m, k) = 1 - (1 - k/m)^m        (Figure 5)")
    header = "k\\m " + "".join(f"{m:>9d}" for m in machine_counts) + "     limit"
    print(header)
    for k in (1, 2, 3, 5):
        row = f"k={k:<2d}" + "".join(
            f"{utilization(m, k):>9.4f}" for m in machine_counts
        )
        print(row + f"{utilization_limit(k):>10.4f}")
    return 0


def _command_trace_report(args) -> int:
    import json as json_module

    from repro.obs.report import format_trace_report, load_trace, trace_report

    try:
        trace = load_trace(args.path)
    except (OSError, ValueError) as error:
        raise UsageError(f"cannot read trace {args.path!r}: {error}")
    doc = trace_report(trace, top=12 if args.top is None else args.top)
    if args.fmt == "json":
        print(json_module.dumps(doc, sort_keys=True, indent=2))
    else:
        print(format_trace_report(doc, host_top=10 if args.top is None else args.top))
    return 0


def _command_trace(args) -> int:
    if args.trace_command == "conform":
        return _command_trace_conform(args)
    return _command_trace_query(args)


def _command_trace_conform(args) -> int:
    import json as json_module

    from repro.analysis.protocol import conform
    from repro.obs import causal as causal_mod
    from repro.obs.report import load_trace

    try:
        trace = load_trace(args.path)
        events = causal_mod.causal_events_from_trace(trace)
    except (OSError, ValueError) as error:  # CausalError included
        raise UsageError(f"cannot read trace {args.path!r}: {error}")

    report = conform(events)
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as handle:
            json_module.dump(report.to_dict(), handle, indent=2,
                             sort_keys=True)
    if args.fmt == "json":
        print(json_module.dumps(report.to_dict(), indent=2,
                                sort_keys=True))
    else:
        print(report.format_text())
    return 0 if report.ok else 1


def _command_trace_query(args) -> int:
    import json as json_module

    from repro.obs import causal as causal_mod
    from repro.obs.report import load_trace

    wants = [
        bool(args.where),
        args.chain_of is not None,
        args.slowest_chains is not None,
    ]
    if sum(wants) != 1:
        raise UsageError(
            "trace query: pass exactly one of --where, --chain-of, "
            "--slowest-chains"
        )
    try:
        trace = load_trace(args.path)
        events = causal_mod.causal_events_from_trace(trace)
    except (OSError, ValueError) as error:
        raise UsageError(f"cannot read trace {args.path!r}: {error}")

    try:
        if args.where:
            matches = causal_mod.filter_events(events, args.where)
            if args.fmt == "json":
                print(causal_mod.dumps_events(matches[: args.limit]))
            else:
                for event in matches[: args.limit]:
                    print(causal_mod.format_event(event))
                tail = len(matches) - args.limit
                if tail > 0:
                    print(f"... {tail} more (raise --limit)")
                print(
                    f"{len(matches)} event(s) matched of {len(events)}"
                )
            return 0
        if args.chain_of is not None:
            chain = causal_mod.chain_of(events, args.chain_of)
            if args.fmt == "json":
                print(causal_mod.dumps_events(chain))
            else:
                for event in chain:
                    print(causal_mod.format_event(event))
            return 0
        chains = causal_mod.slowest_chains(events, args.slowest_chains)
        if args.fmt == "json":
            print(
                json_module.dumps(
                    [chain.to_dict() for chain in chains],
                    sort_keys=True,
                    separators=(",", ":"),
                )
            )
        else:
            if not chains:
                print("no barrier chains in trace")
            for index, chain in enumerate(chains):
                if index:
                    print()
                print(causal_mod.format_chain(chain))
        return 0
    except causal_mod.CausalError as error:
        raise UsageError(f"trace query: {error}")


def _rule_stats(result) -> dict:
    """Per-rule finding/suppression counts for --stats and json output."""
    stats: dict = {}
    for finding in result.findings:
        entry = stats.setdefault(finding.rule_id, {"findings": 0, "suppressed": 0})
        entry["findings"] += 1
    for finding in result.suppressed:
        entry = stats.setdefault(finding.rule_id, {"findings": 0, "suppressed": 0})
        entry["suppressed"] += 1
    return dict(sorted(stats.items()))


def _command_check(args) -> int:
    import json as json_module
    import os

    from repro.analysis import (
        RULE_TABLE,
        LintEngine,
        default_rules,
        format_github,
        format_json,
        format_text,
    )

    for path in args.paths:
        if not os.path.exists(path):
            raise UsageError(f"check: no such file or directory: {path}")

    from repro.obs import hostclock

    wall_start = hostclock.wall_ns()
    rules = default_rules()
    if args.rules:
        wanted = {rule_id.strip() for rule_id in args.rules.split(",")
                  if rule_id.strip()}
        unknown = wanted - set(RULE_TABLE)
        if unknown:
            raise UsageError(
                f"unknown rule ids: {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(RULE_TABLE))})"
            )
        rules = [rule for rule in rules if rule.rule_id in wanted]
    result = LintEngine(rules).check_paths(args.paths)
    wall_seconds = (hostclock.wall_ns() - wall_start) / 1e9

    if args.fmt == "json":
        document = json_module.loads(
            format_json(result.findings, suppressed=len(result.suppressed))
        )
        document["rule_stats"] = _rule_stats(result)
        document["analysis_wall_seconds"] = round(wall_seconds, 4)
        if result.resolution is not None:
            document["call_graph"] = result.resolution
        print(json_module.dumps(document, indent=2))
    elif args.fmt == "github":
        output = format_github(result.findings)
        if output:
            print(output)
    else:
        output = format_text(result.findings)
        if output:
            print(output)
        print(
            f"{len(result.findings)} finding(s), "
            f"{len(result.suppressed)} suppressed, "
            f"{result.files_checked} file(s) checked",
            file=sys.stderr,
        )
        if args.stats:
            for rule_id, entry in _rule_stats(result).items():
                print(
                    f"  {rule_id}: {entry['findings']} finding(s), "
                    f"{entry['suppressed']} suppressed",
                    file=sys.stderr,
                )
            print(
                f"  analysis wall time: {wall_seconds:.2f}s",
                file=sys.stderr,
            )
        if result.resolution is not None:
            fraction = result.resolution["project_resolution_fraction"]
            print(f"call-graph resolution {fraction:.1%}", file=sys.stderr)
    return 1 if result.findings else 0


def _command_fuzz(args) -> int:
    import json as json_module
    import os

    from repro.faults.fuzz import (
        OUTCOME_DEADLOCK,
        VIOLATION_OUTCOMES,
        ChaosFuzzer,
        write_reproducer,
    )
    from repro.net.topology import GIGE_40_BENCH
    from repro.store.device import SSD_BENCH

    # Mirrors the tracked pr_m2 bench scenario, plus checkpointing and
    # replication so every fault kind (including ckpt-corrupt) is in
    # scope for the generator.  Bad parameters are usage errors, raised
    # before the first line of output.
    try:
        if args.max_specs < 1:
            raise ValueError("max_specs must be >= 1")
        config = ClusterConfig(
            machines=args.machines,
            device=SSD_BENCH,
            network=GIGE_40_BENCH,
            chunk_bytes=4096,
            batch_factor=8,
            partitions_per_machine=1,
            checkpointing=True,
            vertex_replicas=2,
            seed=1,
            integrity_checks=not args.no_integrity,
        )
        PageRank(iterations=args.iterations)
    except ValueError as error:
        raise UsageError(f"fuzz: {error}")
    graph = rmat_graph(args.scale, seed=1)
    print(
        f"fuzz: PageRank x{args.iterations} on {graph}, "
        f"{config.machines} machines, integrity "
        f"{'OFF' if args.no_integrity else 'on'}, "
        f"{args.episodes} episode(s), seed {args.seed}"
    )

    def progress(episode) -> None:
        marker = "!!" if episode.outcome in VIOLATION_OUTCOMES else "  "
        plan_text = "; ".join(s.describe() for s in episode.plan.specs)
        tail = (
            f" — {episode.detail}"
            if episode.detail and episode.outcome != "ok"
            else ""
        )
        print(
            f"{marker} episode {episode.index:>3}: "
            f"{episode.outcome:<18} {plan_text}{tail}"
        )

    fuzzer = ChaosFuzzer(
        lambda: PageRank(iterations=args.iterations),
        graph,
        config,
        seed=args.seed,
        max_specs=args.max_specs,
        max_iteration=max(0, args.iterations - 1),
        progress=progress,
    )
    report = fuzzer.run_campaign(args.episodes)
    print()
    print(report.summary())
    if report.violations:
        os.makedirs(args.out_dir, exist_ok=True)
        for violation in report.violations:
            path = os.path.join(
                args.out_dir,
                f"fuzz-repro-s{args.seed}-e{violation.episode.index}.faults",
            )
            write_reproducer(path, violation, args.seed, config)
            print(f"reproducer -> {path}")
            if OUTCOME_DEADLOCK in (
                violation.episode.outcome, violation.shrunk_outcome
            ):
                # The causal trace of the wedged run, written next to
                # the reproducer: `repro trace conform <trace>` checks
                # it against the declared message kinds and names the
                # stuck transition.
                trace_path = path[: -len(".faults")] + ".trace.json"
                fuzzer.capture_trace(violation.shrunk, trace_path)
                print(f"deadlock causal trace -> {trace_path}")
    if args.json:
        with open(args.json, "w") as handle:
            json_module.dump(
                report.to_dict(), handle, indent=2, sort_keys=True
            )
            handle.write("\n")
        print(f"episode report -> {args.json}")
    return 0 if report.ok else 1


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _command_generate,
        "run": _command_run,
        "capacity": _command_capacity,
        "utilization": _command_utilization,
        "trace-report": _command_trace_report,
        "trace": _command_trace,
        "check": _command_check,
        "fuzz": _command_fuzz,
    }
    try:
        return handlers[args.command](args)
    except UsageError as error:
        print(error, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like a
        # well-behaved Unix filter.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
