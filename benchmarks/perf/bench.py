#!/usr/bin/env python3
"""Host-performance benchmark of the Chaos reproduction.

Three ways in, one machinery (``README.md`` has the metric tables):

* the driver's contract — one workload per call, last stdout line JSON::

      python3 benchmarks/perf/bench.py --workload pr_kernel --seed 1 \
          --seconds 10 --trace 0

* the whole benchmark — every workload, rounds interleaved, one file::

      python3 benchmarks/perf/bench.py --seed 1 --rounds 11 \
          --out benchmarks/perf/results/BENCH_pr11.json

* ``--compare A.json B.json`` — verdict per workload x end-to-end metric.

Harness shape: one persistent worker subprocess per workload holds that
workload's graph; this process drives the workers one job at a time, so
exactly one process generates load.  Timed rounds follow one warm-up
run, with ``gc.collect()`` before every timed call and the collector
left on.  The sandbox's CPU speed moves by up to 2x for minutes at a
time, so every timing is taken with ``machine.SpeedSampler`` running and
reported as the median over its rounds of CPU seconds x machine speed:
the time the work takes with an undisturbed CPU to itself (``README.md``
has the measurements behind that; the jobs never block, so on a quiet
machine that is their wall time to within 1 %).  Raw walls and
calibrated best, median, quartiles, max and n go into the results file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional, Tuple

#: "Worker start" for ``setup_s``: the interpreter is up, nothing of the
#: repository has been imported yet.
_PROCESS_START = time.perf_counter()
_PROCESS_CPU_START = time.process_time()

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
#: Scratch space for file-backed chunks and exported traces; inside the
#: benchmark's own directory so a run never writes outside its checkout.
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, HERE)

import machine  # noqa: E402

#: A worker's set-up is timed from the first line of this file, so its
#: speed samples must start before ``repro`` is imported too.
_SETUP_SAMPLER = machine.SpeedSampler()
if __name__ == "__main__" and "--worker" in sys.argv:
    _SETUP_SAMPLER.start()

import workloads  # noqa: E402  (imports repro: fails where src/ is absent)

_IMPORT_SECONDS = time.perf_counter() - _PROCESS_START

SCHEMA = 1
#: A ``bound`` of EXACT means "compare with ==": the simulated results
#: of a fixed (config, seed) are deterministic.
EXACT = 0.0

#: name -> (unit, better, bound used by --compare at a fixed seed).
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "job_wall_s": ("s", "lower", 0.10),
    "edges_per_s": ("1/s", "higher", 0.10),
    "setup_s": ("s", "lower", 0.15),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "sim_runtime_s": ("s", "lower", EXACT),
    "sim_bytes_moved": ("bytes", "lower", EXACT),
}

_PER_LAYER_TABLE = """
graph.build_s s lower
partition.partition_s s lower
partition.edges_per_s 1/s higher
sim.events count lower
sim.dispatch_self_s s lower
sim.events_per_s 1/s higher
sim.service_calls count lower
sim.service_s s lower
net.messages count lower
net.bytes bytes lower
net.send_s s lower
net.msgs_per_s 1/s higher
net.events_per_msg ratio lower
net.dropped count lower
store.crc_calls count lower
store.crc_s s lower
store.crc_mb_per_s MB/s higher
store.backend_calls count lower
store.backend_s s lower
store.chunks_per_s 1/s higher
store.file_write_mb MB lower
store.file_read_mb MB lower
store.file_write_mb_per_s MB/s higher
store.file_read_mb_per_s MB/s higher
core.run_self_s s lower
core.scatter_calls count lower
core.scatter_s s lower
core.scatter_edges_per_s 1/s higher
core.gather_s s lower
core.apply_calls count lower
core.apply_s s lower
core.order_s s lower
core.order_updates_per_s 1/s higher
core.updates count lower
algorithms.scatter_s s lower
algorithms.gather_s s lower
algorithms.apply_s s lower
obs.trace_events count lower
obs.causal_events count lower
obs.analyze_s s lower
obs.export_s s lower
obs.export_mb MB lower
obs.record_s s lower
obs.overhead_ratio ratio lower
faults.recoveries count lower
faults.checkpoints count lower
faults.lost_sim_s s lower
faults.restore_sim_s s lower
faults.recovery_wall_ratio ratio lower
bench.traced_wall_s s lower
bench.job_self_s s lower
bench.trace_overhead_ratio ratio lower
bench.span_closure ratio higher
bench.canary_s s lower
probe.sim.events_per_s 1/s higher
probe.net.msgs_per_s 1/s higher
probe.store.crc_mb_per_s.4k MB/s higher
probe.store.crc_mb_per_s.64k MB/s higher
probe.store.mem_rw_chunks_per_s.4k 1/s higher
probe.store.mem_rw_chunks_per_s.64k 1/s higher
probe.store.file_write_mb_per_s.64k MB/s higher
probe.store.file_read_mb_per_s.64k MB/s higher
probe.core.order_updates_per_s.f64 1/s higher
probe.core.order_updates_per_s.u32 1/s higher
probe.graph.rmat_edges_per_s 1/s higher
probe.partition.edges_per_s 1/s higher
"""
#: name -> (unit, better); a metric a workload does not exercise reads 0.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    name: (unit, better)
    for name, unit, better in (
        line.split() for line in _PER_LAYER_TABLE.strip().splitlines()
    )
}

MIN_ROUNDS = 3
#: Fresh worker set-ups timed per workload: the worker that runs the
#: jobs, one throw-away worker half-way through the timed rounds and one
#: after them.  Consecutive samples share whatever state the machine is
#: in; samples spread over the run do not.
SETUP_SAMPLES = 3
TRACE_TRIOS = 3
CANARY_DRIFT = 0.05


def summarize(samples: List[float]) -> Dict[str, float]:
    """Best, median, quartiles, worst and count of one timing's rounds."""
    if len(samples) >= 2:
        q1, _median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "min": min(samples),
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "max": max(samples),
        "n": len(samples),
    }


# ---------------------------------------------------------------------------
# Worker: lives in a subprocess, holds one workload's graph
# ---------------------------------------------------------------------------


class Worker:
    """Runs one workload's jobs on request; one request, one JSON reply.

    ``spans``, ``reference`` and ``probes`` are imported where they are
    used, so that neither they nor scipy count towards ``setup_s`` or
    ``peak_rss_mb``.
    """

    def __init__(self, name: str, seed: int, smoke: bool, plant: bool):
        self.workload = workloads.BY_NAME[name]
        self.seed = seed
        self.smoke = smoke
        self.plant = plant
        self.graph = None
        #: Values, digest and simulated statistics of the first run;
        #: every later run must reproduce them exactly.
        self.first_values = None
        self.first_digest = None
        self.first_fingerprint = None

    def _job(self, spans_on: bool = False, sampler=None, **overrides):
        """One job call in a fresh work directory: (wall, job, recorder).
        A ``sampler`` is running for exactly the timed region."""
        workdir = tempfile.mkdtemp(dir=WORK)
        try:
            gc.collect()
            if not spans_on:
                with sampler or contextlib.nullcontext():
                    start = time.perf_counter()
                    job = workloads.run_job(
                        self.workload, self.graph, self.seed, workdir,
                        **overrides
                    )
                    wall = time.perf_counter() - start
                return wall, job, None
            import spans

            with spans.tracing(type(self.workload.algorithm())) as recorder:
                spanned = recorder.wrap(workloads.run_job, spans.ROOT, None)
                start = time.perf_counter()
                job = spanned(self.workload, self.graph, self.seed, workdir)
                wall = time.perf_counter() - start
            return wall, job, recorder
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _mismatch(self, job) -> Optional[str]:
        if job.values_digest() != self.first_digest:
            return "values digest differs from the worker's first run"
        if job.sim_fingerprint() != self.first_fingerprint:
            return (f"simulated statistics {job.sim_fingerprint()} differ "
                    f"from the first run's {self.first_fingerprint}")
        return None

    # -- requests --------------------------------------------------------

    def setup(self) -> dict:
        start = time.perf_counter()
        self.graph = self.workload.build_graph(self.seed, self.smoke)
        build = time.perf_counter() - start
        return {
            "import_s": _IMPORT_SECONDS,
            "build_s": build,
            "wall": _IMPORT_SECONDS + build,
            "cpu": time.process_time() - _PROCESS_CPU_START,
            "quanta": _SETUP_SAMPLER.stop(),
            "config_hash": self.workload.config_hash(self.seed, self.smoke),
        }

    def warmup(self) -> dict:
        wall, job, _ = self._job()
        self.first_values = {k: v.copy() for k, v in job.result.values.items()}
        self.first_digest = job.values_digest()
        self.first_fingerprint = job.sim_fingerprint()
        return {
            "wall": wall,
            "digest": self.first_digest,
            "sim_runtime_s": job.result.runtime,
            "sim_bytes_moved": job.sim_bytes_moved,
            "edges_streamed": job.edges_streamed,
            "iterations": job.result.iterations,
        }

    def run(self) -> dict:
        sampler = machine.SpeedSampler()
        wall, job, _ = self._job(sampler=sampler)
        return {"wall": wall, "cpu": sampler.cpu, "quanta": sampler.quanta,
                "error": self._mismatch(job)}

    def rss(self) -> dict:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"peak_rss_mb": peak_kb / 1024.0}

    def check(self) -> dict:
        """The oracle, on the first run's values (outside all timing)."""
        import reference

        values = self.first_values
        if self.plant:
            # Self-test hook: a wrong answer must fail the run.
            values = {k: v.copy() for k, v in values.items()}
            for array in values.values():
                if array.dtype.kind in "fi":
                    array[len(array) // 2] += 1
        errors = reference.check(self.workload.algorithm(), self.graph, values)
        if self.workload.faults:
            _, twin, _ = self._job(faults=())
            if twin.values_digest() != self.first_digest:
                errors.append("recovered values differ from the no-fault twin's")
        return {"errors": errors}

    def trace(self, seconds: float, trios: int, keep_spans: bool) -> dict:
        """Plain, spanned and (where the workload has one) variant runs,
        alternating; the per-layer ledger is the fastest spanned run's."""
        import spans

        variant = None
        if self.workload.observers:
            variant = {"observers": False}
        elif self.workload.faults:
            variant = {"faults": ()}
        plain, spanned, varied, errors = [], [], [], []
        best = None
        started = time.perf_counter()
        done = 0
        while done < trios or time.perf_counter() - started < seconds:
            wall, job, _ = self._job()
            plain.append(wall)
            errors.append(self._mismatch(job))
            wall, job, recorder = self._job(spans_on=True)
            spanned.append(wall)
            errors.append(self._mismatch(job))
            if best is None or wall < best[0]:
                best = (wall, job, recorder)
            if variant is not None:
                varied.append(self._job(**variant)[0])
            done += 1
        wall, job, recorder = best
        metrics = spans.layer_metrics(recorder, job, wall)
        metrics["bench.trace_overhead_ratio"] = wall / min(plain)
        ratio = min(plain) / min(varied) if varied else 0.0
        metrics["obs.overhead_ratio"] = ratio if self.workload.observers else 0.0
        metrics["obs.record_s"] = (
            min(plain) - metrics["obs.analyze_s"] - metrics["obs.export_s"]
            - min(varied)
            if self.workload.observers else 0.0
        )
        metrics["faults.recovery_wall_ratio"] = (
            ratio if self.workload.faults else 0.0
        )
        return {
            "metrics": metrics,
            "ledger": recorder.ledger(),
            "spans": recorder.dump() if keep_spans else None,
            "attempted": len(errors),
            "errors": [e for e in errors if e],
        }

    def probes(self, reps: int) -> dict:
        import probes

        workdir = tempfile.mkdtemp(dir=WORK)
        try:
            return {"metrics": probes.run_all(workdir, reps, small=self.smoke)}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def worker_main(args) -> int:
    """Serve requests from stdin until ``quit`` or end of input."""
    os.makedirs(WORK, exist_ok=True)
    worker = Worker(args.worker, args.seed, args.smoke, args.plant_wrong_reference)
    replies = sys.stdout
    sys.stdout = sys.stderr  # nothing but replies may reach the pipe
    for line in sys.stdin:
        request = json.loads(line)
        op = request.pop("op")
        if op == "quit":
            break
        try:
            reply = getattr(worker, op)(**request)
        except Exception:  # a failed job is a counted failure, not a crash
            traceback.print_exc()
            reply = {"error": traceback.format_exc(limit=1).strip().splitlines()[-1],
                     "raised": True}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


# ---------------------------------------------------------------------------
# Driver side
# ---------------------------------------------------------------------------


class Handle:
    """The driver's end of one worker subprocess."""

    def __init__(self, name: str, seed: int, smoke: bool, plant: bool):
        command = [sys.executable, os.path.abspath(__file__), "--worker", name,
                   "--seed", str(seed)]
        if smoke:
            command.append("--smoke")
        if plant:
            command.append("--plant-wrong-reference")
        self.name = name
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def call(self, op: str, **arguments) -> dict:
        self.process.stdin.write(json.dumps({"op": op, **arguments}) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"worker {self.name} died during {op!r}")
        return json.loads(line)

    def close(self) -> None:
        """Stop the worker and wait until it has ended."""
        if self.process.poll() is None:
            try:
                self.process.stdin.write('{"op": "quit"}\n')
                self.process.stdin.close()
                self.process.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
        self.process.wait()
        self.process.stdout.close()


def _remove_work() -> None:
    """Workers empty their own job directories; drop the empty parent."""
    try:
        os.rmdir(WORK)
    except OSError:
        pass


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: List[str] = []

    def note(self, error: Optional[str], count: int = 1) -> None:
        self.attempted += count
        if error:
            self.errors.append(error)


def _fresh_setup(args, name: str) -> dict:
    """Set-up time of a throw-away worker: start, import, build, gone."""
    handle = Handle(name, args.seed, args.smoke, False)
    try:
        return handle.call("setup")
    finally:
        handle.close()


def _start(handle: Handle) -> Tuple[dict, dict]:
    """Set-up and warm-up of one worker; raises if either fails, because
    nothing measured after a failed first run would mean anything."""
    setup = handle.call("setup")
    first = handle.call("warmup")
    for reply in (setup, first):
        if reply.get("raised"):
            raise RuntimeError(f"{handle.name}: {reply['error']}")
    return setup, first


def _timed_round(handle: Handle, tally: Tally, rounds: List[dict]) -> None:
    reply = handle.call("run")
    tally.note(reply.get("error"))
    if "wall" in reply and not reply.get("error"):
        rounds.append(reply)


def _check(handle: Handle, tally: Tally) -> None:
    reply = handle.call("check")
    misses = reply.get("errors", []) + ([reply["error"]] if "error" in reply else [])
    tally.note("; ".join(misses) if misses else None)


def _traced(handle: Handle, tally: Tally, seconds: float, trios: int,
            keep_spans: bool) -> dict:
    """At least ``trios`` trios, and more until ``seconds`` have passed."""
    reply = handle.call("trace", seconds=seconds, trios=trios,
                        keep_spans=keep_spans)
    if reply.get("raised"):
        raise RuntimeError(f"{handle.name}: {reply['error']}")
    tally.note("; ".join(reply["errors"]) or None, reply["attempted"])
    return reply


def canary_seconds() -> float:
    """The noise canary: three stable argsorts over 2 M floats, a fixed
    amount of work that no change to the repository can speed up."""
    import numpy as np

    keys = np.random.default_rng(0).random(2_000_000)
    start = time.perf_counter()
    for _ in range(3):
        np.argsort(keys, kind="stable")
    return time.perf_counter() - start


def _end_to_end(setups, first, rounds, rss) -> Dict[str, dict]:
    """The end-to-end metrics of one workload.  ``setups`` and ``rounds``
    are worker replies carrying a raw ``wall``, the ``cpu`` seconds and
    the speed ``quanta`` sampled during it; each timing is the median of
    cpu x speed."""
    rounds = rounds or [first]  # every round failed: still report
    floor = machine.undisturbed(
        [q for timing in setups + rounds for q in timing.get("quanta", ())])

    def speeds(timings):
        return [machine.speed(t.get("quanta", ()), floor) for t in timings]

    def calibrated(timings):
        return [t.get("cpu", t["wall"]) * speed
                for t, speed in zip(timings, speeds(timings))]

    walls, setup_walls = calibrated(rounds), calibrated(setups)
    job_wall = statistics.median(walls)
    edges = first["edges_streamed"]
    values = {
        "job_wall_s": (job_wall, walls, [t["wall"] for t in rounds]),
        "edges_per_s": (edges / job_wall, [edges / wall for wall in walls],
                        [edges / t["wall"] for t in rounds]),
        "setup_s": (statistics.median(setup_walls), setup_walls,
                    [t["wall"] for t in setups]),
        "peak_rss_mb": (rss["peak_rss_mb"], None, None),
        "sim_runtime_s": (first["sim_runtime_s"], None, None),
        "sim_bytes_moved": (first["sim_bytes_moved"], None, None),
    }
    cells = {
        name: {"value": value, "unit": END_TO_END[name][0],
               **({"stats": summarize(samples), "raw": summarize(raw)}
                  if samples else {})}
        for name, (value, samples, raw) in values.items()
    }
    # What the calibration saw, for whoever has to judge a noisy run:
    # per round, wall seconds, CPU seconds and machine speed.
    triples = [(t["wall"], t.get("cpu", t["wall"]), speed)
               for t, speed in zip(rounds, speeds(rounds))]
    cells["job_wall_s"]["machine"] = {
        "quantum_floor_us": floor * 1e6,
        "speed": statistics.median(speed for _, _, speed in triples),
        "on_cpu": statistics.median(cpu / wall for wall, cpu, _ in triples),
        "rounds": triples,
    }
    return cells


def _per_layer(setup, traced, probe_metrics, canary_s) -> Dict[str, dict]:
    values = dict(traced["metrics"])
    values.update(probe_metrics)
    values["graph.build_s"] = setup["build_s"]
    values["bench.canary_s"] = canary_s
    missing = set(PER_LAYER) ^ set(values)
    if missing:
        raise RuntimeError(f"per-layer metric names out of step: {sorted(missing)}")
    return {
        name: {"value": values[name], "unit": PER_LAYER[name][0]}
        for name in PER_LAYER
    }


def run_contract(args) -> int:
    """One workload, as the driver calls it; the result is the last line."""
    tally = Tally()
    handle = Handle(args.workload, args.seed, args.smoke,
                    args.plant_wrong_reference)
    try:
        setup, first = _start(handle)
        if not args.trace:
            rounds: List[dict] = []
            setups = [setup]
            started = time.perf_counter()
            while (len(rounds) < MIN_ROUNDS
                   or time.perf_counter() - started < args.seconds):
                _timed_round(handle, tally, rounds)
                if tally.errors:
                    break
                if (len(setups) == 1
                        and time.perf_counter() - started >= args.seconds / 2):
                    setups.append(_fresh_setup(args, args.workload))
            while len(setups) < SETUP_SAMPLES:
                setups.append(_fresh_setup(args, args.workload))
            rss = handle.call("rss")
            _check(handle, tally)
            metrics = _end_to_end(setups, first, rounds, rss)
        else:
            # Half the time for the job trios (two at least: a trio of
            # the longest workload takes 4 s); probes, canary and the
            # oracle take about as long again.
            traced = _traced(handle, tally, args.seconds / 2,
                             1 if args.smoke else 2, keep_spans=False)
            probe = handle.call("probes", reps=1 if args.smoke else 2)
            _check(handle, tally)
            metrics = _per_layer(setup, traced, probe["metrics"],
                                 canary_seconds())
    finally:
        handle.close()
        _remove_work()
    for error in tally.errors:
        print(f"FAILED {args.workload}: {error}", file=sys.stderr)
    if not args.trace:
        print(f"{args.workload}: {json.dumps(metrics['job_wall_s'])}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }))
    return 1 if tally.errors else 0


def _git(*command: str) -> str:
    try:
        return subprocess.run(
            ["git", "-C", REPO, *command], capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def manifest(args, seconds: float, hashes: Dict[str, str]) -> dict:
    """What is needed to reproduce (or distrust) a results file."""
    import numpy
    import scipy

    return {
        "git_sha": _git("rev-parse", "HEAD") or None,
        "git_dirty": bool(_git("status", "--porcelain")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": args.seed,
        "rounds": args.rounds,
        "smoke": args.smoke,
        "config_hash": hashes,
        "benchmark_wall_s": seconds,
    }


def run_full(args) -> int:
    """Every workload: interleaved timed rounds, then the traced pass."""
    started = time.perf_counter()
    rounds = 2 if args.smoke else args.rounds
    names = [w.name for w in workloads.WORKLOADS]
    handles: List[Handle] = []
    tallies = {name: Tally() for name in names}
    state: Dict[str, dict] = {}
    try:
        for name in names:
            # One at a time: set-up is measured with nothing else running.
            handle = Handle(name, args.seed, args.smoke,
                            args.plant_wrong_reference)
            handles.append(handle)
            setup, first = _start(handle)
            state[name] = {"setups": [setup], "first": first, "rounds": []}
        canaries = []
        for done in range(1, rounds + 1):
            for handle in handles:
                _timed_round(handle, tallies[handle.name],
                             state[handle.name]["rounds"])
            canaries.append(canary_seconds())
            if done in (rounds // 2, rounds):
                for name in names:
                    state[name]["setups"].append(_fresh_setup(args, name))
        # Memory first: the oracle, spans and probes below all allocate.
        for handle in handles:
            state[handle.name]["rss"] = handle.call("rss")
        probe = handles[0].call("probes", reps=1 if args.smoke else 5)
        for handle in handles:
            _check(handle, tallies[handle.name])
            state[handle.name]["traced"] = _traced(
                handle, tallies[handle.name], 0.0,
                1 if args.smoke else TRACE_TRIOS, keep_spans=bool(args.out))
    finally:
        for handle in handles:
            handle.close()
        _remove_work()

    document = {
        "schema": SCHEMA,
        "canary_s": {"value": min(canaries), "unit": "s",
                     "stats": summarize(canaries)},
        "workloads": {},
    }
    all_spans = {}
    for name in names:
        entry, tally = state[name], tallies[name]
        traced = entry["traced"]
        all_spans[name] = traced["spans"]
        document["workloads"][name] = {
            "why": workloads.BY_NAME[name].why,
            "iterations": entry["first"]["iterations"],
            "values_digest": entry["first"]["digest"],
            "attempted": tally.attempted,
            "failed": len(tally.errors),
            "errors": tally.errors,
            "end_to_end": _end_to_end(
                entry["setups"], entry["first"], entry["rounds"], entry["rss"]),
            "per_layer": _per_layer(
                entry["setups"][0], traced, probe["metrics"], min(canaries)),
            "ledger": traced["ledger"],
        }
    document["manifest"] = manifest(
        args, time.perf_counter() - started,
        {name: state[name]["setups"][0]["config_hash"] for name in names},
    )
    print_report(document)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
        stem = args.out[:-5] if args.out.endswith(".json") else args.out
        with open(stem + ".spans.json", "w") as handle:
            json.dump(all_spans, handle)
        print(f"wrote {args.out} and {stem}.spans.json")
    failed = sum(len(t.errors) for t in tallies.values())
    for name, tally in tallies.items():
        for error in tally.errors:
            print(f"FAILED {name}: {error}", file=sys.stderr)
    return 1 if failed else 0


def print_report(document: dict) -> None:
    """Every metric by name and unit, one block per workload."""
    for name, entry in document["workloads"].items():
        print(f"== {name}: {entry['attempted']} operations, "
              f"{entry['failed']} failed")
        for group in ("end_to_end", "per_layer"):
            for metric, cell in entry[group].items():
                if metric.startswith("probe."):
                    continue
                stats = cell.get("stats")
                spread = (
                    f"  median {stats['median']:.6g} "
                    f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} n {stats['n']}"
                    if stats else "")
                print(f"  {metric:34s} {cell['value']:>16.6g} "
                      f"{cell['unit']:6s}{spread}")
    first = next(iter(document["workloads"].values()))
    print("== layer probes")
    for metric, cell in first["per_layer"].items():
        if metric.startswith("probe."):
            print(f"  {metric:42s} {cell['value']:>16.6g} {cell['unit']}")
    canary = document["canary_s"]
    print(f"== canary_s {canary['value']:.6g} s; whole benchmark "
          f"{document['manifest']['benchmark_wall_s']:.1f} s")


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------


def _spread(cell: dict) -> float:
    stats = cell.get("stats")
    if not stats or not stats["median"]:
        return 0.0
    return (stats["q3"] - stats["q1"]) / abs(stats["median"])


def compare(path_a: str, path_b: str) -> int:
    """Rows of A -> B per workload x end-to-end metric; 1 if any is worse."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    canary_a, canary_b = a["canary_s"]["value"], b["canary_s"]["value"]
    drift = abs(canary_b - canary_a) / canary_a
    worse = 0
    print(f"{'workload':18s}{'metric':17s}{'A':>14s}{'B':>14s}"
          f"{'delta':>9s}{'bound':>7s}  verdict")
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            print(f"{name:18s}missing from B")
            worse += 1
            continue
        for metric, (_unit, better, bound) in END_TO_END.items():
            cell_a = entry_a["end_to_end"][metric]
            cell_b = entry_b["end_to_end"][metric]
            value_a, value_b = cell_a["value"], cell_b["value"]
            delta = (value_b - value_a) / abs(value_a)
            loss = delta if better == "lower" else -delta
            if bound == EXACT:
                verdict = "ok" if value_a == value_b else (
                    "worse" if loss > 0 else "better")
            elif max(_spread(cell_a), _spread(cell_b)) > bound:
                verdict = "unresolved"
            elif loss > bound:
                verdict = "worse"
            elif loss < -bound:
                verdict = "better"
            else:
                verdict = "ok"
            worse += verdict == "worse"
            limit = "exact" if bound == EXACT else f"{bound:.0%}"
            print(f"{name:18s}{metric:17s}{value_a:14.6g}{value_b:14.6g}"
                  f"{delta:+9.1%}{limit:>7s}  {verdict}")
    flag = "  ** machine drifted **" if drift > CANARY_DRIFT else ""
    print(f"canary_s {canary_a:.4f} -> {canary_b:.4f} ({drift:.1%}){flag}")
    return 1 if worse else 0


def benchmark_json(run_seconds: int, bounds: Dict[str, float]) -> dict:
    """``BENCHMARK.json`` as this file defines the benchmark."""
    return {
        "command": ["python3", "benchmarks/perf/bench.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better,
             "bound": bounds[name]}
            for name, (unit, better, _bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME),
                        help="run one workload and print the driver's JSON line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="with --workload: how long to keep measuring")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 end-to-end, 1 per-layer metrics")
    parser.add_argument("--rounds", type=int, default=11,
                        help="timed rounds per workload of a whole-benchmark run")
    parser.add_argument("--out", help="write the whole-benchmark results here")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test: RMAT-10 inputs, 2 rounds, small probes")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--plant-wrong-reference", action="store_true",
                        help="self-test: corrupt the values the oracle sees")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.compare:
        return compare(*args.compare)
    if args.worker:
        return worker_main(args)
    if args.workload:
        return run_contract(args)
    return run_full(args)


if __name__ == "__main__":
    sys.exit(main())
