"""Self-test of the host-performance benchmark (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.  The
subprocess tests use ``--smoke`` (RMAT-10 inputs), so the whole file
takes well under a minute.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile

import pytest

import bench
import machine
import spans
import workloads

BENCH = os.path.join(bench.HERE, "bench.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOAD_NAMES = [w.name for w in workloads.WORKLOADS]


def run_bench(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, BENCH, *arguments],
        capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def scratch():
    """A directory inside the benchmark's own (git-ignored) work area."""
    os.makedirs(bench.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.WORK) as path:
        yield path
    bench._remove_work()


@pytest.fixture(scope="module")
def smoke(scratch):
    """One whole-benchmark smoke run, shared by the tests that read it."""
    out = os.path.join(scratch, "BENCH_smoke.json")
    done = run_bench("--smoke", "--seed", "1", "--out", out)
    assert done.returncode == 0, done.stderr[-2000:]
    with open(out) as handle:
        return out, json.load(handle), done.stdout


def test_smoke_emits_every_metric_once_per_workload(smoke):
    _path, document, stdout = smoke
    assert list(document["workloads"]) == WORKLOAD_NAMES
    for name, entry in document["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] >= 3, name
        assert list(entry["end_to_end"]) == list(bench.END_TO_END)
        assert list(entry["per_layer"]) == list(bench.PER_LAYER)
        for group, registry in (("end_to_end", bench.END_TO_END),
                                ("per_layer", bench.PER_LAYER)):
            for metric, cell in entry[group].items():
                assert cell["unit"] == registry[metric][0]
                assert isinstance(cell["value"], (int, float)), metric
        for metric in bench.END_TO_END:
            assert entry["end_to_end"][metric]["value"] > 0, (name, metric)
        for metric in ("job_wall_s", "edges_per_s", "setup_s"):
            cell = entry["end_to_end"][metric]
            assert cell["stats"]["n"] == cell["raw"]["n"] >= 2, (name, metric)
        assert abs(entry["per_layer"]["bench.span_closure"]["value"] - 1) < 0.02
    for metric in list(bench.END_TO_END) + [
        m for m in bench.PER_LAYER if not m.startswith("probe.")
    ]:
        assert stdout.count(f"  {metric} ") == len(WORKLOAD_NAMES), metric
    manifest = document["manifest"]
    for key in ("git_sha", "git_dirty", "python", "numpy", "scipy", "nproc",
                "platform", "seed", "rounds", "config_hash",
                "benchmark_wall_s"):
        assert key in manifest
    assert sorted(manifest["config_hash"]) == sorted(WORKLOAD_NAMES)
    assert manifest["benchmark_wall_s"] < 60


def test_metric_names_and_counts_fit_the_contract():
    names = list(bench.END_TO_END) + list(bench.PER_LAYER) + WORKLOAD_NAMES
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name
    assert "setup_s" in bench.END_TO_END
    assert len(bench.END_TO_END) <= 16 and len(bench.PER_LAYER) <= 128
    assert 2 <= len(WORKLOAD_NAMES) <= 8
    for workload in workloads.WORKLOADS:
        assert len(workload.why) <= 200 and "\n" not in workload.why


def test_speed_sampler_samples_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with machine.SpeedSampler() as sampler:
        during = signal.getsignal(signal.SIGALRM)
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert during is not before
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 5 <= len(sampler.quanta) <= 0.1 / machine.INTERVAL + 1
    assert 0.05 < sampler.cpu < 0.2  # the busy loop's CPU seconds
    floor = machine.undisturbed(sampler.quanta)
    assert floor == sorted(sampler.quanta)[1] > 0
    assert machine.undisturbed([0.0, 3.0, 2.0]) == 2.0  # a clock glitch
    assert machine.speed([], floor) == 1.0
    assert machine.speed([0.0, floor], floor) == 1.0
    assert machine.speed([floor, 2 * floor, floor / 2], floor) == pytest.approx(
        (2 + machine.JITTER / 2) / 3)


def test_benchmark_json_describes_this_benchmark():
    path = os.path.join(bench.REPO, "BENCHMARK.json")
    with open(path) as handle:
        committed = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in committed["end_to_end"]}
    assert committed == bench.benchmark_json(committed["run_seconds"], bounds)
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_other_seed_runs_green():
    done = run_bench("--smoke", "--seed", "2")
    assert done.returncode == 0, done.stderr[-2000:]


@pytest.mark.parametrize("trace,registry", [("0", bench.END_TO_END),
                                            ("1", bench.PER_LAYER)])
def test_contract_line(trace, registry):
    done = run_bench("--workload", "sssp_file_ckpt", "--seed", "3",
                     "--seconds", "0.5", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == list(registry)
    for metric, cell in result["metrics"].items():
        assert sorted(cell) == ["unit", "value"]
        assert cell["unit"] == registry[metric][0]


def test_planted_wrong_reference_fails_the_run():
    done = run_bench("--workload", "wcc_minfold", "--seconds", "0.5",
                     "--smoke", "--plant-wrong-reference")
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_compare_verdicts(smoke, scratch):
    path, document, _stdout = smoke
    same = run_bench("--compare", path, path)
    assert same.returncode == 0 and "worse" not in same.stdout
    assert "machine drifted" not in same.stdout
    slower = json.loads(json.dumps(document))
    cell = slower["workloads"]["pr_kernel"]["end_to_end"]["job_wall_s"]
    cell["value"] *= 1.5
    cell["stats"] = {k: v * 1.5 if k != "n" else v
                     for k, v in cell["stats"].items()}
    moved = slower["workloads"]["pr_overhead"]["end_to_end"]["sim_runtime_s"]
    moved["value"] *= 1.0000001
    slower["canary_s"]["value"] *= 1.2
    other = os.path.join(scratch, "slower.json")
    with open(other, "w") as handle:
        json.dump(slower, handle)
    done = run_bench("--compare", path, other)
    assert done.returncode == 1
    rows = {tuple(line.split()[:2]): line.split()[-1]
            for line in done.stdout.splitlines()[1:-1]}
    assert rows[("pr_overhead", "sim_runtime_s")] == "worse"
    assert rows[("pr_kernel", "job_wall_s")] in ("worse", "unresolved")
    assert "machine drifted" in done.stdout


@pytest.mark.parametrize("name", ["pr_overhead", "sssp_file_ckpt",
                                  "pr_traced", "pr_crash_recover"])
def test_tracing_restores_wrappers_and_changes_no_result(name, scratch):
    workload = workloads.BY_NAME[name]
    graph = workload.build_graph(seed=1, smoke=True)
    algorithm_class = type(workload.algorithm())

    def identities():
        return [(owner, attribute, vars(owner)[attribute])
                for owner, attribute in spans.wrapped_callables(algorithm_class)]

    before = identities()
    with tempfile.TemporaryDirectory(dir=scratch) as plain_dir:
        plain = workloads.run_job(workload, graph, 1, plain_dir)
    with tempfile.TemporaryDirectory(dir=scratch) as traced_dir:
        with spans.tracing(algorithm_class) as recorder:
            during = identities()
            spanned = recorder.wrap(workloads.run_job, spans.ROOT, None)
            traced = spanned(workload, graph, 1, traced_dir)
    after = identities()
    assert all(a[2] is b[2] for a, b in zip(before, after))
    assert len(before) == len(after) == len(during)
    assert all(a[2] is not d[2] for a, d in zip(before, during))
    assert traced.values_digest() == plain.values_digest()
    assert traced.sim_fingerprint() == plain.sim_fingerprint()
    ledger = recorder.ledger()
    assert ledger[spans.ROOT]["calls"] == 1
    metrics = spans.layer_metrics(
        recorder, traced, wall=ledger[spans.ROOT]["total_s"])
    assert metrics["sim.events"] > 0 and metrics["net.messages"] > 0
    assert metrics["bench.span_closure"] == pytest.approx(1.0, rel=1e-6)
