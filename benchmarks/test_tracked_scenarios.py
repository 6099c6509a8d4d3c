"""The seven tracked scenarios of ``repro.obs.bench``, pinned exactly.

Every recorded leaf value of every scenario (simulated runtime, bytes
moved, the bottleneck-attribution vector, utilization, both rho values,
checkpoint overhead) becomes one ``key = repr(value)`` line of
``benchmarks/results/tracked_scenarios.txt``.  Running this benchmark
is the one way to rewrite that table after an intentional change;
``tests/test_bench.py`` recomputes the lines and compares them to the
committed file byte for byte.
"""

import pytest

from harness import report
from repro.obs.bench import DEFAULT_SCENARIOS, record_lines, run_scenario


@pytest.mark.benchmark(group="tracked")
def test_tracked_scenarios(benchmark):
    def experiment():
        return {s.name: run_scenario(s) for s in DEFAULT_SCENARIOS}

    records = benchmark.pedantic(experiment, rounds=1, iterations=1)
    report("tracked_scenarios", record_lines(records))
