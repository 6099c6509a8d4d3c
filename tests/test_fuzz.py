"""Tests for the chaos-schedule fuzzer (:mod:`repro.faults.fuzz`).

Three layers: the seeded schedule generator (deterministic, always
emits runnable plans), the campaign driver (hardened runs survive every
sampled schedule; unhardened runs produce shrunk, replayable
reproducers), and the ``fuzz`` / ``run --inject-fault <file>`` CLI
surface.
"""

from __future__ import annotations

import json

from repro.algorithms import PageRank
from repro.cli import main
from repro.faults import FaultKind, FaultPlan, parse_fault_spec
from repro.faults.fuzz import (
    OUTCOME_MISMATCH,
    OUTCOME_OK,
    VIOLATION_OUTCOMES,
    ChaosFuzzer,
    ScheduleGenerator,
    write_reproducer,
)

from tests.conftest import assert_usage_error, fast_config


def _fuzz_config(**overrides):
    defaults = dict(checkpointing=True, seed=7)
    defaults.update(overrides)
    return fast_config(4, **defaults)


def _fuzzer(small_graph, **overrides):
    config_kw = overrides.pop("config_kw", {})
    defaults = dict(seed=3, max_specs=2, max_iteration=2)
    defaults.update(overrides)
    return ChaosFuzzer(
        lambda: PageRank(iterations=3),
        small_graph,
        _fuzz_config(**config_kw),
        **defaults,
    )


# ---------------------------------------------------------------------------
# Schedule generator
# ---------------------------------------------------------------------------


class TestScheduleGenerator:
    def _generator(self, seed, **config_kw):
        return ScheduleGenerator(
            _fuzz_config(**config_kw),
            max_iteration=2,
            baseline_runtime=0.05,
            seed=seed,
        )

    def test_same_seed_same_schedules(self):
        first = self._generator(11)
        second = self._generator(11)
        plans_a = [first.sample_plan() for _ in range(20)]
        plans_b = [second.sample_plan() for _ in range(20)]
        describe = lambda plan: [s.describe() for s in plan.specs]
        assert [describe(p) for p in plans_a] == [describe(p) for p in plans_b]

    def test_different_seeds_differ(self):
        describe = lambda plan: [s.describe() for s in plan.specs]
        plans_a = [self._generator(1).sample_plan() for _ in range(10)]
        plans_b = [self._generator(2).sample_plan() for _ in range(10)]
        assert [describe(p) for p in plans_a] != [describe(p) for p in plans_b]

    def test_every_sampled_plan_validates(self):
        generator = self._generator(5)
        config = _fuzz_config()
        for _ in range(50):
            plan = generator.sample_plan()
            assert plan.specs
            plan.validate(config)  # must not raise

    def test_ckpt_corrupt_excluded_without_checkpointing(self):
        generator = self._generator(5, checkpointing=False)
        assert FaultKind.CKPT_CORRUPT not in generator.kinds

    def test_partition_excluded_on_single_machine(self):
        generator = ScheduleGenerator(
            fast_config(1, checkpointing=True, seed=7),
            max_iteration=2,
            baseline_runtime=0.05,
            seed=5,
        )
        assert FaultKind.PARTITION not in generator.kinds


# ---------------------------------------------------------------------------
# Campaign: hardened stack survives sampled schedules
# ---------------------------------------------------------------------------


class TestHardenedCampaign:
    def test_small_campaign_is_all_ok(self, small_graph):
        fuzzer = _fuzzer(small_graph)
        report = fuzzer.run_campaign(episodes=4)
        assert len(report.episodes) == 4
        assert report.ok
        assert report.violations == []
        assert report.outcome_counts() == {OUTCOME_OK: 4}
        assert "4 episode(s)" in report.summary()

    def test_report_to_dict_round_trips_through_json(self, small_graph):
        fuzzer = _fuzzer(small_graph)
        report = fuzzer.run_campaign(episodes=2)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["seed"] == 3
        assert len(payload["episodes"]) == 2
        assert payload["episodes"][0]["outcome"] == OUTCOME_OK


# ---------------------------------------------------------------------------
# Violations: find, shrink, write, replay
# ---------------------------------------------------------------------------


class TestViolationShrinking:
    #: A two-spec plan where only the torn write matters: shrinking must
    #: drop the benign crash-restart and the count option.
    SPECS = ["crash-restart:0@iter=2", "torn-write:1@iter=1,count=2"]

    def _unhardened_fuzzer(self, small_graph):
        return _fuzzer(
            small_graph, config_kw=dict(integrity_checks=False)
        )

    def test_classify_flags_the_mismatch(self, small_graph):
        fuzzer = self._unhardened_fuzzer(small_graph)
        plan = FaultPlan([parse_fault_spec(s) for s in self.SPECS])
        outcome, detail, _ = fuzzer.classify(plan)
        assert outcome == OUTCOME_MISMATCH
        assert outcome in VIOLATION_OUTCOMES
        assert "differ" in detail

    def test_shrink_reduces_to_the_corrupting_spec(self, small_graph):
        fuzzer = self._unhardened_fuzzer(small_graph)
        plan = FaultPlan([parse_fault_spec(s) for s in self.SPECS])
        shrunk, outcome, runs = fuzzer.shrink(plan)
        assert outcome in VIOLATION_OUTCOMES
        assert 0 < runs <= fuzzer.max_shrink_runs
        assert len(shrunk.specs) == 1
        assert shrunk.specs[0].kind is FaultKind.TORN_WRITE

    def test_every_accepted_drop_is_kept(self, small_graph):
        """Each knob dropped stays dropped: with a violation that holds
        whatever the plan, every optional knob goes."""
        fuzzer = _fuzzer(small_graph)
        spec = parse_fault_spec("msg-reorder:1@iter=1,count=3,delay=0.0005")
        specs = [spec]
        shrunk = fuzzer._simplify_spec(spec, 0, specs, lambda plan: True)
        assert shrunk.describe() == "msg-reorder:1@iter=1"
        assert specs == [shrunk]

    def test_reproducer_file_replays_the_violation(self, small_graph, tmp_path):
        fuzzer = self._unhardened_fuzzer(small_graph)
        plan = FaultPlan([parse_fault_spec(s) for s in self.SPECS])
        shrunk, outcome, _ = fuzzer.shrink(plan)

        from repro.faults.fuzz import EpisodeResult, Violation

        violation = Violation(
            episode=EpisodeResult(
                index=0, plan=plan, outcome=OUTCOME_MISMATCH,
                detail="", recoveries=0,
            ),
            shrunk=shrunk,
            shrunk_outcome=outcome,
            shrink_runs=1,
        )
        path = tmp_path / "repro.faults"
        write_reproducer(str(path), violation, seed=3, config=fuzzer.config)
        text = path.read_text()
        assert text.startswith("# chaos fuzz reproducer")
        assert "replay: repro run --inject-fault" in text

        # The dumped plan replays to the same violation class.
        loaded = FaultPlan.load(str(path))
        assert [s.describe() for s in loaded.specs] == [
            s.describe() for s in shrunk.specs
        ]
        replay_outcome, _, _ = fuzzer.classify(loaded)
        assert replay_outcome in VIOLATION_OUTCOMES

    def test_hardened_stack_neutralizes_the_same_plan(self, small_graph):
        fuzzer = _fuzzer(small_graph)
        plan = FaultPlan([parse_fault_spec(s) for s in self.SPECS])
        outcome, _, _ = fuzzer.classify(plan)
        assert outcome == OUTCOME_OK


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestFuzzCLI:
    def test_fuzz_smoke_exits_zero(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "fuzz",
                "--episodes", "2",
                "--seed", "7",
                "--scale", "8",
                "--machines", "2",
                "--iterations", "2",
                "--out-dir", str(tmp_path),
                "--json", str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fuzz campaign (seed 7)" in out
        payload = json.loads(report_path.read_text())
        assert len(payload["episodes"]) == 2

    def test_run_accepts_plan_file_and_inline_spec(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.faults"
        plan_path.write_text(
            "# mixed-source plan\n"
            "torn-write:1@iter=1,count=2\n"
        )
        code = main(
            [
                "run",
                "--algorithm", "PR",
                "--scale", "8",
                "--machines", "4",
                "--iterations", "3",
                "--checkpoint",
                "--seed", "7",
                "--inject-fault", str(plan_path),
                "--inject-fault", "crash:0@iter=2",
                "--verify-recovery",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "final values identical to undisturbed run" in out

    def test_run_rejects_unreadable_plan_file(self, capsys):
        assert_usage_error(
            capsys,
            [
                "run",
                "--algorithm", "PR",
                "--scale", "8",
                "--checkpoint",
                "--inject-fault", "not-a-file-and-not-a-spec",
            ],
            "bad --inject-fault",
        )

    def test_run_reports_unrecoverable_job_as_exit_3(self, tmp_path, capsys):
        plan_path = tmp_path / "rot.faults"
        plan_path.write_text(
            "ckpt-corrupt:1@iter=1,count=64\n"
            "crash:0@iter=1\n"
        )
        code = main(
            [
                "run",
                "--algorithm", "PR",
                "--scale", "8",
                "--machines", "4",
                "--iterations", "3",
                "--checkpoint",
                "--seed", "7",
                "--inject-fault", str(plan_path),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "unrecoverable job" in err
        assert "checkpoint-unreadable" in err
