"""Chaos-schedule fuzzer: random fault schedules, invariants, shrinking.

The fault subsystem's correctness claim is universal — *any* schedule of
supported faults must leave the final vertex values byte-identical to
the undisturbed run (or cleanly refuse with a structured diagnosis) —
but the test suite only pins hand-picked schedules.  The fuzzer samples
the schedule space: a seeded generator draws random :class:`FaultPlan`s,
each episode runs the plan inside a simulated-time deadline watchdog,
and the outcome is checked against three invariants:

1. **Byte identity** — the run completes and its final values equal the
   undisturbed baseline's, byte for byte.
2. **Graceful degradation** — a run that cannot complete (e.g. every
   replica of a checkpoint chunk rotted) raises
   :class:`UnrecoverableJobError` with a diagnosis, never hangs and
   never silently returns wrong values.
3. **Bounded recovery** — the cluster performs at most a small constant
   number of recovery rounds per injected fault; a recovery livelock is
   a violation even if simulated time keeps advancing.

A violating schedule is *shrunk* — first ddmin over the spec list, then
per-spec option simplification — to a minimal reproducer, dumped as a
``--inject-fault`` plan file that ``repro run --inject-fault <file>
--verify-recovery`` replays exactly.

Determinism: everything (generation, jitter, placement) derives from the
fuzz seed and the config seed, so a campaign is reproducible by seed
alone.  The module never touches unseeded RNG (enforced by lint rule
CHX018).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.diagnosis import UnrecoverableJobError
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.sim.engine import DeadlineExceeded, SimulationError

#: Episode outcomes.
OUTCOME_OK = "ok"
OUTCOME_DIAGNOSED = "diagnosed"
OUTCOME_MISMATCH = "mismatch"
OUTCOME_DEADLOCK = "deadlock"
OUTCOME_CRASH = "crash"
OUTCOME_UNBOUNDED = "unbounded-recovery"

#: Outcomes that violate the invariants (``diagnosed`` is the *graceful*
#: refusal path and therefore acceptable).
VIOLATION_OUTCOMES = frozenset(
    {OUTCOME_MISMATCH, OUTCOME_DEADLOCK, OUTCOME_CRASH, OUTCOME_UNBOUNDED}
)


@dataclass
class EpisodeResult:
    """One fuzzed schedule and how it went."""

    index: int
    plan: FaultPlan
    outcome: str
    detail: str
    recoveries: int = 0

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "specs": [s.describe() for s in self.plan.specs],
            "outcome": self.outcome,
            "detail": self.detail,
            "recoveries": self.recoveries,
        }


@dataclass
class Violation:
    """A violating episode with its shrunk reproducer."""

    episode: EpisodeResult
    shrunk: FaultPlan
    shrunk_outcome: str
    shrink_runs: int

    def to_dict(self) -> dict:
        return {
            "episode": self.episode.to_dict(),
            "shrunk_specs": [s.describe() for s in self.shrunk.specs],
            "shrunk_outcome": self.shrunk_outcome,
            "shrink_runs": self.shrink_runs,
        }


@dataclass
class FuzzReport:
    """Full campaign result."""

    seed: int
    episodes: List[EpisodeResult] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    baseline_runtime: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def outcome_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for episode in self.episodes:
            counts[episode.outcome] = counts.get(episode.outcome, 0) + 1
        return counts

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "baseline_runtime": self.baseline_runtime,
            "episodes": [e.to_dict() for e in self.episodes],
            "violations": [v.to_dict() for v in self.violations],
            "outcome_counts": self.outcome_counts(),
            "ok": self.ok,
        }

    def summary(self) -> str:
        counts = self.outcome_counts()
        parts = ", ".join(
            f"{counts[k]} {k}" for k in sorted(counts)
        ) or "no episodes"
        lines = [
            f"fuzz campaign (seed {self.seed}): {len(self.episodes)} "
            f"episode(s) — {parts}",
        ]
        for violation in self.violations:
            episode = violation.episode
            lines.append(
                f"  VIOLATION episode {episode.index} "
                f"[{episode.outcome}]: {episode.detail}"
            )
            lines.append(
                f"    original: {'; '.join(s.describe() for s in episode.plan.specs)}"
            )
            lines.append(
                f"    shrunk ({violation.shrink_runs} runs): "
                f"{'; '.join(s.describe() for s in violation.shrunk.specs)}"
            )
        return "\n".join(lines)


class ScheduleGenerator:
    """Seeded random fault-schedule sampler.

    Draws plans of 1..``max_specs`` specs over every supported fault
    kind, with kind-appropriate knobs; specs that fail validation
    against the target config are resampled, so every emitted plan is
    runnable.
    """

    def __init__(
        self,
        config,
        max_iteration: int,
        baseline_runtime: float,
        seed: int,
        max_specs: int = 3,
    ):
        self.config = config
        self.max_iteration = max(0, max_iteration)
        self.baseline_runtime = baseline_runtime
        self.max_specs = max_specs
        # Independent of the run RNGs: the same fuzz seed explores the
        # same schedules whatever the config seed is.
        self.rng = random.Random(seed * 9_176 + 11)
        self.kinds = [
            k
            for k in FaultKind
            if config.checkpointing or k is not FaultKind.CKPT_CORRUPT
        ]
        if config.machines < 2:
            self.kinds = [k for k in self.kinds if k is not FaultKind.PARTITION]

    def sample_plan(self) -> FaultPlan:
        count = self.rng.randint(1, self.max_specs)
        specs: List[FaultSpec] = []
        for _ in range(count):
            for _attempt in range(25):
                spec = self._sample_spec()
                try:
                    spec.validate(self.config)
                except ValueError:
                    continue
                specs.append(spec)
                break
        if not specs:  # pragma: no cover - generator knobs match validate
            specs = [FaultSpec(kind=FaultKind.CRASH, machine=0, at_iteration=1)]
        return FaultPlan(specs=tuple(specs))

    def _sample_spec(self) -> FaultSpec:
        rng = self.rng
        config = self.config
        kind = rng.choice(self.kinds)
        machine = rng.randrange(config.machines)
        fields: dict = {}
        if rng.random() < 0.65 or self.baseline_runtime <= 0:
            fields["at_iteration"] = rng.randint(0, self.max_iteration)
        else:
            fields["at_time"] = round(
                rng.uniform(0.0, self.baseline_runtime * 0.9), 6
            )
        lease = config.effective_lease_timeout()
        if kind in (FaultKind.CRASH, FaultKind.CRASH_RESTART):
            if rng.random() < 0.5:
                fields["down"] = round(rng.uniform(0.5 * lease, 4.0 * lease), 6)
        elif kind is FaultKind.PARTITION:
            fields["duration"] = round(rng.uniform(2.2 * lease, 5.0 * lease), 6)
        elif kind is FaultKind.SLOW_DEVICE:
            fields["factor"] = float(rng.choice((2, 4, 8, 16)))
            fields["duration"] = round(rng.uniform(lease, 4.0 * lease), 6)
        elif kind is FaultKind.MSG_REORDER:
            fields["count"] = rng.randint(1, 3)
            fields["delay"] = round(
                rng.uniform(config.heartbeat_interval * 0.1, lease * 0.8), 6
            )
        elif kind is FaultKind.CKPT_CORRUPT:
            fields["count"] = rng.randint(1, 2)
        else:  # remaining byzantine kinds: a small damage budget
            fields["count"] = rng.randint(1, 3)
        return FaultSpec(kind=kind, machine=machine, **fields)


class ChaosFuzzer:
    """Run a seeded fuzz campaign against one (algorithm, graph, config).

    ``algorithm_factory`` is a zero-argument callable returning a fresh
    algorithm instance (runs must not share mutable algorithm state).
    ``progress`` (optional) is called after every episode with the
    :class:`EpisodeResult`.
    """

    def __init__(
        self,
        algorithm_factory: Callable[[], object],
        edges,
        config,
        seed: int = 0,
        max_specs: int = 3,
        max_iteration: Optional[int] = None,
        deadline_factor: float = 30.0,
        max_shrink_runs: int = 48,
        progress: Optional[Callable[[EpisodeResult], None]] = None,
    ):
        self.algorithm_factory = algorithm_factory
        self.edges = edges
        self.config = config
        self.seed = seed
        self.max_specs = max_specs
        self.max_iteration = max_iteration
        self.deadline_factor = deadline_factor
        self.max_shrink_runs = max_shrink_runs
        self.progress = progress
        self._baseline_bytes: Optional[Dict[str, bytes]] = None
        self._baseline_runtime = 0.0
        self._deadline: Optional[float] = None

    # -- execution -----------------------------------------------------

    def _run(self, plan: Optional[FaultPlan]):
        from repro.core.runtime import ChaosCluster

        cluster = ChaosCluster(self.config)
        result = cluster.run(
            self.algorithm_factory(),
            self.edges,
            fault_plan=plan,
            deadline_seconds=self._deadline if plan is not None else None,
        )
        return result, cluster.last_fault_timeline

    def _ensure_baseline(self) -> None:
        if self._baseline_bytes is not None:
            return
        result, _ = self._run(None)
        self._baseline_bytes = {
            name: values.tobytes() for name, values in result.values.items()
        }
        self._baseline_runtime = result.runtime
        # Generous: a schedule may legitimately multiply the runtime
        # (recoveries re-execute work), but a wedged cluster advances
        # simulated time forever — the deadline turns that into a
        # reportable outcome.
        self._deadline = max(
            result.runtime * self.deadline_factor, result.runtime + 1.0
        )

    def capture_trace(self, plan: Optional[FaultPlan], path: str) -> str:
        """Re-run ``plan`` with causal tracing on and write the Chrome
        trace to ``path`` — even when the run deadlocks or crashes.

        The partial causal DAG of a wedged run is the point: ``repro
        trace conform`` replays it against the declared message kinds
        and names the stuck transition (the sent-but-never-delivered
        message or the barrier round still waiting for arrivals).
        Returns the traced run's outcome string.
        """
        from repro.core.runtime import ChaosCluster
        from repro.obs.export import write_chrome_trace
        from repro.obs.tracer import Tracer

        self._ensure_baseline()
        tracer = Tracer(sample_interval=None)
        cluster = ChaosCluster(self.config, tracer=tracer)
        outcome = OUTCOME_OK
        try:
            cluster.run(
                self.algorithm_factory(),
                self.edges,
                fault_plan=plan,
                deadline_seconds=self._deadline if plan is not None else None,
            )
        except DeadlineExceeded:
            outcome = OUTCOME_DEADLOCK
        except UnrecoverableJobError:
            outcome = OUTCOME_DIAGNOSED
        except SimulationError as error:
            outcome = (
                OUTCOME_DEADLOCK
                if "deadlock" in str(error)
                else OUTCOME_CRASH
            )
        write_chrome_trace(tracer, path)
        return outcome

    def classify(self, plan: FaultPlan) -> Tuple[str, str, int]:
        """Run one plan and classify: (outcome, detail, recoveries)."""
        self._ensure_baseline()
        try:
            result, timeline = self._run(plan)
        except UnrecoverableJobError as error:
            return OUTCOME_DIAGNOSED, error.diagnosis.cause, 0
        except DeadlineExceeded as error:
            return OUTCOME_DEADLOCK, str(error), 0
        except SimulationError as error:
            text = str(error)
            outcome = (
                OUTCOME_DEADLOCK if "deadlock" in text else OUTCOME_CRASH
            )
            return outcome, text, 0
        except Exception as error:  # chaos: ignore[CHX006] host-side crash classifier, never a sim process
            return OUTCOME_CRASH, f"{type(error).__name__}: {error}", 0
        recoveries = len(timeline.rounds) if timeline is not None else 0
        bound = 2 * len(plan.specs) + 2
        if recoveries > bound:
            return (
                OUTCOME_UNBOUNDED,
                f"{recoveries} recovery rounds for {len(plan.specs)} "
                f"fault(s) (bound {bound})",
                recoveries,
            )
        actual = {n: v.tobytes() for n, v in result.values.items()}
        if actual != self._baseline_bytes:
            return (
                OUTCOME_MISMATCH,
                "final values differ from the undisturbed run",
                recoveries,
            )
        return OUTCOME_OK, "", recoveries

    # -- campaign ------------------------------------------------------

    def run_campaign(self, episodes: int) -> FuzzReport:
        self._ensure_baseline()
        generator = ScheduleGenerator(
            self.config,
            max_iteration=(
                self.max_iteration if self.max_iteration is not None else 4
            ),
            baseline_runtime=self._baseline_runtime,
            seed=self.seed,
            max_specs=self.max_specs,
        )
        report = FuzzReport(
            seed=self.seed, baseline_runtime=self._baseline_runtime
        )
        for index in range(episodes):
            plan = generator.sample_plan()
            outcome, detail, recoveries = self.classify(plan)
            episode = EpisodeResult(
                index=index,
                plan=plan,
                outcome=outcome,
                detail=detail,
                recoveries=recoveries,
            )
            report.episodes.append(episode)
            if self.progress is not None:
                self.progress(episode)
            if outcome in VIOLATION_OUTCOMES:
                shrunk, shrunk_outcome, runs = self.shrink(plan)
                report.violations.append(
                    Violation(
                        episode=episode,
                        shrunk=shrunk,
                        shrunk_outcome=shrunk_outcome,
                        shrink_runs=runs,
                    )
                )
        return report

    # -- shrinking -----------------------------------------------------

    def shrink(self, plan: FaultPlan) -> Tuple[FaultPlan, str, int]:
        """Minimize a violating plan: ddmin over specs, then per-spec
        option simplification.  Any violation outcome keeps a candidate
        (the minimal reproducer need not fail the same way the original
        did — a smaller schedule exposing *a* violation is what the
        developer wants on their desk)."""
        budget = {"runs": 0}
        last_outcome = {"value": ""}

        def violates(candidate: FaultPlan) -> bool:
            if not candidate.specs:
                return False
            if budget["runs"] >= self.max_shrink_runs:
                return False
            budget["runs"] += 1
            outcome, _detail, _rec = self.classify(candidate)
            if outcome in VIOLATION_OUTCOMES:
                last_outcome["value"] = outcome
                return True
            return False

        specs = list(plan.specs)
        specs = _ddmin(specs, lambda ss: violates(FaultPlan(specs=tuple(ss))))
        simplified = [
            self._simplify_spec(spec, index, specs, violates)
            for index, spec in enumerate(specs)
        ]
        # _simplify_spec mutates position-by-position against the
        # *current* list, so rebuild from the final state.
        final = FaultPlan(specs=tuple(simplified))
        if not last_outcome["value"]:
            # Shrinking never re-confirmed (budget 0 or flaky classify):
            # fall back to the original plan's outcome label.
            outcome, _detail, _rec = self.classify(final)
            last_outcome["value"] = outcome
        return final, last_outcome["value"], budget["runs"]

    def _simplify_spec(
        self,
        spec: FaultSpec,
        index: int,
        specs: List[FaultSpec],
        violates: Callable[[FaultPlan], bool],
    ) -> FaultSpec:
        """Try dropping optional knobs from one spec, keeping violation."""
        candidates = []
        if spec.count is not None and spec.count != 1:
            candidates.append(replace(spec, count=None))
        if spec.delay is not None:
            candidates.append(replace(spec, delay=None))
        if spec.down is not None:
            candidates.append(replace(spec, down=None))
        if spec.duration is not None and spec.kind is not FaultKind.SLOW_DEVICE:
            candidates.append(replace(spec, duration=None))
        current = spec
        for candidate in candidates:
            try:
                candidate.validate(self.config)
            except ValueError:
                continue
            trial = list(specs)
            trial[index] = candidate
            if violates(FaultPlan(specs=tuple(trial))):
                current = candidate
                specs[index] = candidate
        return current


def _ddmin(items: List, violates: Callable[[List], bool]) -> List:
    """Classic delta-debugging minimization over a spec list."""
    if len(items) <= 1:
        return items
    granularity = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // granularity)
        reduced = False
        start = 0
        while start < len(items):
            candidate = items[:start] + items[start + chunk :]
            if candidate and violates(candidate):
                items = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                start = 0
            else:
                start += chunk
        if not reduced:
            if granularity >= len(items):
                break
            granularity = min(len(items), granularity * 2)
    return items


def write_reproducer(
    path: str, violation: Violation, seed: int, config
) -> None:
    """Dump a shrunk violation as a replayable ``--inject-fault`` file."""
    episode = violation.episode
    header = [
        "chaos fuzz reproducer (minimal shrunk fault plan)",
        f"fuzz seed {seed}, episode {episode.index}, "
        f"outcome {violation.shrunk_outcome}",
        f"config: machines={config.machines} seed={config.seed} "
        f"integrity_checks={config.integrity_checks}",
        "replay: repro run --inject-fault <this file> --verify-recovery",
    ]
    violation.shrunk.dump(path, header=header)
