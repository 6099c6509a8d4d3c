"""Job-level coordination: iteration control and cluster-wide counters.

The paper's computation is bulk-synchronous: barriers after each scatter
and each gather phase (Section 4).  Decisions that are conceptually
piggybacked on the barrier (has the job converged? advance the
iteration; reset the edge-set read cursors for the next pass) are
centralized here.  Every engine calls the ``decide_*`` methods after its
barrier release; the decision is computed once per barrier generation
and cached, which models the zero-cost metadata exchange a real barrier
implementation folds into its release message.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.metrics import IterationStats
from repro.core.workload import Workload
from repro.store.chunk import ChunkKind


class JobCoordinator:
    """Shared state of one Chaos job across all computation engines."""

    def __init__(
        self,
        workload: Workload,
        storage_engines: List,
        start_iteration: int = 0,
    ):
        self.workload = workload
        self.storage_engines = storage_engines
        self.iteration = start_iteration
        self.iteration_stats: List[IterationStats] = [
            IterationStats(iteration=start_iteration)
        ]
        self.steals_accepted = 0
        self.steals_rejected = 0
        #: When the epoch-start barrier released: pre-processing done
        #: (the first epoch) or the checkpoint restored (a resumed one).
        self.started_at: float = 0.0
        self.done = False
        #: Optional observer called once per iteration at scatter start
        #: (the supervisor's ``iter=`` fault-trigger hook).
        self.on_iteration = None
        self._decisions: Dict[int, bool] = {}
        self._scatter_started_for: int = -1

    # -- per-engine notifications -----------------------------------------

    @property
    def current_stats(self) -> IterationStats:
        return self.iteration_stats[-1]

    def note_started(self, now: float) -> None:
        self.started_at = max(self.started_at, now)

    def begin_scatter(self) -> None:
        """Called by every engine at scatter start; acts once per iteration.

        Resets the edge-set read cursors on every storage engine — the
        file-pointer reset of Section 7 — so the whole edge set streams
        again this iteration.
        """
        if self._scatter_started_for == self.iteration:
            return
        self._scatter_started_for = self.iteration
        for engine in self.storage_engines:
            engine.reset_cursors(ChunkKind.EDGES)
        self.workload.begin_iteration(self.iteration)
        if self.on_iteration is not None:
            self.on_iteration(self.iteration)

    def note_scatter(self, edge_records: int, batches) -> None:
        stats = self.current_stats
        stats.edges_streamed += edge_records
        for batch in batches:
            stats.updates_produced += batch.count
            stats.update_bytes += batch.nbytes

    def note_apply(self, changed: int) -> None:
        self.current_stats.vertices_changed += changed

    def note_steal_decision(self, accepted: bool) -> None:
        """Count a steal proposal outcome, both per-job and per-iteration."""
        if accepted:
            self.steals_accepted += 1
            self.current_stats.steals_accepted += 1
        else:
            self.steals_rejected += 1
            self.current_stats.steals_rejected += 1

    # -- barrier decisions ---------------------------------------------------

    def decide_after_scatter(self, generation: int) -> bool:
        """True when the job ends right after this scatter barrier.

        Quiescence-terminating algorithms (``max_iterations is None``)
        are done when a scatter produced no updates: the subsequent
        gather and apply would be no-ops.  The workload must agree that
        the job is finished: a model run ends at its profile's length,
        after the last scatter if that produced nothing (as the data run
        it reproduces did).
        """
        if generation not in self._decisions:
            quiescent = (
                self.workload.algorithm.max_iterations is None
                and self.current_stats.updates_produced == 0
                and self.workload.finished(self.iteration, self.current_stats)
            )
            self._decisions[generation] = quiescent
            if quiescent:
                self.done = True
        return self._decisions[generation]

    def decide_after_gather(self, generation: int) -> bool:
        """True when the job ends after this gather barrier; otherwise
        advances to the next iteration."""
        if generation not in self._decisions:
            finished = self.workload.finished(self.iteration, self.current_stats)
            self._decisions[generation] = finished
            if finished:
                self.done = True
            else:
                self.iteration += 1
                self.iteration_stats.append(IterationStats(iteration=self.iteration))
        return self._decisions[generation]

    # -- result helpers --------------------------------------------------------

    def completed_iterations(self) -> int:
        """Iterations that ran a scatter (the last may have been empty)."""
        return len(self.iteration_stats)
