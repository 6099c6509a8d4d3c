"""Activity profiles: per-iteration update volumes for model-mode runs.

X-Stream-style engines stream the *entire* edge set every scatter phase;
what varies per iteration is how many updates each streamed edge
produces.  An :class:`ActivityProfile` records exactly that — the
updates-per-edge-streamed factor for each iteration — which is all the
phantom engine needs to reproduce a workload's I/O pattern at any graph
scale.

Profiles come from two sources:

* :func:`extract_profile` reads the factors off a functional run's
  iteration statistics (trace-driven scaling); a model run of the same
  graph reproduces that run update for update and iteration for
  iteration;
* analytic constructors (:func:`fixed_profile`, :func:`bfs_profile`)
  for canonical shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class ActivityProfile:
    """Updates produced per edge streamed, for each iteration."""

    update_factors: tuple
    name: str = "profile"

    def __post_init__(self):
        if not self.update_factors:
            raise ValueError("profile needs at least one iteration")
        if any(f < 0 for f in self.update_factors):
            raise ValueError("update factors must be non-negative")

    @property
    def iterations(self) -> int:
        return len(self.update_factors)

    def updates(self, iteration: int, edges: int) -> int:
        """Updates a pass over ``edges`` edges produces in ``iteration``.

        Factor × edges, rounded: exact on the graph an extracted profile
        came from, since ``round(fl(u / n) * n) == u`` for any total
        ``u`` below 2**51.
        """
        if iteration >= self.iterations:
            return 0
        return int(round(self.update_factors[iteration] * edges))

    def total_update_factor(self) -> float:
        """Total updates over the whole run, per edge of the graph."""
        return float(sum(self.update_factors))

    def stretched(self, iterations: int, name: Optional[str] = None) -> "ActivityProfile":
        """Resample the profile to a different iteration count.

        BFS-like frontier curves keep their bell shape but widen with
        graph diameter; stretching a small-graph profile to the expected
        iteration count of a larger graph preserves the total volume.
        """
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        old = np.asarray(self.update_factors, dtype=np.float64)
        if iterations == len(old):
            return self
        positions = np.linspace(0, len(old) - 1, iterations)
        resampled = np.interp(positions, np.arange(len(old)), old)
        total_old = old.sum()
        total_new = resampled.sum()
        if total_new > 0:
            resampled *= total_old / total_new
        return ActivityProfile(
            update_factors=tuple(resampled),
            name=name or f"{self.name}-stretched{iterations}",
        )


def fixed_profile(
    iterations: int, update_factor: float = 1.0, name: str = "fixed"
) -> ActivityProfile:
    """Constant activity: PR / SpMV / BP-style full-activity iterations."""
    return ActivityProfile(
        update_factors=tuple([update_factor] * iterations), name=name
    )


def bfs_profile(iterations: int = 13, name: str = "bfs") -> ActivityProfile:
    """Canonical BFS frontier curve on a low-diameter power-law graph.

    The frontier explodes over the first few levels, peaks, and decays
    into a long tail; the total update volume over the run is one update
    per edge (each edge proposes a parent exactly once in a connected
    graph).  The RMAT-36 run of Section 9.3 performed ~13 passes.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    # Log-normal-ish bell over iterations, normalized to sum to 1.
    positions = np.arange(iterations, dtype=np.float64)
    peak = max(1.0, iterations / 3.0)
    curve = np.exp(-0.5 * ((np.log(positions + 1) - np.log(peak)) / 0.6) ** 2)
    curve /= curve.sum()
    return ActivityProfile(update_factors=tuple(curve), name=name)


def extract_profile(result, name: Optional[str] = None) -> ActivityProfile:
    """Derive a profile from a functional run's iteration statistics.

    ``result`` is a :class:`repro.core.metrics.JobResult` from a data-
    mode run.  Factor = updates produced / edges in one pass, for each
    of the run's iterations.  Every pass streams the whole edge set.
    """
    stats = result.iteration_stats
    pass_edges = max((s.edges_streamed for s in stats), default=0)
    factors = tuple(
        s.updates_produced / pass_edges if pass_edges else 0.0 for s in stats
    )
    return ActivityProfile(
        update_factors=factors or (0.0,),
        name=name or f"{result.algorithm}-trace",
    )
