"""Time-series counters and periodic resource samplers.

The paper's utilization arguments (Figure 5, Figure 14) are statements
about *timelines* — what fraction of each interval a device or NIC
spent busy, how deep its queue ran, how many bytes it moved.  The
:class:`CounterRegistry` accumulates named time series, and the
:class:`ResourceSampler` is a simulation process that snapshots live
hardware meters every ``interval`` simulated seconds, turning the
simulator's cumulative meters into per-interval series a Fig. 5-style
plot can be drawn from directly.

Probe modes
-----------

``value``
    Record the probe's return value as-is (gauges: queue delay,
    cumulative bytes).
``busy_fraction``
    The probe returns cumulative busy-seconds; the sampler records the
    *delta since the previous sample divided by the elapsed interval* —
    the utilization of that interval.  Note the underlying FIFO meters
    charge a request's full service time at enqueue, so an interval's
    fraction may exceed 1 when a deep queue forms and the immediately
    following intervals show the matching dip; the cumulative average
    is exact.
``rate``
    Like ``busy_fraction`` but without normalizing to a fraction:
    delta/interval (bytes/second from a cumulative byte counter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.log import EventLog

PROBE_MODES = ("value", "busy_fraction", "rate")


@dataclass(frozen=True)
class TimeSeries:
    """One named series of ``(timestamp, value)`` samples, read back
    from the event log's ``C`` rows."""

    name: str
    samples: List[Tuple[float, float]]

    def __len__(self) -> int:
        return len(self.samples)

    def integral(self, start_ts: float = 0.0) -> float:
        """Integrate a per-interval rate series over time.

        Each sample ``(t_i, v_i)`` of a ``busy_fraction``/``rate`` probe
        covers the interval ``(t_{i-1}, t_i]`` (``start_ts`` before the
        first sample), so the integral ``Σ v_i · (t_i − t_{i-1})``
        recovers the cumulative quantity the probe differentiated —
        e.g. total busy seconds from a utilization timeline.
        """
        total = 0.0
        previous = start_ts
        for ts, value in self.samples:
            total += value * (ts - previous)
            previous = ts
        return total

    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return sum(v for _t, v in self.samples) / len(self.samples)

    def peak(self) -> float:
        if not self.samples:
            return 0.0
        return max(v for _t, v in self.samples)


class CounterRegistry:
    """Every time series of a traced run, keyed by name: a view of the
    counter rows of an :class:`~repro.obs.log.EventLog` (the tracer's,
    or its own when built standalone)."""

    def __init__(self, log: Optional[EventLog] = None):
        self._log = log if log is not None else EventLog()

    def add(self, name: str, ts: float, value: float) -> None:
        self._log.rows.append(("C", 0, 0, name, ts, 0.0, None, value, None))

    def names(self) -> List[str]:
        return sorted(self._log.columns().series)

    def get(self, name: str) -> Optional[TimeSeries]:
        samples = self._log.columns().series.get(name)
        return None if samples is None else TimeSeries(name, samples)

    def rows(self) -> Iterator[Tuple[str, float, float]]:
        """All samples as flat ``(series, ts, value)`` rows, series-sorted."""
        series = self._log.columns().series
        for name in sorted(series):
            for ts, value in series[name]:
                yield name, ts, value


class ResourceSampler:
    """A simulation process that samples hardware meters periodically.

    The sampler only *reads* meters; the extra timeout events it
    schedules never change the relative order of the workload's own
    events, so attaching it does not perturb simulated results.
    """

    def __init__(self, sim, tracer, interval: float):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.tracer = tracer
        self.interval = float(interval)
        #: ``(name, pid, fn, mode)`` per probe.
        self._probes: List[Tuple[str, int, Callable[[], float], str]] = []
        self._last_raw: Dict[str, float] = {}
        self._last_ts: Optional[float] = None
        self.samples_taken = 0

    def add_probe(
        self, name: str, pid: int, fn: Callable[[], float], mode: str = "value"
    ) -> None:
        if mode not in PROBE_MODES:
            raise ValueError(f"unknown probe mode {mode!r}")
        self._probes.append((name, pid, fn, mode))

    def start(self) -> None:
        """Register the sampling loop as a simulation process.

        Anchors the interval bookkeeping at the current simulated time:
        every sample — including the final partial one the runtime takes
        at the finish line — divides meter deltas by the *actual*
        elapsed time, so a ``busy_fraction`` series integrates exactly
        to the meter's total busy time (no end-of-run truncation, and
        runs shorter than one interval still report correct fractions).
        """
        self._last_ts = self.sim.now
        self.sim.process(self._run(), name="obs.sampler")

    def _run(self):
        while True:
            yield self.sim.timeout(self.interval)
            self.sample()

    def sample(self) -> None:
        """Take one snapshot of every probe at the current simulated time."""
        now = self.sim.now
        previous_ts = 0.0 if self._last_ts is None else self._last_ts
        if now <= previous_ts:
            return  # no time has passed; avoid duplicate/zero-dt samples
        elapsed = now - previous_ts
        for name, pid, fn, mode in self._probes:
            raw = fn()
            if mode == "value":
                value = raw
            else:
                value = (raw - self._last_raw.get(name, 0.0)) / elapsed
                self._last_raw[name] = raw
            self.tracer.counter(pid, name, value, ts=now)
        self._last_ts = now
        self.samples_taken += 1
