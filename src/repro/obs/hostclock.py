"""The single sanctioned host-clock entry point inside sim packages.

Everything under ``SIM_PACKAGES`` is forbidden from reading host time:
CHX001 flags ``time.*`` calls statically and CHX008 chases laundered
wall-clock values through the call graph, because host time leaking
into *simulation state* destroys determinism.  Host *profiling*
(:mod:`repro.obs.host`) still needs real clocks — so this module, and
only this module, may import :mod:`time` (and :mod:`tracemalloc`) from
inside a sim package.  Both lint layers exempt it by module path, and
``tests/test_host.py`` asserts the exemption stays this narrow: no
other sim-package module may import ``time``.

The values returned here must never influence simulation behaviour.
They flow into :class:`repro.obs.host.HostProfiler` and out
through exporters; nothing in ``core``/``sim``/``store``/``net`` reads
them back.
"""

from __future__ import annotations

import time
import tracemalloc


#: Monotonic host wall-clock, nanoseconds.  The C functions themselves,
#: not wrappers: a measurement reads each clock twice per section.
wall_ns = time.perf_counter_ns

#: Process CPU time (user+system), nanoseconds.
cpu_ns = time.process_time_ns


def start_allocation_tracing() -> None:
    """Begin tracemalloc tracing (idempotent)."""
    if not tracemalloc.is_tracing():
        tracemalloc.start()


def stop_allocation_tracing() -> None:
    if tracemalloc.is_tracing():
        tracemalloc.stop()


def allocation_tracing_active() -> bool:
    return tracemalloc.is_tracing()


def allocated_bytes() -> int:
    """Currently traced allocation size in bytes (0 when not tracing)."""
    if not tracemalloc.is_tracing():
        return 0
    current, _peak = tracemalloc.get_traced_memory()
    return current
