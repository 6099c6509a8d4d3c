"""Discrete-event simulation kernel.

This package provides the minimal but complete discrete-event machinery
the Chaos reproduction is built on: a :class:`~repro.sim.engine.Simulator`
event loop, generator-based :class:`~repro.sim.engine.Process` objects,
composable :class:`~repro.sim.engine.Event` primitives, and the queueing
resources (:mod:`repro.sim.resources`) used to model storage devices,
NICs and CPU cores.

The kernel is deliberately self-contained (no simpy dependency) and uses
an *analytic FIFO server* model for bandwidth resources: a single-server
FIFO queue's completion times can be computed in O(1) per request, which
keeps cluster-scale simulations fast while remaining exactly equivalent
to simulating the queue explicitly.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
)
from repro.sim.resources import (
    CoreBank,
    FifoServer,
    Mailbox,
    UtilizationMeter,
)
from repro.sim.sync import Barrier, Latch, WaitGroup

__all__ = [
    "Barrier",
    "Latch",
    "WaitGroup",
    "AllOf",
    "AnyOf",
    "CoreBank",
    "Event",
    "FifoServer",
    "Interrupt",
    "Mailbox",
    "Process",
    "SimulationError",
    "Simulator",
    "UtilizationMeter",
]
