"""Deterministic discrete-event simulation kernel.

This package provides the execution substrate for the reproduction: a
simulator with a virtual clock, lightweight processes written as Python
generators, and the synchronization primitives (events, conditions, queues)
that the protocol implementations are built from.

The kernel is deterministic: given the same seed and the same program, every
run produces the identical event ordering.  Ties in the event queue are
broken by insertion order.
"""

from repro.sim.kernel import (
    AnyOf,
    Process,
    ProcessKilled,
    SimulationError,
    Simulator,
    Sleep,
    SleepUntil,
)
from repro.sim.events import Condition, Event, Queue, QueueClosed
from repro.sim.rng import RandomStream

__all__ = [
    "AnyOf",
    "Condition",
    "Event",
    "Process",
    "ProcessKilled",
    "Queue",
    "QueueClosed",
    "RandomStream",
    "SimulationError",
    "Simulator",
    "Sleep",
    "SleepUntil",
]
