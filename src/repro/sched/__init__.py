"""Scheduler substrate: space-sharing job simulation (Section 3).

"Since our focus is on allocation rather than scheduling, we scheduled
using First Come, First Serve (FCFS) in all our simulations."

:class:`~repro.sched.simulator.Simulation` couples a queueing discipline
(FCFS by default; EASY backfilling and the fairness disciplines come from
:mod:`repro.sched.registry`), an allocator, a communication pattern, and
the fluid network engine into the trace-driven simulator behind Figs
7/8/9/10/11.
"""

from repro.sched.job import Job, JobResult
from repro.sched.registry import (
    DRRQueue,
    EASYQueue,
    FCFSQueue,
    WFQQueue,
    apply_priority,
    class_weight,
    make_discipline,
    scheduler_names,
    validate_priority,
    validate_scheduler,
)
from repro.sched.simulator import Simulation, SimulationResult
from repro.sched.stats import summarize

__all__ = [
    "Job",
    "JobResult",
    "FCFSQueue",
    "EASYQueue",
    "Simulation",
    "SimulationResult",
    "summarize",
    "scheduler_names",
    "validate_scheduler",
    "make_discipline",
    "class_weight",
    "validate_priority",
    "apply_priority",
    "WFQQueue",
    "DRRQueue",
]
