"""Workloads: behaviour scripts, scenario harness and paper-case generators.

Participant application code is *scripted* (see DESIGN.md): a behaviour is
a tree of steps mirroring the action nesting.  :mod:`repro.workloads.scenarios`
assembles behaviours, handler sets and action declarations into a runnable
simulated system; :mod:`repro.workloads.generator` builds the exact
workloads of the paper's Section 4.3 examples and Section 4.4 analysis
cases; :mod:`repro.workloads.sweeps` runs parameter sweeps for the
benchmark harness.
"""

from repro.workloads.behaviour import (
    ActionBlock,
    AtomicRead,
    AtomicWrite,
    BehaviourRunner,
    Compute,
    Raise,
    Step,
)
from repro.workloads.scenarios import ParticipantSpec, Scenario

__all__ = [
    "ActionBlock",
    "AtomicRead",
    "AtomicWrite",
    "BehaviourRunner",
    "Compute",
    "ParticipantSpec",
    "Raise",
    "Scenario",
    "Step",
]
