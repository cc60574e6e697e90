"""Schedule-space exploration for the resolution protocols.

The protocols of this repo are all about *orderings* — concurrent raises,
belated participants, nested abortions racing commits — yet one seeded run
witnesses exactly one interleaving.  This package turns same-timestamp
event ordering into explicit choice points on the deterministic simkernel
(via :class:`repro.simkernel.events.TieBreakPolicy`) and searches the
space of interleavings in the stateless-model-checking tradition of
VeriSoft (Godefroid, POPL 1997) and CHESS (Musuvathi & Qadeer, OSDI 2008):

* bounded-exhaustive DFS with sleep-set partial-order reduction and
  canonical-history state pruning (:func:`explore_cell` mode ``dfs``);
* seeded random walks encoded as compact replayable schedule strings
  (mode ``random``);
* delay-bounded search — at most *d* deviations from FIFO (mode
  ``delay``).

Every run is checked against the PR-2 campaign oracles plus an
order-invariance oracle (same cell, any interleaving → same resolved
exception, same commit outcome, same fault-free message count); every
violation is ddmin-shrunk to a minimal schedule with a one-line repro.
"""

from repro.explore.campaign import (
    default_roster,
    hunt_schedule,
    pin_campaign_findings,
    pin_regression,
)
from repro.explore.controller import PruneRun, ScheduleController
from repro.explore.engine import (
    ExploreResult,
    Finding,
    explore_cell,
    replay_cell,
    run_digest,
)
from repro.explore.schedule import ScheduleSpec
from repro.explore.shrink import ddmin

__all__ = [
    "ExploreResult",
    "Finding",
    "PruneRun",
    "ScheduleController",
    "ScheduleSpec",
    "ddmin",
    "default_roster",
    "explore_cell",
    "hunt_schedule",
    "pin_campaign_findings",
    "pin_regression",
    "replay_cell",
    "run_digest",
]
