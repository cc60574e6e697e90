"""The paper's primary contribution: CA actions with distributed
concurrent-exception resolution.

Layout:

* :mod:`repro.core.messages` — the five protocol messages of Section 4.1;
* :mod:`repro.core.action` — static CA action declarations and nesting,
  and ``NestedPolicy``: Figure 1's wait vs. abort nested policies;
* :mod:`repro.core.manager` — the (centralised) CA action manager;
* :mod:`repro.core.participant` — participating objects;
* :mod:`repro.core.algorithm` — the Section 4.2 resolution engine;
* :mod:`repro.core.abortion` — nested-action abortion chains (Section 4.1);
* :mod:`repro.core.variants` — ``run_action``: the one way to run any
  variant below on the Section 4.4 workload, and the registry of their facts;
* :mod:`repro.core.cr_baseline` — the Campbell–Randell 1986 comparator;
* :mod:`repro.core.multicast_variant` — the ACK-free multicast variant;
* :mod:`repro.core.centralized_variant` — the coordinator-based variant;
* :mod:`repro.core.crash_tolerant` — the crash-tolerant extension.
"""

from repro.core.action import ActionRegistry, CAActionDef, NestedPolicy
from repro.core.manager import ActionStatus, CAActionManager
from repro.core.messages import (
    KIND_ACK,
    KIND_COMMIT,
    KIND_DONE,
    KIND_EXCEPTION,
    KIND_HAVE_NESTED,
    KIND_NESTED_COMPLETED,
    RESOLUTION_KINDS,
    SYNC_KINDS,
)
from repro.core.participant import CAParticipant

__all__ = [
    "ActionRegistry",
    "ActionStatus",
    "CAActionDef",
    "CAActionManager",
    "CAParticipant",
    "KIND_ACK",
    "KIND_COMMIT",
    "KIND_DONE",
    "KIND_EXCEPTION",
    "KIND_HAVE_NESTED",
    "KIND_NESTED_COMPLETED",
    "NestedPolicy",
    "RESOLUTION_KINDS",
    "SYNC_KINDS",
]
