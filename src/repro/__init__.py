"""repro — a reproduction of "Exception Handling and Resolution in
Distributed Object-Oriented Systems" (Romanovsky, Xu & Randell, ICDCS 1996).

The package implements the paper's CA-action model with its distributed
algorithm for resolving concurrently raised exceptions, together with every
substrate the paper assumes: a deterministic discrete-event simulator, a
FIFO message network with fault injection, a distributed-object runtime,
and a transactional layer for external atomic objects.  Backward error
recovery (Section 2.2, Figure 2(b)) is part of the CA action itself: an
action's ``acceptance`` test at the synchronized exit line, an implicit
transaction abort, and a retry with the block's ``alternates``.  The
Campbell–Randell baseline, the Section 4.5 multicast variant and the
k-resolver extension are included for the paper's comparisons.

Typical use::

    from repro import (
        ActionBlock, CAActionDef, Compute, HandlerSet, ParticipantSpec,
        Raise, ResolutionTree, Scenario, UniversalException,
    )

    class SensorFault(UniversalException): ...
    class ActuatorFault(UniversalException): ...

    tree = ResolutionTree.from_classes(UniversalException)
    action = CAActionDef("mission", ("ctl", "nav"), tree)
    specs = [
        ParticipantSpec("ctl", [ActionBlock("mission", [Compute(5), Raise(SensorFault)])],
                        {"mission": HandlerSet.completing_all(tree)}),
        ParticipantSpec("nav", [ActionBlock("mission", [Compute(5), Raise(ActuatorFault)])],
                        {"mission": HandlerSet.completing_all(tree)}),
    ]
    result = Scenario([action], specs).run()
    print(result.handled("mission"))   # {"ctl": "UniversalException", ...}

See ``examples/`` for complete programs and :mod:`repro.analysis.report`
(``python -m repro report``) for the experiments reproducing the paper's
Section 4.4 analysis.
"""

from repro.core import (
    ActionRegistry,
    ActionStatus,
    CAActionDef,
    CAActionManager,
    CAParticipant,
    NestedPolicy,
)
from repro.core.abortion import AbortionHandler
from repro.core.variants import ActionRun
from repro.exceptions import (
    AbortionException,
    ActionException,
    ActionFailureException,
    HandlerSet,
    ResolutionTree,
    UniversalException,
    declare_exception,
)
from repro.exceptions.handlers import Handler, HandlerOutcome, HandlerResult
from repro.net import (
    ConstantLatency,
    ExponentialLatency,
    FailurePlan,
    UniformLatency,
)
from repro.objects import DistributedObject, Runtime
from repro.transactions import AtomicObject, TransactionManager
from repro.workloads import (
    ActionBlock,
    AtomicRead,
    AtomicWrite,
    Compute,
    ParticipantSpec,
    Raise,
    Scenario,
)

__version__ = "1.0.0"

__all__ = [
    "AbortionException",
    "AbortionHandler",
    "ActionBlock",
    "ActionException",
    "ActionFailureException",
    "ActionRegistry",
    "ActionRun",
    "ActionStatus",
    "AtomicObject",
    "AtomicRead",
    "AtomicWrite",
    "CAActionDef",
    "CAActionManager",
    "CAParticipant",
    "Compute",
    "ConstantLatency",
    "DistributedObject",
    "ExponentialLatency",
    "FailurePlan",
    "Handler",
    "HandlerOutcome",
    "HandlerResult",
    "HandlerSet",
    "NestedPolicy",
    "ParticipantSpec",
    "Raise",
    "ResolutionTree",
    "Runtime",
    "Scenario",
    "TransactionManager",
    "UniformLatency",
    "UniversalException",
    "declare_exception",
]
