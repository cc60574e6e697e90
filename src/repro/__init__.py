"""repro — a reproduction of "Exception Handling and Resolution in
Distributed Object-Oriented Systems" (Romanovsky, Xu & Randell, ICDCS 1996).

The package implements the paper's CA-action model with its distributed
algorithm for resolving concurrently raised exceptions, together with every
substrate the paper assumes: a deterministic discrete-event simulator, a
FIFO message network with fault injection, a distributed-object runtime,
a transactional layer for external atomic objects, and conversations for
backward error recovery.  The Campbell–Randell baseline, the Section 4.5
multicast variant and the k-resolver extension are included for the
paper's comparisons.

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
    print(result.handlers_started("mission"))

See ``examples/`` for complete programs and :mod:`repro.analysis.report`
(``python -m repro report``) for the experiments reproducing the paper's
Section 4.4 analysis.
"""

from repro.conversation import (
    AcceptanceTest,
    Alternate,
    Conversation,
    ConversationProcess,
    RecoveryBlock,
)
from repro.core import (
    ActionRegistry,
    ActionStatus,
    CAActionDef,
    CAActionManager,
    CAParticipant,
    NestedPolicy,
)
from repro.core.abortion import AbortionHandler
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
from repro.objects import DistributedObject, RemoteInvoker, Runtime
from repro.transactions import AtomicObject, TransactionManager
from repro.workloads import (
    ActionBlock,
    AtomicRead,
    AtomicWrite,
    Compute,
    ParticipantSpec,
    Raise,
    Scenario,
    ScenarioResult,
)

__version__ = "1.0.0"

__all__ = [
    "AbortionException",
    "AbortionHandler",
    "AcceptanceTest",
    "ActionBlock",
    "ActionException",
    "ActionFailureException",
    "ActionRegistry",
    "ActionStatus",
    "Alternate",
    "AtomicObject",
    "AtomicRead",
    "AtomicWrite",
    "CAActionDef",
    "CAActionManager",
    "CAParticipant",
    "Compute",
    "ConstantLatency",
    "Conversation",
    "ConversationProcess",
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
    "RecoveryBlock",
    "RemoteInvoker",
    "ResolutionTree",
    "Runtime",
    "Scenario",
    "ScenarioResult",
    "TransactionManager",
    "UniformLatency",
    "UniversalException",
    "declare_exception",
]
