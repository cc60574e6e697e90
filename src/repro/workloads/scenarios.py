"""Scenario assembly.

A :class:`Scenario` wires action declarations, participant specs (behaviour
+ handlers) and atomic objects into a complete simulated system of §4.2
participants, runs it, and returns the one result type,
:class:`~repro.core.variants.ActionRun` of the ``base`` variant: who
handled what (``handled(action)``), per-kind and per-action message
counts, action outcomes and timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.abortion import AbortionHandler
from repro.core.action import ActionRegistry, CAActionDef
from repro.core.manager import CAActionManager
from repro.core.participant import CAParticipant
from repro.core.variants import VARIANTS, ActionRun
from repro.exceptions.handlers import HandlerSet
from repro.net.failures import FailurePlan
from repro.net.latency import LatencyModel
from repro.objects.runtime import Runtime
from repro.simkernel.trace import TraceLevel
from repro.transactions.atomic_object import AtomicObject
from repro.workloads.behaviour import BehaviourRunner, Step


@dataclass
class ParticipantSpec:
    """Everything needed to instantiate one participating object."""

    name: str
    behaviour: Sequence[Step]
    handler_sets: dict[str, HandlerSet]
    abortion_handlers: dict[str, AbortionHandler] = field(default_factory=dict)
    start_delay: float = 0.0
    node_id: Optional[str] = None


#: Event budget of :meth:`Scenario.run` for scenarios that do not set one.
DEFAULT_MAX_EVENTS = 500_000


class Scenario:
    """A declarative simulated-system builder."""

    def __init__(
        self,
        actions: Sequence[CAActionDef],
        participants: Sequence[ParticipantSpec],
        atomic_objects: Sequence[AtomicObject] = (),
        seed: int = 0,
        latency: LatencyModel | None = None,
        failure_plan: FailurePlan | None = None,
        reliable: bool = False,
        ack_timeout: float = 5.0,
        max_retries: int = 60,
        crashes: Sequence[tuple[str, float]] = (),
        trace_level: TraceLevel = TraceLevel.FULL,
    ) -> None:
        self.registry = ActionRegistry()
        for definition in actions:
            self.registry.declare(definition)
        self.specs = list(participants)
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate participant names")
        self.atomic_objects = {obj.name: obj for obj in atomic_objects}
        self.seed = seed
        self.latency = latency
        self.failure_plan = failure_plan
        self.reliable = reliable
        self.ack_timeout = ack_timeout
        self.max_retries = max_retries
        self.crashes = list(crashes)
        unknown = {victim for victim, _ in self.crashes} - set(names)
        if unknown:
            raise ValueError(f"cannot crash unknown participants: {sorted(unknown)}")
        self.trace_level = TraceLevel(trace_level)
        #: Event budget :meth:`run` applies when the caller names none (the
        #: livelock guard).  Generators that know how much traffic their
        #: workload produces raise it (see ``generator.general_case``).
        self.max_events: int | None = DEFAULT_MAX_EVENTS

    def build(self) -> tuple[Runtime, CAActionManager, dict, dict]:
        runtime = Runtime(
            seed=self.seed, latency=self.latency,
            failure_plan=self.failure_plan, reliable=self.reliable,
            ack_timeout=self.ack_timeout, max_retries=self.max_retries,
            trace_level=self.trace_level,
        )
        manager = CAActionManager(self.registry)
        participants: dict[str, CAParticipant] = {}
        runners: dict[str, BehaviourRunner] = {}
        for spec in self.specs:
            participant = CAParticipant(
                spec.name,
                self.registry,
                manager,
                spec.handler_sets,
                spec.abortion_handlers,
            )
            runtime.register(participant, node_id=spec.node_id)
            runner = BehaviourRunner(participant, spec.behaviour)
            participants[spec.name] = participant
            runners[spec.name] = runner
        for spec in self.specs:
            runners[spec.name].start(spec.start_delay)
        node_of = {
            spec.name: spec.node_id or f"node:{spec.name}" for spec in self.specs
        }
        for victim, crash_at in self.crashes:
            runtime.sim.schedule(
                crash_at,
                lambda node=node_of[victim]: runtime.crash_node(node),
                label=f"crash:{victim}",
            )
        return runtime, manager, participants, runners

    def run(
        self, until: float | None = None, max_events: int | None = None
    ) -> ActionRun:
        """Build and run; ``max_events=None`` means the scenario's own
        budget (:attr:`max_events`), an explicit value always wins."""
        runtime, manager, participants, runners = self.build()
        if max_events is None:
            max_events = self.max_events
        runtime.run(until=until, max_events=max_events)
        crashed = tuple([victim for victim, _ in self.crashes])
        return ActionRun(
            VARIANTS["base"], runtime, participants, crashed, runners, manager
        )
