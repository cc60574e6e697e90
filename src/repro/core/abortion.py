"""Abortion of nested CA action chains.

Section 4.1: "when an object in its active action A_{i+k} needs to take
part in the abortion of a chain of the nested actions A_{i+1} (the
outermost), ..., A_{i+k} (the innermost), it must execute abortion handlers
in the order (i+k), (i+k-1), ..., (i+1), ignoring any exception which may
be signalled to a containing action.  During the process of abortion, only
the exception signalled by abortion handlers of Action A_{i+1} is allowed
to be raised in the containing action A_i."

An :class:`AbortionTask` walks the participant's context stack from the
innermost entered action down to (but excluding) the target action, running
the participant's abortion handler for each level (each takes virtual
time), aborting the associated transactions via the CA action manager, and
finally reporting only the *last* handler's signal — the handler of the
action directly nested in the target.

The task's target can be *extended* outward while it runs: if an even more
containing action starts a resolution mid-abortion, the chain simply
continues until the new target (Section 3.3 problem 4: the outer resolution
eliminates the inner one, including its abortion bookkeeping).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.exceptions.tree import ExceptionClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.participant import CAParticipant

#: Abortion handler body: (participant, aborted action name) -> exception
#: to signal to the containing action, or None ("last-will" recovery).
AbortionBody = Callable[["CAParticipant", str], Optional[ExceptionClass]]


@dataclass(frozen=True)
class AbortionHandler:
    """One participant's abortion handler for one nested action."""

    body: AbortionBody
    duration: float = 0.0

    @staticmethod
    def silent(duration: float = 0.0) -> "AbortionHandler":
        """An abortion handler that undoes and signals nothing."""
        return AbortionHandler(body=lambda participant, action: None, duration=duration)

    @staticmethod
    def signalling(
        exception: ExceptionClass, duration: float = 0.0
    ) -> "AbortionHandler":
        """An abortion handler whose last-will signals ``exception``."""
        return AbortionHandler(
            body=lambda participant, action: exception, duration=duration
        )


class AbortionTask:
    """Runs a participant's abortion handlers innermost-first."""

    def __init__(
        self,
        participant: "CAParticipant",
        target_action: str,
        on_complete: Callable[[Optional[ExceptionClass]], None],
    ) -> None:
        self.participant = participant
        self.target_action = target_action
        self.on_complete = on_complete
        self.running = False
        self.finished = False
        self._last_signal: Optional[ExceptionClass] = None
        #: Levels aborted so far (the chain depth the metrics record).
        self.levels = 0

    def start(self) -> None:
        if self.running or self.finished:
            raise RuntimeError("abortion task already started")
        self.running = True
        self._step()

    def retarget(
        self,
        new_target: str,
        on_complete: Callable[[Optional[ExceptionClass]], None],
    ) -> None:
        """Retarget a *running* abortion to a more containing action.

        Any already executed abortion handlers stand; the chain simply
        continues further out.  The previously admissible signal becomes
        inadmissible (it no longer comes from the direct child of the
        target), which falls out naturally: only the final handler's signal
        is reported — to the *new* completion callback (the old resolution
        context, including its callback, has been eliminated).
        """
        if not self.running:
            raise RuntimeError("can only retarget a running abortion task")
        registry = self.participant.registry
        if not registry.contains(new_target, self.target_action):
            raise ValueError(
                f"cannot extend abortion from {self.target_action} to "
                f"{new_target}: not a containing action"
            )
        self.target_action = new_target
        self.on_complete = on_complete

    def _step(self) -> None:
        participant = self.participant
        contexts = participant.contexts
        active = contexts.active
        if active is None or active.action_name == self.target_action:
            self._finish()
            return
        action = active.action_name
        handler = participant.abortion_handler_for(action)
        participant.trace(
            "abort.start", action=action, duration=handler.duration
        )
        participant.runtime.sim.schedule(
            handler.duration,
            lambda: self._run_handler(action, handler),
            label=f"abort:{participant.name}:{action}",
        )

    def _run_handler(self, action: str, handler: AbortionHandler) -> None:
        participant = self.participant
        # The handler runs while the context still exists, then the context
        # is popped and the action (and its transaction) marked aborted.
        signal = handler.body(participant, action)
        participant.abort_local(action)
        self.levels += 1
        participant.trace(
            "abort.done",
            action=action,
            signal=signal.name() if signal else None,
        )
        # "ignoring any exception which may be signalled to a containing
        # action" — only the last (outermost-aborted) handler's signal is
        # remembered; earlier ones are overwritten and thus ignored.
        self._last_signal = signal
        self._step()

    def _finish(self) -> None:
        self.running = False
        self.finished = True
        metrics = self.participant.engine._metrics
        if metrics is not None:
            from repro.obs.metrics import COUNT_BUCKETS

            metrics.histogram("abortion.depth", COUNT_BUCKETS).observe(
                self.levels
            )
        self.on_complete(self._last_signal)
