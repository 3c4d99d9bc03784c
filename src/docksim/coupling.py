"""Coupling sequence state machine for one interface pair.

Pure-functional FSM: step(state, event, dt, config, profile) returns the
successor state and never mutates. Capture is quasi-static and completes on
the tick after a feasible approach; locking and unlocking are timed phases
driven by the rod stroke. A fault latches the machine until reset.

Either side of the genderless pair (or both) may drive the lock; locking
with both sides doubles the engaged lock set and raises the load capacity
factor accordingly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ParameterError, ProtocolError
from .face import FaceProfile, Misalignment, mate_feasible
from .loads import DUAL_LOCK_FACTOR

PHASES = ("idle", "capturing", "aligned", "locking", "locked", "unlocking", "fault")
FAULT_KINDS = ("pin_jam", "rod_stall", "comms_loss", "power_trip")
EVENT_KINDS = ("approach", "start_lock", "start_unlock", "tick", "inject_fault", "reset")
SIDES = ("A", "B", "both")


@dataclass(frozen=True)
class CouplingConfig:
    """Lock drive configuration; lock_duration_s is the rated stroke time."""

    lock_duration_s: float = 15.0
    which_sides: str = "A"

    def __post_init__(self):
        if not 10.0 <= self.lock_duration_s <= 20.0:
            raise ParameterError("lock_duration_s must be within [10, 20] s")
        if self.which_sides not in SIDES:
            raise ParameterError(f"which_sides must be one of {SIDES}")

    @property
    def engaged_sides(self) -> tuple[str, ...]:
        return ("A", "B") if self.which_sides == "both" else (self.which_sides,)


@dataclass(frozen=True)
class Event:
    kind: str
    dt_s: float = 0.0
    misalignment: Misalignment | None = None
    fault_kind: str | None = None

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ParameterError(f"unknown event kind {self.kind!r}")
        if self.kind == "tick" and not (math.isfinite(self.dt_s) and self.dt_s > 0.0):
            raise ParameterError("tick requires dt_s > 0")
        if self.kind == "approach" and self.misalignment is None:
            raise ParameterError("approach requires a misalignment")
        if self.kind == "inject_fault":
            if self.fault_kind not in FAULT_KINDS:
                raise ParameterError(f"fault_kind must be one of {FAULT_KINDS}")


@dataclass(frozen=True)
class InterfaceState:
    phase: str = "idle"
    progress_s: float = 0.0
    sides_engaged: tuple[str, ...] = ()
    fault_kind: str | None = None
    time_s: float = 0.0

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ParameterError(f"unknown phase {self.phase!r}")
        if (self.fault_kind is not None) != (self.phase == "fault"):
            raise ParameterError("fault_kind is set exactly in the fault phase")
        if self.sides_engaged and self.phase not in ("locking", "locked", "unlocking"):
            raise ParameterError("sides_engaged only exists while the lock set is in play")
        if self.phase in ("locking", "locked", "unlocking") and not self.sides_engaged:
            raise ParameterError(f"{self.phase} requires at least one engaged side")

    @property
    def lock_capacity_factor(self) -> float:
        if self.phase == "locked" and len(self.sides_engaged) == 2:
            return DUAL_LOCK_FACTOR
        return 1.0


def step(
    state: InterfaceState,
    event: Event,
    dt: float,
    config: CouplingConfig,
    profile: FaceProfile,
) -> InterfaceState:
    """Advance the FSM by one event. dt applies to tick events only, and
    must equal the tick's dt_s.

    Raises ProtocolError for commands issued in a phase that cannot accept
    them; a faulted machine silently absorbs everything except reset.
    """
    if event.kind == "tick" and dt != event.dt_s:
        raise ParameterError(f"tick dt {dt!r} differs from its dt_s {event.dt_s!r}")

    if event.kind == "reset":
        return InterfaceState()

    if state.phase == "fault":
        if event.kind == "tick":
            return replace(state, time_s=state.time_s + dt)
        return state

    if event.kind == "inject_fault":
        return InterfaceState(
            phase="fault", fault_kind=event.fault_kind, time_s=state.time_s
        )

    if event.kind == "approach":
        if state.phase not in ("idle", "aligned"):
            raise ProtocolError(f"cannot approach while {state.phase}")
        if mate_feasible(profile, event.misalignment):
            return replace(state, phase="capturing", progress_s=0.0)
        return replace(state, phase="idle", progress_s=0.0)

    if event.kind == "start_lock":
        if state.phase != "aligned":
            raise ProtocolError(f"start_lock requires aligned, not {state.phase}")
        return replace(
            state, phase="locking", progress_s=0.0, sides_engaged=config.engaged_sides
        )

    if event.kind == "start_unlock":
        if state.phase != "locked":
            raise ProtocolError(f"start_unlock requires locked, not {state.phase}")
        return replace(state, phase="unlocking", progress_s=0.0)

    # tick
    t = state.time_s + dt
    if state.phase == "capturing":
        return replace(state, phase="aligned", progress_s=0.0, time_s=t)
    if state.phase in ("locking", "unlocking"):
        p = state.progress_s + dt
        if p >= config.lock_duration_s:
            if state.phase == "locking":
                return replace(state, phase="locked", progress_s=0.0, time_s=t)
            return replace(state, phase="aligned", progress_s=0.0, sides_engaged=(), time_s=t)
        return replace(state, progress_s=p, time_s=t)
    return replace(state, time_s=t)


def replay(
    events: list[Event] | tuple[Event, ...],
    config: CouplingConfig,
    profile: FaceProfile,
) -> tuple[InterfaceState, ...]:
    """Run an event sequence from idle; returns the state after each event.

    Deterministic: the same sequence always yields the same trajectory.
    """
    state = InterfaceState()
    out = []
    for ev in events:
        state = step(state, ev, ev.dt_s, config, profile)
        out.append(state)
    return tuple(out)
