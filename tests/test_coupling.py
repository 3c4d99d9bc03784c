"""Coupling FSM tests: nominal sequence, timing, faults, protocol errors."""
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docksim.coupling import (
    EVENT_KINDS,
    FAULT_KINDS,
    SIDES,
    CouplingConfig,
    Event,
    InterfaceState,
    replay,
    step,
)
from docksim.errors import ParameterError, ProtocolError
from docksim.face import REFERENCE_PROFILE, Misalignment, mate_feasible

CFG = CouplingConfig()
P = REFERENCE_PROFILE


def tick(dt=0.25):
    return Event("tick", dt_s=dt)


def run(events, config=CFG):
    return replay(events, config, P)


def aligned_state():
    states = run([Event("approach", misalignment=Misalignment(dx_mm=2.0)), tick()])
    return states[-1]


class TestConfig:
    def test_duration_range_honored(self):
        CouplingConfig(lock_duration_s=10.0)
        CouplingConfig(lock_duration_s=20.0)
        with pytest.raises(ParameterError):
            CouplingConfig(lock_duration_s=9.9)
        with pytest.raises(ParameterError):
            CouplingConfig(lock_duration_s=20.1)

    def test_sides(self):
        assert CouplingConfig(which_sides="both").engaged_sides == ("A", "B")
        assert CouplingConfig(which_sides="B").engaged_sides == ("B",)
        with pytest.raises(ParameterError):
            CouplingConfig(which_sides="C")


class TestStateValidation:
    def test_fault_kind_consistency(self):
        with pytest.raises(ParameterError):
            InterfaceState(phase="idle", fault_kind="pin_jam")
        with pytest.raises(ParameterError):
            InterfaceState(phase="fault")

    def test_sides_only_in_lock_phases(self):
        with pytest.raises(ParameterError):
            InterfaceState(phase="aligned", sides_engaged=("A",))
        with pytest.raises(ParameterError):
            InterfaceState(phase="locking")


class TestCapture:
    def test_feasible_approach_captures(self):
        s = step(InterfaceState(), Event("approach", misalignment=Misalignment(dx_mm=2.0)),
                 0.0, CFG, P)
        assert s.phase == "capturing"
        s = step(s, tick(), 0.25, CFG, P)
        assert s.phase == "aligned"

    def test_infeasible_approach_stays_idle(self):
        s = step(InterfaceState(), Event("approach", misalignment=Misalignment(dx_mm=80.0)),
                 0.0, CFG, P)
        assert s.phase == "idle"

    def test_approach_requires_idle_or_aligned(self):
        locking = step(aligned_state(), Event("start_lock"), 0.0, CFG, P)
        with pytest.raises(ProtocolError):
            step(locking, Event("approach", misalignment=Misalignment()), 0.0, CFG, P)


class TestLockTiming:
    def test_nominal_lock_duration(self):
        s = aligned_state()
        s = step(s, Event("start_lock"), 0.0, CFG, P)
        assert s.phase == "locking"
        dt, elapsed = 0.25, 0.0
        while s.phase == "locking":
            s = step(s, tick(dt), dt, CFG, P)
            elapsed += dt
        assert s.phase == "locked"
        assert abs(elapsed - CFG.lock_duration_s) <= dt

    def test_custom_duration(self):
        cfg = CouplingConfig(lock_duration_s=12.0)
        s = step(aligned_state(), Event("start_lock"), 0.0, cfg, P)
        n = 0
        while s.phase == "locking":
            s = step(s, tick(0.5), 0.5, cfg, P)
            n += 1
        assert n == 24

    def test_unlock_returns_to_aligned(self):
        s = step(aligned_state(), Event("start_lock"), 0.0, CFG, P)
        while s.phase == "locking":
            s = step(s, tick(1.0), 1.0, CFG, P)
        s = step(s, Event("start_unlock"), 0.0, CFG, P)
        assert s.phase == "unlocking"
        assert s.sides_engaged  # lock set stays in play during retraction
        while s.phase == "unlocking":
            s = step(s, tick(1.0), 1.0, CFG, P)
        assert s.phase == "aligned"
        assert s.sides_engaged == ()

    def test_time_accumulates_only_on_tick(self):
        s = aligned_state()
        t0 = s.time_s
        s = step(s, Event("start_lock"), 0.0, CFG, P)
        assert s.time_s == t0
        s = step(s, tick(0.5), 0.5, CFG, P)
        assert s.time_s == t0 + 0.5


class TestSides:
    def test_single_side_factor(self):
        s = step(aligned_state(), Event("start_lock"), 0.0, CFG, P)
        while s.phase == "locking":
            s = step(s, tick(1.0), 1.0, CFG, P)
        assert s.sides_engaged == ("A",)
        assert s.lock_capacity_factor == 1.0

    def test_both_sides_factor(self):
        cfg = CouplingConfig(which_sides="both")
        s = step(aligned_state(), Event("start_lock"), 0.0, cfg, P)
        assert s.sides_engaged == ("A", "B")
        assert s.lock_capacity_factor == 1.0  # not yet locked
        while s.phase == "locking":
            s = step(s, tick(1.0), 1.0, cfg, P)
        assert s.phase == "locked"
        assert s.lock_capacity_factor == 1.5


class TestFaults:
    def test_fault_from_any_phase(self):
        for mk_state in (InterfaceState, aligned_state):
            s = step(mk_state(), Event("inject_fault", fault_kind="rod_stall"), 0.0, CFG, P)
            assert s.phase == "fault"
            assert s.fault_kind == "rod_stall"

    def test_fault_absorbs_commands(self):
        s = step(InterfaceState(), Event("inject_fault", fault_kind="comms_loss"), 0.0, CFG, P)
        for ev in (Event("start_lock"), Event("start_unlock"),
                   Event("approach", misalignment=Misalignment()),
                   Event("inject_fault", fault_kind="pin_jam")):
            s2 = step(s, ev, 0.0, CFG, P)
            assert s2.phase == "fault"
            assert s2.fault_kind == "comms_loss"  # original fault latched

    def test_fault_tick_advances_time_only(self):
        s = step(InterfaceState(), Event("inject_fault", fault_kind="power_trip"), 0.0, CFG, P)
        s2 = step(s, tick(2.0), 2.0, CFG, P)
        assert s2.phase == "fault" and s2.time_s == 2.0

    def test_reset_clears_fault(self):
        s = step(InterfaceState(), Event("inject_fault", fault_kind="pin_jam"), 0.0, CFG, P)
        s = step(s, Event("reset"), 0.0, CFG, P)
        assert s == InterfaceState()

    def test_bad_fault_kind(self):
        with pytest.raises(ParameterError):
            step(InterfaceState(), Event("inject_fault", fault_kind="gremlin"), 0.0, CFG, P)


class TestProtocol:
    def test_start_lock_requires_aligned(self):
        with pytest.raises(ProtocolError):
            step(InterfaceState(), Event("start_lock"), 0.0, CFG, P)

    def test_start_unlock_requires_locked(self):
        with pytest.raises(ProtocolError):
            step(aligned_state(), Event("start_unlock"), 0.0, CFG, P)

    def test_bad_event_kind(self):
        with pytest.raises(ParameterError):
            step(InterfaceState(), Event("wiggle"), 0.0, CFG, P)

    def test_tick_needs_positive_dt(self):
        with pytest.raises(ParameterError):
            step(InterfaceState(), Event("tick", dt_s=0.0), 0.0, CFG, P)

    def test_tick_dt_must_be_its_dt_s(self):
        with pytest.raises(ParameterError, match="differs from its dt_s"):
            step(aligned_state(), Event("tick", dt_s=1.0), 5.0, CFG, P)
        locking = step(aligned_state(), Event("start_lock"), 0.0, CFG, P)
        with pytest.raises(ParameterError, match="differs from its dt_s"):
            step(locking, Event("tick", dt_s=20.0), 1.0, CFG, P)
        fault = step(InterfaceState(), Event("inject_fault", fault_kind="pin_jam"), 0.0, CFG, P)
        with pytest.raises(ParameterError, match="differs from its dt_s"):
            step(fault, Event("tick", dt_s=2.0), 0.0, CFG, P)


class TestReplay:
    def test_deterministic(self):
        events = [
            Event("approach", misalignment=Misalignment(dx_mm=3.0)),
            tick(),
            Event("start_lock"),
            *[tick(1.0) for _ in range(16)],
            Event("start_unlock"),
            *[tick(1.0) for _ in range(16)],
        ]
        assert run(events) == run(events)

    def test_full_cycle_phases(self):
        events = [
            Event("approach", misalignment=Misalignment(dx_mm=3.0)),
            tick(),
            Event("start_lock"),
            *[tick(5.0) for _ in range(3)],
            Event("start_unlock"),
            *[tick(5.0) for _ in range(3)],
        ]
        phases = [s.phase for s in run(events)]
        assert phases[0] == "capturing"
        assert phases[1] == "aligned"
        assert phases[2] == "locking"
        assert phases[5] == "locked"
        assert phases[6] == "unlocking"
        assert phases[-1] == "aligned"


# ------------------------------------------------------- phase rules property

# a small fixed set, so every approach after the first is served from the memo
APPROACHES = (Misalignment(), Misalignment(dx_mm=2.0), Misalignment(dx_mm=80.0))
# the phase each command needs; a fault absorbs them all
NEEDS = {"approach": ("idle", "aligned"), "start_lock": ("aligned",),
         "start_unlock": ("locked",)}
# the event that moves each phase on through the nominal cycle
NOMINAL = {"idle": "approach", "capturing": "tick", "aligned": "start_lock",
           "locking": "tick", "locked": "start_unlock", "unlocking": "tick", "fault": "reset"}


def _event(kind: str):
    if kind == "approach":
        return st.sampled_from(APPROACHES).map(lambda m: Event(kind, misalignment=m))
    if kind == "tick":
        dts = st.one_of(st.floats(0.01, 20.0), st.sampled_from((1.0, 5.0)))
        return dts.map(lambda dt: Event(kind, dt_s=dt))
    if kind == "inject_fault":
        return st.sampled_from(FAULT_KINDS).map(lambda k: Event(kind, fault_kind=k))
    return st.just(Event(kind))


any_event = st.sampled_from(EVENT_KINDS).flatmap(_event)
configs = st.builds(CouplingConfig, lock_duration_s=st.sampled_from((10.0, 15.0, 20.0)),
                    which_sides=st.sampled_from(SIDES))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(configs, st.data())
def test_phase_rules_hold_under_random_scripts(cfg, data):
    s = InterfaceState()
    for _ in range(data.draw(st.integers(0, 40))):
        # half the events move the nominal cycle on, so scripts reach every phase
        ev = data.draw(st.one_of(any_event, _event(NOMINAL[s.phase])))
        if s.phase != "fault" and s.phase not in NEEDS.get(ev.kind, (s.phase,)):
            with pytest.raises(ProtocolError):
                step(s, ev, ev.dt_s, cfg, P)
            continue
        nxt = step(s, ev, ev.dt_s, cfg, P)
        dt = ev.dt_s if ev.kind == "tick" else 0.0
        if ev.kind == "reset":
            assert nxt == InterfaceState()
        elif s.phase == "fault":  # absorbs all but reset; a tick only runs the clock
            assert nxt == replace(s, time_s=s.time_s + dt)
        else:
            assert nxt.time_s == s.time_s + dt
            if ev.kind == "approach":
                assert nxt.phase == ("capturing" if mate_feasible(P, ev.misalignment) else "idle")
        if nxt.phase in ("locking", "unlocking"):
            assert 0.0 <= nxt.progress_s < cfg.lock_duration_s
            assert nxt.sides_engaged == cfg.engaged_sides
        s = nxt
