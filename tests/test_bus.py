"""Power and data bus tests.

The ledger-conservation test doubles as the oracle for the power model:
after any mix of grants and releases the allocation must equal the sum of
outstanding grants exactly, and never exceed the rating.
"""
import random

import pytest

from docksim.bus import (
    BASE_CONTACTS,
    FRAME_LIMITS_B,
    RAIL_RATINGS_W,
    ChannelSet,
    Delivery,
    Frame,
    PowerBus,
    connect,
    contact_ring,
    send_frame,
    shortest_path,
)
from docksim.coupling import CouplingConfig, Event, InterfaceState, step
from docksim.errors import (
    FramingError,
    NotConnectedError,
    ParameterError,
    ProtocolError,
    UnreachableError,
)
from docksim.face import Misalignment


class DictTopology:
    """Minimal adjacency for send_frame tests."""

    def __init__(self, adj):
        self.adj = {k: tuple(v) for k, v in adj.items()}

    def has_node(self, node):
        return node in self.adj

    def path(self, src, dst):
        return shortest_path(self.adj.__getitem__, src, dst)


LINE = DictTopology({"a": ["b"], "b": ["a", "c"], "c": ["b"]})


# ---------------------------------------------------------------- power


def test_rail_ratings():
    assert PowerBus(48.0).capacity_w == 500.0
    assert PowerBus(24.0).capacity_w == 50.0
    assert PowerBus(48.0).name == "main"
    assert PowerBus(24.0).name == "auxiliary"
    with pytest.raises(ParameterError):
        PowerBus(12.0)


def test_main_rail_edge_of_rating():
    bus = PowerBus(48.0)
    assert bus.request_power(500.0) is not None
    assert bus.allocated_w == 500.0
    bus2 = PowerBus(48.0)
    assert bus2.request_power(501.0) is None
    assert bus2.allocated_w == 0.0


def test_incremental_requests_deny_past_capacity():
    bus = PowerBus(48.0)
    assert bus.request_power(300.0) is not None
    assert bus.request_power(200.0) is not None
    assert bus.request_power(1.0) is None
    assert bus.allocated_w == 500.0


def test_aux_rail_cumulative_denial():
    # Worked example: 30 W granted, then 25 W denied (30 + 25 > 50).
    bus = PowerBus(24.0)
    assert bus.request_power(30.0) is not None
    assert bus.request_power(25.0) is None
    assert bus.allocated_w == 30.0


def test_release_returns_budget():
    bus = PowerBus(48.0)
    gid = bus.request_power(400.0)
    assert bus.request_power(200.0) is None
    bus.release_power(gid)
    assert bus.request_power(200.0) is not None


def test_double_release_rejected():
    bus = PowerBus(48.0)
    gid = bus.request_power(10.0)
    bus.release_power(gid)
    with pytest.raises(ParameterError):
        bus.release_power(gid)


def test_bad_watts_rejected():
    bus = PowerBus(48.0)
    for watts in (0.0, -5.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            bus.request_power(watts)


def test_disconnected_bus_refuses_service():
    channels = ChannelSet()
    bus = channels.buses[48.0]
    gid = bus.request_power(10.0)
    channels.disconnect()
    with pytest.raises(NotConnectedError):
        bus.request_power(10.0)
    with pytest.raises(NotConnectedError):
        bus.release_power(gid)


def test_ledger_conservation_random_ops():
    # 1000 random grant/release operations; allocation always equals the
    # sum of outstanding grants and never exceeds the rating.
    rng = random.Random(42)
    bus = PowerBus(48.0)
    live: dict[int, float] = {}
    for _ in range(1000):
        if live and rng.random() < 0.4:
            gid = rng.choice(sorted(live))
            bus.release_power(gid)
            del live[gid]
        else:
            watts = rng.uniform(1.0, 180.0)
            gid = bus.request_power(watts)
            if gid is not None:
                live[gid] = watts
        assert bus.allocated_w == pytest.approx(sum(live.values()), abs=1e-9)
        assert bus.allocated_w <= bus.capacity_w + 1e-9
    assert bus.grants().keys() == live.keys()


# ---------------------------------------------------------------- contacts


def test_contact_ring_is_three_repeats():
    ring = contact_ring()
    assert len(ring) == 3 * len(BASE_CONTACTS)
    assert ring[: len(BASE_CONTACTS)] == BASE_CONTACTS


@pytest.mark.parametrize("slot", [0, 1, 2, -2, 7])
def test_contact_map_invariant_under_slots(slot):
    # the ring turned by whole slots meets itself: mating at any slot lands
    # every contact on a peer of its own role
    ring = contact_ring()
    shift = slot * len(BASE_CONTACTS) % len(ring)
    assert ring[shift:] + ring[:shift] == ring


# ---------------------------------------------------------------- channels


def test_connect_requires_locked():
    locked = InterfaceState(phase="locked", sides_engaged=("A",))
    chans = connect(locked)
    assert set(chans.buses) == {48.0, 24.0}
    assert all(bus.connected for bus in chans.buses.values())
    for phase in ("idle", "capturing", "aligned", "locking", "unlocking"):
        sides = ("A",) if phase in ("locking", "unlocking") else ()
        with pytest.raises(NotConnectedError):
            connect(InterfaceState(phase=phase, sides_engaged=sides))


def test_channel_set_disconnect():
    chans = ChannelSet()
    chans.disconnect()
    assert not any(bus.connected for bus in chans.buses.values())
    with pytest.raises(NotConnectedError):
        chans.buses[48.0].request_power(10.0)


def test_availability_tracks_locked_over_random_history(reference_profile):
    # Drive the FSM through a random event log; connect must succeed
    # exactly when phase == locked at every state.
    rng = random.Random(9)
    cfg = CouplingConfig(lock_duration_s=10.0)
    state = InterfaceState()
    events = []
    kinds = ("approach", "tick", "start_lock", "start_unlock", "reset", "tick")
    for _ in range(300):
        kind = rng.choice(kinds)
        ev = (
            Event("approach", misalignment=Misalignment())
            if kind == "approach"
            else Event(kind, dt_s=rng.choice((0.5, 3.0, 11.0)) if kind == "tick" else 0.0)
        )
        events.append(ev)
    saw_locked = False
    for ev in events:
        try:
            state = step(state, ev, ev.dt_s, cfg, reference_profile)
        except ProtocolError:
            continue
        saw_locked = saw_locked or state.phase == "locked"
        if state.phase == "locked":
            assert set(connect(state).buses) == {48.0, 24.0}
        else:
            with pytest.raises(NotConnectedError):
                connect(state)
    assert saw_locked  # the random walk must actually exercise the locked phase


# ---------------------------------------------------------------- frames


def test_frame_limits():
    assert FRAME_LIMITS_B == {"can": 8, "ethernet": 1500}
    Frame("can", "a", "b", b"x" * 8)
    Frame("ethernet", "a", "b", b"x" * 1500)
    with pytest.raises(FramingError):
        Frame("can", "a", "b", b"x" * 9)
    with pytest.raises(FramingError):
        Frame("ethernet", "a", "b", b"x" * 1501)


def test_frame_field_validation():
    with pytest.raises(ParameterError):
        Frame("lin", "a", "b", b"")
    with pytest.raises(ParameterError):
        Frame("can", "a", "b", "text")
    with pytest.raises(ParameterError):
        Frame("can", "a", "b", b"", timestamp_s=-1.0)


def test_frame_purpose_follows_channel():
    assert Frame("can", "a", "b", b"\x01").purpose == "interlock"
    assert Frame("ethernet", "a", "b", b"\x01").purpose == "payload"


def test_send_frame_along_line():
    d = send_frame(Frame("ethernet", "a", "c", b"hello"), LINE)
    assert d == Delivery(path=("a", "b", "c"), hops=2, latency_s=0.002)


def test_send_frame_single_hop_latency():
    d = send_frame(Frame("can", "a", "b", b"\x01"), LINE)
    assert d.hops == 1
    assert d.latency_s == pytest.approx(0.001)


def test_send_frame_to_self():
    d = send_frame(Frame("can", "b", "b", b"\x01"), LINE)
    assert d.hops == 0 and d.latency_s == 0.0


def test_send_frame_unknown_node():
    with pytest.raises(NotConnectedError):
        send_frame(Frame("can", "a", "zz", b"\x01"), LINE)


def test_send_frame_no_path():
    split = DictTopology({"a": ["b"], "b": ["a"], "c": []})
    with pytest.raises(UnreachableError):
        send_frame(Frame("ethernet", "a", "c", b"x"), split)


def test_send_frame_validates_before_routing():
    with pytest.raises(FramingError):
        send_frame(Frame("can", "a", "c", b"x" * 20), LINE)
