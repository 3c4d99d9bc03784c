"""Assembly graph tests: docking, kinematics, statics, power, reconfiguration."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assembly_oracle import (
    make_random_tree,
    max_equilibrium_residual,
    perturbed_pose_matrix,
    reference_almost_equal,
    reference_pose_error,
)
from docksim import assembly
from docksim.assembly import (
    Module,
    ModuleGraph,
    Pose,
    Port,
    ReconfigureReport,
    StepOutcome,
    _cross,
    mate_world_pose,
)
from docksim.bus import Frame, send_frame
from docksim.coupling import SIDES, CouplingConfig, Event, InterfaceState, step
from docksim.errors import (
    IndeterminateError,
    NotConnectedError,
    ParameterError,
    PortInUseError,
    UnreachableError,
    UnsupportedError,
)
from docksim.face import REFERENCE_PROFILE, Misalignment
from docksim.loads import Wrench


def simple_module(mid, grounded=False, world=None, mass=0.0, nports=2):
    # ports along +x and -x, both facing outward (z outward after a 90 deg pitch)
    ports = [
        Port("px", Pose.from_xyz_rpy(x=1.0, pitch=math.pi / 2)),
        Port("nx", Pose.from_xyz_rpy(x=-1.0, pitch=-math.pi / 2)),
        Port("pz", Pose.from_xyz_rpy(z=1.0)),
    ]
    return Module(
        module_id=mid,
        kind="link",
        ports=tuple(ports[:nports]),
        mass_kg=mass,
        grounded=grounded,
        world_pose=world,
    )


def twin_module(mid, grounded=False, world=None):
    # simple_module's x ports, each with a coincident twin: a parallel pair closes exactly
    ports = simple_module(mid).ports
    twins = tuple(Port(p.name + "2", p.pose) for p in ports)
    return Module(mid, "link", ports + twins, mass_kg=0.0, grounded=grounded, world_pose=world)


def dock_ok(g, *args, **kwargs):
    report = g.dock(*args, **kwargs)
    assert report.accepted, report.reason
    return report.edge


NOT_4X4 = "pose matrix must be 4x4"
NOT_HOMOGENEOUS = "pose matrix is not a homogeneous transform"
NOT_ORTHONORMAL = "pose rotation block is not orthonormal"


def pose_error(matrix):
    """Message Pose raises for matrix, or None when it accepts it."""
    try:
        Pose(matrix)
    except ParameterError as err:
        return str(err)
    return None


def last_within(x, ok, toward=math.inf):
    """The last float, stepping from near x toward `toward`, for which ok holds."""
    back = -math.inf if toward > x else math.inf
    while not ok(x):
        x = np.nextafter(x, back)
    while ok(np.nextafter(x, toward)):
        x = np.nextafter(x, toward)
    return x


class TestPose:
    def test_identity_round_trip(self):
        p = Pose.from_xyz_rpy(1.0, 2.0, 3.0, 0.1, -0.2, 0.3)
        assert (p @ p.inverse()).almost_equal(Pose.identity())
        assert (p.inverse() @ p).almost_equal(Pose.identity())

    def test_translation(self):
        p = Pose.from_xyz_rpy(4.0, -5.0, 6.0)
        assert np.allclose(p.translation, (4.0, -5.0, 6.0))

    def test_rejects_nonorthonormal(self):
        m = np.eye(4)
        m[0, 0] = 2.0
        with pytest.raises(ParameterError):
            Pose(m)

    def test_rejects_bad_bottom_row(self):
        m = np.eye(4)
        m[3, 0] = 1.0
        with pytest.raises(ParameterError):
            Pose(m)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3), (3, 4), (16,), (4, 4, 1), (5, 5)])
    def test_shape_message(self, shape):
        assert pose_error(np.zeros(shape)) == NOT_4X4

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_message(self, value):
        for i in range(4):
            for j in range(4):
                m = np.eye(4)
                m[i, j] = value
                assert pose_error(m) == NOT_HOMOGENEOUS, (i, j)

    @pytest.mark.parametrize("j", range(4))
    def test_bottom_row_tolerance_edge(self, j):
        # np.allclose defaults: |x - y| <= 1e-8 + 1e-5 * |y|
        y = 1.0 if j == 3 else 0.0
        tol = 1e-8 + 1e-5 * abs(y)
        for toward in (math.inf, -math.inf):
            x = last_within(y + math.copysign(tol, toward), lambda x: abs(x - y) <= tol, toward)
            m = np.eye(4)
            m[3, j] = x
            assert pose_error(m) is None
            m[3, j] = np.nextafter(x, toward)
            assert pose_error(m) == NOT_HOMOGENEOUS

    def test_rotation_off_diagonal_tolerance_edge(self):
        # R = I + e at (0, 1): (R R^T)[0, 1] is e exactly, against 1e-9
        for sign in (1.0, -1.0):
            m = np.eye(4)
            m[0, 1] = sign * 1e-9
            assert pose_error(m) is None
            m[0, 1] = np.nextafter(sign * 1e-9, sign * math.inf)
            assert pose_error(m) == NOT_ORTHONORMAL

    def test_rotation_diagonal_tolerance_edge(self):
        # R = diag(s, 1, 1): (R R^T)[0, 0] is s * s, against 1e-9 + 1e-5
        tol = 1e-9 + 1e-5
        for start, toward in ((math.sqrt(1.0 + tol), 2.0), (math.sqrt(1.0 - tol), 0.0)):
            s = last_within(start, lambda s: abs(s * s - 1.0) <= tol, toward)
            m = np.eye(4)
            m[0, 0] = s
            assert pose_error(m) is None
            m[0, 0] = np.nextafter(s, toward)
            assert pose_error(m) == NOT_ORTHONORMAL

    def test_verdicts_match_allclose_reference(self):
        rng = random.Random(20260)
        verdicts = set()
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(4000):
                m = perturbed_pose_matrix(rng)
                expected = reference_pose_error(m)
                assert pose_error(m) == expected, m
                verdicts.add(expected)
        assert verdicts == {None, NOT_HOMOGENEOUS, NOT_ORTHONORMAL}

    def test_almost_equal_matches_allclose_reference(self):
        rng = random.Random(20261)
        outcomes = set()
        for _ in range(3000):
            a = Pose.from_xyz_rpy(
                *(10.0 ** rng.uniform(-3.0, 4.0) * rng.choice((-1.0, 1.0)) for _ in range(3)),
                rng.uniform(-3.0, 3.0), rng.uniform(-1.4, 1.4), rng.uniform(-3.0, 3.0),
            )
            tol = rng.choice((1e-9, 1e-6))
            m = a.matrix.copy()
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(3)
                if rng.random() < 0.5:
                    # translation entry near the edge tol + 1e-5 * |b|
                    edge = tol + 1e-5 * abs(m[i, 3])
                    m[i, 3] += rng.choice((-1.0, 1.0)) * edge * rng.uniform(0.98, 1.02)
                else:
                    m[i, rng.randrange(3)] += rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-13, -10)
            b = Pose(m)
            for x, y in ((a, b), (b, a)):
                expected = reference_almost_equal(x, y, tol)
                assert x.almost_equal(y, tol) == expected
                outcomes.add(expected)
        assert outcomes == {True, False}

    def test_cross_matches_numpy_bytes(self):
        rng = np.random.default_rng(7)
        vecs = [rng.normal(size=3) * 10.0 ** rng.uniform(-6, 6) for _ in range(500)]
        vecs += [np.array([0.0, -0.0, 1.0]), np.array([-0.0, -0.0, -0.0]),
                 np.array([1e300, -1e300, 1e-300]), np.array([1.7e308, 1e200, -1e160])]
        with np.errstate(over="ignore", invalid="ignore"):
            for a in vecs:
                for b in vecs[-8:] + [vecs[len(vecs) // 2]]:
                    assert _cross(a, b).tobytes() == np.cross(a, b).tobytes(), (a, b)


class TestMateTransform:
    def test_port_frames_coincide_flipped(self):
        a = simple_module("a")
        b = simple_module("b")
        t_wa = Pose.from_xyz_rpy(0.5, 0.0, 0.0, yaw=0.3)
        t_wb = mate_world_pose(t_wa, a.port("px"), b.port("nx"))
        pa_w = t_wa @ a.port("px").pose
        pb_w = t_wb @ b.port("nx").pose
        # same origin, opposed z axes
        assert np.allclose(pa_w.translation, pb_w.translation, atol=1e-12)
        assert np.allclose(pa_w.matrix[:3, 2], -pb_w.matrix[:3, 2], atol=1e-12)

    def test_axial_chain_positions(self):
        g = ModuleGraph()
        g.add_module(simple_module("g0", grounded=True, world=Pose.identity()))
        g.add_module(simple_module("g1"))
        g.add_module(simple_module("g2"))
        dock_ok(g, "g0", "px", "g1", "nx")
        dock_ok(g, "g1", "px", "g2", "nx")
        poses = g.world_poses()
        assert np.allclose(poses["g1"].translation, (2.0, 0.0, 0.0), atol=1e-12)
        assert np.allclose(poses["g2"].translation, (4.0, 0.0, 0.0), atol=1e-12)


class TestDocking:
    def test_dock_leaves_interface_locked(self):
        g = ModuleGraph()
        g.add_module(simple_module("a"))
        g.add_module(simple_module("b"))
        report = g.dock("a", "px", "b", "nx")
        assert report.accepted
        state = g.interface_state("a", "px")
        assert state.phase == "locked"
        assert state.sides_engaged == ("A",)

    def test_dock_with_gross_offset_rejected(self):
        # 80 mm lateral offset: the funnel cannot catch; graph unchanged
        g = ModuleGraph()
        g.add_module(simple_module("a"))
        g.add_module(simple_module("b"))
        report = g.dock("a", "px", "b", "nx", misalignment=Misalignment(dx_mm=80.0))
        assert not report.accepted
        assert "capture" in report.reason
        assert g.edges() == ()
        dock_ok(g, "a", "px", "b", "nx")  # ports stayed free

    def test_dock_feasible_offset_accepted(self):
        g = ModuleGraph()
        g.add_module(simple_module("a"))
        g.add_module(simple_module("b"))
        report = g.dock("a", "px", "b", "nx", misalignment=Misalignment(dx_mm=3.0))
        assert report.accepted
        assert report.state.phase == "locked"

    def test_dual_lock_config_engages_both_sides(self):
        g = ModuleGraph()
        g.add_module(simple_module("a"))
        g.add_module(simple_module("b"))
        dock_ok(g, "a", "px", "b", "nx", config=CouplingConfig(which_sides="both"))
        state = g.interface_state("a", "px")
        assert state.sides_engaged == ("A", "B")
        assert state.lock_capacity_factor == 1.5

    def test_unlock_drops_edge_from_connectivity(self):
        g = ModuleGraph()
        g.add_module(simple_module("a"))
        g.add_module(simple_module("b"))
        dock_ok(g, "a", "px", "b", "nx")
        assert g.neighbors("a") == ("b",)
        state = g.unlock("a", "px")
        assert state.phase == "aligned"
        assert g.neighbors("a") == ()
        assert g.edges() != ()  # still docked, ports still in use
        assert g.locked_edges() == ()


def one_second_strokes(cfg):
    """(locked, unlocked) states of a dock and its unlock, each stroke
    stepped by hand one second at a time."""
    tick = Event("tick", dt_s=1.0)
    state = step(InterfaceState(), Event("approach", misalignment=Misalignment()), 0.0,
                 cfg, REFERENCE_PROFILE)
    state = step(state, tick, 1.0, cfg, REFERENCE_PROFILE)
    strokes = []
    for command, phase in (("start_lock", "locking"), ("start_unlock", "unlocking")):
        state = step(state, Event(command), 0.0, cfg, REFERENCE_PROFILE)
        while state.phase == phase:
            state = step(state, tick, 1.0, cfg, REFERENCE_PROFILE)
        strokes.append(state)
    return tuple(strokes)


def check_strokes(duration, sides):
    cfg = CouplingConfig(lock_duration_s=duration, which_sides=sides)
    locked, unlocked = one_second_strokes(cfg)
    assert (locked.phase, unlocked.phase) == ("locked", "aligned")
    g = ModuleGraph()
    g.add_module(simple_module("a"))
    g.add_module(simple_module("b"))
    report = g.dock("a", "px", "b", "nx", config=cfg)
    # repr tells every float bit apart, the sign of zero too
    assert repr(report.state) == repr(locked)
    assert repr(g.edge_info(report.edge).state) == repr(locked)
    assert repr(g.unlock("b", "nx")) == repr(unlocked)
    assert repr(g.edge_info(report.edge).state) == repr(unlocked)


class TestLockStroke:
    @pytest.mark.parametrize("sides", SIDES)
    @pytest.mark.parametrize("duration", (10.0, 12.5, 15.0, 19.999999999, 20.0))
    def test_states_match_one_second_ticks(self, duration, sides):
        check_strokes(duration, sides)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.floats(10.0, 20.0), st.sampled_from(SIDES))
    def test_drawn_durations_match_one_second_ticks(self, duration, sides):
        check_strokes(duration, sides)

    @pytest.mark.parametrize("duration", (10.0, 12.5, 15.0, 20.0))
    def test_step_counts(self, duration, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[1].kind)
            return step(*args)

        monkeypatch.setattr(assembly, "step", counted)
        cfg = CouplingConfig(lock_duration_s=duration)
        g = ModuleGraph()
        for mid in ("a", "b", "c"):
            g.add_module(simple_module(mid))
        dock_ok(g, "a", "px", "b", "nx", config=cfg)
        assert len(calls) == 4
        calls.clear()
        report = g.dock("b", "px", "c", "nx", misalignment=Misalignment(dx_mm=80.0))
        assert not report.accepted
        assert calls == ["approach"]
        calls.clear()
        g.unlock("a", "px")
        assert calls == ["start_unlock", "tick"]


class TestGraphEditing:
    def test_duplicate_module_rejected(self):
        g = ModuleGraph()
        g.add_module(simple_module("a"))
        with pytest.raises(ParameterError):
            g.add_module(simple_module("a"))

    def test_port_in_use(self):
        g = ModuleGraph()
        for mid in ("a", "b", "c"):
            g.add_module(simple_module(mid))
        dock_ok(g, "a", "px", "b", "nx")
        with pytest.raises(PortInUseError):
            g.dock("a", "px", "c", "nx")

    def test_self_dock_rejected(self):
        g = ModuleGraph()
        g.add_module(simple_module("a"))
        with pytest.raises(ParameterError):
            g.dock("a", "px", "a", "nx")

    def test_undock_round_trip_restores_graph(self):
        g = ModuleGraph()
        g.add_module(simple_module("a"))
        g.add_module(simple_module("b"))
        edge = dock_ok(g, "a", "px", "b", "nx")
        before = g.edges()
        g.undock("a", "px")
        assert g.edges() == ()
        # round trip: same edge comes back (FSM elapsed time aside)
        assert dock_ok(g, "a", "px", "b", "nx") == edge
        assert g.edges() == before
        assert g.interface_state("a", "px").phase == "locked"

    def test_undock_not_connected(self):
        g = ModuleGraph()
        g.add_module(simple_module("a"))
        with pytest.raises(NotConnectedError):
            g.undock("a", "px")

    def test_edge_info_needs_the_two_ports_docked_to_each_other(self):
        # a.px and c.nx are both docked, each to b: no interface joins them
        g = ModuleGraph()
        for mid in ("a", "b", "c"):
            g.add_module(simple_module(mid))
        dock_ok(g, "a", "px", "b", "nx")
        dock_ok(g, "b", "px", "c", "nx")
        edge = (("a", "px"), ("c", "nx"))
        with pytest.raises(NotConnectedError, match=r"^interface .* is not docked$"):
            g.edge_info(edge)
        with pytest.raises(NotConnectedError, match=r"^interface .* is not docked$"):
            g.interface_allocation_w(edge)

    def test_edge_info_of_an_unlocked_interface_from_either_end(self):
        g = ModuleGraph()
        g.add_module(simple_module("a"))
        g.add_module(simple_module("b"))
        dock_ok(g, "a", "px", "b", "nx")
        g.unlock("b", "nx")
        info = g.edge_info((("a", "px"), ("b", "nx")))
        assert g.edge_info((("b", "nx"), ("a", "px"))) is info
        assert not info.locked and info.state.phase == "aligned"
        assert info.channels is None
        assert g.interface_allocation_w((("b", "nx"), ("a", "px"))) == 0.0

    def test_module_validation(self):
        with pytest.raises(ParameterError):
            Module("x", "widget", ()).validate()
        with pytest.raises(ParameterError):
            Module("x", "link", (), grounded=True).validate()
        with pytest.raises(ParameterError):
            Module(
                "x", "link",
                (Port("p", Pose.identity()), Port("p", Pose.identity())),
            ).validate()


class TestWorldPoses:
    def test_floating_component_unposed(self):
        g = ModuleGraph()
        g.add_module(simple_module("a"))
        assert g.world_poses() == {}

    def test_inconsistent_loop_rejected(self):
        g = ModuleGraph()
        g.add_module(simple_module("a", grounded=True, world=Pose.identity(), nports=3))
        g.add_module(simple_module("b", nports=3))
        dock_ok(g, "a", "px", "b", "nx")
        # a second dock whose geometry cannot close: pz ports are nowhere near
        dock_ok(g, "a", "pz", "b", "pz")
        with pytest.raises(IndeterminateError):
            g.world_poses()

    def test_consistent_parallel_lock_accepted(self):
        g = ModuleGraph()
        g.add_module(twin_module("a", grounded=True, world=Pose.identity()))
        g.add_module(twin_module("b"))
        dock_ok(g, "a", "px", "b", "nx")
        dock_ok(g, "a", "px2", "b", "nx2")
        poses = g.world_poses()
        assert np.allclose(poses["b"].translation, (2.0, 0.0, 0.0), atol=1e-12)

    def test_anchor_disagreeing_with_chain_rejected(self):
        g = ModuleGraph()
        g.add_module(simple_module("a", grounded=True, world=Pose.identity()))
        g.add_module(simple_module("b", grounded=True, world=Pose.from_xyz_rpy(x=2.5, roll=math.pi)))
        dock_ok(g, "a", "px", "b", "nx")
        with pytest.raises(IndeterminateError, match="anchored module 'b' disagrees with the "
                                                     "docked chain"):
            g.world_poses()

    def test_anchor_agreeing_with_chain_accepted(self):
        g = ModuleGraph()
        g.add_module(simple_module("a", grounded=True, world=Pose.identity()))
        # docked px to nx, b sits 2 m along x, turned half a turn about x
        g.add_module(simple_module("b", grounded=True, world=Pose.from_xyz_rpy(x=2.0, roll=math.pi)))
        dock_ok(g, "a", "px", "b", "nx")
        assert set(g.world_poses()) == {"a", "b"}

    @pytest.mark.parametrize("pair_at,derived", [(None, 199), (100, 201)])
    def test_each_tree_interface_derived_once(self, pair_at, derived, monkeypatch):
        g = ModuleGraph()
        for i in range(200):
            g.add_module(twin_module(f"m{i}", grounded=i == 0,
                                     world=Pose.identity() if i == 0 else None))
            if i:
                dock_ok(g, f"m{i - 1}", "px", f"m{i}", "nx")
        if pair_at is not None:
            # a locked parallel interface closes a loop, checked from both ends
            dock_ok(g, f"m{pair_at}", "px2", f"m{pair_at + 1}", "nx2")
        calls = []
        mate = assembly._mate  # every derivation: (port frame, world pose)

        def counting(*args):
            calls.append(args)
            return mate(*args)

        monkeypatch.setattr(assembly, "_mate", counting)
        poses = g.world_poses()
        assert len(calls) == derived
        assert len(poses) == 200


class TestPropagateWrench:
    def test_hand_checked_single_edge(self):
        g = ModuleGraph()
        g.add_module(simple_module("g", grounded=True, world=Pose.identity()))
        g.add_module(simple_module("h"))
        dock_ok(g, "g", "px", "h", "nx")
        res = g.propagate_wrench({"h": Wrench(fz_n=-10.0)})
        edge = (("g", "px"), ("h", "nx"))
        w = res.interface_loads[edge]
        assert w.fz_n == pytest.approx(-10.0, abs=1e-12)
        # force acts at (2,0,0), interface sits at (1,0,0): arm +x 1 m
        assert w.my_nm == pytest.approx(10.0, abs=1e-12)
        assert w.mx_nm == pytest.approx(0.0, abs=1e-12)
        r = res.ground_reactions["g"]
        assert r.fz_n == pytest.approx(10.0, abs=1e-12)
        assert r.my_nm == pytest.approx(-20.0, abs=1e-12)

    def test_local_frame_load_and_check(self):
        # px port frame: local z = world +x, so a world -z force at the tip
        # is pure lateral shear plus bending in the interface frame
        g = ModuleGraph()
        g.add_module(simple_module("g", grounded=True, world=Pose.identity()))
        g.add_module(simple_module("h"))
        edge = dock_ok(g, "g", "px", "h", "nx")
        res = g.propagate_wrench({"h": Wrench(fz_n=-10.0)})
        rot = (Pose.identity() @ simple_module("g").port("px").pose).matrix[:3, :3]
        f_loc = rot.T @ np.array([0.0, 0.0, -10.0])
        lw = res.local_loads[edge]
        assert np.allclose((lw.fx_n, lw.fy_n, lw.fz_n), f_loc, atol=1e-12)
        assert abs(lw.fz_n) < 1e-12  # no traction: force is normal to the axis
        assert math.hypot(lw.mx_nm, lw.my_nm) == pytest.approx(10.0, abs=1e-12)
        rep = res.load_checks[edge]
        assert rep.ok
        assert rep.utilization["bending"] == pytest.approx(10.0 / 500.0, rel=1e-12)

    def test_axial_pull_is_pure_traction(self):
        # pulling the child along world +x is traction along the px port axis
        g = ModuleGraph()
        g.add_module(simple_module("g", grounded=True, world=Pose.identity()))
        g.add_module(simple_module("h"))
        edge = dock_ok(g, "g", "px", "h", "nx")
        res = g.propagate_wrench({"h": Wrench(fx_n=3000.0)})
        lw = res.local_loads[edge]
        assert abs(lw.fz_n) == pytest.approx(3000.0, abs=1e-9)
        assert math.hypot(lw.fx_n, lw.fy_n) < 1e-9
        rep = res.load_checks[edge]
        assert rep.utilization["traction"] == pytest.approx(1.0, rel=1e-12)
        assert rep.ok

    def test_dual_lock_raises_edge_capacity(self):
        g = ModuleGraph()
        g.add_module(simple_module("g", grounded=True, world=Pose.identity()))
        g.add_module(simple_module("h"))
        edge = dock_ok(g, "g", "px", "h", "nx", config=CouplingConfig(which_sides="both"))
        res = g.propagate_wrench({"h": Wrench(fx_n=4000.0)})
        assert res.load_checks[edge].ok  # 4000 < 1.5 * 3000
        g2 = ModuleGraph()
        g2.add_module(simple_module("g", grounded=True, world=Pose.identity()))
        g2.add_module(simple_module("h"))
        edge2 = dock_ok(g2, "g", "px", "h", "nx")
        assert not g2.propagate_wrench({"h": Wrench(fx_n=4000.0)}).load_checks[edge2].ok

    def test_two_link_bending_example(self):
        # tip force F on a two-link chain: root interface sees F * 3 m,
        # outboard interface F * 1 m
        g = ModuleGraph()
        g.add_module(simple_module("g0", grounded=True, world=Pose.identity()))
        g.add_module(simple_module("g1"))
        g.add_module(simple_module("g2"))
        e01 = dock_ok(g, "g0", "px", "g1", "nx")
        e12 = dock_ok(g, "g1", "px", "g2", "nx")
        res = g.propagate_wrench({"g2": Wrench(fz_n=-100.0)})
        m01 = res.local_loads[e01]
        m12 = res.local_loads[e12]
        assert math.hypot(m01.mx_nm, m01.my_nm) == pytest.approx(300.0, rel=1e-12)
        assert math.hypot(m12.mx_nm, m12.my_nm) == pytest.approx(100.0, rel=1e-12)
        assert res.load_checks[e01].utilization["bending"] == pytest.approx(0.6, rel=1e-12)

    def test_gravity_loads_mass(self):
        g = ModuleGraph()
        g.add_module(simple_module("g", grounded=True, world=Pose.identity()))
        g.add_module(simple_module("h", mass=2.0))
        dock_ok(g, "g", "px", "h", "nx")
        res = g.propagate_wrench(gravity=(0.0, 0.0, -9.81))
        w = res.interface_loads[(("g", "px"), ("h", "nx"))]
        assert w.fz_n == pytest.approx(-19.62, rel=1e-12)

    def test_cycle_rejected(self):
        g = ModuleGraph()
        for mid in ("a", "b", "c"):
            g.add_module(simple_module(mid, grounded=(mid == "a"),
                                       world=Pose.identity() if mid == "a" else None,
                                       nports=3))
        dock_ok(g, "a", "px", "b", "nx")
        dock_ok(g, "b", "px", "c", "nx")
        dock_ok(g, "c", "pz", "a", "pz")
        with pytest.raises(IndeterminateError):
            g.propagate_wrench({"b": Wrench(fz_n=-1.0)})

    def test_double_anchor_rejected(self):
        g = ModuleGraph()
        g.add_module(simple_module("a", grounded=True, world=Pose.identity()))
        g.add_module(
            simple_module("b", grounded=True,
                          world=mate_world_pose(Pose.identity(),
                                                simple_module("a").port("px"),
                                                simple_module("b").port("nx")))
        )
        dock_ok(g, "a", "px", "b", "nx")
        with pytest.raises(IndeterminateError):
            g.propagate_wrench({"b": Wrench(fx_n=1.0)})

    def test_loaded_floating_rejected(self):
        g = ModuleGraph()
        g.add_module(simple_module("a", mass=1.5))
        g.add_module(simple_module("b"))
        dock_ok(g, "a", "px", "b", "nx")
        with pytest.raises(UnsupportedError):
            g.propagate_wrench({"a": Wrench(fx_n=1.0)})
        with pytest.raises(UnsupportedError):
            g.propagate_wrench(gravity=(0.0, 0.0, -9.81), external={})

    def test_unloaded_floating_is_zero(self):
        g = ModuleGraph()
        g.add_module(simple_module("a"))
        g.add_module(simple_module("b"))
        dock_ok(g, "a", "px", "b", "nx")
        res = g.propagate_wrench()
        assert all(w == Wrench() for w in res.interface_loads.values())
        assert all(rep.ok for rep in res.load_checks.values())

    def readme_pair(self, arm_mass=0.0):
        # the README's two-module graph
        g = ModuleGraph()
        g.add_module(Module("base", "truss_node", ports=(Port("p", Pose.from_xyz_rpy(z=1.0)),),
                            grounded=True, world_pose=Pose.identity()))
        g.add_module(Module("arm", "link", ports=(Port("p", Pose.from_xyz_rpy(z=-1.0)),),
                            mass_kg=arm_mass))
        dock_ok(g, "base", "p", "arm", "p")
        return g

    def test_overflowing_anchor_reaction_names_the_anchor(self):
        # the interface carries arm's finite 1e308 N; base's own load overflows the sum
        g = self.readme_pair()
        with np.errstate(over="ignore"), pytest.raises(
            ParameterError, match="^ground reaction at anchor 'base' is not finite$"
        ):
            g.propagate_wrench({"base": Wrench(fz_n=1e308), "arm": Wrench(fz_n=1e308)})
        res = g.propagate_wrench({"base": Wrench(fz_n=1e308), "arm": Wrench(fz_n=-1e308)})
        assert res.ground_reactions["base"] == Wrench()

    @pytest.mark.parametrize("gravity", [
        (0.0, 0.0), (0.0, 0.0, -9.81, 0.0), -9.81, (math.nan, 0.0, -9.81),
        (0.0, math.inf, 0.0), (0.0, 0.0, -math.inf),
    ])
    def test_gravity_must_be_three_finite_numbers(self, gravity):
        for arm_mass in (0.0, 2.0):
            g = self.readme_pair(arm_mass)
            with pytest.raises(ParameterError, match="^gravity must be three finite numbers$"):
                g.propagate_wrench(gravity=gravity)

    def test_random_trees_match_free_body_oracle(self):
        rng = random.Random(2024)
        for _ in range(15):
            g, external, gravity = make_random_tree(rng)
            res = g.propagate_wrench(external, gravity)
            assert max_equilibrium_residual(g, res, external, gravity) < 1e-9

    def test_random_trees_with_unlocked_parallel_pairs_match_oracle(self):
        rng = random.Random(2025)
        pairs = 0
        for _ in range(15):
            g, external, gravity = make_random_tree(rng, unlocked_pairs=True)
            pairs += len(g.edges()) - len(g.locked_edges())
            res = g.propagate_wrench(external, gravity)
            assert max_equilibrium_residual(g, res, external, gravity) < 1e-9
        assert pairs > 0

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_drawn_trees_match_free_body_oracle(self, rng, unlocked_pairs):
        # the tree is drawn from Hypothesis data, so a failing one shrinks
        g, external, gravity = make_random_tree(rng, unlocked_pairs=unlocked_pairs)
        res = g.propagate_wrench(external, gravity)
        assert max_equilibrium_residual(g, res, external, gravity) < 1e-9

    def test_oracle_ignores_unlocked_parallel_interface(self):
        # the unlocked a.px-b.nx must not join b's side to the anchor
        g = ModuleGraph()
        g.add_module(simple_module("a", grounded=True, world=Pose.identity(), mass=1.0, nports=3))
        g.add_module(simple_module("b", mass=1.0, nports=3))
        g.add_module(simple_module("c", mass=1.0))
        dock_ok(g, "a", "px", "b", "nx")
        dock_ok(g, "a", "pz", "b", "pz")
        g.unlock("a", "px")
        dock_ok(g, "b", "px", "c", "nx")
        res = g.propagate_wrench(gravity=(0.0, 0.0, -9.81))
        assert max_equilibrium_residual(g, res, {}, (0.0, 0.0, -9.81)) < 1e-9


class TestRoutePower:
    def chain(self):
        g = ModuleGraph()
        g.add_module(simple_module("a", grounded=True, world=Pose.identity()))
        g.add_module(simple_module("b"))
        g.add_module(simple_module("c"))
        dock_ok(g, "a", "px", "b", "nx")
        dock_ok(g, "b", "px", "c", "nx")
        return g

    def test_route_reserves_every_hop(self):
        g = self.chain()
        route = g.route_power("a", "c", 300.0)
        assert route is not None
        assert route.path == ("a", "b", "c")
        for edge in g.edges():
            assert g.interface_allocation_w(edge) == 300.0

    def test_rollback_on_midpath_denial(self):
        g = self.chain()
        bc = g._edge_between("b", "c")
        ab = g._edge_between("a", "b")
        assert g.route_power("b", "c", 300.0) is not None
        denied = g.route_power("a", "c", 250.0)  # second hop would exceed 500
        assert denied is None
        assert g.interface_allocation_w(ab) == 0.0  # first-hop grant rolled back
        assert g.interface_allocation_w(bc) == 300.0

    def test_release_route(self):
        g = self.chain()
        route = g.route_power("a", "c", 400.0)
        g.release_route(route)
        for edge in g.edges():
            assert g.interface_allocation_w(edge) == 0.0

    def test_release_after_a_hop_is_unlocked_frees_the_others(self):
        # the a-b grant went with the unlocked interface; b-c's must not leak
        g = self.chain()
        route = g.route_power("a", "c", 100.0)
        g.unlock("a", "px")
        with pytest.raises(NotConnectedError, match="no longer connected"):
            g.release_route(route)
        assert sum(w for _, _, w in g.power_allocations()) == 0.0

    def test_stale_route_leaves_a_redocked_interface_alone(self):
        # grant ids start over on the new b-c connection: the old route's
        # id there must not free the new route's grant
        g = self.chain()
        bc = g._edge_between("b", "c")
        old = g.route_power("a", "c", 100.0)
        g.unlock("a", "px")
        g.undock("b", "px")
        dock_ok(g, "b", "px", "c", "nx")
        new = g.route_power("b", "c", 200.0)
        assert [gid for _, gid in old.grants] == [1, 1] and new.grants == ((bc, 1),)
        with pytest.raises(NotConnectedError, match="no longer connected"):
            g.release_route(old)
        assert g.interface_allocation_w(bc) == 200.0
        g.release_route(new)
        assert sum(w for _, _, w in g.power_allocations()) == 0.0

    def test_no_path(self):
        g = self.chain()
        g.add_module(simple_module("z"))
        with pytest.raises(UnreachableError):
            g.route_power("a", "z", 10.0)

    def test_unlocked_interface_blocks_power(self):
        g = self.chain()
        g.unlock("b", "px")
        with pytest.raises(UnreachableError):
            g.route_power("a", "c", 10.0)

    def test_route_skips_unlocked_parallel_interface(self):
        # a and b share two interfaces; the first one listed is unlocked
        g = ModuleGraph()
        g.add_module(simple_module("a", grounded=True, world=Pose.identity(), nports=3))
        g.add_module(simple_module("b", nports=3))
        dock_ok(g, "a", "px", "b", "nx")
        live = dock_ok(g, "a", "pz", "b", "pz")
        g.unlock("a", "px")
        route = g.route_power("a", "b", 10.0)
        assert route is not None
        assert [ek for ek, _ in route.grants] == [live]
        g.release_route(route)
        assert sum(w for _, _, w in g.power_allocations()) == 0.0

    def test_self_route_is_trivial(self):
        g = self.chain()
        route = g.route_power("a", "a", 10.0)
        assert route.grants == ()

    @pytest.mark.parametrize("watts", [math.nan, -5.0, 0.0, math.inf])
    def test_bad_watts_rejected_with_or_without_hops(self, watts):
        g = self.chain()
        for dst in ("a", "c"):
            with pytest.raises(ParameterError, match=r"^watts must be positive and finite$"):
                g.route_power("a", dst, watts)
        assert sum(w for _, _, w in g.power_allocations()) == 0.0

    def test_24v_rail(self):
        g = self.chain()
        assert g.route_power("a", "c", 50.0, rail_v=24.0) is not None
        assert g.route_power("a", "c", 1.0, rail_v=24.0) is None

    def test_bad_rail(self):
        with pytest.raises(ParameterError):
            self.chain().route_power("a", "c", 10.0, rail_v=12.0)

    def test_allocation_on_a_bad_rail_is_the_route_error(self):
        g = self.chain()
        with pytest.raises(ParameterError, match=r"^rail_v must be 48\.0 or 24\.0$"):
            g.route_power("a", "c", 10.0, rail_v=12.0)
        g.unlock("b", "px")  # an unlocked interface has no rails to read either
        for edge in g.edges():
            with pytest.raises(ParameterError, match=r"^rail_v must be 48\.0 or 24\.0$"):
                g.interface_allocation_w(edge, 12.0)

    def test_power_allocations_rows(self):
        g = self.chain()
        g.route_power("a", "c", 120.0)
        rows = g.power_allocations()
        assert len(rows) == 4  # two edges x two rails
        by_rail = {(edge, rail): w for edge, rail, w in rows}
        for edge in g.edges():
            assert by_rail[(edge, 48.0)] == 120.0
            assert by_rail[(edge, 24.0)] == 0.0


class TestFrameTransport:
    def test_frames_cross_the_assembly(self):
        g = ModuleGraph()
        g.add_module(simple_module("a", grounded=True, world=Pose.identity()))
        g.add_module(simple_module("b"))
        g.add_module(simple_module("c"))
        dock_ok(g, "a", "px", "b", "nx")
        dock_ok(g, "b", "px", "c", "nx")
        d = send_frame(Frame("can", "a", "c", b"intlk"), g)
        assert d.path == ("a", "b", "c")
        assert d.latency_s == pytest.approx(0.002)

    def test_unlocked_middle_interface_unreachable(self):
        # three-module chain; unlocking the middle interface cuts traffic
        g = ModuleGraph()
        g.add_module(simple_module("a", grounded=True, world=Pose.identity()))
        g.add_module(simple_module("b"))
        g.add_module(simple_module("c"))
        dock_ok(g, "a", "px", "b", "nx")
        dock_ok(g, "b", "px", "c", "nx")
        g.unlock("b", "px")
        with pytest.raises(UnreachableError):
            send_frame(Frame("ethernet", "a", "c", b"payload"), g)
        # the still-locked hop keeps working
        assert send_frame(Frame("ethernet", "a", "b", b"payload"), g).hops == 1


class TestReconfigure:
    def walker(self):
        g = ModuleGraph()
        g.add_module(simple_module("base", grounded=True, world=Pose.identity(), nports=3))
        g.add_module(simple_module("foot", nports=3))
        dock_ok(g, "base", "px", "foot", "nx")
        return g

    def test_dock_before_undock_passes(self):
        g = self.walker()
        report = g.reconfigure([
            ("dock", "base", "pz", "foot", "pz"),
            ("undock", "base", "px"),
        ])
        assert report.completed
        assert [s.applied for s in report.steps] == [True, True]
        assert g.edges() == ((("base", "pz"), ("foot", "pz")),)

    def test_undock_first_aborts_with_stranding_report(self):
        g = self.walker()
        before = g.edges()
        report = g.reconfigure([
            ("undock", "base", "px"),
            ("dock", "base", "pz", "foot", "pz"),
        ])
        assert not report.completed
        assert report.aborted_index == 0
        assert report.steps[0].stranded == ("foot",)
        assert g.edges() == before  # violating step was not applied

    def test_abort_keeps_prefix_applied(self):
        # step 0 applies; step 1 violates; plan stops with step 0 in place
        g = self.walker()
        report = g.reconfigure([
            ("dock", "base", "pz", "foot", "pz"),
            ("undock", "foot", "px"),  # not docked: precondition violation
            ("undock", "base", "px"),  # never reached
        ])
        assert not report.completed
        assert report.aborted_index == 1
        assert len(report.steps) == 2
        assert report.steps[0].applied and not report.steps[1].applied
        assert (("base", "pz"), ("foot", "pz")) in g.edges()  # prefix stayed
        assert (("base", "px"), ("foot", "nx")) in g.edges()  # step 2 never ran

    def test_bad_op_shape_rejected_upfront(self):
        g = self.walker()
        before = g.edges()
        with pytest.raises(ParameterError):
            g.reconfigure([("dock", "base", "pz")])
        with pytest.raises(ParameterError):
            g.reconfigure([("undock", "base", "px"), ("teleport", "foot")])
        assert g.edges() == before  # shape errors reject the whole plan

    def test_bad_misalignment_rejected_upfront(self):
        # a sixth dock element that is not a Misalignment is a shape error:
        # the valid step before it is not applied either
        g = self.walker()
        before = g.edges()
        with pytest.raises(ParameterError, match=r"^op 1: dock takes"):
            g.reconfigure([
                ("dock", "base", "pz", "foot", "pz"),
                ("dock", "base", "nx", "foot", "px", "oops"),
            ])
        assert g.edges() == before

    def test_dock_onto_busy_port_aborts(self):
        g = self.walker()
        before = g.edges()
        report = g.reconfigure([("dock", "base", "px", "foot", "pz")])
        assert not report.completed
        assert "already docked" in report.steps[0].detail
        assert g.edges() == before

    def test_infeasible_dock_step_aborts(self):
        g = self.walker()
        report = g.reconfigure([
            ("dock", "base", "pz", "foot", "pz", Misalignment(dx_mm=80.0)),
        ])
        assert not report.completed
        assert "capture" in report.steps[0].detail

    # Every outcome a plan step can have, pinned whole: applied, detail,
    # stranded, and where the plan stopped.

    def test_outcome_of_a_dock_that_raises(self):
        g = self.walker()
        op = ("dock", "base", "px", "foot", "pz")
        assert g.reconfigure([op]) == ReconfigureReport(
            steps=(StepOutcome(0, op, applied=False,
                               detail="port ('base', 'px') is already docked to ('foot', 'nx')"),),
            completed=False, aborted_index=0,
        )
        op = ("dock", "base", "pz", "ghost", "pz")
        assert g.reconfigure([op]).steps == (
            StepOutcome(0, op, applied=False, detail="no module 'ghost'"),
        )

    def test_outcome_of_a_dock_that_capture_rejects(self):
        g = self.walker()
        ok = ("dock", "base", "pz", "foot", "pz")
        op = ("dock", "base", "nx", "foot", "px", Misalignment(dx_mm=80.0))
        assert g.reconfigure([ok, op]) == ReconfigureReport(
            steps=(
                StepOutcome(0, ok, applied=True, detail="locked"),
                StepOutcome(1, op, applied=False,
                            detail="approach misalignment is outside the capture envelope"),
            ),
            completed=False, aborted_index=1,
        )

    def test_outcome_of_an_undock_of_a_free_port(self):
        g = self.walker()
        op = ("undock", "foot", "px")
        assert g.reconfigure([op]) == ReconfigureReport(
            steps=(StepOutcome(0, op, applied=False, detail="port ('foot', 'px') is not docked"),),
            completed=False, aborted_index=0,
        )

    def test_outcome_of_an_undock_that_strands(self):
        g = self.walker()
        op = ("undock", "foot", "nx")
        assert g.reconfigure([op]) == ReconfigureReport(
            steps=(StepOutcome(0, op, applied=False,
                               detail="undock would strand modules from their anchor",
                               stranded=("foot",)),),
            completed=False, aborted_index=0,
        )

    def test_outcomes_of_a_completed_relocation(self):
        g = self.walker()
        dock, undock = ("dock", "foot", "pz", "base", "pz"), ("undock", "foot", "nx")
        assert g.reconfigure([dock, undock]) == ReconfigureReport(
            steps=(
                StepOutcome(0, dock, applied=True, detail="locked"),
                StepOutcome(1, undock, applied=True, detail="undocked"),
            ),
            completed=True, aborted_index=None,
        )
        assert g.edges() == ((("base", "pz"), ("foot", "pz")),)
