"""Docked-module assemblies: kinematics, interface loads, power routing.

Modules expose ports; docking two ports runs the capture-feasibility check
and, when it passes, drives a fresh coupling FSM through approach, capture
and locking, leaving the new interface Locked with its power rails and data
channels bound. Port frames point +z outward along the approach axis, so a
mate relates world poses by T_wb = T_wa * P_a * RotX(pi) * P_b^-1.

Structure, power and data all flow over Locked interfaces only: a docked
but unlocked edge occupies its ports and nothing else.

Interface loads come from rigid quasi-static free-body analysis. That is
well-posed only when the locked subgraph carrying load is a tree with
exactly one anchor: loaded cycles and multi-anchored loaded components are
statically indeterminate in rigid theory and are rejected rather than
approximated. Each interface load is reported both in world frame and in
the interface frame (the parent-side port frame), where it is screened
against the interface load envelope with that edge's dual-lock state.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .bus import RAIL_RATINGS_W, ChannelSet, connect, shortest_path
from .coupling import CouplingConfig, Event, InterfaceState, step
from .errors import (
    IndeterminateError,
    NotConnectedError,
    ParameterError,
    PortInUseError,
    UnreachableError,
    UnsupportedError,
)
from .face import REFERENCE_PROFILE, Misalignment
from .loads import LoadEnvelope, LoadReport, Wrench, check_load

MODULE_KINDS = ("joint", "link", "end_effector", "facility_module", "truss_node")

GRAVITY_M_S2 = (0.0, 0.0, -9.81)

# exact half-turn about x: no trig roundoff in the mate relation
_ROTX_PI = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)

PortRef = tuple[str, str]  # (module_id, port_name)
EdgeKey = tuple[PortRef, PortRef]


# np.allclose's test |x - y| <= atol + rtol * |y| (rtol 1e-5), written out
# against these finite targets, where its isfinite(y) and x == y terms are moot
_LAST_ROW = np.array((0.0, 0.0, 0.0, 1.0))
_LAST_ROW_TOL = 1e-8 + 1e-5 * np.abs(_LAST_ROW)
_EYE3 = np.eye(3)
_EYE3_TOL = 1e-9 + 1e-5 * np.abs(_EYE3)


class Pose:
    """Immutable rigid transform (4x4 homogeneous).

    Every construction checks the matrix with np.allclose's tolerances: all
    entries finite, the bottom row within 1e-8 + 1e-5 * |target| of
    (0, 0, 0, 1), and R R^T within 1e-9 + 1e-5 * |target| of the identity
    (1e-9 off the diagonal, 1e-9 + 1e-5 on it). The inverse is built, and
    checked, once per pose.
    """

    __slots__ = ("_m", "_inv")

    def __init__(self, matrix):
        m = np.array(matrix, dtype=float)
        if m.shape != (4, 4):
            raise ParameterError("pose matrix must be 4x4")
        if not np.isfinite(m).all() or not (np.abs(m[3] - _LAST_ROW) <= _LAST_ROW_TOL).all():
            raise ParameterError("pose matrix is not a homogeneous transform")
        r = m[:3, :3]
        if not (np.abs(r @ r.T - _EYE3) <= _EYE3_TOL).all():
            raise ParameterError("pose rotation block is not orthonormal")
        m.flags.writeable = False
        self._m = m
        self._inv: Pose | None = None

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(4))

    @classmethod
    def from_xyz_rpy(cls, x=0.0, y=0.0, z=0.0, roll=0.0, pitch=0.0, yaw=0.0) -> "Pose":
        """Translation plus ZYX yaw-pitch-roll angles in radians."""
        cr, sr = math.cos(roll), math.sin(roll)
        cp, sp = math.cos(pitch), math.sin(pitch)
        cy, sy = math.cos(yaw), math.sin(yaw)
        rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
        ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
        rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
        m = np.eye(4)
        m[:3, :3] = rz @ ry @ rx
        m[:3, 3] = (x, y, z)
        return cls(m)

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    @property
    def translation(self) -> np.ndarray:
        return self._m[:3, 3]

    def inverse(self) -> "Pose":
        if self._inv is None:
            r = self._m[:3, :3]
            m = np.eye(4)
            m[:3, :3] = r.T
            m[:3, 3] = -r.T @ self._m[:3, 3]
            self._inv = Pose(m)
        return self._inv

    def __matmul__(self, other: "Pose") -> "Pose":
        return Pose(self._m @ other._m)

    def almost_equal(self, other: "Pose", tol: float = 1e-9) -> bool:
        """np.allclose(self, other, atol=tol), written out: other is finite."""
        return bool((np.abs(self._m - other._m) <= tol + 1e-5 * np.abs(other._m)).all())

    def __repr__(self) -> str:
        t = self.translation
        return f"Pose(t=({t[0]:.4g}, {t[1]:.4g}, {t[2]:.4g}))"


@dataclass(frozen=True)
class Port:
    """Docking port in the module frame; +z points outward."""

    name: str
    pose: Pose


@dataclass(frozen=True)
class Module:
    module_id: str
    kind: str
    ports: tuple[Port, ...]
    mass_kg: float = 1.0
    grounded: bool = False
    world_pose: Pose | None = None  # anchor pose; required iff grounded

    def validate(self) -> "Module":
        if not self.module_id:
            raise ParameterError("module_id must be non-empty")
        if self.kind not in MODULE_KINDS:
            raise ParameterError(f"kind must be one of {MODULE_KINDS}, got {self.kind!r}")
        if self.mass_kg < 0.0 or not math.isfinite(self.mass_kg):
            raise ParameterError("mass_kg must be finite and >= 0")
        names = [p.name for p in self.ports]
        if len(set(names)) != len(names):
            raise ParameterError("port names must be unique per module")
        if self.grounded != (self.world_pose is not None):
            raise ParameterError("world_pose must be given exactly for grounded modules")
        return self

    def port(self, name: str) -> Port:
        for p in self.ports:
            if p.name == name:
                return p
        raise ParameterError(f"module {self.module_id!r} has no port {name!r}")


def mate_world_pose(t_wa: Pose, port_a: Port, port_b: Port) -> Pose:
    """World pose of module b docked to module a: T_wa * P_a * RotX(pi) * P_b^-1."""
    return _mate(t_wa, port_a, port_b)[1]


def _mate(t_wa: Pose, port_a: Port, port_b: Port) -> tuple[np.ndarray, Pose]:
    """(a's port frame T_wa * P_a, b's world pose): the product runs left to right."""
    frame = t_wa.matrix @ port_a.pose.matrix
    return frame, Pose(frame @ _ROTX_PI @ port_b.pose.inverse().matrix)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of two 3-vectors: the same products and differences, the same bits."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))


def _check_rail(rail_v: float) -> None:
    if rail_v not in RAIL_RATINGS_W:
        raise ParameterError(f"rail_v must be {' or '.join(map(str, RAIL_RATINGS_W))}")


def _stroke(state: InterfaceState, command: str, cfg: CouplingConfig) -> InterfaceState:
    """Start a lock or unlock stroke and run it as one tick of the whole
    seconds it spans: the end state of one-second ticks, bit for bit."""
    dt = float(math.ceil(cfg.lock_duration_s))
    state = step(state, Event(command), 0.0, cfg, REFERENCE_PROFILE)
    return step(state, Event("tick", dt_s=dt), dt, cfg, REFERENCE_PROFILE)


def _wrench_from_vecs(f, m) -> Wrench:
    return Wrench(
        fx_n=float(f[0]), fy_n=float(f[1]), fz_n=float(f[2]),
        mx_nm=float(m[0]), my_nm=float(m[1]), mz_nm=float(m[2]),
    )


class EdgeInfo:
    """Per-interface state: coupling FSM and channels; both faces are REFERENCE_PROFILE."""

    def __init__(self, state: InterfaceState, config: CouplingConfig):
        self.state = state
        self.config = config
        self.channels: ChannelSet | None = None

    @property
    def locked(self) -> bool:
        return self.state.phase == "locked"

    @property
    def dual_lock(self) -> bool:
        return self.state.lock_capacity_factor > 1.0


@dataclass(frozen=True)
class DockReport:
    """Outcome of a dock attempt.

    Rejections come from the capture-feasibility check: the graph is left
    unchanged and reason says why.
    """

    accepted: bool
    edge: EdgeKey | None = None
    state: InterfaceState | None = None
    reason: str = ""


@dataclass(frozen=True)
class StepOutcome:
    index: int
    op: tuple
    applied: bool
    detail: str = ""
    stranded: tuple[str, ...] = ()


@dataclass(frozen=True)
class ReconfigureReport:
    """Per-step outcomes of a reconfiguration plan.

    Plans are not atomic: an aborted plan leaves every step before the
    violation applied (aborted_index is that step's position).
    """

    steps: tuple[StepOutcome, ...]
    completed: bool
    aborted_index: int | None = None


@dataclass(frozen=True)
class WrenchResult:
    """Interface loads keyed (parent end, child end), parent nearer ground.

    interface_loads are world-frame wrenches about the interface point:
    the load the child-side subtree hangs on the interface. local_loads
    express the same wrench in the parent-side port frame, and load_checks
    screens each one against the load envelope with that edge's dual-lock
    state. ground_reactions hold each anchor's world-frame reaction about
    its module origin.
    """

    interface_loads: dict[EdgeKey, Wrench]
    local_loads: dict[EdgeKey, Wrench]
    load_checks: dict[EdgeKey, LoadReport]
    ground_reactions: dict[str, Wrench]


@dataclass(frozen=True)
class PowerRoute:
    rail_v: float
    watts: float
    path: tuple[str, ...]
    grants: tuple[tuple[EdgeKey, int], ...]
    # the channels that issued each grant: grant ids restart on every new
    # connection, so a grant is only valid while its interface keeps them
    channels: tuple[ChannelSet, ...] = field(repr=False, compare=False)


class ModuleGraph:
    """Mutable assembly of docked modules.

    _docked holds every docked interface once per end: PortRef -> (peer
    PortRef, EdgeInfo), the two ends sharing one EdgeInfo, so either end
    finds the interface. Two indexes serve the walks. _locked is the index
    every traversal walks: module_id -> {port_name: peer PortRef} for
    Locked interfaces only, kept by add_module, dock, undock and unlock.
    Each module's dict is in dock order (an undocked port that docks again
    goes to the end), so walks visit modules in the same order as a filtered
    pass over _docked would. That order fixes the summation order of the
    interface loads and the order of the loop-closure checks, and with them
    the bytes of every wrench. _adjacent holds each module's Locked peer ids
    sorted, the neighbours every path search visits; it changes only where
    _locked does.
    """

    def __init__(self):
        self._modules: dict[str, Module] = {}
        self._docked: dict[PortRef, tuple[PortRef, EdgeInfo]] = {}
        self._locked: dict[str, dict[str, PortRef]] = {}
        self._adjacent: dict[str, tuple[str, ...]] = {}

    # --- construction -----------------------------------------------------

    def add_module(self, module: Module) -> None:
        module.validate()
        if module.module_id in self._modules:
            raise ParameterError(f"duplicate module id {module.module_id!r}")
        self._modules[module.module_id] = module
        self._locked[module.module_id] = {}
        self._adjacent[module.module_id] = ()

    def module(self, module_id: str) -> Module:
        mod = self._modules.get(module_id)
        if mod is None:
            raise ParameterError(f"no module {module_id!r}")
        return mod

    def modules(self) -> tuple[str, ...]:
        return tuple(self._modules)

    def dock(
        self,
        id_a: str,
        port_a: str,
        id_b: str,
        port_b: str,
        misalignment: Misalignment | None = None,
        config: CouplingConfig | None = None,
    ) -> DockReport:
        """Attempt a mate; on success the new interface ends up Locked.

        Precondition violations (unknown module or port, port already in
        use, self-dock) raise. An infeasible approach misalignment is a
        rejection, not an error: the graph is unchanged and the report
        carries the reason.
        """
        a, b = self.module(id_a), self.module(id_b)
        a.port(port_a), b.port(port_b)
        if id_a == id_b:
            raise ParameterError("a module cannot dock to itself")
        ref_a, ref_b = (id_a, port_a), (id_b, port_b)
        for ref in (ref_a, ref_b):
            if ref in self._docked:
                raise PortInUseError(f"port {ref} is already docked to {self._docked[ref][0]}")

        mis = misalignment if misalignment is not None else Misalignment()
        cfg = config if config is not None else CouplingConfig()
        prof = REFERENCE_PROFILE

        # fresh FSM; approach performs the capture-feasibility check
        state = step(InterfaceState(), Event("approach", misalignment=mis), 0.0, cfg, prof)
        if state.phase != "capturing":
            return DockReport(
                accepted=False,
                reason="approach misalignment is outside the capture envelope",
            )
        state = step(state, Event("tick", dt_s=1.0), 1.0, cfg, prof)  # -> aligned
        state = _stroke(state, "start_lock", cfg)

        info = EdgeInfo(state, cfg)
        info.channels = connect(state, rotation_slot=0)
        self._docked[ref_a] = (ref_b, info)
        self._docked[ref_b] = (ref_a, info)
        self._locked[id_a][port_a] = ref_b
        self._locked[id_b][port_b] = ref_a
        self._reindex(id_a)
        self._reindex(id_b)
        edge = (ref_a, ref_b) if ref_a < ref_b else (ref_b, ref_a)
        return DockReport(accepted=True, edge=edge, state=state)

    def undock(self, module_id: str, port_name: str) -> None:
        """Remove an interface; its channels drop and its grants vanish."""
        ref, peer, info = self._docked_at(module_id, port_name)
        if info.channels is not None:
            info.channels.disconnect()
        del self._docked[ref]
        del self._docked[peer]
        self._unindex(ref, peer)

    def unlock(self, module_id: str, port_name: str) -> InterfaceState:
        """Drive a locked interface back to aligned; channels drop."""
        ref, peer, info = self._docked_at(module_id, port_name)
        info.state = _stroke(info.state, "start_unlock", info.config)
        self._unindex(ref, peer)
        info.channels.disconnect()
        info.channels = None
        return info.state

    def _docked_at(self, module_id: str, port_name: str) -> tuple[PortRef, PortRef, EdgeInfo]:
        """(port, peer, interface) of a docked port."""
        ref = (module_id, port_name)
        entry = self._docked.get(ref)
        if entry is None:
            raise NotConnectedError(f"port {ref} is not docked")
        return (ref, *entry)

    def _unindex(self, ref: PortRef, peer: PortRef) -> None:
        self._locked[ref[0]].pop(ref[1], None)
        self._locked[peer[0]].pop(peer[1], None)
        self._reindex(ref[0])
        self._reindex(peer[0])

    def _reindex(self, module_id: str) -> None:
        self._adjacent[module_id] = tuple(sorted(
            {pid for pid, _ in self._locked[module_id].values()}
        ))

    def edges(self) -> tuple[EdgeKey, ...]:
        return tuple(sorted((ref, peer) for ref, (peer, _) in self._docked.items() if ref < peer))

    def locked_edges(self) -> tuple[EdgeKey, ...]:
        return tuple(sorted(
            ((mid, pname), peer)
            for mid, ports in self._locked.items()
            for pname, peer in ports.items()
            if (mid, pname) < peer
        ))

    def edge_info(self, edge: EdgeKey) -> EdgeInfo:
        """The interface between edge's two ports, named in either order."""
        entry = self._docked.get(edge[0]) if len(edge) == 2 else None
        if entry is None or entry[0] != edge[1]:
            raise NotConnectedError(f"interface {edge} is not docked")
        return entry[1]

    def interface_state(self, module_id: str, port_name: str) -> InterfaceState:
        return self._docked_at(module_id, port_name)[2].state

    # --- topology (duck-typed for frame transport) -------------------------

    def has_node(self, module_id: str) -> bool:
        return module_id in self._modules

    def neighbors(self, module_id: str) -> tuple[str, ...]:
        """Modules reachable over Locked interfaces only; KeyError if unknown."""
        return self._adjacent[module_id]

    def _walk(
        self, roots: Iterable[str], cut: frozenset = frozenset()
    ) -> Iterator[tuple[PortRef, PortRef, bool]]:
        """Breadth-first walk over Locked interfaces from roots.

        Yields (ref, peer, new) for every locked interface leaving a reached
        module, ports in dock order. new is True when the interface is the
        first to reach peer's module. Interfaces with an end in cut are not
        crossed.
        """
        queue = deque(roots)
        seen = set(queue)
        while queue:
            cur = queue.popleft()
            for pname, peer in self._locked[cur].items():
                ref = (cur, pname)
                if ref in cut:
                    continue
                new = peer[0] not in seen
                if new:
                    seen.add(peer[0])
                    queue.append(peer[0])
                yield ref, peer, new

    def _reached(self, root: str, cut: frozenset) -> Iterator[str]:
        """Modules the walk from root reaches, in walk order, root excluded."""
        return (peer[0] for _, peer, new in self._walk([root], cut) if new)

    def _forest(self) -> list[tuple[str, list[str], list]]:
        """Every component of the locked index, walked once.

        Returns (root, modules in walk order, walk steps) per component, in
        the order of each component's first module. An anchored component is
        walked from its lowest-id anchor, any other from its first module.
        """
        comp_of: dict[str, int] = {}
        walks = []
        anchors = sorted(mid for mid, mod in self._modules.items() if mod.grounded)
        for root in (*anchors, *self._modules):
            if root in comp_of:
                continue
            comp_of[root] = len(walks)
            comp, steps = [root], []
            for ref, peer, new in self._walk([root]):
                if new:
                    comp_of[peer[0]] = len(walks)
                    comp.append(peer[0])
                steps.append((ref, peer, new))
            walks.append((root, comp, steps))
        return [walks[i] for i in dict.fromkeys(comp_of[mid] for mid in self._modules)]

    # --- kinematics ---------------------------------------------------------

    def world_poses(self) -> dict[str, Pose]:
        """Propagate poses from anchors; loop closures must agree to 1e-6."""
        return self._place(self._forest())[0]

    def _place(self, forest) -> tuple[dict[str, Pose], dict[str, np.ndarray]]:
        """World poses of anchored components, and each posed module's
        parent-side port frame (the frame its pose was derived through).

        Each tree interface is derived once, from the module nearer the
        root. Seen again from the far side it would close on itself
        (RotX(pi) squared is the identity), so only loop-closing
        interfaces are derived a second time and checked.
        """
        poses: dict[str, Pose] = {}
        frames: dict[str, np.ndarray] = {}
        for root, _, steps in forest:
            if not self._modules[root].grounded:
                continue
            poses[root] = self._modules[root].world_pose
            reached_via: dict[str, str] = {}  # module -> port its pose came through
            for (cur, pname), (pid, ppname), new in steps:
                if reached_via.get(cur) == pname:
                    continue
                frame, t = _mate(
                    poses[cur],
                    self._modules[cur].port(pname),
                    self._modules[pid].port(ppname),
                )
                if not new:
                    if not poses[pid].almost_equal(t, tol=1e-6):
                        raise IndeterminateError(
                            f"loop through {pid!r} closes with inconsistent geometry"
                        )
                    continue
                declared = self._modules[pid]
                if declared.grounded and not declared.world_pose.almost_equal(t, 1e-6):
                    raise IndeterminateError(
                        f"anchored module {pid!r} disagrees with the docked chain"
                    )
                poses[pid] = t
                frames[pid] = frame
                reached_via[pid] = ppname
        return poses, frames

    # --- statics -------------------------------------------------------------

    def propagate_wrench(
        self,
        external: dict[str, Wrench] | None = None,
        gravity: tuple[float, float, float] | None = None,
        envelope: LoadEnvelope | None = None,
    ) -> WrenchResult:
        """Interface loads under external wrenches (applied at module origins).

        Every loaded component must be a Locked tree with exactly one
        anchor: loaded cycles and multi-anchored loaded components raise
        IndeterminateError, a loaded component with no anchor raises
        UnsupportedError. Unloaded components carry zero at every edge.
        Each edge wrench is re-expressed in the interface frame and checked
        against the load envelope with that edge's dual-lock state. A
        gravity that is not three finite numbers, and a ground reaction
        that is not finite, raise ParameterError.
        """
        external = dict(external or {})
        for mid in external:
            self.module(mid)
            external[mid].validate()
        if gravity is not None and not (
            np.shape(gravity) == (3,) and all(map(math.isfinite, gravity))
        ):
            raise ParameterError("gravity must be three finite numbers")

        forest = self._forest()
        poses, frames = self._place(forest)

        loads: dict[EdgeKey, Wrench] = {}
        local: dict[EdgeKey, Wrench] = {}
        reactions: dict[str, Wrench] = {}

        for root, comp, steps in forest:
            anchors = [m for m in comp if self._modules[m].grounded]
            loaded = any(
                mid in external and any(
                    v != 0.0 for v in (
                        external[mid].fx_n, external[mid].fy_n, external[mid].fz_n,
                        external[mid].mx_nm, external[mid].my_nm, external[mid].mz_nm,
                    )
                )
                for mid in comp
            ) or (
                gravity is not None and any(self._modules[m].mass_kg > 0.0 for m in comp)
            )
            if not loaded:
                # the walk meets every locked interface once from each end
                for edge in sorted((ref, peer) for ref, peer, _ in steps if ref < peer):
                    loads[edge] = Wrench()
                    local[edge] = Wrench()
                continue
            if len(steps) // 2 > len(comp) - 1:
                raise IndeterminateError(
                    f"loaded component {sorted(comp)} contains a locked cycle"
                )
            if not anchors:
                raise UnsupportedError(
                    f"loaded component {sorted(comp)} has no anchored module"
                )
            if len(anchors) > 1:
                raise IndeterminateError(
                    f"loaded component {sorted(comp)} is anchored {len(anchors)} times"
                )
            self._propagate_component(
                root, steps, external, gravity, poses, frames, loads, local, reactions
            )

        checks = {
            edge: check_load(
                local[edge],
                envelope=envelope,
                dual_lock=self._docked[edge[0]][1].dual_lock,
            )
            for edge in loads
        }
        for anchor, reaction in reactions.items():
            try:
                reaction.validate()
            except ParameterError:
                raise ParameterError(
                    f"ground reaction at anchor {anchor!r} is not finite"
                ) from None
        return WrenchResult(
            interface_loads=loads,
            local_loads=local,
            load_checks=checks,
            ground_reactions=reactions,
        )

    def _module_load(self, mid: str, external, gravity, poses) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(force, moment, application point) for one module, world frame."""
        w = external.get(mid, Wrench())
        f = np.array([w.fx_n, w.fy_n, w.fz_n])
        m = np.array([w.mx_nm, w.my_nm, w.mz_nm])
        if gravity is not None:
            f = f + self._modules[mid].mass_kg * np.array(gravity)
        return f, m, poses[mid].translation

    def _propagate_component(
        self, root, steps, external, gravity, poses, frames, loads, local, reactions
    ):
        # rooted tree from the anchor's walk: (parent end, child end) per module
        link: dict[str, tuple[PortRef, PortRef] | None] = {root: None}
        children: dict[str, list[str]] = {root: []}
        for pref, cref, new in steps:
            if new:
                link[cref[0]] = (pref, cref)
                children[pref[0]].append(cref[0])
                children[cref[0]] = []

        # bottom-up subtree sums: force, and moment about each edge point
        sub_f: dict[str, np.ndarray] = {}
        sub_m: dict[str, np.ndarray] = {}  # about the module's parent-edge point
        edge_pt: dict[str, np.ndarray] = {}
        for mid in reversed(link):
            f, m, p = self._module_load(mid, external, gravity, poses)
            if link[mid] is not None:
                pref, cref = link[mid]
                frame = frames[mid]  # parent-side port frame, formed deriving mid's pose
                edge_pt[mid] = frame[:3, 3]
            else:
                edge_pt[mid] = poses[mid].translation
            total_f = f.copy()
            total_m = m + _cross(p - edge_pt[mid], f)
            for cid in children[mid]:
                total_f += sub_f[cid]
                total_m += sub_m[cid] + _cross(edge_pt[cid] - edge_pt[mid], sub_f[cid])
            sub_f[mid] = total_f
            sub_m[mid] = total_m
            if link[mid] is not None:
                loads[(pref, cref)] = _wrench_from_vecs(total_f, total_m)
                # same wrench seen in the interface frame (parent-side port)
                rot = frame[:3, :3]
                local[(pref, cref)] = _wrench_from_vecs(rot.T @ total_f, rot.T @ total_m)
        reactions[root] = _wrench_from_vecs(-sub_f[root], -sub_m[root])

    # --- power routing --------------------------------------------------------

    def route_power(
        self, src: str, dst: str, watts: float, rail_v: float = 48.0
    ) -> PowerRoute | None:
        """Reserve watts on every interface from src to dst, atomically.

        The path runs over Locked interfaces. Returns None (and leaves no
        partial reservation) when any interface on the path lacks headroom.
        No locked path raises UnreachableError.
        """
        self.module(src)
        self.module(dst)
        _check_rail(rail_v)
        path = shortest_path(self.neighbors, src, dst)  # lowest module ids win ties
        if path is None:
            raise UnreachableError(f"no locked path from {src!r} to {dst!r}")
        # a zero-hop route requests no grant, so no bus would check watts
        if not (math.isfinite(watts) and watts > 0.0):
            raise ParameterError("watts must be positive and finite")
        grants: list[tuple[EdgeKey, int]] = []
        issuers: list[ChannelSet] = []
        for a, b in zip(path, path[1:]):
            ek = self._edge_between(a, b)
            channels = self._docked[ek[0]][1].channels
            gid = channels.buses[rail_v].request_power(watts)
            if gid is None:
                for issuer, (_, ggid) in zip(issuers, grants):
                    issuer.buses[rail_v].release_power(ggid)
                return None
            grants.append((ek, gid))
            issuers.append(channels)
        return PowerRoute(rail_v=rail_v, watts=watts, path=path, grants=tuple(grants),
                          channels=tuple(issuers))

    def release_route(self, route: PowerRoute) -> None:
        """Release every grant of the route.

        A grant on an interface that has since been undocked or unlocked went
        with its channels, also when the interface has been docked again
        (its new channels never issued the grant); the others are still
        released, and then NotConnectedError names the first interface that
        was gone.
        """
        gone = []
        for (ek, gid), issuer in zip(route.grants, route.channels):
            entry = self._docked.get(ek[0])
            if entry is None or entry[1].channels is not issuer:
                gone.append(ek)
            else:
                issuer.buses[route.rail_v].release_power(gid)
        if gone:
            raise NotConnectedError(f"interface {gone[0]} is no longer connected")

    def interface_allocation_w(self, edge: EdgeKey, rail_v: float = 48.0) -> float:
        info = self.edge_info(edge)
        _check_rail(rail_v)
        if info.channels is None:
            return 0.0
        return info.channels.buses[rail_v].allocated_w

    def power_allocations(self) -> tuple[tuple[EdgeKey, float, float], ...]:
        """(edge, rail_v, allocated_W) rows for every connected interface."""
        rows = []
        for edge in self.edges():
            info = self._docked[edge[0]][1]
            if info.channels is None:
                continue
            for rail_v in sorted(info.channels.buses, reverse=True):
                rows.append((edge, rail_v, info.channels.buses[rail_v].allocated_w))
        return tuple(rows)

    def _edge_between(self, id_a: str, id_b: str) -> EdgeKey:
        """The first Locked interface, in dock order, from id_a to id_b."""
        for pname, peer in self._locked[id_a].items():
            if peer[0] == id_b:
                ref = (id_a, pname)
                return (ref, peer) if ref < peer else (peer, ref)
        raise NotConnectedError(f"{id_a!r} and {id_b!r} share no locked interface")

    # --- reconfiguration --------------------------------------------------------

    def reconfigure(self, ops: list[tuple] | tuple[tuple, ...]) -> ReconfigureReport:
        """Execute dock/undock steps sequentially with per-step safety checks.

        Each op is ("dock", id_a, port_a, id_b, port_b[, misalignment]) or
        ("undock", id, port), a misalignment being a Misalignment. Op shapes
        are validated up front (raises ParameterError before anything is
        applied). During execution a step that violates dock/undock
        preconditions, is rejected by capture, or whose undock would strand
        modules from their anchor aborts the plan at that step; earlier
        steps stay applied. A relocation must therefore dock its new
        interface before undocking the old one, the way a walking robot
        moves.
        """
        ops = list(ops)
        for i, op in enumerate(ops):
            if not op or op[0] not in ("dock", "undock"):
                raise ParameterError(f"op {i}: expected ('dock', ...) or ('undock', ...)")
            if op[0] == "dock" and not (
                len(op) == 5 or len(op) == 6 and isinstance(op[5], Misalignment)
            ):
                raise ParameterError(
                    f"op {i}: dock takes (id_a, port_a, id_b, port_b[, misalignment])"
                )
            if op[0] == "undock" and len(op) != 3:
                raise ParameterError(f"op {i}: undock takes (id, port)")

        outcomes: list[StepOutcome] = []
        for i, op in enumerate(ops):
            outcomes.append(self._apply(i, op))
            if not outcomes[-1].applied:
                return ReconfigureReport(tuple(outcomes), completed=False, aborted_index=i)
        return ReconfigureReport(tuple(outcomes), completed=True)

    def _apply(self, i: int, op: tuple) -> StepOutcome:
        """Apply plan step i, or refuse it and leave the graph as it was."""
        if op[0] == "dock":
            try:
                report = self.dock(*op[1:5], misalignment=op[5] if len(op) == 6 else None)
            except (ParameterError, PortInUseError) as err:
                return StepOutcome(i, op, applied=False, detail=str(err))
            detail = "locked" if report.accepted else report.reason
            return StepOutcome(i, op, applied=report.accepted, detail=detail)
        try:
            ref = self._docked_at(*op[1:])[0]
        except NotConnectedError as err:
            return StepOutcome(i, op, applied=False, detail=str(err))
        stranded = self._would_strand(ref)
        if stranded:
            return StepOutcome(
                i, op, applied=False,
                detail="undock would strand modules from their anchor",
                stranded=tuple(sorted(stranded)),
            )
        self.undock(*ref)
        return StepOutcome(i, op, applied=True, detail="undocked")

    def _would_strand(self, ref: PortRef) -> set[str]:
        """Modules that lose anchor connectivity if this edge goes away.

        Walks from the two ends of the interface without crossing it, a
        module at a time from each. Ends that still reach each other, or
        sides that both reach an anchor, strand nothing. Otherwise one walk
        ends first and its side is split off whole: the side with no anchor
        is stranded if the other side has one.
        """
        peer = self._docked[ref][0]
        if self._locked[ref[0]].get(ref[1]) != peer:
            return set()
        cut = frozenset((ref, peer))
        ends = (ref[0], peer[0])
        walks = [self._reached(mid, cut) for mid in ends]
        sides = [{mid} for mid in ends]
        anchored = [self._modules[mid].grounded for mid in ends]
        i = 0
        while True:
            if all(anchored):
                return set()
            mid = next(walks[i], None)
            if mid is None:
                break
            if mid in sides[1 - i]:
                return set()
            sides[i].add(mid)
            anchored[i] = anchored[i] or self._modules[mid].grounded
            i = 1 - i
        # side i is whole and apart; walk the other side until it reaches an anchor
        j = 1 - i
        if not anchored[j]:
            for mid in walks[j]:
                sides[j].add(mid)
                if self._modules[mid].grounded:
                    anchored[j] = True
                    break
        if anchored[i] == anchored[j]:
            return set()
        return sides[j] if anchored[i] else sides[i]
