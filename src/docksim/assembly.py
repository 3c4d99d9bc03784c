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

import functools
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
    ProtocolError,
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

    def __post_init__(self):
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


# dock's defaults; both are frozen, so every dock can share them
_NO_MISALIGNMENT = Misalignment()
_DEFAULT_CONFIG = CouplingConfig()
# entries in each of a graph's two FSM memos
_FSM_RUNS = 1_024


def _stroke(state: InterfaceState, command: str, cfg: CouplingConfig) -> InterfaceState:
    """Start a lock or unlock stroke and run it as one tick of the whole
    seconds it spans: the end state of one-second ticks, bit for bit."""
    dt = float(math.ceil(cfg.lock_duration_s))
    state = step(state, Event(command), 0.0, cfg, REFERENCE_PROFILE)
    return step(state, Event("tick", dt_s=dt), dt, cfg, REFERENCE_PROFILE)


def _docking(mis: Misalignment, cfg: CouplingConfig) -> InterfaceState:
    """The state a fresh FSM reaches from an approach at mis: Locked, or
    the refused approach when mis is outside the capture envelope."""
    # approach performs the capture-feasibility check
    state = step(InterfaceState(), Event("approach", misalignment=mis), 0.0, cfg,
                 REFERENCE_PROFILE)
    if state.phase != "capturing":
        return state
    state = step(state, Event("tick", dt_s=1.0), 1.0, cfg, REFERENCE_PROFILE)  # -> aligned
    return _stroke(state, "start_lock", cfg)


def _wrench_from_vecs(f, m) -> Wrench:
    return Wrench(
        fx_n=float(f[0]), fy_n=float(f[1]), fz_n=float(f[2]),
        mx_nm=float(m[0]), my_nm=float(m[1]), mz_nm=float(m[2]),
    )


class EdgeInfo:
    """Per-interface state: coupling FSM and channels; both faces are REFERENCE_PROFILE.

    Built Locked with its channels bound; only ModuleGraph.unlock and
    ModuleGraph.undock change either, both through _drop.
    """

    def __init__(self, state: InterfaceState, config: CouplingConfig):
        self._state = state
        self.config = config
        self._channels: ChannelSet | None = connect(state)

    @property
    def state(self) -> InterfaceState:
        return self._state

    @property
    def channels(self) -> ChannelSet | None:
        return self._channels

    @property
    def locked(self) -> bool:
        return self._state.phase == "locked"

    @property
    def dual_lock(self) -> bool:
        return self._state.lock_capacity_factor > 1.0

    def _drop(self, state: InterfaceState) -> None:
        """Move to state, which is not Locked; the channels go down and away."""
        if self._channels is not None:
            self._channels.disconnect()
        self._state, self._channels = state, None


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


class _Forest:
    """One walk of the Locked forest: the only place the Locked topology is
    derived, from the walk alone and never from the geometry.

    Each component is walked once, from its lowest-id anchor if it has one,
    else from its first module, and every index is filled as each walk step
    arrives. walks holds (root, modules in walk order, walk steps) per
    component, in the order of each component's first module. Per module:
    link, the (parent end, child end) interface that first reached it (None
    at its component's root), its depth, its component, and adjacent, its
    sorted Locked peer ids (the walk meets every Locked interface from both
    ends). looped holds the components whose distinct-neighbour graph has a
    loop. placed is ModuleGraph._place's result, kept only once it has
    succeeded.
    """

    __slots__ = ("walks", "link", "depth", "component", "adjacent", "looped", "placed")

    def __init__(self, graph: ModuleGraph):
        self.link: dict[str, tuple[PortRef, PortRef] | None] = {}
        self.depth: dict[str, int] = {}
        self.component: dict[str, int] = {}
        self.adjacent: dict[str, tuple[str, ...]] = {}
        self.looped: set[int] = set()
        self.placed: tuple[dict[str, Pose], dict[str, np.ndarray]] | None = None
        walks = []
        anchors = sorted(mid for mid, mod in graph._modules.items() if mod.grounded)
        for root in (*anchors, *graph._modules):
            if root in self.component:
                continue
            k = len(walks)
            self.link[root], self.depth[root], self.component[root] = None, 0, k
            steps, peers = [], {root: set()}  # peers: the component in walk order
            for ref, peer, new in graph._walk([root]):
                peers[ref[0]].add(peer[0])
                if new:
                    self.link[peer[0]] = (ref, peer)
                    self.depth[peer[0]] = self.depth[ref[0]] + 1
                    self.component[peer[0]] = k
                    peers[peer[0]] = set()
                steps.append((ref, peer, new))
            walks.append((root, list(peers), steps))
            self.adjacent.update((m, tuple(sorted(p))) for m, p in peers.items())
            # a tree of n modules has n - 1 neighbour pairs, each listed twice
            if sum(map(len, peers.values())) > 2 * (len(peers) - 1):
                self.looped.add(k)
        self.walks = [walks[k] for k in dict.fromkeys(map(self.component.get, graph._modules))]


class ModuleGraph:
    """Mutable assembly of docked modules.

    _ports holds every docked interface once per end: module_id ->
    {port_name: (peer PortRef, EdgeInfo)}, the two ends sharing one
    EdgeInfo, so either end finds the interface. Each module's dict is in
    dock order (an undocked port that docks again goes to the end). The
    walks cross only the interfaces whose own state is Locked, in that
    order, which fixes the summation order of the interface loads and the
    order of the loop-closure checks, and with them the bytes of every
    wrench.

    _cache is the single derived state of the graph: one walk of the Locked
    forest (a _Forest, which walks and records each module's link, depth,
    component and Locked peers in one pass), shared by neighbours, paths,
    world poses and statics. Every dock, unlock, undock and add_module
    drops it, and the next query that needs it walks again.

    _docked and _stroked are a separate memo of pure FSM runs, which no
    edit ever drops: the state a fresh FSM reaches from (misalignment,
    config), and the state a stroke reaches from (state, command, config).
    Their keys compare by value and the states they hold are frozen, so
    docks share them; coupling.step runs only on a miss. Each graph has
    its own, bounded (least recently used first out).
    """

    def __init__(self):
        self._modules: dict[str, Module] = {}
        self._ports: dict[str, dict[str, tuple[PortRef, EdgeInfo]]] = {}
        self._cache: _Forest | None = None
        self._docked = functools.lru_cache(maxsize=_FSM_RUNS)(_docking)
        self._stroked = functools.lru_cache(maxsize=_FSM_RUNS)(_stroke)

    # --- construction -----------------------------------------------------

    def add_module(self, module: Module) -> None:
        if module.module_id in self._modules:
            raise ParameterError(f"duplicate module id {module.module_id!r}")
        self._modules[module.module_id] = module
        self._ports[module.module_id] = {}
        self._cache = None

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
        carries the reason. Only then is the fresh FSM run from the
        approach to Locked, or to the refusal, and only the first time this
        graph sees the (misalignment, config); the state is shared, the new
        interface and its channels are not.
        """
        a, b = self.module(id_a), self.module(id_b)
        a.port(port_a), b.port(port_b)
        if id_a == id_b:
            raise ParameterError("a module cannot dock to itself")
        ref_a, ref_b = (id_a, port_a), (id_b, port_b)
        for ref in (ref_a, ref_b):
            if self._end(ref) is not None:
                raise PortInUseError(f"port {ref} is already docked to {self._end(ref)[0]}")

        mis = misalignment if misalignment is not None else _NO_MISALIGNMENT
        cfg = config if config is not None else _DEFAULT_CONFIG
        state = self._docked(mis, cfg)
        if state.phase != "locked":
            return DockReport(
                accepted=False,
                reason="approach misalignment is outside the capture envelope",
            )

        info = EdgeInfo(state, cfg)
        self._ports[id_a][port_a] = (ref_b, info)
        self._ports[id_b][port_b] = (ref_a, info)
        self._cache = None
        edge = (ref_a, ref_b) if ref_a < ref_b else (ref_b, ref_a)
        return DockReport(accepted=True, edge=edge, state=state)

    def undock(self, module_id: str, port_name: str) -> None:
        """Remove an interface; its channels drop and its grants vanish.

        An EdgeInfo held from before reads idle with no channels, the state
        a dock starts from.
        """
        ref, peer, info = self._docked_at(module_id, port_name)
        info._drop(InterfaceState())
        del self._ports[ref[0]][ref[1]]
        del self._ports[peer[0]][peer[1]]
        self._cache = None

    def unlock(self, module_id: str, port_name: str) -> InterfaceState:
        """Drive a locked interface back to aligned; channels drop.

        Any other phase raises ProtocolError and leaves the interface as it
        was. The stroke runs only the first time this graph unlocks that
        (Locked state, config).
        """
        info = self._docked_at(module_id, port_name)[2]
        if not info.locked:  # a faulted FSM would absorb the stroke, not refuse it
            raise ProtocolError(f"start_unlock requires locked, not {info.state.phase}")
        info._drop(self._stroked(info.state, "start_unlock", info.config))
        self._cache = None
        return info.state

    def _end(self, ref: PortRef) -> tuple[PortRef, EdgeInfo] | None:
        """(peer, interface) of a docked port, None if the port is not docked."""
        return self._ports.get(ref[0], {}).get(ref[1])

    def _docked_at(self, module_id: str, port_name: str) -> tuple[PortRef, PortRef, EdgeInfo]:
        """(port, peer, interface) of a docked port."""
        ref = (module_id, port_name)
        entry = self._end(ref)
        if entry is None:
            raise NotConnectedError(f"port {ref} is not docked")
        return (ref, *entry)

    def edges(self) -> tuple[EdgeKey, ...]:
        return tuple(sorted(
            ((mid, pname), peer)
            for mid, ports in self._ports.items()
            for pname, (peer, _) in ports.items()
            if (mid, pname) < peer
        ))

    def locked_edges(self) -> tuple[EdgeKey, ...]:
        return tuple(e for e in self.edges() if self.edge_info(e).locked)

    def edge_info(self, edge: EdgeKey) -> EdgeInfo:
        """The interface between edge's two ports, named in either order."""
        entry = self._end(edge[0]) if len(edge) == 2 else None
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
        return self._walked().adjacent[module_id]

    def path(self, src: str, dst: str) -> tuple[str, ...] | None:
        """Fewest-hop path from src to dst over Locked interfaces, None if
        there is none; KeyError if either module is unknown.

        The path is the one shortest_path finds over neighbors. On a
        component without loops it is the only simple path, so it climbs
        the cached walk from both ends to their lowest common ancestor;
        only a component with a loop is searched breadth-first, where the
        lowest module ids win ties.
        """
        forest = self._walked()
        k = forest.component[src]
        if forest.component[dst] != k:
            return None
        if k in forest.looped:
            return shortest_path(self.neighbors, src, dst)
        link, depth = forest.link, forest.depth
        up, down = [src], [dst]
        while depth[up[-1]] > depth[down[-1]]:
            up.append(link[up[-1]][0][0])
        while depth[down[-1]] > depth[up[-1]]:
            down.append(link[down[-1]][0][0])
        while up[-1] != down[-1]:
            up.append(link[up[-1]][0][0])
            down.append(link[down[-1]][0][0])
        return (*up, *reversed(down[:-1]))

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
            for pname, (peer, info) in self._ports[cur].items():
                ref = (cur, pname)
                if not info.locked or ref in cut:
                    continue
                new = peer[0] not in seen
                if new:
                    seen.add(peer[0])
                    queue.append(peer[0])
                yield ref, peer, new

    def _reached(self, root: str, cut: frozenset) -> Iterator[str]:
        """Modules the walk from root reaches, in walk order, root excluded."""
        return (peer[0] for _, peer, new in self._walk([root], cut) if new)

    def _walked(self) -> _Forest:
        """The cached walk; after the graph changed, a new _Forest walks it again."""
        if self._cache is None:
            self._cache = _Forest(self)
        return self._cache

    def _placed(self) -> tuple[dict[str, Pose], dict[str, np.ndarray]]:
        """_place of the cached walk; an error is raised again on every call."""
        forest = self._walked()
        if forest.placed is None:
            forest.placed = self._place(forest)
        return forest.placed

    # --- kinematics ---------------------------------------------------------

    def world_poses(self) -> dict[str, Pose]:
        """Propagate poses from anchors; loop closures must agree to 1e-6."""
        return dict(self._placed()[0])

    def _place(self, forest: _Forest) -> tuple[dict[str, Pose], dict[str, np.ndarray]]:
        """World poses of anchored components, and each posed module's
        parent-side port frame (the frame its pose was derived through).

        Each tree interface is derived once, from the module nearer the
        root. Seen again from the far side, the reverse of the far module's
        own link, it would close on itself (RotX(pi) squared is the
        identity), so only loop-closing interfaces are derived a second
        time and checked.
        """
        poses: dict[str, Pose] = {}
        frames: dict[str, np.ndarray] = {}
        for root, _, steps in forest.walks:
            if not self._modules[root].grounded:
                continue
            poses[root] = self._modules[root].world_pose
            for (cur, pname), (pid, ppname), new in steps:
                if forest.link[cur] == ((pid, ppname), (cur, pname)):
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
        gravity that is not three finite numbers, a ground reaction that is
        not finite, and a check_load refusal raise ParameterError; the
        refusal's message names its interface first. Each loaded component
        is summed here in place, bottom-up over the cached walk: modules in
        reverse walk order, each one's children in walk order.
        """
        external = dict(external or {})
        for mid in external:
            self.module(mid)
        if gravity is not None and not (
            np.shape(gravity) == (3,) and all(map(math.isfinite, gravity))
        ):
            raise ParameterError("gravity must be three finite numbers")

        forest = self._walked()
        poses, frames = self._placed()

        loads: dict[EdgeKey, Wrench] = {}
        local: dict[EdgeKey, Wrench] = {}
        reactions: dict[str, Wrench] = {}

        zero = Wrench()
        link = forest.link
        for _, comp, steps in forest.walks:
            anchors = [m for m in comp if self._modules[m].grounded]
            loaded = any(mid in external and external[mid] != zero for mid in comp) or (
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
            # rooted tree of the anchor's walk, children in walk order
            root = comp[0]
            children: dict[str, list[str]] = {m: [] for m in comp}
            for mid in comp[1:]:
                children[link[mid][0][0]].append(mid)

            # bottom-up subtree sums: force, and moment about each module's edge
            # point; a sum past the float range is caught as a non-finite Wrench
            sub_f: dict[str, np.ndarray] = {}
            sub_m: dict[str, np.ndarray] = {}
            edge_pt: dict[str, np.ndarray] = {}
            with np.errstate(over="ignore", invalid="ignore"):
                for mid in reversed(comp):
                    w = external.get(mid, zero)
                    f = np.array([w.fx_n, w.fy_n, w.fz_n])
                    if gravity is not None:
                        f = f + self._modules[mid].mass_kg * np.array(gravity)
                    p = poses[mid].translation
                    edge_pt[mid] = p if link[mid] is None else frames[mid][:3, 3]
                    m = np.array([w.mx_nm, w.my_nm, w.mz_nm]) + _cross(p - edge_pt[mid], f)
                    for cid in children[mid]:
                        f += sub_f[cid]
                        m += sub_m[cid] + _cross(edge_pt[cid] - edge_pt[mid], sub_f[cid])
                    sub_f[mid], sub_m[mid] = f, m
                    if link[mid] is not None:
                        loads[link[mid]] = _wrench_from_vecs(f, m)
                        # same wrench seen in the interface frame (parent-side port)
                        rot = frames[mid][:3, :3]
                        local[link[mid]] = _wrench_from_vecs(rot.T @ f, rot.T @ m)
            try:  # f and m now hold the anchor's subtree sums
                reactions[root] = _wrench_from_vecs(-f, -m)
            except ParameterError:
                raise ParameterError(f"ground reaction at anchor {root!r} is not finite") from None

        checks = {}
        for edge in loads:
            try:
                checks[edge] = check_load(
                    local[edge],
                    envelope=envelope,
                    dual_lock=self._end(edge[0])[1].dual_lock,
                )
            except ParameterError as exc:
                raise ParameterError(f"interface {edge}: {exc}") from None
        return WrenchResult(
            interface_loads=loads,
            local_loads=local,
            load_checks=checks,
            ground_reactions=reactions,
        )

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
        path = self.path(src, dst)
        if path is None:
            raise UnreachableError(f"no locked path from {src!r} to {dst!r}")
        # a zero-hop route requests no grant, so no bus would check watts
        if not (math.isfinite(watts) and watts > 0.0):
            raise ParameterError("watts must be positive and finite")
        grants: list[tuple[EdgeKey, int]] = []
        issuers: list[ChannelSet] = []
        for a, b in zip(path, path[1:]):
            ek = self._edge_between(a, b)
            channels = self._end(ek[0])[1].channels
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
            entry = self._end(ek[0])
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
            info = self._end(edge[0])[1]
            if info.channels is None:
                continue
            for rail_v in sorted(info.channels.buses, reverse=True):
                rows.append((edge, rail_v, info.channels.buses[rail_v].allocated_w))
        return tuple(rows)

    def _edge_between(self, id_a: str, id_b: str) -> EdgeKey:
        """The first Locked interface, in dock order, from id_a to id_b: route_power
        asks only about consecutive modules of a Locked path, which always share one."""
        ref, peer = next(
            ((id_a, pname), peer) for pname, (peer, info) in self._ports[id_a].items()
            if peer[0] == id_b and info.locked
        )
        return (ref, peer) if ref < peer else (peer, ref)

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
        peer, info = self._end(ref)
        if not info.locked:
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
