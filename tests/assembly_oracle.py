"""Shared test helpers: random docked trees, the benchmark's input
generators and truss ports, a free-body load oracle and an np.allclose
reference for the pose checks.

The oracle recomputes each interface load by cutting the edge and summing
the severed side directly, a different code path from the package's
bottom-up accumulation.
"""
import importlib.util
import math
import random
from pathlib import Path

import numpy as np

from docksim.assembly import Module, ModuleGraph, Pose, Port
from docksim.loads import Wrench


def perfbench_inputs():
    """perfbench/inputs.py, the benchmark's seeded input generators."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def truss_ports():
    """The benchmark's four truss-node ports (perfbench/inputs.py): mating
    a.e0-b.w1 and a.e1-b.w0 gives one relative pose, so the pair closes exactly."""
    return tuple(Port(name, Pose.from_xyz_rpy(*xyz, *map(math.radians, rpy)))
                 for name, (xyz, rpy) in perfbench_inputs().PORT_XYZ_RPY_DEG.items())


def make_random_tree(rng: random.Random, max_modules: int = 10, unlocked_pairs: bool = False):
    """Anchored random tree with random port geometry, masses, and loads.

    With unlocked_pairs, about half the modules also dock to their parent
    through a second pair of ports and one of the two interfaces is then
    unlocked, leaving a docked but unlocked parallel interface that carries
    nothing. Without it a seed draws the same trees as it always has.
    """
    n = rng.randint(2, max_modules)
    g = ModuleGraph()
    kinds = ("joint", "link", "end_effector", "facility_module", "truss_node")

    def rand_pose(scale=0.8):
        return Pose.from_xyz_rpy(
            rng.uniform(-scale, scale), rng.uniform(-scale, scale), rng.uniform(-scale, scale),
            rng.uniform(-3.0, 3.0), rng.uniform(-1.4, 1.4), rng.uniform(-3.0, 3.0),
        )

    def make_module(i, grounded):
        ports = tuple(Port(f"p{k}", rand_pose()) for k in range(4))
        return Module(
            module_id=f"m{i}",
            kind=rng.choice(kinds),
            ports=ports,
            mass_kg=rng.uniform(0.0, 5.0),
            grounded=grounded,
            world_pose=Pose.from_xyz_rpy(yaw=rng.uniform(-3.0, 3.0)) if grounded else None,
        )

    g.add_module(make_module(0, True))
    free_ports = {("m0", f"p{k}") for k in range(1, 4)}
    for i in range(1, n):
        g.add_module(make_module(i, False))
        parent = rng.choice(sorted(free_ports))
        g.dock(parent[0], parent[1], f"m{i}", "p0")
        free_ports.discard(parent)
        child_ports = {(f"m{i}", f"p{k}") for k in range(1, 4)}
        spare = sorted(p for p in free_ports if p[0] == parent[0])
        if unlocked_pairs and spare and rng.random() < 0.5:
            second = rng.choice(spare)
            g.dock(second[0], second[1], f"m{i}", "p1")
            free_ports.discard(second)
            child_ports.discard((f"m{i}", "p1"))
            g.unlock(*rng.choice((parent, second)))
        free_ports |= child_ports

    external = {}
    for i in range(n):
        if rng.random() < 0.7:
            external[f"m{i}"] = Wrench(
                rng.uniform(-200, 200), rng.uniform(-200, 200), rng.uniform(-200, 200),
                rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-50, 50),
            )
    gravity = (0.0, 0.0, -9.81) if rng.random() < 0.5 else None
    return g, external, gravity


def reference_pose_error(matrix) -> str | None:
    """Pose's validation written with np.allclose: the message of the first
    failed check, or None when the matrix is a valid rigid transform."""
    m = np.array(matrix, dtype=float)
    if m.shape != (4, 4):
        return "pose matrix must be 4x4"
    if not np.all(np.isfinite(m)) or not np.allclose(m[3], (0.0, 0.0, 0.0, 1.0)):
        return "pose matrix is not a homogeneous transform"
    r = m[:3, :3]
    if not np.allclose(r @ r.T, np.eye(3), atol=1e-9):
        return "pose rotation block is not orthonormal"
    return None


def reference_almost_equal(a: Pose, b: Pose, tol: float = 1e-9) -> bool:
    """Pose.almost_equal written with np.allclose."""
    return bool(np.allclose(a.matrix, b.matrix, atol=tol))


def perturbed_pose_matrix(rng: random.Random) -> np.ndarray:
    """A rigid transform with a few entries moved to near a tolerance edge,
    or set to NaN, an infinity or a value whose square overflows."""
    m = Pose.from_xyz_rpy(
        *(rng.uniform(-1e3, 1e3) for _ in range(3)),
        rng.uniform(-3.0, 3.0), rng.uniform(-1.4, 1.4), rng.uniform(-3.0, 3.0),
    ).matrix.copy()
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(4), rng.randrange(4)
        kind = rng.random()
        if kind < 0.05:
            m[i, j] = rng.choice((math.nan, math.inf, -math.inf))
        elif kind < 0.1:
            m[i, j] = rng.choice((1e155, -1e155, 1e300, -1.7e308))
        elif i == 3:
            # bottom row: allclose tolerance is 1e-8 + 1e-5 * |target|
            tol = 1e-8 + 1e-5 * abs(m[i, j])
            m[i, j] += rng.choice((-1.0, 1.0)) * tol * rng.uniform(0.98, 1.02)
        elif j < 3:
            # rotation entry: R R^T moves by about the shift itself
            m[i, j] += rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-10.0, -4.0)
        else:
            m[i, j] += rng.uniform(-1.0, 1.0)
    return m


def _wrench_vec(w: Wrench):
    return np.array([w.fx_n, w.fy_n, w.fz_n]), np.array([w.mx_nm, w.my_nm, w.mz_nm])


def oracle_edge_load(graph: ModuleGraph, edge, external, gravity, poses):
    """Direct free-body sum of the side of `edge` away from the anchor."""
    (id_a, port_a), (id_b, port_b) = edge

    # membership of the cut: walk from a start module without crossing the
    # edge, over Locked interfaces only (a docked but unlocked one carries
    # nothing), listed through the public edges() and edge_info()
    cut = {(id_a, port_a), (id_b, port_b)}
    links = [
        (ref[0], peer[0]) for ref, peer in graph.edges()
        if {ref, peer} != cut and graph.edge_info((ref, peer)).locked
    ]

    def side_of(start):
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for mid, pid in links:
                nxt = pid if mid == cur else mid if pid == cur else None
                if nxt is not None and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    side = side_of(id_b)
    if any(graph.module(m).grounded for m in side):
        side = side_of(id_a)

    # interface point from the child side's own port frame
    child_end = edge[1] if edge[1][0] in side else edge[0]
    cmod, cport = child_end
    pt = (poses[cmod] @ graph.module(cmod).port(cport).pose).translation

    f_total = np.zeros(3)
    m_total = np.zeros(3)
    for mid in sorted(side):
        w = external.get(mid, Wrench())
        f, m = _wrench_vec(w)
        if gravity is not None:
            f = f + graph.module(mid).mass_kg * np.array(gravity)
        p = poses[mid].translation
        f_total += f
        m_total += m + np.cross(p - pt, f)
    return f_total, m_total


def max_equilibrium_residual(graph: ModuleGraph, result, external, gravity) -> float:
    """Worst mismatch between package loads and fresh free-body sums, plus
    the anchored-component global balance."""
    poses = graph.world_poses()
    worst = 0.0
    for edge, w in result.interface_loads.items():
        f_pkg, m_pkg = _wrench_vec(w)
        f_ref, m_ref = oracle_edge_load(graph, edge, external, gravity, poses)
        worst = max(worst, np.max(np.abs(f_pkg - f_ref)), np.max(np.abs(m_pkg - m_ref)))

    for root, reaction in result.ground_reactions.items():
        comp = {root}
        stack = [root]
        while stack:
            cur = stack.pop()
            for nxt in graph.neighbors(cur):
                if nxt not in comp:
                    comp.add(nxt)
                    stack.append(nxt)
        f_sum = np.zeros(3)
        m_sum = np.zeros(3)
        origin = poses[root].translation
        for mid in sorted(comp):
            w = external.get(mid, Wrench())
            f, m = _wrench_vec(w)
            if gravity is not None:
                f = f + graph.module(mid).mass_kg * np.array(gravity)
            p = poses[mid].translation
            f_sum += f
            m_sum += m + np.cross(p - origin, f)
        f_r, m_r = _wrench_vec(reaction)
        worst = max(worst, np.max(np.abs(f_r + f_sum)), np.max(np.abs(m_r + m_sum)))
    return float(worst)
