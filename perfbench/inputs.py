"""Seeded input generators for the benchmark workloads.

Plain Python and `random` only: the program under test never sees a seed,
only the misalignments and assembly plans built here. The same
(workload, seed, rep) always yields the same inputs.
"""
from __future__ import annotations

import math
import random

# dock_stream: N approaches drawn at half the quoted limits of the shipped
# reference envelope (envelope_limits.json: translation 11 mm, rotation
# 40 deg, deflection 13 deg) on every axis jointly. None of them is
# rejected by the engage gate: all descend (about 600 settles at the
# median), so p50 and the tail both fall among descents. At the full limits
# two thirds were gate rejects of about 1 ms each, too short to time
# steadily on a shared host, and p50 fell among them.
# N = 40 puts 10 samples beyond p75, the tail percentile reported.
# Draws are a Latin hypercube: each of the five coordinates is stratified
# into DOCK_COUNT cells, so no seed leaves part of a range unsampled.
DOCK_TRANSLATION_MM = 5.5
DOCK_ROTATION_DEG = 20.0
DOCK_TILT_DEG = 6.5
DOCK_COUNT = 40

# assembly_mix takes its request mix from the shipped scenarios/assembly.json,
# scaled from its 4 modules to MODULE_COUNT: per module 3/4 power request,
# 2/4 frame, 1/4 external wrench and 1/4 plan op, with that scenario's
# request sizes, payload lengths and wrench. A relocation is two plan ops
# (dock new, undock old). test_perfbench checks these against the scenario.
SCENARIO_MODULES = 4
POWER_REQUESTS = ((120.0, 48.0), (450.0, 48.0), (30.0, 24.0))  # (W, rail V)
FRAME_PAYLOADS = (("can", len("intlk")), ("ethernet", len("telemetry frame")))
EXTERNAL_WRENCH = (0.0, 0.0, -100.0, 0.0, 0.0, 0.0)
SCENARIO_PLAN_OPS = 1

# Not in that scenario, so chosen here: the module count (the issue's range
# is a few hundred to about 1k), the double docks (the scenario has none;
# ROADMAP item 3 calls them realistic for a truss) and the unlocks (the
# scenario has none; one per relocation).
MODULE_COUNT = 320
PAIR_EVERY = 25          # every 25th module docks to its host twice
ROUTES = MODULE_COUNT * len(POWER_REQUESTS) // SCENARIO_MODULES
FRAMES = MODULE_COUNT * len(FRAME_PAYLOADS) // SCENARIO_MODULES
EXTERNAL_WRENCHES = MODULE_COUNT // SCENARIO_MODULES
RELOCATIONS = MODULE_COUNT * SCENARIO_PLAN_OPS // SCENARIO_MODULES // 2
UNLOCKS = RELOCATIONS

# Four ports per module: two on the +x face, two on the -x face, 0.5 apart.
# Mating a.e0-b.w1 and a.e1-b.w0 gives the same relative pose, which is how
# two truss nodes dock through two interfaces at once.
PORT_XYZ_RPY_DEG = {
    "e0": ((1.0, 0.25, 0.0), (0.0, 90.0, 0.0)),
    "e1": ((1.0, -0.25, 0.0), (0.0, 90.0, 0.0)),
    "w0": ((-1.0, 0.25, 0.0), (0.0, -90.0, 0.0)),
    "w1": ((-1.0, -0.25, 0.0), (0.0, -90.0, 0.0)),
}
PORTS = tuple(PORT_XYZ_RPY_DEG)


def rng_for(workload: str, seed: int, rep: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rep}")


def dock_stream(seed: int, rep: int = 0) -> list[tuple[float, float, float, float, float]]:
    """Distinct (dx_mm, dy_mm, rot_deg, tilt_x_deg, tilt_y_deg) approaches.

    Lateral offset and tilt are uniform over discs, rotation uniform over
    +-limit, each at half the reference envelope's limit.
    """
    rng = rng_for("dock_stream", seed, rep)
    n = DOCK_COUNT
    cols = []
    for _ in range(5):
        cells = list(range(n))
        rng.shuffle(cells)
        cols.append([(c + rng.random()) / n for c in cells])
    out = []
    for u_lat, u_dir, u_rot, u_tilt, u_axis in zip(*cols):
        lat = DOCK_TRANSLATION_MM * math.sqrt(u_lat)
        tilt = DOCK_TILT_DEG * math.sqrt(u_tilt)
        a, b = 2.0 * math.pi * u_dir, 2.0 * math.pi * u_axis
        out.append((
            lat * math.cos(a),
            lat * math.sin(a),
            DOCK_ROTATION_DEG * (2.0 * u_rot - 1.0),
            tilt * math.cos(b),
            tilt * math.sin(b),
        ))
    return out


def assembly_plan(seed: int, rep: int = 0, n: int = MODULE_COUNT) -> dict:
    """A random tree of n four-port modules plus the queries and churn on it.

    Module m0 is the grounded anchor. Each later module docks one of its
    ports to a random free port of the tree; every PAIR_EVERY-th module
    instead docks to a host through two interfaces, and the first of the two
    is unlocked right after. The plan also lists a route_power across every
    such pair, random routes and frames, leaf relocations and unlocks.
    """
    rng = rng_for("assembly_mix", seed, rep)
    free = {"m0": list(PORTS)}
    docked: dict[str, dict[str, tuple[str, str]]] = {"m0": {}}  # locked only
    build, pairs = [], []

    def attach(a, pa, b, pb):
        free[a].remove(pa)
        free[b].remove(pb)
        docked[a][pa] = (b, pb)
        docked[b][pb] = (a, pa)

    for i in range(1, n):
        mid = f"m{i}"
        free[mid] = list(PORTS)
        docked[mid] = {}
        hosts = [h for h in sorted(free) if h != mid and free[h]]
        twin = [h for h in hosts if "e0" in free[h] and "e1" in free[h]]
        if i % PAIR_EVERY == 0 and twin:
            a = rng.choice(twin)
            build.append(("pair", a, mid))
            attach(a, "e1", mid, "w0")     # stays locked
            free[a].remove("e0")           # docked, then unlocked
            free[mid].remove("w1")
            pairs.append((a, mid))
        else:
            a = rng.choice(hosts)
            pa, pb = rng.choice(free[a]), rng.choice(PORTS)
            build.append(("dock", a, pa, mid, pb))
            attach(a, pa, mid, pb)

    modules = sorted(free, key=lambda m: int(m[1:]))
    loaded = rng.sample(modules[1:], EXTERNAL_WRENCHES)
    wrenches = {m: EXTERNAL_WRENCH for m in sorted(loaded, key=lambda m: int(m[1:]))}
    routes = [
        (rng.choice(modules), rng.choice(modules), *POWER_REQUESTS[i % len(POWER_REQUESTS)])
        for i in range(ROUTES)
    ]
    frames = []
    for i in range(FRAMES):
        channel, size = FRAME_PAYLOADS[i % len(FRAME_PAYLOADS)]
        frames.append((channel, rng.choice(modules), rng.choice(modules), size))

    paired = {m for pair in pairs for m in pair}
    relocate = []
    for _ in range(RELOCATIONS):
        leaves = [m for m in modules
                  if m != "m0" and m not in paired and len(docked[m]) == 1]
        leaf = rng.choice(leaves)
        (old_port, (host, host_port)), = docked[leaf].items()
        targets = [m for m in modules if m != leaf and free[m]]
        new_host = rng.choice(targets)
        new_host_port = rng.choice(free[new_host])
        leaf_port = rng.choice(free[leaf])
        relocate.append(("dock", leaf, leaf_port, new_host, new_host_port))
        relocate.append(("undock", leaf, old_port))
        attach(leaf, leaf_port, new_host, new_host_port)
        del docked[leaf][old_port], docked[host][host_port]
        free[leaf].append(old_port)
        free[host].append(host_port)

    edges = sorted({tuple(sorted(((m, p), peer)))
                    for m in modules for p, peer in docked[m].items()})
    edges = [e for e in edges if e[0][0] not in paired and e[1][0] not in paired]
    unlocks = [rng.choice(edges)[0] for _ in range(UNLOCKS)]
    unlocks = list(dict.fromkeys(unlocks))

    return {
        "modules": modules,
        "build": build,
        "pairs": pairs,
        "wrenches": wrenches,
        "routes": routes,
        "frames": frames,
        "relocate": relocate,
        "unlocks": unlocks,
    }
