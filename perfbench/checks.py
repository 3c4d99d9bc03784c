"""Output checks: reference digests for recorded seeds, invariants for any seed.

Every check returns a list of error strings; an empty list means it passed.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
DIGESTS = REFERENCE_DIR / "digests.json"

# face.REFERENCE_PROFILE as calibrated_profile.json writes it.
REFERENCE_PROFILE_JSON = {
    "petal_height_mm": 6.5,
    "petal_flank_angle_deg": 24.7,
    "groove_radius_mm": 27.0,
    "chamfer_depth_mm": 1.0,
    "outer_diameter_mm": 80.0,
    "petal_count": 3,
    "groove_positions_deg": [90.0, 210.0, 330.0],
}

EQUILIBRIUM_TOL = 1e-9
WRENCH_QUANTUM = 1e-6  # N and N*m; float noise here is ~1e-9 at most


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def load_digests(path: Path = DIGESTS) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def has_reference(workload: str, seed: int, table: dict | None = None) -> bool:
    table = load_digests() if table is None else table
    return str(seed) in table.get(workload, {})


def digest_errors(workload: str, seed: int, got: dict, table: dict | None = None) -> list[str]:
    """Compare {name: digest} with the digests recorded for this seed, if any."""
    table = load_digests() if table is None else table
    want = table.get(workload, {}).get(str(seed), {})
    return [
        f"{workload} seed {seed}: {name} digest {got.get(name)} != reference {ref}"
        for name, ref in sorted(want.items()) if got.get(name) != ref
    ]


def envelope_errors(out_dir: Path) -> list[str]:
    """envelope_directions.csv is byte-identical to the reference and 120-periodic."""
    errors = []
    got = (out_dir / "envelope_directions.csv").read_bytes()
    if got != (REFERENCE_DIR / "envelope_directions.csv").read_bytes():
        errors.append("envelope_directions.csv differs from the reference bytes")
    rows = {}
    for line in got.decode().splitlines()[1:]:
        axis, direction, limit, _unit = line.split(",")
        rows[(axis, float(direction))] = float(limit)
    for (axis, direction), limit in rows.items():
        if axis == "rotation":
            continue
        for turn in (1, 2):
            other = rows.get((axis, (direction + 120.0 * turn) % 360.0))
            if other != limit:
                errors.append(f"{axis} row {direction} is not 120-periodic ({limit} vs {other})")
    return errors


def calibrate_errors(out_dir: Path) -> list[str]:
    got = json.loads((out_dir / "calibrated_profile.json").read_text(encoding="utf-8"))
    if got != REFERENCE_PROFILE_JSON:
        return [f"calibrated profile {got} != REFERENCE_PROFILE"]
    return []


def wrench_map(loads) -> list:
    """Interface loads as sorted rows, quantised so that a summation order
    change that moves only the last bits still gives the same digest."""
    rows = []
    for (pa, pb), w in sorted(loads.items()):
        vals = [round(v / WRENCH_QUANTUM) for v in
                (w.fx_n, w.fy_n, w.fz_n, w.mx_nm, w.my_nm, w.mz_nm)]
        rows.append([list(pa), list(pb), vals])
    return rows


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def equilibrium_errors(module_loads, positions, edge_points, loads, reactions) -> list[str]:
    """Free-body checks on a propagate_wrench result, relative to 1e-9.

    module_loads: {module: (force, moment)} world frame at the module origin.
    positions: {module: origin}. edge_points: {(parent_ref, child_ref): point}.
    loads: {(parent_ref, child_ref): Wrench} from the result, and
    reactions: {anchor: Wrench}. Checks every cut (an interface carries what
    its child subtree hangs on it) and the whole body with its reaction.
    """
    children: dict[str, list[str]] = {}
    for (pref, cref) in loads:
        children.setdefault(pref[0], []).append(cref[0])

    def subtree(root):
        out, todo = [], [root]
        while todo:
            m = todo.pop()
            out.append(m)
            todo.extend(children.get(m, ()))
        return out

    def resultant(mods, about):
        f, m, scale_f, scale_m = [0.0] * 3, [0.0] * 3, 1.0, 1.0
        for mod in mods:
            fi, mi = module_loads[mod]
            arm = [p - q for p, q in zip(positions[mod], about)]
            tm = _cross(arm, fi)
            f = [a + b for a, b in zip(f, fi)]
            m = [a + b + c for a, b, c in zip(m, mi, tm)]
            scale_f += sum(abs(v) for v in fi)
            scale_m += sum(abs(v) for v in mi) + math.hypot(*arm) * sum(abs(v) for v in fi)
        return f, m, scale_f, scale_m

    errors = []
    for edge, w in loads.items():
        f, m, sf, sm = resultant(subtree(edge[1][0]), edge_points[edge])
        got_f, got_m = (w.fx_n, w.fy_n, w.fz_n), (w.mx_nm, w.my_nm, w.mz_nm)
        if (max(abs(a - b) for a, b in zip(f, got_f)) > EQUILIBRIUM_TOL * sf
                or max(abs(a - b) for a, b in zip(m, got_m)) > EQUILIBRIUM_TOL * sm):
            errors.append(f"interface {edge} is not in equilibrium with its subtree")
    for anchor, r in reactions.items():
        f, m, sf, sm = resultant(subtree(anchor), positions[anchor])
        if (max(abs(a + b) for a, b in zip(f, (r.fx_n, r.fy_n, r.fz_n))) > EQUILIBRIUM_TOL * sf
                or max(abs(a + b) for a, b in zip(m, (r.mx_nm, r.my_nm, r.mz_nm)))
                > EQUILIBRIUM_TOL * sm):
            errors.append(f"reaction at {anchor} does not balance the applied loads")
    return errors
