"""Scenario schema and command runners for the CLI front end.

A scenario is one strict JSON document: unknown fields are rejected with
the dotted path of the offender, and every embedded object is validated by
the owning module the moment it is built. Artifacts are deterministic by
construction; nothing here reads the clock or global RNG state.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .assembly import Module, ModuleGraph, Pose, Port
from .bus import Frame, send_frame
from .coupling import (
    FAULT_KINDS,
    CouplingConfig,
    Event,
    InterfaceState,
    step,
)
from .errors import ScenarioError, UnreachableError
from .face import (
    REFERENCE_PROFILE,
    FaceProfile,
    Misalignment,
    calibrate_profile,
    full_envelope,
)
from .loads import LoadEnvelope, Wrench, check_load, stress_estimate
from .mechanism import (
    MAX_STROKE_SAMPLES,
    MechanismParams,
    movability_report,
    required_rod_force,
    self_locking,
    simulate_stroke,
)

SCHEMA_VERSION = 1

_REQUIRED = object()


# ------------------------------------------------------------------ parsing

def _check_keys(obj: dict, path: str, allowed) -> None:
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"{path}.{key}", "unknown field")


def _as_obj(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(path, f"expected a list, got {type(value).__name__}")
    return value


def _num(obj: dict, path: str, key: str, default=_REQUIRED) -> float:
    if key not in obj:
        if default is _REQUIRED:
            raise ScenarioError(f"{path}.{key}", "required field is missing")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{path}.{key}", "expected a number")
    if not math.isfinite(v):
        raise ScenarioError(f"{path}.{key}", "must be finite")
    return float(v)


def _int(obj: dict, path: str, key: str, default=_REQUIRED) -> int:
    if key not in obj:
        if default is _REQUIRED:
            raise ScenarioError(f"{path}.{key}", "required field is missing")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{path}.{key}", "expected an integer")
    return v


def _str(obj: dict, path: str, key: str, default=_REQUIRED, choices=None) -> str:
    if key not in obj:
        if default is _REQUIRED:
            raise ScenarioError(f"{path}.{key}", "required field is missing")
        return default
    v = obj[key]
    if not isinstance(v, str):
        raise ScenarioError(f"{path}.{key}", "expected a string")
    if choices is not None and v not in choices:
        raise ScenarioError(f"{path}.{key}", f"must be one of {sorted(choices)}")
    return v


def _bool(obj: dict, path: str, key: str, default=_REQUIRED) -> bool:
    if key not in obj:
        if default is _REQUIRED:
            raise ScenarioError(f"{path}.{key}", "required field is missing")
        return default
    v = obj[key]
    if not isinstance(v, bool):
        raise ScenarioError(f"{path}.{key}", "expected a boolean")
    return v


def _vec(obj: dict, path: str, key: str, n: int, default=_REQUIRED) -> tuple:
    if key not in obj:
        if default is _REQUIRED:
            raise ScenarioError(f"{path}.{key}", "required field is missing")
        return default
    v = obj[key]
    if not isinstance(v, list) or len(v) != n or any(
        isinstance(x, bool) or not isinstance(x, (int, float)) for x in v
    ):
        raise ScenarioError(f"{path}.{key}", f"expected a list of {n} numbers")
    return tuple(float(x) for x in v)


def _domain(path: str, build):
    """Build a domain object, converting its ParameterError to a field path."""
    try:
        return build()
    except ScenarioError:
        raise  # field-level errors already carry the precise path
    except Exception as err:  # noqa: BLE001 - domain validation message wanted
        raise ScenarioError(path, str(err)) from err


@dataclass(frozen=True)
class MechanismSection:
    params: MechanismParams
    mu_rail: float
    resisting_force_n: float
    direction: str
    dt_s: float
    rod_capacity_n: float


@dataclass(frozen=True)
class CalibrationTargets:
    translation_mm: float
    rotation_deg: float
    deflection_deg: float
    tolerance: float


@dataclass(frozen=True)
class EnvelopeOptions:
    angular_resolution_deg: float = 30.0
    translation_tol_mm: float = 1.0
    rotation_tol_deg: float = 1.0
    deflection_tol_deg: float = 1.0


@dataclass(frozen=True)
class LoadCase:
    wrench: Wrench
    dual_lock: bool


@dataclass(frozen=True)
class ScriptEvent:
    t: float
    kind: str
    payload: dict


@dataclass(frozen=True)
class DockSpec:
    a: tuple[str, str]
    b: tuple[str, str]
    misalignment: Misalignment
    which_sides: str


@dataclass(frozen=True)
class PowerRequest:
    t: float
    source: str
    sink: str
    watts: float
    rail_v: float


@dataclass(frozen=True)
class FrameSpec:
    channel: str
    source: str
    dest: str
    payload_text: str
    timestamp_s: float


@dataclass(frozen=True)
class AssemblySection:
    modules: tuple[Module, ...]
    docks: tuple[DockSpec, ...]
    plan: tuple[tuple, ...]
    external: dict[str, Wrench]
    gravity: tuple[float, float, float] | None
    power_requests: tuple[PowerRequest, ...]
    frames: tuple[FrameSpec, ...]


@dataclass(frozen=True)
class Scenario:
    schema_version: int
    mechanism: MechanismSection | None = None
    profile: FaceProfile | None = None
    calibration_targets: CalibrationTargets | None = None
    load_envelope: LoadEnvelope = field(default_factory=LoadEnvelope)
    load_case: LoadCase | None = None
    coupling: CouplingConfig = field(default_factory=CouplingConfig)
    events: tuple[ScriptEvent, ...] | None = None
    envelope_options: EnvelopeOptions = field(default_factory=EnvelopeOptions)
    assembly: AssemblySection | None = None


def _parse_mechanism(obj: dict, path: str) -> MechanismSection:
    _check_keys(obj, path, {
        "mu1", "mu2", "theta_deg", "beta_deg", "pin_count", "stroke_mm",
        "rod_speed_mm_s", "mu_rail", "resisting_force_n", "direction",
        "dt_s", "rod_capacity_n",
    })
    params = _domain(path, lambda: MechanismParams(
        mu1=_num(obj, path, "mu1", 0.3),
        mu2=_num(obj, path, "mu2", 0.3),
        theta_deg=_num(obj, path, "theta_deg", 45.0),
        beta_deg=_num(obj, path, "beta_deg", 5.0),
        pin_count=_int(obj, path, "pin_count", 3),
        stroke_mm=_num(obj, path, "stroke_mm", 15.0),
        rod_speed_mm_s=_num(obj, path, "rod_speed_mm_s", 1.0),
    ).validate())
    sec = MechanismSection(
        params=params,
        mu_rail=_num(obj, path, "mu_rail", 0.15),
        resisting_force_n=_num(obj, path, "resisting_force_n", 50.0),
        direction=_str(obj, path, "direction", "locking", {"locking", "unlocking"}),
        dt_s=_num(obj, path, "dt_s", 0.1),
        rod_capacity_n=_num(obj, path, "rod_capacity_n", 800.0),
    )
    if not sec.dt_s > 0.0:
        raise ScenarioError(f"{path}.dt_s", "must be positive")
    if params.stroke_mm / params.rod_speed_mm_s / sec.dt_s > MAX_STROKE_SAMPLES:
        raise ScenarioError(f"{path}.dt_s",
                            f"stroke would take more than {MAX_STROKE_SAMPLES} samples")
    return sec


def parse_profile(obj: dict, path: str) -> FaceProfile:
    _check_keys(obj, path, {
        "petal_height_mm", "petal_flank_angle_deg", "groove_radius_mm",
        "chamfer_depth_mm", "outer_diameter_mm", "petal_count",
        "groove_positions_deg",
    })
    return _domain(path, lambda: FaceProfile(
        petal_height_mm=_num(obj, path, "petal_height_mm"),
        petal_flank_angle_deg=_num(obj, path, "petal_flank_angle_deg"),
        groove_radius_mm=_num(obj, path, "groove_radius_mm"),
        chamfer_depth_mm=_num(obj, path, "chamfer_depth_mm"),
        outer_diameter_mm=_num(obj, path, "outer_diameter_mm", 80.0),
        petal_count=_int(obj, path, "petal_count", 3),
        groove_positions_deg=_vec(obj, path, "groove_positions_deg", 3, (90.0, 210.0, 330.0)),
    ).validate())


def profile_to_json(profile: FaceProfile) -> dict:
    """Full explicit profile section; re-parses under parse_profile."""
    return {
        "petal_height_mm": profile.petal_height_mm,
        "petal_flank_angle_deg": profile.petal_flank_angle_deg,
        "groove_radius_mm": profile.groove_radius_mm,
        "chamfer_depth_mm": profile.chamfer_depth_mm,
        "outer_diameter_mm": profile.outer_diameter_mm,
        "petal_count": profile.petal_count,
        "groove_positions_deg": list(profile.groove_positions_deg),
    }


def _parse_targets(obj: dict, path: str) -> CalibrationTargets:
    _check_keys(obj, path, {"translation_mm", "rotation_deg", "deflection_deg", "tolerance"})
    tol = _num(obj, path, "tolerance", 0.10)
    if not 0.0 < tol < 1.0:
        raise ScenarioError(f"{path}.tolerance", "must be within (0, 1)")
    return CalibrationTargets(
        translation_mm=_num(obj, path, "translation_mm"),
        rotation_deg=_num(obj, path, "rotation_deg"),
        deflection_deg=_num(obj, path, "deflection_deg"),
        tolerance=tol,
    )


def _parse_load_envelope(obj: dict, path: str) -> LoadEnvelope:
    _check_keys(obj, path, {
        "traction_capacity_n", "lateral_capacity_n", "bending_capacity_nm",
        "torsion_capacity_nm", "interaction",
    })
    return _domain(path, lambda: LoadEnvelope(
        traction_capacity_n=_num(obj, path, "traction_capacity_n", 3000.0),
        lateral_capacity_n=_num(obj, path, "lateral_capacity_n", 3000.0),
        bending_capacity_nm=_num(obj, path, "bending_capacity_nm", 500.0),
        torsion_capacity_nm=_num(obj, path, "torsion_capacity_nm", 500.0),
        interaction=_str(obj, path, "interaction", "max-component",
                         {"max-component", "linear"}),
    ).validate())


def _parse_wrench(obj: dict, path: str) -> Wrench:
    _check_keys(obj, path, {"fx_n", "fy_n", "fz_n", "mx_nm", "my_nm", "mz_nm"})
    return _domain(path, lambda: Wrench(
        fx_n=_num(obj, path, "fx_n", 0.0),
        fy_n=_num(obj, path, "fy_n", 0.0),
        fz_n=_num(obj, path, "fz_n", 0.0),
        mx_nm=_num(obj, path, "mx_nm", 0.0),
        my_nm=_num(obj, path, "my_nm", 0.0),
        mz_nm=_num(obj, path, "mz_nm", 0.0),
    ).validate())


def _parse_load_case(obj: dict, path: str) -> LoadCase:
    _check_keys(obj, path, {"wrench", "dual_lock"})
    if "wrench" not in obj:
        raise ScenarioError(f"{path}.wrench", "required field is missing")
    return LoadCase(
        wrench=_parse_wrench(_as_obj(obj["wrench"], f"{path}.wrench"), f"{path}.wrench"),
        dual_lock=_bool(obj, path, "dual_lock", False),
    )


def _parse_coupling(obj: dict, path: str) -> CouplingConfig:
    _check_keys(obj, path, {"lock_duration_s", "which_sides"})
    return _domain(path, lambda: CouplingConfig(
        lock_duration_s=_num(obj, path, "lock_duration_s", 15.0),
        which_sides=_str(obj, path, "which_sides", "A", {"A", "B", "both"}),
    ).validate())


def _parse_misalignment(obj: dict, path: str) -> Misalignment:
    _check_keys(obj, path, {"dx_mm", "dy_mm", "rot_deg", "tilt_x_deg", "tilt_y_deg"})
    return _domain(path, lambda: Misalignment(
        dx_mm=_num(obj, path, "dx_mm", 0.0),
        dy_mm=_num(obj, path, "dy_mm", 0.0),
        rot_deg=_num(obj, path, "rot_deg", 0.0),
        tilt_x_deg=_num(obj, path, "tilt_x_deg", 0.0),
        tilt_y_deg=_num(obj, path, "tilt_y_deg", 0.0),
    ).validate())


_EVENT_KINDS = ("approach", "start_lock", "start_unlock", "inject_fault", "reset", "wait")


def _parse_events(value, path: str) -> tuple[ScriptEvent, ...]:
    events = []
    prev_t = -math.inf
    for i, item in enumerate(_as_list(value, path)):
        epath = f"{path}[{i}]"
        obj = _as_obj(item, epath)
        _check_keys(obj, epath, {"t", "event", "payload"})
        t = _num(obj, epath, "t")
        if t < 0.0:
            raise ScenarioError(f"{epath}.t", "must be >= 0")
        if t < prev_t:
            raise ScenarioError(f"{epath}.t", "timestamps must be non-decreasing")
        prev_t = t
        kind = _str(obj, epath, "event", choices=set(_EVENT_KINDS))
        payload = _as_obj(obj.get("payload", {}), f"{epath}.payload")
        if kind == "approach":
            _parse_misalignment(payload, f"{epath}.payload")
        elif kind == "inject_fault":
            _check_keys(payload, f"{epath}.payload", {"fault_kind"})
            _str(payload, f"{epath}.payload", "fault_kind", choices=set(FAULT_KINDS))
        elif payload:
            raise ScenarioError(f"{epath}.payload", f"{kind} takes no payload")
        events.append(ScriptEvent(t=t, kind=kind, payload=payload))
    return tuple(events)


def _parse_envelope_options(obj: dict, path: str) -> EnvelopeOptions:
    _check_keys(obj, path, {
        "angular_resolution_deg", "translation_tol_mm", "rotation_tol_deg",
        "deflection_tol_deg",
    })
    opts = EnvelopeOptions(
        angular_resolution_deg=_num(obj, path, "angular_resolution_deg", 30.0),
        translation_tol_mm=_num(obj, path, "translation_tol_mm", 1.0),
        rotation_tol_deg=_num(obj, path, "rotation_tol_deg", 1.0),
        deflection_tol_deg=_num(obj, path, "deflection_tol_deg", 1.0),
    )
    for name in ("angular_resolution_deg", "translation_tol_mm",
                 "rotation_tol_deg", "deflection_tol_deg"):
        if getattr(opts, name) <= 0.0:
            raise ScenarioError(f"{path}.{name}", "must be > 0")
    return opts


def _parse_port_ref(value, path: str) -> tuple[str, str]:
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(x, str) for x in value)):
        raise ScenarioError(path, "expected [module_id, port_name]")
    return (value[0], value[1])


def _parse_pose(obj: dict, path: str) -> Pose:
    _check_keys(obj, path, {"xyz", "rpy_deg"})
    xyz = _vec(obj, path, "xyz", 3, (0.0, 0.0, 0.0))
    rpy = _vec(obj, path, "rpy_deg", 3, (0.0, 0.0, 0.0))
    return _domain(path, lambda: Pose.from_xyz_rpy(
        xyz[0], xyz[1], xyz[2],
        roll=math.radians(rpy[0]), pitch=math.radians(rpy[1]), yaw=math.radians(rpy[2]),
    ))


def _parse_module(obj: dict, path: str) -> Module:
    _check_keys(obj, path, {"id", "kind", "mass_kg", "grounded", "world_pose", "ports"})
    ports = []
    for j, pobj in enumerate(_as_list(obj.get("ports", []), f"{path}.ports")):
        ppath = f"{path}.ports[{j}]"
        pdict = _as_obj(pobj, ppath)
        _check_keys(pdict, ppath, {"name", "xyz", "rpy_deg"})
        name = _str(pdict, ppath, "name")
        ports.append(Port(name, _parse_pose(
            {k: v for k, v in pdict.items() if k != "name"}, ppath)))
    grounded = _bool(obj, path, "grounded", False)
    world = None
    if "world_pose" in obj:
        world = _parse_pose(_as_obj(obj["world_pose"], f"{path}.world_pose"),
                            f"{path}.world_pose")
    return _domain(path, lambda: Module(
        module_id=_str(obj, path, "id"),
        kind=_str(obj, path, "kind"),
        ports=tuple(ports),
        mass_kg=_num(obj, path, "mass_kg", 1.0),
        grounded=grounded,
        world_pose=world,
    ).validate())


def _parse_dock_spec(obj: dict, path: str) -> DockSpec:
    _check_keys(obj, path, {"a", "b", "misalignment", "which_sides"})
    for key in ("a", "b"):
        if key not in obj:
            raise ScenarioError(f"{path}.{key}", "required field is missing")
    mis = Misalignment()
    if "misalignment" in obj:
        mis = _parse_misalignment(
            _as_obj(obj["misalignment"], f"{path}.misalignment"), f"{path}.misalignment")
    return DockSpec(
        a=_parse_port_ref(obj["a"], f"{path}.a"),
        b=_parse_port_ref(obj["b"], f"{path}.b"),
        misalignment=mis,
        which_sides=_str(obj, path, "which_sides", "A", {"A", "B", "both"}),
    )


def _parse_plan(value, path: str) -> tuple[tuple, ...]:
    steps = []
    for i, item in enumerate(_as_list(value, path)):
        spath = f"{path}[{i}]"
        obj = _as_obj(item, spath)
        op = _str(obj, spath, "op", choices={"dock", "undock"})
        if op == "dock":
            _check_keys(obj, spath, {"op", "a", "b", "misalignment"})
            a = _parse_port_ref(obj.get("a"), f"{spath}.a")
            b = _parse_port_ref(obj.get("b"), f"{spath}.b")
            if "misalignment" in obj:
                mis = _parse_misalignment(
                    _as_obj(obj["misalignment"], f"{spath}.misalignment"),
                    f"{spath}.misalignment")
                steps.append(("dock", a[0], a[1], b[0], b[1], mis))
            else:
                steps.append(("dock", a[0], a[1], b[0], b[1]))
        else:
            _check_keys(obj, spath, {"op", "port"})
            ref = _parse_port_ref(obj.get("port"), f"{spath}.port")
            steps.append(("undock", ref[0], ref[1]))
    return tuple(steps)


def _parse_assembly(obj: dict, path: str) -> AssemblySection:
    _check_keys(obj, path, {
        "modules", "docks", "plan", "external_wrenches", "gravity_mps2",
        "power_requests", "frames",
    })
    modules = tuple(
        _parse_module(_as_obj(m, f"{path}.modules[{i}]"), f"{path}.modules[{i}]")
        for i, m in enumerate(_as_list(obj.get("modules", []), f"{path}.modules"))
    )
    docks = tuple(
        _parse_dock_spec(_as_obj(d, f"{path}.docks[{i}]"), f"{path}.docks[{i}]")
        for i, d in enumerate(_as_list(obj.get("docks", []), f"{path}.docks"))
    )
    plan = _parse_plan(obj.get("plan", []), f"{path}.plan")
    external: dict[str, Wrench] = {}
    ext_obj = _as_obj(obj.get("external_wrenches", {}), f"{path}.external_wrenches")
    for mid, wobj in ext_obj.items():
        wpath = f"{path}.external_wrenches.{mid}"
        external[mid] = _parse_wrench(_as_obj(wobj, wpath), wpath)
    gravity = None
    if obj.get("gravity_mps2") is not None:
        gravity = _vec(obj, path, "gravity_mps2", 3)
    requests = []
    for i, robj in enumerate(_as_list(obj.get("power_requests", []), f"{path}.power_requests")):
        rpath = f"{path}.power_requests[{i}]"
        rdict = _as_obj(robj, rpath)
        _check_keys(rdict, rpath, {"t", "source", "sink", "watts", "rail_v"})
        rail = _num(rdict, rpath, "rail_v", 48.0)
        if rail not in (48.0, 24.0):
            raise ScenarioError(f"{rpath}.rail_v", "must be 48 or 24")
        requests.append(PowerRequest(
            t=_num(rdict, rpath, "t", float(i)),
            source=_str(rdict, rpath, "source"),
            sink=_str(rdict, rpath, "sink"),
            watts=_num(rdict, rpath, "watts"),
            rail_v=rail,
        ))
    frames = []
    for i, fobj in enumerate(_as_list(obj.get("frames", []), f"{path}.frames")):
        fpath = f"{path}.frames[{i}]"
        fdict = _as_obj(fobj, fpath)
        _check_keys(fdict, fpath, {"channel", "source", "dest", "payload_text", "timestamp_s"})
        frames.append(FrameSpec(
            channel=_str(fdict, fpath, "channel", choices={"can", "ethernet"}),
            source=_str(fdict, fpath, "source"),
            dest=_str(fdict, fpath, "dest"),
            payload_text=_str(fdict, fpath, "payload_text", ""),
            timestamp_s=_num(fdict, fpath, "timestamp_s", 0.0),
        ))
    return AssemblySection(
        modules=modules,
        docks=docks,
        plan=plan,
        external=external,
        gravity=gravity,
        power_requests=tuple(requests),
        frames=tuple(frames),
    )


_TOP_KEYS = {
    "schema_version", "mechanism", "profile", "calibration_targets",
    "load_envelope", "load_case", "coupling", "events", "envelope", "assembly",
}


def parse_scenario(data) -> Scenario:
    """Validate a decoded scenario document (strict; dotted error paths)."""
    obj = _as_obj(data, "$")
    _check_keys(obj, "$", _TOP_KEYS)
    if "schema_version" not in obj:
        raise ScenarioError("$.schema_version", "required field is missing")
    version = _int(obj, "$", "schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError("$.schema_version",
                            f"unsupported version {version}; this tool reads {SCHEMA_VERSION}")

    scenario = Scenario(
        schema_version=version,
        mechanism=_parse_mechanism(_as_obj(obj["mechanism"], "$.mechanism"), "$.mechanism")
        if "mechanism" in obj else None,
        profile=parse_profile(_as_obj(obj["profile"], "$.profile"), "$.profile")
        if "profile" in obj else None,
        calibration_targets=_parse_targets(
            _as_obj(obj["calibration_targets"], "$.calibration_targets"),
            "$.calibration_targets")
        if "calibration_targets" in obj else None,
        load_envelope=_parse_load_envelope(
            _as_obj(obj["load_envelope"], "$.load_envelope"), "$.load_envelope")
        if "load_envelope" in obj else LoadEnvelope(),
        load_case=_parse_load_case(_as_obj(obj["load_case"], "$.load_case"), "$.load_case")
        if "load_case" in obj else None,
        coupling=_parse_coupling(_as_obj(obj["coupling"], "$.coupling"), "$.coupling")
        if "coupling" in obj else CouplingConfig(),
        events=_parse_events(obj["events"], "$.events") if "events" in obj else None,
        envelope_options=_parse_envelope_options(_as_obj(obj["envelope"], "$.envelope"),
                                                 "$.envelope")
        if "envelope" in obj else EnvelopeOptions(),
        assembly=_parse_assembly(_as_obj(obj["assembly"], "$.assembly"), "$.assembly")
        if "assembly" in obj else None,
    )
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as err:
        raise ScenarioError("$", f"cannot read scenario: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError("$", f"invalid JSON: {err}") from err
    return parse_scenario(data)


# ------------------------------------------------------------------ writers

def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _state_json(state: InterfaceState) -> dict:
    return {
        "phase": state.phase,
        "progress_s": state.progress_s,
        "sides_engaged": list(state.sides_engaged),
        "fault_kind": state.fault_kind,
        "time_s": state.time_s,
    }


def _wrench_json(w: Wrench) -> dict:
    return {"fx_n": w.fx_n, "fy_n": w.fy_n, "fz_n": w.fz_n,
            "mx_nm": w.mx_nm, "my_nm": w.my_nm, "mz_nm": w.mz_nm}


def _edge_label(edge) -> str:
    (ida, pa), (idb, pb) = edge
    return f"{ida}.{pa}--{idb}.{pb}"


def _meta(command: str, seed: int | None) -> dict:
    return {"command": command, "schema_version": SCHEMA_VERSION, "seed": seed}


def _require(section, name: str):
    if section is None:
        raise ScenarioError(f"$.{name}", "section required by this command is missing")
    return section


# ------------------------------------------------------------------ commands

def run_mechanism(scenario: Scenario, outdir: Path, seed: int | None) -> list[str]:
    sec = _require(scenario.mechanism, "mechanism")
    report = movability_report(sec.params)
    rod = required_rod_force(sec.resisting_force_n, sec.params)
    trace = simulate_stroke(
        sec.params,
        resisting_force_profile=lambda _travel: sec.resisting_force_n,
        direction=sec.direction,
        dt=sec.dt_s,
        rod_capacity_n=sec.rod_capacity_n,
    )
    write_json(outdir / "mechanism_report.json", {
        "meta": _meta("mechanism", seed),
        "movability_margin": report.margin,
        "normalized_rhs": report.normalized_rhs,
        "movable": report.movable,
        "self_locking": self_locking(sec.params, sec.mu_rail),
        "mu_rail": sec.mu_rail,
        "required_rod_force_n": rod,
        "stroke_duration_s": trace.duration_s,
    })
    write_csv(
        outdir / "stroke_trace.csv",
        "t_s,rod_travel_mm,radial_travel_mm,pin_normal_force_N",
        trace.samples,
    )
    return ["mechanism_report.json", "stroke_trace.csv"]


def run_envelope(scenario: Scenario, outdir: Path, seed: int | None,
                 resolution: float | None) -> list[str]:
    profile = _require(scenario.profile, "profile")
    opts = scenario.envelope_options
    env = full_envelope(
        profile,
        angular_resolution_deg=resolution if resolution is not None
        else opts.angular_resolution_deg,
        tol_translation_mm=opts.translation_tol_mm,
        tol_rotation_deg=opts.rotation_tol_deg,
        tol_deflection_deg=opts.deflection_tol_deg,
    )
    write_json(outdir / "envelope_limits.json", {
        "meta": _meta("envelope", seed),
        "translation_limit_mm": env.translation_limit_mm,
        "rotation_limit_deg": env.rotation_limit_deg,
        "deflection_limit_deg": env.deflection_limit_deg,
        "profile": profile_to_json(profile),
    })
    write_csv(
        outdir / "envelope_directions.csv",
        "axis,direction_deg,limit,unit",
        [
            (axis, direction, limit, "mm" if axis == "translation" else "deg")
            for axis, direction, limit in env.per_direction
        ],
    )
    return ["envelope_limits.json", "envelope_directions.csv"]


def run_calibrate(scenario: Scenario, outdir: Path, seed: int | None) -> list[str]:
    targets = _require(scenario.calibration_targets, "calibration_targets")
    profile = calibrate_profile(
        (targets.translation_mm, targets.rotation_deg, targets.deflection_deg),
        tolerance=targets.tolerance,
    )
    env = full_envelope(profile)
    write_json(outdir / "calibrated_profile.json", profile_to_json(profile))
    write_json(outdir / "calibration_report.json", {
        "meta": _meta("calibrate", seed),
        "targets": {
            "translation_mm": targets.translation_mm,
            "rotation_deg": targets.rotation_deg,
            "deflection_deg": targets.deflection_deg,
            "tolerance": targets.tolerance,
        },
        "achieved": {
            "translation_mm": env.translation_limit_mm,
            "rotation_deg": env.rotation_limit_deg,
            "deflection_deg": env.deflection_limit_deg,
        },
    })
    return ["calibrated_profile.json", "calibration_report.json"]


def run_couple(scenario: Scenario, outdir: Path, seed: int | None) -> list[str]:
    events = scenario.events
    if events is None:
        raise ScenarioError("$.events", "section required by this command is missing")
    config = scenario.coupling
    profile = scenario.profile if scenario.profile is not None else REFERENCE_PROFILE

    state = InterfaceState()
    initial = state
    lines = []
    t_cur = 0.0
    for ev in events:
        if ev.t > t_cur:
            state = step(state, Event("tick", dt_s=ev.t - t_cur), ev.t - t_cur,
                         config, profile)
            t_cur = ev.t
        if ev.kind == "approach":
            mis = _parse_misalignment(ev.payload, "$")
            state = step(state, Event("approach", misalignment=mis), 0.0, config, profile)
        elif ev.kind == "inject_fault":
            state = step(state, Event("inject_fault", fault_kind=ev.payload["fault_kind"]),
                         0.0, config, profile)
        elif ev.kind != "wait":
            state = step(state, Event(ev.kind), 0.0, config, profile)
        lines.append(json.dumps(
            {"t": ev.t, "event": ev.kind, "payload": ev.payload,
             "state": _state_json(state)},
            sort_keys=True,
        ))
    (outdir / "couple_log.jsonl").write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8")
    write_json(outdir / "couple_report.json", {
        "meta": _meta("couple", seed),
        "initial_state": _state_json(initial),
        "final_state": _state_json(state),
        "events_applied": len(events),
        "lock_duration_s": config.lock_duration_s,
    })
    return ["couple_log.jsonl", "couple_report.json"]


def run_loads(scenario: Scenario, outdir: Path, seed: int | None) -> list[str]:
    case = _require(scenario.load_case, "load_case")
    env = scenario.load_envelope
    report = check_load(case.wrench, envelope=env, dual_lock=case.dual_lock)
    stress = stress_estimate(case.wrench)
    write_json(outdir / "loads_report.json", {
        "meta": _meta("loads", seed),
        "wrench": _wrench_json(case.wrench),
        "dual_lock": case.dual_lock,
        "check": {
            "utilization": dict(sorted(report.utilization.items())),
            "combined_utilization": report.combined,
            "ok": report.ok,
            "interaction": report.interaction,
            "notes": list(report.notes),
        },
        "stress": {
            "deflection_mm": stress.deflection_mm,
            "stress_mpa": stress.stress_mpa,
            "per_component": {
                k: {"deflection_mm": v[0], "stress_mpa": v[1]}
                for k, v in sorted(stress.per_component.items())
            },
            "superposed": stress.superposed,
            "notes": list(stress.notes),
        },
    })
    return ["loads_report.json"]


def run_assembly(scenario: Scenario, outdir: Path, seed: int | None) -> list[str]:
    sec = _require(scenario.assembly, "assembly")
    graph = ModuleGraph()
    for module in sec.modules:
        graph.add_module(module)

    dock_rows = []
    for spec in sec.docks:
        report = graph.dock(
            spec.a[0], spec.a[1], spec.b[0], spec.b[1],
            misalignment=spec.misalignment,
            config=CouplingConfig(which_sides=spec.which_sides),
        )
        dock_rows.append({
            "a": list(spec.a), "b": list(spec.b),
            "accepted": report.accepted,
            "reason": report.reason,
            "phase": report.state.phase if report.state else None,
        })

    plan_report = graph.reconfigure(sec.plan)
    plan_rows = [
        {
            "index": s.index,
            "op": [str(x) if not isinstance(x, Misalignment) else "misalignment"
                   for x in s.op],
            "applied": s.applied,
            "detail": s.detail,
            "stranded": list(s.stranded),
        }
        for s in plan_report.steps
    ]

    result = graph.propagate_wrench(sec.external, sec.gravity,
                                    envelope=scenario.load_envelope)
    wrench_rows = []
    for edge in sorted(result.local_loads):
        lw = result.local_loads[edge]
        check = result.load_checks[edge]
        info = graph.edge_info(edge)
        wrench_rows.append((
            _edge_label(edge),
            lw.fx_n, lw.fy_n, lw.fz_n, lw.mx_nm, lw.my_nm, lw.mz_nm,
            check.combined, check.ok, info.dual_lock,
        ))

    ledger_rows = []
    power_rows = []
    for req in sec.power_requests:
        try:
            route = graph.route_power(req.source, req.sink, req.watts, rail_v=req.rail_v)
        except UnreachableError:
            route = None
            outcome = {"granted": False, "reason": "no locked path"}
        else:
            outcome = (
                {"granted": True, "path": list(route.path)}
                if route is not None
                else {"granted": False, "reason": "insufficient headroom"}
            )
        power_rows.append({
            "t": req.t, "source": req.source, "sink": req.sink,
            "watts": req.watts, "rail_v": req.rail_v, **outcome,
        })
        for edge, rail_v, watts in graph.power_allocations():
            bus = graph.edge_info(edge).channels.buses[rail_v]
            ledger_rows.append((req.t, _edge_label(edge), bus.name, rail_v, watts))

    frame_rows = []
    for spec in sec.frames:
        frame = Frame(spec.channel, spec.source, spec.dest,
                      spec.payload_text.encode("utf-8"), spec.timestamp_s)
        try:
            delivery = send_frame(frame, graph)
        except UnreachableError:
            frame_rows.append({
                "channel": spec.channel, "source": spec.source, "dest": spec.dest,
                "delivered": False, "reason": "no locked path",
            })
        else:
            frame_rows.append({
                "channel": spec.channel, "source": spec.source, "dest": spec.dest,
                "delivered": True, "hops": delivery.hops,
                "latency_s": delivery.latency_s, "path": list(delivery.path),
            })

    write_json(outdir / "assembly_report.json", {
        "meta": _meta("assembly", seed),
        "docks": dock_rows,
        "plan": {
            "completed": plan_report.completed,
            "aborted_index": plan_report.aborted_index,
            "steps": plan_rows,
        },
        "edges": [
            {"edge": _edge_label(e),
             "phase": graph.edge_info(e).state.phase,
             "dual_lock": graph.edge_info(e).dual_lock}
            for e in graph.edges()
        ],
        "ground_reactions": {
            mid: _wrench_json(w)
            for mid, w in sorted(result.ground_reactions.items())
        },
        "loads_ok": all(c.ok for c in result.load_checks.values()),
        "power": power_rows,
        "frames": frame_rows,
    })
    write_csv(
        outdir / "wrench_map.csv",
        "interface,fx_N,fy_N,fz_N,mx_Nm,my_Nm,mz_Nm,combined_utilization,ok,dual_lock",
        wrench_rows,
    )
    write_csv(
        outdir / "power_ledger.csv",
        "time_s,interface,bus,rail_V,allocated_W",
        ledger_rows,
    )
    return ["assembly_report.json", "wrench_map.csv", "power_ledger.csv"]


COMMANDS = ("mechanism", "envelope", "calibrate", "couple", "loads", "assembly")


def run(command: str, scenario: Scenario, outdir: str | Path,
        seed: int | None = None, resolution: float | None = None) -> list[str]:
    """Execute one command; returns the artifact names written to outdir."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    if command == "mechanism":
        return run_mechanism(scenario, out, seed)
    if command == "envelope":
        return run_envelope(scenario, out, seed, resolution)
    if command == "calibrate":
        return run_calibrate(scenario, out, seed)
    if command == "couple":
        return run_couple(scenario, out, seed)
    if command == "loads":
        return run_loads(scenario, out, seed)
    if command == "assembly":
        return run_assembly(scenario, out, seed)
    raise ScenarioError("$", f"unknown command {command!r}")
