"""Scenario schema and command runners for the CLI front end.

A scenario is one strict JSON document: unknown fields are rejected with
the dotted path of the offender, and every embedded object is validated by
the owning module the moment it is built. Each object is read against one
field table (a `_Field` row per key), which docs/scenario_schema.md mirrors.
A table backed by a dataclass takes its keys, defaults and read order from
that class's fields. Artifacts are deterministic by construction; nothing
here reads the clock or global RNG state.
"""
from __future__ import annotations

import contextlib
import errno
import json
import math
import os
import tempfile
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

from .assembly import Module, ModuleGraph, Pose, Port
from .bus import CHANNEL_PURPOSES, RAIL_RATINGS_W, Frame, send_frame
from .coupling import (
    FAULT_KINDS,
    SIDES,
    CouplingConfig,
    Event,
    InterfaceState,
    step,
)
from .errors import NonFiniteError, ScenarioError, UnreachableError
from .face import (
    DEFLECTION_CEILING_DEG,
    MAX_AXIS_PROBES,
    MAX_SWEEP_RAYS,
    REFERENCE_PROFILE,
    ROTATION_CEILING_DEG,
    FaceProfile,
    Misalignment,
    calibrate_profile,
    full_envelope,
)
from .loads import INTERACTION_RULES, LoadEnvelope, Wrench, check_load, stress_estimate
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

def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _float(value) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range reads as infinite
        return math.inf if value > 0 else -math.inf


def _typed(accept, message: str, convert=lambda v: v) -> Callable:
    """A reader of values accept() takes; {} in message names a rejected type."""
    def read(value, path: str):
        if not accept(value):
            raise ScenarioError(path, message.format(type(value).__name__))
        return convert(value)
    return read


_as_obj = _typed(lambda v: isinstance(v, dict), "expected an object, got {}")
_as_list = _typed(lambda v: isinstance(v, list), "expected a list, got {}")
_integer = _typed(lambda v: _is_number(v) and isinstance(v, int), "expected an integer")
_string = _typed(lambda v: isinstance(v, str), "expected a string")
_boolean = _typed(lambda v: isinstance(v, bool), "expected a boolean")
_list3 = _typed(lambda v: isinstance(v, list) and len(v) == 3 and all(map(_is_number, v)),
                "expected a list of 3 numbers", lambda v: tuple(map(_float, v)))
_port_ref = _typed(lambda v: isinstance(v, list) and len(v) == 2
                   and all(isinstance(x, str) for x in v),
                   "expected [module_id, port_name]", tuple)


def _number(value, path: str) -> float:
    if not _is_number(value):
        raise ScenarioError(path, "expected a number")
    if not math.isfinite(value := _float(value)):
        raise ScenarioError(path, "must be finite")
    return value


def _vec3(value, path: str) -> tuple[float, float, float]:
    vec = _list3(value, path)
    if not all(map(math.isfinite, vec)):
        raise ScenarioError(path, "must be finite")
    return vec


def _one_of(*choices: str) -> Callable:
    """A reader of strings that must be one of choices."""
    def read(value, path: str) -> str:
        if _string(value, path) not in choices:
            raise ScenarioError(path, f"must be one of {sorted(choices)}")
        return value
    return read


class _Field(NamedTuple):
    """One key of an object: how a present value reads, what a missing one
    reads as (or _REQUIRED) and its (predicate, message) bounds. Tables list
    their rows in the order they are read."""

    key: str
    kind: Callable  # (value, path) -> parsed value
    default: object = _REQUIRED
    bounds: tuple = ()


def _key(default=MISSING, kind: Callable = _number, bounds: tuple = ()):
    """A section dataclass field: its default, and how its table row reads it."""
    return field(default=default, metadata={"kind": kind, "bounds": bounds})


def _table(cls, **kinds) -> tuple[_Field, ...]:
    """One row per field of cls, in declaration order, keyed and defaulted by
    the field (_REQUIRED when it has no default). A field declared with _key
    reads as its metadata says; any other reads as kinds[name], or as a
    number when kinds does not name it. kinds[name] = None leaves it out."""
    return tuple(
        _Field(f.name, kinds.get(f.name, f.metadata.get("kind", _number)),
               _REQUIRED if f.default is MISSING else f.default, f.metadata.get("bounds", ()))
        for f in fields(cls) if kinds.get(f.name, _number) is not None)


def _check(value, path: str, row: _Field):
    """Read a present value through row: its kind, then its bounds."""
    value = row.kind(value, path)
    for ok, message in row.bounds:
        if not ok(value):
            raise ScenarioError(path, message.format(value))
    return value


def _read(obj: dict, path: str, row: _Field):
    fpath = f"{path}.{row.key}"
    if row.key not in obj:
        if row.default is _REQUIRED:
            raise ScenarioError(fpath, "required field is missing")
        return row.default
    return _check(obj[row.key], fpath, row)


def _fields(obj, path: str, table) -> dict:
    """Read every row of table from obj, rejecting keys no row names."""
    obj = _as_obj(obj, path)
    known = {row.key for row in table}
    for key in obj:
        if key not in known:
            raise ScenarioError(f"{path}.{key}", "unknown field")
    return {row.key: _read(obj, path, row) for row in table}


def _domain(path: str, build):
    """Build a domain object, converting its ParameterError to a field path."""
    try:
        return build()
    except Exception as err:  # noqa: BLE001 - domain validation message wanted
        raise ScenarioError(path, str(err)) from err


def _record(cls, table, obj, path: str):
    """Build cls from the fields of obj; a domain class checks itself as it is built."""
    values = _fields(obj, path, table)
    return _domain(path, lambda: cls(**values))


def _nested(cls, table) -> Callable:
    return lambda value, path: _record(cls, table, value, path)


def _list_of(kind) -> Callable:
    return lambda value, path: tuple(
        kind(item, f"{path}[{i}]") for i, item in enumerate(_as_list(value, path)))


_POSITIVE = (lambda v: v > 0.0, "must be > 0")
_NON_NEGATIVE = (lambda v: v >= 0.0, "must be >= 0")
_RAIL = (lambda v: v in RAIL_RATINGS_W, f"must be {' or '.join(f'{v:g}' for v in RAIL_RATINGS_W)}")
_RAYS = (lambda v: 120.0 / v <= MAX_SWEEP_RAYS,
         f"sweep would take more than {MAX_SWEEP_RAYS} rays")


def _probes(axis_cap: float) -> tuple:
    return (lambda v: axis_cap / v <= MAX_AXIS_PROBES,
            f"scan would take more than {MAX_AXIS_PROBES} lattice points")


# Tables of the domain classes: only the keys that do not read as numbers are named.
_MECHANISM_PARAMS = _table(MechanismParams, pin_count=_integer)
_PROFILE = _table(FaceProfile, petal_count=_integer, groove_positions_deg=_vec3)
_LOAD_ENVELOPE = _table(LoadEnvelope, interaction=_one_of(*INTERACTION_RULES))
_WRENCH = _table(Wrench)
_COUPLING = _table(CouplingConfig, which_sides=_one_of(*SIDES))
_MISALIGNMENT = _table(Misalignment)
_FAULT = (_Field("fault_kind", _one_of(*FAULT_KINDS)),)
_EVENT = (
    _Field("t", _number, bounds=(_NON_NEGATIVE,)),
    _Field("event", _one_of(
        "approach", "start_lock", "start_unlock", "inject_fault", "reset", "wait")),
    _Field("payload", _as_obj, None),
)


@dataclass(frozen=True, kw_only=True)
class MechanismSection:
    params: MechanismParams  # read from the MechanismParams keys
    mu_rail: float = _key(0.15, bounds=(_NON_NEGATIVE,))
    resisting_force_n: float = _key(50.0, bounds=(_NON_NEGATIVE,))
    direction: str = _key("locking", _one_of("locking", "unlocking"))
    dt_s: float = _key(0.1, bounds=((lambda v: v > 0.0, "must be positive"),))
    rod_capacity_n: float = _key(800.0, bounds=(_POSITIVE,))


@dataclass(frozen=True, kw_only=True)
class CalibrationTargets:
    tolerance: float = _key(0.10, bounds=((lambda v: 0.0 < v < 1.0, "must be within (0, 1)"),))
    translation_mm: float = _key()
    rotation_deg: float = _key()
    deflection_deg: float = _key()


@dataclass(frozen=True, kw_only=True)
class EnvelopeOptions:
    angular_resolution_deg: float = _key(30.0, bounds=(_POSITIVE, _RAYS))
    translation_tol_mm: float = _key(1.0, bounds=(_POSITIVE,))  # cap: run_envelope
    rotation_tol_deg: float = _key(1.0, bounds=(_POSITIVE, _probes(ROTATION_CEILING_DEG)))
    deflection_tol_deg: float = _key(1.0, bounds=(_POSITIVE, _probes(DEFLECTION_CEILING_DEG)))


@dataclass(frozen=True, kw_only=True)
class LoadCase:
    wrench: Wrench = _key(kind=_nested(Wrench, _WRENCH))
    dual_lock: bool = _key(False, _boolean)


@dataclass(frozen=True)
class ScriptEvent:
    t: float
    kind: str
    payload: dict
    event: Event | None  # what the coupling FSM is stepped with; None for wait


@dataclass(frozen=True, kw_only=True)
class DockSpec:
    a: tuple[str, str] = _key(kind=_port_ref)
    b: tuple[str, str] = _key(kind=_port_ref)
    misalignment: Misalignment | None = _key(None, _nested(Misalignment, _MISALIGNMENT))
    which_sides: str = _key("A", _one_of(*SIDES))


@dataclass(frozen=True, kw_only=True)
class PowerRequest:
    rail_v: float = _key(48.0, bounds=(_RAIL,))
    t: float | None = _key(None)
    source: str = _key(kind=_string)
    sink: str = _key(kind=_string)
    watts: float = _key(bounds=(_POSITIVE,))


def _script_event(value, path: str) -> ScriptEvent:
    f = _fields(value, path, _EVENT)
    kind, payload, ppath = f["event"], f["payload"] or {}, f"{path}.payload"
    if kind == "approach":
        event = Event(kind, misalignment=_record(Misalignment, _MISALIGNMENT, payload, ppath))
    elif kind == "inject_fault":
        event = Event(kind, **_fields(payload, ppath, _FAULT))
    elif payload:
        raise ScenarioError(ppath, f"{kind} takes no payload")
    else:
        event = None if kind == "wait" else Event(kind)
    return ScriptEvent(f["t"], kind, payload, event)


def _events(value, path: str) -> tuple[ScriptEvent, ...]:
    events: list[ScriptEvent] = []
    for i, item in enumerate(_as_list(value, path)):
        event = _script_event(item, f"{path}[{i}]")
        if events and event.t < events[-1].t:
            raise ScenarioError(f"{path}[{i}].t", "timestamps must be non-decreasing")
        events.append(event)
    return tuple(events)


def _parse_mechanism(value, path: str) -> MechanismSection:
    f = _fields(value, path, _MECHANISM)
    kwargs = {row.key: f.pop(row.key) for row in _MECHANISM_PARAMS}
    params = _domain(path, lambda: MechanismParams(**kwargs))
    if params.stroke_mm / params.rod_speed_mm_s / f["dt_s"] > MAX_STROKE_SAMPLES:
        raise ScenarioError(f"{path}.dt_s",
                            f"stroke would take more than {MAX_STROKE_SAMPLES} samples")
    return MechanismSection(params=params, **f)


def _pose(xyz, rpy_deg) -> Pose:
    roll, pitch, yaw = (math.radians(a) for a in rpy_deg)
    return Pose.from_xyz_rpy(*xyz, roll=roll, pitch=pitch, yaw=yaw)


def _module(**f) -> Module:
    return Module(module_id=f.pop("id"), **f)


def _frame(payload_text: str, **f) -> Frame:
    return Frame(payload=payload_text.encode("utf-8"), **f)


def _wrenches(value, path: str) -> dict[str, Wrench]:
    return {mid: _record(Wrench, _WRENCH, w, f"{path}.{mid}")
            for mid, w in _as_obj(value, path).items()}


def _power_requests(value, path: str) -> tuple[PowerRequest, ...]:
    requests = _list_of(_nested(PowerRequest, _POWER_REQUEST))(value, path)
    # a request without t is timed by its index
    return tuple(r if r.t is not None else replace(r, t=float(i))
                 for i, r in enumerate(requests))


def _plan_step(value, path: str) -> tuple:
    obj = _as_obj(value, path)
    table = _PLAN[_read(obj, path, _PLAN_OP)]
    # a plan step reads a missing port as a malformed one, where a dock calls it missing
    ports = {row.key: None for row in table if row.kind is _port_ref}
    f = _fields({**ports, **obj}, path, table)
    if f["op"] == "undock":
        return ("undock", *f["port"])
    return ("dock", *f["a"], *f["b"]) + ((f["misalignment"],) if f["misalignment"] else ())


_MECHANISM = _MECHANISM_PARAMS + _table(MechanismSection, params=None)
_TARGETS = _table(CalibrationTargets)
_ENVELOPE = _table(EnvelopeOptions)
_LOAD_CASE = _table(LoadCase)
_DOCK = _table(DockSpec)
_POWER_REQUEST = _table(PowerRequest)
# Tables with no class behind them, or whose keys are not the class's field names.
_POSE = (
    _Field("xyz", _vec3, (0.0, 0.0, 0.0)),
    _Field("rpy_deg", _vec3, (0.0, 0.0, 0.0)),
)
_PORT = (_Field("name", _string),) + _POSE
_MODULE = (
    _Field("ports", _list_of(_nested(lambda name, **xyz_rpy: Port(name, _pose(**xyz_rpy)),
                                     _PORT)), ()),
    _Field("grounded", _boolean, False),
    _Field("world_pose", _nested(_pose, _POSE), None),
    _Field("id", _string),
    _Field("kind", _string),
    _Field("mass_kg", _number, 1.0),
)
_FRAME = (
    _Field("channel", _one_of(*CHANNEL_PURPOSES)),
    _Field("source", _string),
    _Field("dest", _string),
    _Field("payload_text", _string, ""),
    _Field("timestamp_s", _number, 0.0, (_NON_NEGATIVE,)),
)
_PLAN = {
    "dock": (_Field("op", _string),) + _DOCK[:3],
    "undock": (_Field("op", _string), _Field("port", _port_ref)),
}
_PLAN_OP = _Field("op", _one_of(*_PLAN))


@dataclass(frozen=True, kw_only=True)
class AssemblySection:
    modules: tuple[Module, ...] = _key((), _list_of(_nested(_module, _MODULE)))
    docks: tuple[DockSpec, ...] = _key((), _list_of(_nested(DockSpec, _DOCK)))
    plan: tuple[tuple, ...] = _key((), _list_of(_plan_step))
    external_wrenches: dict[str, Wrench] | None = _key(None, _wrenches)
    gravity_mps2: tuple[float, float, float] | None = _key(
        None, lambda value, path: None if value is None else _vec3(value, path))
    power_requests: tuple[PowerRequest, ...] = _key((), _power_requests)
    frames: tuple[Frame, ...] = _key((), _list_of(_nested(_frame, _FRAME)))


_ASSEMBLY = _table(AssemblySection)


@dataclass(frozen=True, kw_only=True)
class Scenario:
    schema_version: int = _key(kind=_integer, bounds=((
        lambda v: v == SCHEMA_VERSION,
        f"unsupported version {{}}; this tool reads {SCHEMA_VERSION}"),))
    mechanism: MechanismSection | None = _key(None, _parse_mechanism)
    # parse_profile is looked up at call time, so a wrapper on it sees each call
    profile: FaceProfile | None = _key(None, lambda value, path: parse_profile(value, path))
    calibration_targets: CalibrationTargets | None = _key(
        None, _nested(CalibrationTargets, _TARGETS))
    load_envelope: LoadEnvelope = _key(LoadEnvelope(), _nested(LoadEnvelope, _LOAD_ENVELOPE))
    load_case: LoadCase | None = _key(None, _nested(LoadCase, _LOAD_CASE))
    coupling: CouplingConfig = _key(CouplingConfig(), _nested(CouplingConfig, _COUPLING))
    events: tuple[ScriptEvent, ...] | None = _key(None, _events)
    envelope: EnvelopeOptions = _key(EnvelopeOptions(), _nested(EnvelopeOptions, _ENVELOPE))
    assembly: AssemblySection | None = _key(None, _nested(AssemblySection, _ASSEMBLY))


_SCENARIO = _table(Scenario)


def parse_scenario(data) -> Scenario:
    """Validate a decoded scenario document (strict; dotted error paths)."""
    return _record(Scenario, _SCENARIO, data, "$")


def parse_profile(obj, path: str) -> FaceProfile:
    return _record(FaceProfile, _PROFILE, obj, path)


def load_scenario(path: str | Path) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as err:
        raise ScenarioError("$", f"cannot read scenario: {err}") from err
    except UnicodeDecodeError as err:
        raise ScenarioError("$", f"scenario is not UTF-8: {err}") from err
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as err:  # malformed, too deep, or too long an integer
        raise ScenarioError("$", f"invalid JSON: {err}") from err
    return parse_scenario(data)


# ------------------------------------------------------------------ writers

def write_json(path: Path, obj) -> None:
    path.write_text(_dumps(path, obj, indent=2) + "\n", encoding="utf-8")


def write_csv(path: Path, table: tuple) -> None:
    """table is (header line, rows)."""
    header, rows = table
    lines = [header]
    for n, row in enumerate(rows, 1):
        try:
            lines.append(",".join(map(_cell, row)))
        except ValueError:
            column = next(c for c, v in zip(header.split(","), row) if _non_finite(v))
            raise NonFiniteError(path.name, column, n) from None
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_jsonl(path: Path, records) -> None:
    path.write_text("".join(_dumps(path, r, row=n) + "\n" for n, r in enumerate(records, 1)),
                    encoding="utf-8")


def _dumps(path: Path, obj, row: int | None = None, indent: int | None = None) -> str:
    """Strict JSON of obj; an inf or nan raises NonFiniteError with its key path."""
    try:
        return json.dumps(obj, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError:
        where = _non_finite(obj)
        if where is None:
            raise
        raise NonFiniteError(path.name, where, row) from None


def _non_finite(obj, at: str = "$") -> str | None:
    """Key path of the first inf or nan in obj, in the order json.dumps
    writes it with sort_keys, else None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else at
    if isinstance(obj, dict):
        items = ((f"{at}.{k}", obj[k]) for k in sorted(obj))
    elif isinstance(obj, (list, tuple)):
        items = ((f"{at}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    return next(filter(None, (_non_finite(v, p) for p, v in items)), None)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{value!r} is not a finite number")
        return repr(value)
    return str(value)


def _edge_label(edge) -> str:
    (ida, pa), (idb, pb) = edge
    return f"{ida}.{pa}--{idb}.{pb}"


def _require(section, name: str):
    if section is None:
        raise ScenarioError(f"$.{name}", "section required by this command is missing")
    return section


# ------------------------------------------------------------------ commands
# A command returns its artifacts in publishing order, name -> content: the
# object of a .json, (header, rows) of a .csv, the records of a .jsonl.

def run_mechanism(scenario: Scenario, meta: dict) -> dict:
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
    return {
        "mechanism_report.json": {
            "meta": meta,
            "movability_margin": report.margin,
            "normalized_rhs": report.normalized_rhs,
            "movable": report.movable,
            "self_locking": self_locking(sec.params, sec.mu_rail),
            "mu_rail": sec.mu_rail,
            "required_rod_force_n": rod,
            "stroke_duration_s": trace.duration_s,
        },
        "stroke_trace.csv": ("t_s,rod_travel_mm,radial_travel_mm,pin_normal_force_N",
                             trace.samples),
    }


def run_envelope(scenario: Scenario, meta: dict) -> dict:
    profile = _require(scenario.profile, "profile")
    opts = scenario.envelope
    if profile.outer_diameter_mm / opts.translation_tol_mm > MAX_AXIS_PROBES:
        raise ScenarioError("$.envelope.translation_tol_mm",
                            f"scan would take more than {MAX_AXIS_PROBES} lattice points")
    env = full_envelope(
        profile,
        angular_resolution_deg=opts.angular_resolution_deg,
        tol_translation_mm=opts.translation_tol_mm,
        tol_rotation_deg=opts.rotation_tol_deg,
        tol_deflection_deg=opts.deflection_tol_deg,
    )
    return {
        "envelope_limits.json": {
            "meta": meta,
            "translation_limit_mm": env.translation_limit_mm,
            "rotation_limit_deg": env.rotation_limit_deg,
            "deflection_limit_deg": env.deflection_limit_deg,
            "profile": asdict(profile),
        },
        "envelope_directions.csv": ("axis,direction_deg,limit,unit", [
            (axis, direction, limit, "mm" if axis == "translation" else "deg")
            for axis, direction, limit in env.per_direction
        ]),
    }


def run_calibrate(scenario: Scenario, meta: dict) -> dict:
    targets = _require(scenario.calibration_targets, "calibration_targets")
    profile = calibrate_profile(
        (targets.translation_mm, targets.rotation_deg, targets.deflection_deg),
        tolerance=targets.tolerance,
    )
    env = full_envelope(profile)
    return {
        "calibrated_profile.json": asdict(profile),
        "calibration_report.json": {
            "meta": meta,
            "targets": asdict(targets),
            "achieved": {
                "translation_mm": env.translation_limit_mm,
                "rotation_deg": env.rotation_limit_deg,
                "deflection_deg": env.deflection_limit_deg,
            },
        },
    }


def run_couple(scenario: Scenario, meta: dict) -> dict:
    events = _require(scenario.events, "events")
    config = scenario.coupling
    profile = scenario.profile if scenario.profile is not None else REFERENCE_PROFILE

    state = InterfaceState()
    log = []
    t_cur = 0.0
    for ev in events:
        if ev.t > t_cur:
            state = step(state, Event("tick", dt_s=ev.t - t_cur), ev.t - t_cur,
                         config, profile)
            t_cur = ev.t
        if ev.event is not None:
            state = step(state, ev.event, 0.0, config, profile)
        log.append({"t": ev.t, "event": ev.kind, "payload": ev.payload, "state": asdict(state)})
    return {
        "couple_log.jsonl": log,
        "couple_report.json": {
            "meta": meta,
            "initial_state": asdict(InterfaceState()),
            "final_state": asdict(state),
            "events_applied": len(events),
            "lock_duration_s": config.lock_duration_s,
        },
    }


def run_loads(scenario: Scenario, meta: dict) -> dict:
    case = _require(scenario.load_case, "load_case")
    env = scenario.load_envelope
    report = check_load(case.wrench, envelope=env, dual_lock=case.dual_lock)
    stress = stress_estimate(case.wrench)
    return {"loads_report.json": {
        "meta": meta,
        "wrench": asdict(case.wrench),
        "dual_lock": case.dual_lock,
        "check": {
            "utilization": dict(sorted(report.utilization.items())),
            "combined_utilization": report.combined,
            "ok": report.ok,
            "interaction": report.interaction,
            "notes": list(report.notes),
        },
        "stress": {
            **asdict(stress),
            "per_component": {
                k: {"deflection_mm": v[0], "stress_mpa": v[1]}
                for k, v in sorted(stress.per_component.items())
            },
        },
    }}


def run_assembly(scenario: Scenario, meta: dict) -> dict:
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
        {**asdict(s), "op": [x if isinstance(x, str) else "misalignment" for x in s.op]}
        for s in plan_report.steps
    ]

    result = graph.propagate_wrench(sec.external_wrenches, sec.gravity_mps2,
                                    envelope=scenario.load_envelope)
    wrench_rows = []
    for edge in sorted(result.local_loads):
        check = result.load_checks[edge]
        wrench_rows.append((_edge_label(edge), *astuple(result.local_loads[edge]),
                            check.combined, check.ok, graph.edge_info(edge).dual_lock))

    ledger_rows = []
    power_rows = []
    for req in sec.power_requests:
        try:
            route = graph.route_power(req.source, req.sink, req.watts, rail_v=req.rail_v)
        except UnreachableError:
            outcome = {"granted": False, "reason": "no locked path"}
        else:
            outcome = (
                {"granted": True, "path": list(route.path)}
                if route is not None
                else {"granted": False, "reason": "insufficient headroom"}
            )
        power_rows.append({**asdict(req), **outcome})
        for edge, rail_v, watts in graph.power_allocations():
            bus = graph.edge_info(edge).channels.buses[rail_v]
            ledger_rows.append((req.t, _edge_label(edge), bus.name, rail_v, watts))

    frame_rows = []
    for frame in sec.frames:
        row = {"channel": frame.channel, "source": frame.source, "dest": frame.dest}
        try:
            delivery = send_frame(frame, graph)
        except UnreachableError:
            row.update(delivered=False, reason="no locked path")
        else:
            row.update(delivered=True, hops=delivery.hops, latency_s=delivery.latency_s,
                       path=list(delivery.path))
        frame_rows.append(row)

    return {
        "assembly_report.json": {
            "meta": meta,
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
                mid: asdict(w) for mid, w in sorted(result.ground_reactions.items())
            },
            "loads_ok": all(c.ok for c in result.load_checks.values()),
            "power": power_rows,
            "frames": frame_rows,
        },
        "wrench_map.csv": (
            "interface,fx_N,fy_N,fz_N,mx_Nm,my_Nm,mz_Nm,combined_utilization,ok,dual_lock",
            wrench_rows),
        "power_ledger.csv": ("time_s,interface,bus,rail_V,allocated_W", ledger_rows),
    }


COMMANDS = {
    "mechanism": run_mechanism,
    "envelope": run_envelope,
    "calibrate": run_calibrate,
    "couple": run_couple,
    "loads": run_loads,
    "assembly": run_assembly,
}


def _publish(staged: Path, out: Path, names: list[str]) -> None:
    """Move the staged artifacts into out: every target is checked before
    the first one is replaced, so a target that cannot be replaced (a
    directory) leaves out as it was."""
    for name in names:
        target = out / name
        if target.is_dir() and not target.is_symlink():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
    for name in names:
        os.replace(staged / name, out / name)


# --seed: an integer recorded in report metadata
_SEED = _Field("seed", _integer, None,
               ((lambda v: 0 <= v < 2 ** 64, "seed must fit in an unsigned 64-bit integer"),))


def run(command: str, scenario: Scenario, outdir: str | Path,
        seed: int | None = None, resolution: float | None = None) -> list[str]:
    """Execute one command; returns the artifact names written to outdir.

    seed is read as an unsigned 64-bit integer and reported at $.seed.
    resolution overrides envelope.angular_resolution_deg, read like that
    field and reported at $.resolution. An output directory or artifact that
    cannot be written is a schema error at $.out. The artifacts are written
    as a set: run writes them into a temporary directory inside outdir, and
    they replace those in outdir only when all of them were written and
    none of their targets is a directory; on any error the temporary
    directory is removed, outdir keeps its files, and the directories run
    made for outdir are removed again.
    """
    if command not in COMMANDS:
        raise ScenarioError("$", f"unknown command {command!r}")
    if seed is not None:
        seed = _check(seed, "$.seed", _SEED)
    if resolution is not None:
        scenario = replace(scenario, envelope=replace(
            scenario.envelope,
            angular_resolution_deg=_check(resolution, "$.resolution", _ENVELOPE[0])))
    meta = {"command": command, "schema_version": SCHEMA_VERSION, "seed": seed}
    out = Path(outdir)
    made: list[Path] = []  # deepest first
    try:
        made += [d for d in (out, *out.parents) if not d.exists()]
        out.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".docksim-", dir=out) as staged:
            artifacts = COMMANDS[command](scenario, meta)
            # read per call, so a wrapper on a writer sees each write
            writers = {".csv": write_csv, ".jsonl": write_jsonl}
            for name, content in artifacts.items():
                writers.get(Path(name).suffix, write_json)(Path(staged, name), content)
            _publish(Path(staged), out, list(artifacts))
        return list(artifacts)
    except BaseException as err:
        for d in made:
            with contextlib.suppress(OSError):
                d.rmdir()
        if isinstance(err, OSError):
            raise ScenarioError("$.out", f"cannot write artifacts: {err}") from err
        raise
