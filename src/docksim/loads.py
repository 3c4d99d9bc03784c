"""Structural load screening for a locked interface.

Capacities and stiffness/stress references describe the interface loaded
through its lock set. Loads are screened per component (traction, lateral,
bending, torsion) with a selectable interaction rule; stress and deflection
estimates scale linearly from single-mode reference analyses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ParameterError

DUAL_LOCK_FACTOR = 1.5

INTERACTION_RULES = ("max-component", "linear")


@dataclass(frozen=True)
class Wrench:
    """Force/moment set at the interface plane, interface frame, N and Nm."""

    fx_n: float = 0.0
    fy_n: float = 0.0
    fz_n: float = 0.0
    mx_nm: float = 0.0
    my_nm: float = 0.0
    mz_nm: float = 0.0

    def __post_init__(self):
        for v in (self.fx_n, self.fy_n, self.fz_n, self.mx_nm, self.my_nm, self.mz_nm):
            if not math.isfinite(v):
                raise ParameterError("wrench components must be finite")

    def scaled(self, k: float) -> "Wrench":
        return Wrench(
            self.fx_n * k, self.fy_n * k, self.fz_n * k,
            self.mx_nm * k, self.my_nm * k, self.mz_nm * k,
        )


@dataclass(frozen=True)
class LoadEnvelope:
    """Rated single-mode capacities of one locked interface.

    The lateral (shear) rating is not separately published for this class
    of interface; it defaults to the traction rating, and while it equals
    that rating, reports carry an assumption note whenever it is exercised.
    """

    traction_capacity_n: float = 3000.0
    lateral_capacity_n: float = 3000.0
    bending_capacity_nm: float = 500.0
    torsion_capacity_nm: float = 500.0
    interaction: str = "max-component"

    def __post_init__(self):
        caps = (
            self.traction_capacity_n,
            self.lateral_capacity_n,
            self.bending_capacity_nm,
            self.torsion_capacity_nm,
        )
        if not all(c > 0.0 and math.isfinite(c) for c in caps):
            raise ParameterError("capacities must be positive and finite")
        if self.interaction not in INTERACTION_RULES:
            raise ParameterError(
                f"interaction must be one of {INTERACTION_RULES}, got {self.interaction!r}"
            )


@dataclass(frozen=True)
class LoadReport:
    utilization: dict[str, float]
    combined: float
    ok: bool
    interaction: str
    notes: tuple[str, ...] = ()


def component_loads(wrench: Wrench) -> dict[str, float]:
    """Magnitudes per screened component; symmetric in sign and direction."""
    return {
        "traction": abs(wrench.fz_n),
        "lateral": math.hypot(wrench.fx_n, wrench.fy_n),
        "bending": math.hypot(wrench.mx_nm, wrench.my_nm),
        "torsion": abs(wrench.mz_nm),
    }


def check_load(
    wrench: Wrench,
    envelope: LoadEnvelope | None = None,
    dual_lock: bool = False,
) -> LoadReport:
    """Screen a wrench against the envelope; ok iff combined utilization <= 1.

    dual_lock applies the redundant-lock capacity factor to every component.
    """
    env = envelope or LoadEnvelope()
    scale = DUAL_LOCK_FACTOR if dual_lock else 1.0
    loads = component_loads(wrench)
    caps = {
        "traction": env.traction_capacity_n,
        "lateral": env.lateral_capacity_n,
        "bending": env.bending_capacity_nm,
        "torsion": env.torsion_capacity_nm,
    }
    util = {k: float(loads[k]) / (scale * caps[k]) for k in loads}
    if env.interaction == "linear":
        combined = sum(util.values())
    else:
        combined = max(util.values())
    notes = []
    if util["lateral"] > 0.0 and env.lateral_capacity_n == env.traction_capacity_n:
        notes.append(
            "lateral capacity is assumed equal to the traction rating; "
            "no published shear rating backs it"
        )
    return LoadReport(
        utilization=util,
        combined=combined,
        ok=bool(combined <= 1.0),
        interaction=env.interaction,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class StressReference:
    """Single-mode reference analysis: deflection and peak stress at ref load."""

    component: str
    ref_load: float  # N for traction, Nm for moments
    deflection_mm: float
    stress_mpa: float


STRESS_REFERENCES: tuple[StressReference, ...] = (
    StressReference("traction", 3000.0, 0.0037, 21.999),
    StressReference("torsion", 500.0, 0.0034, 44.781),
    StressReference("bending", 500.0, 0.0033, 52.237),
)


@dataclass(frozen=True)
class StressEstimate:
    deflection_mm: float
    stress_mpa: float
    per_component: dict[str, tuple[float, float]]  # component -> (deflection, stress)
    superposed: bool  # True when more than one component was active
    notes: tuple[str, ...] = ()


def stress_estimate(wrench: Wrench) -> StressEstimate:
    """Linear per-mode scaling of STRESS_REFERENCES; reports the max.

    Exact at the reference loads by construction. When several components
    are active the result carries a superposition caveat: single-mode
    scaling brackets but does not reproduce a combined-field analysis.
    """
    loads = component_loads(wrench)
    per: dict[str, tuple[float, float]] = {}
    notes: list[str] = []
    for ref in STRESS_REFERENCES:
        ratio = loads[ref.component] / ref.ref_load
        per[ref.component] = (ref.deflection_mm * ratio, ref.stress_mpa * ratio)
    active = [c for c, (d, s) in per.items() if d != 0.0 or s != 0.0]
    if loads["lateral"] > 0.0:
        notes.append("no stress reference covers lateral shear; it is not estimated")
    superposed = len(active) > 1
    if superposed:
        notes.append(
            "multiple load components active: per-mode linear scaling does not "
            "capture combined-field interaction"
        )
    deflection = max((d for d, _ in per.values()), default=0.0)
    stress = max((s for _, s in per.values()), default=0.0)
    return StressEstimate(
        deflection_mm=deflection,
        stress_mpa=stress,
        per_component=per,
        superposed=superposed,
        notes=tuple(notes),
    )
