"""Quasi-static model of the pyramid-wedge / three-pin retraction mechanism.

The analysis is per pin in 2D; totals assume symmetric loading of all pins.
All operations are pure functions of their inputs.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import JamError, ParameterError, StallError

# Most samples a stroke trace may hold (stroke duration over dt); a full
# trace is then about 20 MB of sample tuples.
MAX_STROKE_SAMPLES = 100_000


@dataclass(frozen=True)
class MechanismParams:
    """Friction / geometry / drive parameters of the locking mechanism.

    mu1 acts at the pyramid-to-pin contact, mu2 at the pin-to-guide
    contact. theta_deg is the wedge half-angle, beta_deg the self-lock
    rail ramp angle.
    """

    mu1: float = 0.3
    mu2: float = 0.3
    theta_deg: float = 45.0
    beta_deg: float = 5.0
    pin_count: int = 3
    stroke_mm: float = 15.0
    rod_speed_mm_s: float = 1.0

    def __post_init__(self):
        if not (self.mu1 >= 0.0 and self.mu2 >= 0.0):
            raise ParameterError("friction coefficients must be >= 0")
        if not 0.0 < self.theta_deg < 90.0:
            raise ParameterError("theta_deg must be in (0, 90)")
        if math.sin(math.radians(self.theta_deg)) == 0.0:  # a subnormal angle
            raise ParameterError("theta_deg must have a nonzero sine")
        if not 0.0 <= self.beta_deg < 90.0:
            raise ParameterError("beta_deg must be in [0, 90)")
        if self.pin_count < 1:
            raise ParameterError("pin_count must be >= 1")
        if self.pin_count > sys.float_info.max:
            raise ParameterError("pin_count must be within the float range")
        if not (self.stroke_mm > 0.0 and self.rod_speed_mm_s > 0.0):
            raise ParameterError("stroke and rod speed must be positive")


@dataclass(frozen=True)
class StrokeTrace:
    """Sampled quasi-static stroke: (time s, rod mm, pin radial mm, pin force N)."""

    samples: tuple[tuple[float, float, float, float], ...]
    direction: str

    @property
    def duration_s(self) -> float:
        return self.samples[-1][0]


def pin_guide_normal(normal_f1: float, params: MechanismParams) -> float:
    """Guide normal force F2 produced by pyramid contact normal F1."""
    if normal_f1 < 0.0:
        raise ParameterError("normal_f1 must be >= 0")
    th = math.radians(params.theta_deg)
    return params.mu1 * normal_f1 * math.sin(th) + normal_f1 * math.cos(th)


def movability_margin(params: MechanismParams) -> float:
    """sin(theta) minus the friction terms; pins move iff this is positive."""
    th = math.radians(params.theta_deg)
    s, c = math.sin(th), math.cos(th)
    return s - (params.mu1 * c + params.mu1 * params.mu2 * s + params.mu2 * c)


@dataclass(frozen=True)
class MovabilityReport:
    margin: float
    movable: bool
    normalized_rhs: float   # friction terms scaled so the left side is 1


def movability_report(params: MechanismParams) -> MovabilityReport:
    margin = movability_margin(params)
    th = math.radians(params.theta_deg)
    s, c = math.sin(th), math.cos(th)
    rhs = (params.mu1 * c + params.mu1 * params.mu2 * s + params.mu2 * c) / s
    return MovabilityReport(margin=margin, movable=margin > 0.0, normalized_rhs=rhs)


def self_locking(params: MechanismParams, mu_rail: float) -> bool:
    """Strict inequality: the boundary mu == tan(beta) is not self-locking."""
    if mu_rail < 0.0:
        raise ParameterError("mu_rail must be >= 0")
    return mu_rail > math.tan(math.radians(params.beta_deg))


def required_rod_force(resisting_force: float, params: MechanismParams) -> float:
    """Axial rod force holding all pins against a radial resistance per pin.

    The movability margin maps radial resistance to the pyramid contact
    normal F1 at equilibrium; the rod reacts the axial components of F1
    and its friction.
    """
    if resisting_force < 0.0:
        raise ParameterError("resisting_force must be >= 0")
    margin = movability_margin(params)
    if margin <= 0.0:
        raise JamError(f"mechanism immovable: margin={margin:.6g}")
    th = math.radians(params.theta_deg)
    f1_normal = resisting_force / margin
    per_pin_axial = f1_normal * (math.cos(th) + params.mu1 * math.sin(th))
    return params.pin_count * per_pin_axial


def simulate_stroke(
    params: MechanismParams,
    resisting_force_profile,
    direction: str = "locking",
    dt: float = 0.001,
    rod_capacity_n: float = 800.0,
) -> StrokeTrace:
    """Quasi-static stroke trace at the configured rod speed.

    resisting_force_profile maps pin radial position (mm) to a radial
    resisting force (N) per pin. Raises StallError when the required rod
    force exceeds rod_capacity_n at any sample, JamError when the
    mechanism is immovable.
    """
    if direction not in ("locking", "unlocking"):
        raise ParameterError("direction must be 'locking' or 'unlocking'")
    if dt <= 0.0:
        raise ParameterError("dt must be positive")
    duration = params.stroke_mm / params.rod_speed_mm_s
    if duration / dt > MAX_STROKE_SAMPLES:
        raise ParameterError(f"dt {dt!r} s needs more than {MAX_STROKE_SAMPLES} stroke samples")
    margin = movability_margin(params)
    if margin <= 0.0:
        raise JamError(f"mechanism immovable: margin={margin:.6g}")

    th = math.radians(params.theta_deg)
    tan_th = math.tan(th)
    n = int(duration / dt)
    times = [i * dt for i in range(n + 1)]
    if times[-1] < duration:
        times.append(duration)

    samples = []
    for t in times:
        travel = min(params.rod_speed_mm_s * t, params.stroke_mm)
        rod = travel if direction == "locking" else params.stroke_mm - travel
        radial = tan_th * rod
        resist = float(resisting_force_profile(radial))
        if resist < 0.0:
            raise ParameterError("resisting force profile returned a negative value")
        f1_normal = resist / margin
        rod_force = params.pin_count * f1_normal * (math.cos(th) + params.mu1 * math.sin(th))
        if rod_force > rod_capacity_n:
            raise StallError(
                f"rod force {rod_force:.3f} N exceeds capacity {rod_capacity_n:.3f} N"
                f" at radial position {radial:.3f} mm"
            )
        samples.append((t, rod, radial, f1_normal))
    return StrokeTrace(samples=tuple(samples), direction=direction)
