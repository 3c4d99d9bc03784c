"""Mechanism statics tests against an independent 2D equilibrium oracle.

The oracle never uses the closed-form movability margin: it solves the
per-pin force balance numerically by bisection on the pyramid contact
normal, so formula and oracle are genuinely separate routes.
"""
import math

import pytest

from docksim import mechanism
from docksim.errors import JamError, ParameterError, StallError
from docksim.mechanism import (
    MechanismParams,
    movability_margin,
    movability_report,
    pin_guide_normal,
    required_rod_force,
    self_locking,
    simulate_stroke,
)


def oracle_equilibrium(mu1, mu2, theta_deg, resistance):
    """Solve the per-pin balance for (F1, F2, rod axial per pin) numerically.

    Radial: F1*sin(th) - mu1*F1*cos(th) - mu2*F2 = resistance
    Axial (pin): F2 = mu1*F1*sin(th) + F1*cos(th)
    Rod reacts axial components of F1 and its friction.
    """
    th = math.radians(theta_deg)

    def radial_residual(f1):
        f2 = mu1 * f1 * math.sin(th) + f1 * math.cos(th)
        return f1 * math.sin(th) - mu1 * f1 * math.cos(th) - mu2 * f2 - resistance

    lo, hi = 0.0, 1.0
    while radial_residual(hi) < 0.0:
        hi *= 2.0
        if hi > 1e15:
            raise AssertionError("oracle found no equilibrium (jammed)")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if radial_residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    f1 = 0.5 * (lo + hi)
    f2 = mu1 * f1 * math.sin(th) + f1 * math.cos(th)
    rod_per_pin = f1 * math.cos(th) + mu1 * f1 * math.sin(th)
    return f1, f2, rod_per_pin


class TestPinGuideNormal:
    def test_worked_example(self):
        # 100 N contact normal, mu1=0.3, theta=45: F2 = 100*(0.3*sin45 + cos45)
        params = MechanismParams()
        expected = 100.0 * (0.3 * math.sin(math.radians(45)) + math.cos(math.radians(45)))
        assert pin_guide_normal(100.0, params) == pytest.approx(expected, rel=1e-12)
        assert pin_guide_normal(100.0, params) == pytest.approx(91.9238815542512, abs=1e-9)

    def test_zero_force(self):
        assert pin_guide_normal(0.0, MechanismParams()) == 0.0

    def test_frictionless_reduces_to_cosine(self):
        params = MechanismParams(mu1=0.0, mu2=0.0, theta_deg=30.0)
        assert pin_guide_normal(50.0, params) == pytest.approx(
            50.0 * math.cos(math.radians(30.0)), rel=1e-12
        )

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            pin_guide_normal(-1.0, MechanismParams())

    def test_matches_oracle(self):
        for mu1, mu2, th in [(0.3, 0.3, 45.0), (0.1, 0.4, 30.0), (0.5, 0.2, 60.0)]:
            f1, f2, _ = oracle_equilibrium(mu1, mu2, th, 100.0)
            params = MechanismParams(mu1=mu1, mu2=mu2, theta_deg=th)
            assert pin_guide_normal(f1, params) == pytest.approx(f2, rel=1e-9)


class TestMovability:
    def test_default_normalized_rhs_exact(self):
        # mu1 = mu2 = 0.3, theta = 45: sin == cos so the ratio collapses to
        # mu1 + mu1*mu2 + mu2 = 0.69 with no rounding residue beyond 1e-12.
        rep = movability_report(MechanismParams())
        assert abs(rep.normalized_rhs - 0.69) <= 1e-12
        assert rep.movable

    def test_margin_sign_matches_movability(self):
        rep = movability_report(MechanismParams(mu1=1.0, mu2=1.0, theta_deg=10.0))
        assert rep.margin < 0.0
        assert not rep.movable

    def test_frictionless_margin_is_sine(self):
        params = MechanismParams(mu1=0.0, mu2=0.0, theta_deg=37.0)
        assert movability_margin(params) == pytest.approx(
            math.sin(math.radians(37.0)), rel=1e-12
        )

    def test_margin_against_oracle(self):
        # margin * F1 must equal the supported resistance for any F1
        for mu1, mu2, th in [(0.3, 0.3, 45.0), (0.2, 0.1, 55.0), (0.05, 0.6, 40.0)]:
            params = MechanismParams(mu1=mu1, mu2=mu2, theta_deg=th)
            margin = movability_margin(params)
            resistance = 123.0
            f1, _, _ = oracle_equilibrium(mu1, mu2, th, resistance)
            assert f1 * margin == pytest.approx(resistance, rel=1e-9)


class TestSelfLocking:
    def test_strict_boundary(self):
        params = MechanismParams()
        boundary = math.tan(math.radians(params.beta_deg))
        assert not self_locking(params, boundary)
        assert self_locking(params, boundary + 1e-12)
        assert not self_locking(params, boundary - 1e-12)
        with pytest.raises(ParameterError, match="^mu_rail must be >= 0$"):
            self_locking(params, -0.1)

    def test_monotone_in_mu(self):
        params = MechanismParams(beta_deg=8.0)
        mus = [i * 0.01 for i in range(30)]
        flags = [self_locking(params, mu) for mu in mus]
        assert flags == sorted(flags)

    def test_bisected_threshold(self):
        params = MechanismParams()  # beta = 5 deg
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if self_locking(params, mid):
                hi = mid
            else:
                lo = mid
        assert abs(hi - math.tan(math.radians(5.0))) <= 1e-9


class TestRequiredRodForce:
    def test_matches_oracle(self):
        params = MechanismParams()
        _, _, rod_per_pin = oracle_equilibrium(0.3, 0.3, 45.0, 100.0)
        assert required_rod_force(100.0, params) == pytest.approx(
            3.0 * rod_per_pin, rel=1e-9
        )

    def test_linearity(self):
        params = MechanismParams()
        base = required_rod_force(10.0, params)
        for scale in (2.0, 10.0, 123.5):
            assert required_rod_force(10.0 * scale, params) == pytest.approx(
                base * scale, rel=1e-12
            )
        assert required_rod_force(0.0, params) == 0.0
        with pytest.raises(ParameterError, match="^resisting_force must be >= 0$"):
            required_rod_force(-1.0, params)

    def test_jam_raises(self):
        with pytest.raises(JamError):
            required_rod_force(10.0, MechanismParams(mu1=1.0, mu2=1.0, theta_deg=10.0))


class TestSimulateStroke:
    def test_unloaded_trace(self):
        trace = simulate_stroke(MechanismParams(), lambda r: 0.0, dt=0.01)
        assert trace.duration_s == pytest.approx(15.0, rel=1e-12)
        assert all(s[3] == 0.0 for s in trace.samples)
        assert trace.samples[0][1] == 0.0
        assert trace.samples[-1][1] == pytest.approx(15.0, rel=1e-12)

    def test_last_sample_is_the_stroke_end(self):
        # 0.4 s does not divide the 15 s stroke: 38 lattice samples up to
        # 14.8 s, then the stroke end itself
        trace = simulate_stroke(MechanismParams(), lambda r: 0.0, dt=0.4)
        assert len(trace.samples) == 39
        assert trace.samples[-2][0] < 15.0 and trace.samples[-1][0] == 15.0
        assert trace.samples[-1][1] == 15.0

    def test_wedge_kinematics(self):
        params = MechanismParams(theta_deg=38.0)
        tan_th = math.tan(math.radians(38.0))
        trace = simulate_stroke(params, lambda r: 1.0, dt=0.05)
        for _, rod, radial, _ in trace.samples:
            assert radial == pytest.approx(tan_th * rod, abs=1e-9)

    def test_constant_resistance_constant_force(self):
        params = MechanismParams()
        margin = movability_margin(params)
        trace = simulate_stroke(params, lambda r: 100.0, dt=0.05, rod_capacity_n=2000.0)
        for s in trace.samples:
            assert s[3] == pytest.approx(100.0 / margin, rel=1e-12)

    def test_position_ramp_shape(self):
        # resistance growing with radial position: pin force grows monotonically
        trace = simulate_stroke(MechanismParams(), lambda r: 2.0 * r, dt=0.05)
        forces = [s[3] for s in trace.samples]
        assert forces == sorted(forces)
        assert forces[0] == 0.0

    def test_time_reversal(self):
        params = MechanismParams()
        lock = simulate_stroke(params, lambda r: 10.0 + r, direction="locking", dt=0.05)
        unlock = simulate_stroke(params, lambda r: 10.0 + r, direction="unlocking", dt=0.05)
        assert len(lock.samples) == len(unlock.samples)
        for fwd, rev in zip(lock.samples, reversed(unlock.samples)):
            assert fwd[1] == pytest.approx(rev[1], abs=1e-9)
            assert fwd[2] == pytest.approx(rev[2], abs=1e-9)
            assert fwd[3] == pytest.approx(rev[3], abs=1e-9)

    def test_unlocking_monotone_decreasing(self):
        trace = simulate_stroke(MechanismParams(), lambda r: 0.0, direction="unlocking", dt=0.1)
        rods = [s[1] for s in trace.samples]
        assert rods == sorted(rods, reverse=True)

    def test_stall(self):
        with pytest.raises(StallError):
            simulate_stroke(MechanismParams(), lambda r: 10000.0, dt=0.1)

    @pytest.mark.parametrize("capacity", [0.0, -5.0, math.nan])
    def test_capacity_must_be_positive(self, capacity):
        # a NaN capacity would never stall: every comparison with it is false
        with pytest.raises(ParameterError, match="rod_capacity_n must be > 0"):
            simulate_stroke(MechanismParams(), lambda r: 0.0, dt=0.1, rod_capacity_n=capacity)

    def test_jam(self):
        with pytest.raises(JamError):
            simulate_stroke(
                MechanismParams(mu1=1.0, mu2=1.0, theta_deg=10.0), lambda r: 1.0, dt=0.1
            )

    def test_negative_profile_rejected(self):
        with pytest.raises(ParameterError):
            simulate_stroke(MechanismParams(), lambda r: -1.0, dt=0.1)

    def test_bad_direction_rejected(self):
        with pytest.raises(ParameterError):
            simulate_stroke(MechanismParams(), lambda r: 0.0, direction="sideways")

    def test_zero_dt_rejected(self):
        with pytest.raises(ParameterError, match="^dt must be positive$"):
            simulate_stroke(MechanismParams(), lambda r: 0.0, dt=0.0)

    def test_sample_count_capped_before_allocation(self, monkeypatch):
        # dt = 1e-7 over the 15 s default stroke asks for 1.5e8 samples (many
        # GB of tuples); a range that long fails the test instead of running
        def bounded_range(*args):
            r = range(*args)
            assert len(r) <= 10**6, f"simulate_stroke built a {len(r)}-sample lattice"
            return r

        monkeypatch.setattr(mechanism, "range", bounded_range, raising=False)
        with pytest.raises(ParameterError, match="samples"):
            simulate_stroke(MechanismParams(), lambda r: 0.0, dt=1e-7)


class TestParamValidation:
    def test_bad_theta(self):
        with pytest.raises(ParameterError):
            MechanismParams(theta_deg=0.0)
        with pytest.raises(ParameterError):
            MechanismParams(theta_deg=90.0)

    def test_theta_whose_sine_is_zero(self):
        # the smallest subnormal passes 0 < theta < 90, but its sine is 0.0
        assert math.sin(math.radians(5e-324)) == 0.0
        with pytest.raises(ParameterError, match="theta_deg must have a nonzero sine"):
            MechanismParams(theta_deg=5e-324)

    def test_bad_friction(self):
        with pytest.raises(ParameterError):
            MechanismParams(mu1=-0.1)

    def test_bad_pin_count(self):
        with pytest.raises(ParameterError):
            MechanismParams(pin_count=0)

    def test_pin_count_beyond_the_float_range(self):
        with pytest.raises(ParameterError, match="pin_count must be within the float range"):
            MechanismParams(pin_count=10 ** 400)
