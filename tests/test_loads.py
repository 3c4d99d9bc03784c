"""Load screening and stress scaling tests."""
import math

import pytest

from docksim.errors import ParameterError
from docksim.loads import (
    DUAL_LOCK_FACTOR,
    LoadEnvelope,
    LoadReport,
    Wrench,
    check_load,
    component_loads,
    stress_estimate,
)


class TestComponentMapping:
    def test_axes_route_to_components(self):
        loads = component_loads(Wrench(fx_n=3.0, fy_n=4.0, fz_n=-7.0, mx_nm=6.0, my_nm=8.0, mz_nm=-2.0))
        assert loads["lateral"] == pytest.approx(5.0, rel=1e-12)
        assert loads["traction"] == 7.0
        assert loads["bending"] == pytest.approx(10.0, rel=1e-12)
        assert loads["torsion"] == 2.0

    def test_sign_flip_invariance(self):
        w = Wrench(fx_n=10.0, fy_n=-20.0, fz_n=30.0, mx_nm=-5.0, my_nm=15.0, mz_nm=-25.0)
        assert component_loads(w) == component_loads(w.scaled(-1.0))


class TestCheckLoad:
    def test_rated_traction_passes_at_unity(self):
        rep = check_load(Wrench(fz_n=3000.0))
        assert rep.utilization["traction"] == 1.0
        assert rep.ok

    def test_traction_over_rating_fails(self):
        assert not check_load(Wrench(fz_n=3001.0)).ok

    def test_rated_torsion_passes(self):
        rep = check_load(Wrench(mz_nm=500.0))
        assert rep.utilization["torsion"] == 1.0
        assert rep.ok

    def test_torsion_over_rating_fails(self):
        assert not check_load(Wrench(mz_nm=501.0)).ok

    def test_rated_bending_edge(self):
        assert check_load(Wrench(mx_nm=500.0)).ok
        assert not check_load(Wrench(my_nm=501.0)).ok

    def test_default_rule_is_max_component(self):
        rep = check_load(Wrench(fz_n=1800.0, mz_nm=300.0))
        assert rep.interaction == "max-component"
        assert rep.combined == pytest.approx(0.6, rel=1e-12)
        assert rep.ok

    def test_linear_rule_sums(self):
        env = LoadEnvelope(interaction="linear")
        rep = check_load(Wrench(fz_n=1800.0, mz_nm=300.0), env)
        assert rep.combined == pytest.approx(1.2, rel=1e-12)
        assert not rep.ok

    def test_dual_lock_scales_capacity(self):
        w = Wrench(fz_n=4500.0)
        assert not check_load(w).ok
        rep = check_load(w, dual_lock=True)
        assert rep.utilization["traction"] == pytest.approx(1.0, rel=1e-12)
        assert rep.ok
        assert DUAL_LOCK_FACTOR == 1.5

    def test_lateral_assumption_note(self):
        rep = check_load(Wrench(fx_n=100.0))
        assert any("assumed" in n for n in rep.notes)
        assert check_load(Wrench(fz_n=100.0)).notes == ()

    def test_no_assumption_note_for_a_set_lateral_rating(self):
        rep = check_load(Wrench(fx_n=100.0), LoadEnvelope(lateral_capacity_n=1000.0))
        assert rep.utilization["lateral"] == 0.1
        assert rep.notes == ()
        # a rating equal to the traction one is the case the note describes
        same = LoadEnvelope(traction_capacity_n=1000.0, lateral_capacity_n=1000.0)
        assert any("assumed" in n for n in check_load(Wrench(fx_n=100.0), same).notes)

    def test_bad_envelope(self):
        with pytest.raises(ParameterError):
            check_load(Wrench(), LoadEnvelope(traction_capacity_n=0.0))
        with pytest.raises(ParameterError):
            check_load(Wrench(), LoadEnvelope(interaction="rss"))

    def test_nonfinite_wrench(self):
        with pytest.raises(ParameterError):
            check_load(Wrench(fz_n=math.inf))

    @pytest.mark.parametrize("wrench, envelope, dual_lock, message", [
        (Wrench(fz_n=1200.0, my_nm=200.0), LoadEnvelope(traction_capacity_n=1e-308), False,
         "traction utilization overflows: load 1200.0 over scaled capacity 1e-308"),
        (Wrench(fz_n=1.0, mz_nm=3e8), LoadEnvelope(torsion_capacity_nm=1e-300), True,
         f"torsion utilization overflows: load 300000000.0 over scaled capacity "
         f"{DUAL_LOCK_FACTOR * 1e-300!r}"),
        # each utilization is finite, their linear sum is not
        (Wrench(fx_n=1e8, fz_n=1e8), LoadEnvelope(traction_capacity_n=1e-300,
                                                  lateral_capacity_n=1e-300,
                                                  interaction="linear"), False,
         f"combined utilization overflows: the linear sum of traction {1e8 / 1e-300!r}, "
         f"lateral {1e8 / 1e-300!r}, bending 0.0, torsion 0.0"),
    ], ids=["traction", "dual-lock-torsion", "linear-sum"])
    def test_utilization_overflow_is_refused(self, wrench, envelope, dual_lock, message):
        with pytest.raises(ParameterError) as err:
            check_load(wrench, envelope, dual_lock=dual_lock)
        assert str(err.value) == message


class TestStressEstimate:
    def test_traction_reference_row_exact(self):
        est = stress_estimate(Wrench(fz_n=3000.0))
        assert est.deflection_mm == 0.0037
        assert est.stress_mpa == 21.999

    def test_torsion_reference_row_exact(self):
        est = stress_estimate(Wrench(mz_nm=500.0))
        assert est.deflection_mm == 0.0034
        assert est.stress_mpa == 44.781

    def test_bending_reference_row_exact(self):
        est = stress_estimate(Wrench(mx_nm=500.0))
        assert est.deflection_mm == 0.0033
        assert est.stress_mpa == 52.237

    def test_homogeneity(self):
        base = stress_estimate(Wrench(fz_n=3000.0, mz_nm=500.0, mx_nm=500.0))
        for k in (0.5, 2.0, 10.0):
            scaled = stress_estimate(Wrench(fz_n=3000.0 * k, mz_nm=500.0 * k, mx_nm=500.0 * k))
            assert scaled.deflection_mm == pytest.approx(k * base.deflection_mm, rel=1e-12)
            assert scaled.stress_mpa == pytest.approx(k * base.stress_mpa, rel=1e-12)

    def test_zero_wrench(self):
        est = stress_estimate(Wrench())
        assert est.deflection_mm == 0.0
        assert est.stress_mpa == 0.0
        assert not est.superposed

    def test_superposition_caveat(self):
        single = stress_estimate(Wrench(fz_n=1000.0))
        assert not single.superposed
        multi = stress_estimate(Wrench(fz_n=1000.0, mz_nm=100.0))
        assert multi.superposed
        assert any("combined" in n for n in multi.notes)

    def test_lateral_not_estimated(self):
        est = stress_estimate(Wrench(fx_n=500.0))
        assert est.stress_mpa == 0.0
        assert any("lateral" in n for n in est.notes)
