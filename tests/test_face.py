"""Face geometry, capture descent, and envelope search tests.

Wall positions asserted here were measured on the reference face with the
shipped solver settings and act as regression pins; the acceptance suite
separately checks them against the published tolerance targets.
"""
import collections
import functools
import math
import re
import sys
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docksim.errors import CalibrationError, DegenerateProfileError, ParameterError
import docksim.face as face
from docksim.face import (
    REFERENCE_PROFILE,
    Envelope,
    FaceProfile,
    Misalignment,
    calibrate_profile,
    canonicalize,
    envelope_axis_limit,
    full_envelope,
    height_field,
    mate_feasible,
    rotate_misalignment_120,
    settle_height,
)

import capture_oracle
from capture_oracle import (
    axis_limit_linear_scan,
    reference_descend,
    reference_moving_term,
    reference_settle,
    synthetic_limits,
)


class TestProfileValidation:
    def test_reference_is_valid(self):
        assert replace(REFERENCE_PROFILE) == REFERENCE_PROFILE  # rebuilt through its checks

    def test_petal_count_fixed(self):
        with pytest.raises(ParameterError):
            FaceProfile(6.5, 24.7, 27.0, 1.0, petal_count=4)

    def test_flank_range(self):
        with pytest.raises(ParameterError):
            FaceProfile(6.5, 0.0, 27.0, 1.0)
        with pytest.raises(ParameterError):
            FaceProfile(6.5, 90.0, 27.0, 1.0)

    def test_groove_radius_between_hub_and_rim(self):
        with pytest.raises(ParameterError):
            FaceProfile(6.5, 24.7, 10.0, 1.0)
        with pytest.raises(ParameterError):
            FaceProfile(6.5, 24.7, 45.0, 1.0)

    def test_groove_spacing(self):
        with pytest.raises(ParameterError):
            FaceProfile(6.5, 24.7, 27.0, 1.0, groove_positions_deg=(90.0, 200.0, 330.0))

    @pytest.mark.parametrize("grooves", [
        (math.nan, math.nan, math.nan),
        (90.0, 210.0, math.nan),
        (math.inf, math.inf, math.inf),
        (-math.inf, 210.0, 330.0),
    ])
    def test_non_finite_groove_positions(self, grooves):
        # NaN spacing compares false against the 120-degree test, so it needs its own check
        with pytest.raises(ParameterError, match="groove positions must be finite"):
            FaceProfile(6.5, 24.7, 27.0, 1.0, groove_positions_deg=grooves)

    @pytest.mark.parametrize("field", ["petal_height_mm", "petal_flank_angle_deg",
                                       "groove_radius_mm", "chamfer_depth_mm",
                                       "outer_diameter_mm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_dimensions(self, field, value):
        # NaN compares false against every range test, and an infinite rim
        # passes them all, so finiteness needs its own check
        with pytest.raises(ParameterError, match="profile dimensions must be finite"):
            replace(REFERENCE_PROFILE, **{field: value})

    def test_equal_profiles_share_memo_entries(self):
        # the per-profile memos key on the profile's value: a replace()-equal
        # copy hashes and compares equal and hits the entries its twin made
        p = replace(REFERENCE_PROFILE, chamfer_depth_mm=0.75)
        mis = Misalignment(dx_mm=1.0)
        record = face._samples(p)
        mate_feasible(p, mis)
        q = replace(p)
        assert q is not p and q == p and hash(q) == hash(p)
        assert asdict(q) == asdict(p) and list(asdict(q)) == [f.name for f in fields(FaceProfile)]
        for memo, call in ((face._samples, lambda: face._samples(q)),
                           (face._feasible, lambda: mate_feasible(q, mis))):
            before = memo.cache_info()
            call()
            after = memo.cache_info()
            assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
        assert face._samples(q) is record  # the one per-profile record

    def test_ramp_width_cap(self):
        steep = FaceProfile(6.5, 5.0, 27.0, 1.0)
        assert steep.ramp_width_deg == 30.0
        assert REFERENCE_PROFILE.ramp_width_deg < 30.0


class TestHeightField:
    def test_hub_is_flat(self):
        p = REFERENCE_PROFILE
        r = np.linspace(0.0, face.HUB_RADIUS_MM, 20)
        phi = np.linspace(0.0, 2 * np.pi, 40)
        rr, pp = np.meshgrid(r, phi)
        z = height_field(p, rr * np.cos(pp), rr * np.sin(pp))
        assert np.all(z == 0.0)

    def test_peak_equals_petal_height(self):
        p = REFERENCE_PROFILE
        r = np.linspace(0.0, p.rim_radius_mm, 200)
        phi = np.radians(np.linspace(0.0, 360.0, 720, endpoint=False))
        rr, pp = np.meshgrid(r, phi)
        z = height_field(p, rr * np.cos(pp), rr * np.sin(pp))
        assert np.max(z) == pytest.approx(p.petal_height_mm, abs=1e-12)
        assert np.min(z) == pytest.approx(-p.petal_height_mm, abs=1e-12)

    def test_three_fold_periodicity(self):
        p = REFERENCE_PROFILE
        rng = np.random.default_rng(3)
        r = rng.uniform(0.0, 40.0, 500)
        a = rng.uniform(0.0, 2 * np.pi, 500)
        z0 = height_field(p, r * np.cos(a), r * np.sin(a))
        z1 = height_field(p, r * np.cos(a + 2 * np.pi / 3), r * np.sin(a + 2 * np.pi / 3))
        assert np.allclose(z0, z1, atol=1e-9)

    def test_odd_petal_wave(self):
        # petals and grooves mirror each other across the groove center line
        p = REFERENCE_PROFILE
        r = np.full(50, 30.0)
        x = np.linspace(1.0, 59.0, 50)
        phase = p.groove_positions_deg[0] - 90.0
        up = np.radians(phase + x)
        dn = np.radians(phase - x)
        z_up = height_field(p, r * np.cos(up), r * np.sin(up))
        z_dn = height_field(p, r * np.cos(dn), r * np.sin(dn))
        assert np.allclose(z_up, -z_dn, atol=1e-9)


class TestCanonicalization:
    def test_rotation_chain_is_involution_mod_3(self):
        m = Misalignment(3.0, -4.0, 17.0, 2.0, 1.0)
        back = rotate_misalignment_120(m, 3)
        assert back.dx_mm == pytest.approx(m.dx_mm, abs=1e-12)
        assert back.tilt_y_deg == pytest.approx(m.tilt_y_deg, abs=1e-12)
        assert back.rot_deg == m.rot_deg

    def test_rot_field_unchanged_by_symmetry_rotation(self):
        m = Misalignment(1.0, 2.0, 33.0, 0.5, -0.5)
        assert rotate_misalignment_120(m).rot_deg == 33.0

    def test_canonical_domain(self):
        import random

        rng = random.Random(11)
        for _ in range(200):
            m = Misalignment(
                rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-300, 300),
                rng.uniform(-15, 15), rng.uniform(-15, 15),
            )
            c = canonicalize(m)
            assert -60.0 < c.rot_deg <= 60.0
            if (c.dx_mm, c.dy_mm) != (0.0, 0.0):
                ang = math.degrees(math.atan2(c.dy_mm, c.dx_mm)) % 360.0
                assert ang < 120.0

    def test_canonical_agrees_across_symmetry_copies(self):
        # Chained float rotations are not exactly periodic, so canonical
        # representatives of symmetry copies agree to rounding, not bitwise.
        import random

        rng = random.Random(5)
        for _ in range(100):
            m = Misalignment(
                rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-60, 60),
                rng.uniform(-15, 15), rng.uniform(-15, 15),
            )
            c0 = canonicalize(m)
            for k in (1, 2):
                ck = canonicalize(rotate_misalignment_120(m, k))
                assert ck.dx_mm == pytest.approx(c0.dx_mm, abs=1e-9)
                assert ck.dy_mm == pytest.approx(c0.dy_mm, abs=1e-9)
                assert ck.rot_deg == pytest.approx(c0.rot_deg, abs=1e-9)
                assert ck.tilt_x_deg == pytest.approx(c0.tilt_x_deg, abs=1e-9)
                assert ck.tilt_y_deg == pytest.approx(c0.tilt_y_deg, abs=1e-9)


def _turned(x, y, turns):
    for _ in range(turns):
        x, y = face._rot120(x, y)
    return x, y


def _nudged(v):
    """v, or v moved one ulp either way."""
    return st.sampled_from((v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)))


# Rotations at the wrap of the 120-degree period, and a vector on one of the
# symmetry axes at 0/120/240 degrees (a lateral offset or a tilt axis), built
# by the same exact 120-degree turns the symmetry machinery uses, with each
# component possibly nudged one ulp off the axis.
_BOUNDARY_ROT = st.sampled_from((60.0, -60.0, 180.0, -180.0, 300.0, -300.0, 120.0, -120.0,
                                 0.0, -0.0)).flatmap(_nudged) | st.floats(-1000.0, 1000.0)
_AXIS_VECTOR = st.builds(
    _turned, st.floats(1e-6, 50.0), st.sampled_from((0.0, -0.0)), st.integers(0, 2)
).flatmap(lambda v: st.tuples(_nudged(v[0]), _nudged(v[1])))
_ZERO = st.sampled_from((0.0, -0.0))


def _reference_angle(m: Misalignment):
    """Polar angle in (-180, 180] of the vector canonicalize turns: the
    lateral offset, else the tilt axis; None when both are zero."""
    rx, ry = (m.dx_mm, m.dy_mm) if (m.dx_mm, m.dy_mm) != (0.0, 0.0) \
        else (m.tilt_x_deg, m.tilt_y_deg)
    if (rx, ry) == (0.0, 0.0):
        return None
    return math.degrees(math.atan2(ry, rx))


class TestCanonicalBoundaries:
    """canonicalize at the edges of the fundamental domain: rotations that
    wrap at +-60 and +-180, reference vectors on the 0/120/240 axes, and
    the zero-lateral fallback to the tilt axis."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(rot=_BOUNDARY_ROT,
           lateral=_AXIS_VECTOR | st.tuples(_ZERO, _ZERO),
           tilt=_AXIS_VECTOR | st.tuples(_ZERO, _ZERO) | st.tuples(
               st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)))
    def test_lands_in_the_fundamental_domain(self, rot, lateral, tilt):
        mis = Misalignment(lateral[0], lateral[1], rot, tilt[0], tilt[1])
        c = canonicalize(mis)
        assert -60.0 < c.rot_deg <= 60.0
        assert math.remainder(c.rot_deg - rot, 120.0) == pytest.approx(0.0, abs=1e-9)
        ang = _reference_angle(c)
        assert ang is None or -1e-9 < ang < 120.0
        # one of the three symmetry copies, bit for bit
        same_rot = replace(mis, rot_deg=c.rot_deg)
        assert c in [rotate_misalignment_120(same_rot, k) for k in range(3)]

    # on the 240 axis, its three copies read 240, 360.0 and 120.0 degrees
    @pytest.mark.parametrize("mis", [Misalignment(dx_mm=-5e-07, dy_mm=-8.660254037844385e-07),
                                     Misalignment(tilt_x_deg=-5e-07,
                                                  tilt_y_deg=-8.660254037844385e-07)])
    def test_axis_vector_that_rounds_past_every_copy(self, mis):
        assert -1e-9 < _reference_angle(canonicalize(mis)) < 120.0

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(rot=st.sampled_from((60.0, -60.0, 180.0, 0.0, 10.0)),
           lateral=st.builds(_turned, st.floats(0.0, 2.0), st.just(0.0), st.integers(0, 2)),
           tilt=st.builds(_turned, st.floats(0.0, 2.0), st.just(0.0), st.integers(0, 2)))
    def test_symmetry_copies_share_a_verdict(self, rot, lateral, tilt):
        mis = Misalignment(lateral[0], lateral[1], rot, tilt[0], tilt[1])
        verdicts = {mate_feasible(REFERENCE_PROFILE, rotate_misalignment_120(mis, k))
                    for k in range(3)}
        assert len(verdicts) == 1


class TestSettleHeight:
    def test_aligned_faces_mesh_flush(self):
        # conjugate surfaces: at zero misalignment the faces close to zero
        # separation with full-face contact
        d0 = settle_height(REFERENCE_PROFILE, (0.0, 0.0, 0.0, 0.0, 0.0))
        assert abs(d0) < 1e-9

    def test_far_lateral_overlap_lost(self):
        assert settle_height(REFERENCE_PROFILE, (70.0, 0.0, 0.0, 0.0, 0.0)) == math.inf

    def test_extreme_tilt_rejected(self):
        assert settle_height(REFERENCE_PROFILE, (0.0, 0.0, 0.0, 80.0, 0.0)) == math.inf

    def test_small_offset_costs_height(self):
        d0 = settle_height(REFERENCE_PROFILE, (0.0, 0.0, 0.0, 0.0, 0.0))
        d1 = settle_height(REFERENCE_PROFILE, (5.0, 0.0, 0.0, 0.0, 0.0))
        assert d1 > d0


class TestMateFeasible:
    def test_zero_misalignment_always_feasible(self):
        assert mate_feasible(REFERENCE_PROFILE, Misalignment())

    def test_small_offsets_feasible(self):
        p = REFERENCE_PROFILE
        assert mate_feasible(p, Misalignment(dx_mm=3.0))
        assert mate_feasible(p, Misalignment(rot_deg=10.0))
        assert mate_feasible(p, Misalignment(tilt_x_deg=4.0))

    def test_gross_offsets_infeasible(self):
        p = REFERENCE_PROFILE
        assert not mate_feasible(p, Misalignment(dx_mm=p.outer_diameter_mm))
        assert not mate_feasible(p, Misalignment(rot_deg=58.0))
        assert not mate_feasible(p, Misalignment(tilt_x_deg=25.0))

    def test_symmetry_copies_agree(self):
        p = REFERENCE_PROFILE
        m = Misalignment(6.0, 2.0, 15.0, 3.0, -1.0)
        f0 = mate_feasible(p, m)
        assert mate_feasible(p, rotate_misalignment_120(m)) == f0
        assert mate_feasible(p, rotate_misalignment_120(m, 2)) == f0

    def test_equivalent_rotations_agree(self):
        p = REFERENCE_PROFILE
        assert mate_feasible(p, Misalignment(rot_deg=70.0)) == mate_feasible(
            p, Misalignment(rot_deg=-50.0)
        )

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            mate_feasible(REFERENCE_PROFILE, Misalignment(dx_mm=math.nan))

    def test_half_turn_rotations_share_one_descent(self):
        # rot 60, -60 and 180 are one physical state under the 120-degree
        # period, so they must share one canonical key and one descent
        before = face._feasible.cache_info().misses
        for rot in (60.0, -60.0, 180.0):
            mate_feasible(REFERENCE_PROFILE, Misalignment(dx_mm=0.75, rot_deg=rot))
        assert face._feasible.cache_info().misses - before == 1


class TestEnvelopeSearch:
    def test_matches_linear_scan_translation(self, reference_envelope):
        p = REFERENCE_PROFILE
        for d in (0.0, 30.0):
            assert envelope_axis_limit(p, "translation", 1.0, d) == axis_limit_linear_scan(
                p, "translation", 1.0, d
            )

    def test_matches_linear_scan_rotation(self, reference_envelope):
        p = REFERENCE_PROFILE
        assert envelope_axis_limit(p, "rotation", 1.0, 1.0) == axis_limit_linear_scan(
            p, "rotation", 1.0, 1.0
        )

    def test_matches_linear_scan_deflection(self, reference_envelope):
        p = REFERENCE_PROFILE
        assert envelope_axis_limit(p, "deflection", 1.0, 60.0) == axis_limit_linear_scan(
            p, "deflection", 1.0, 60.0
        )

    def test_wall_edges(self, reference_envelope):
        # boundary semantics: the limit is feasible, limit + tol is not
        p = REFERENCE_PROFILE
        lim = envelope_axis_limit(p, "translation", 1.0, 30.0)
        assert mate_feasible(p, Misalignment(dx_mm=lim * math.cos(math.radians(30.0)),
                                             dy_mm=lim * math.sin(math.radians(30.0))))
        nxt = lim + 1.0
        assert not mate_feasible(p, Misalignment(dx_mm=nxt * math.cos(math.radians(30.0)),
                                                 dy_mm=nxt * math.sin(math.radians(30.0))))

    def test_bad_tol(self):
        with pytest.raises(ParameterError):
            envelope_axis_limit(REFERENCE_PROFILE, "translation", 0.0)

    @pytest.mark.parametrize("tol", [1.0, 0.001, math.nan])
    def test_unknown_axis_fails_before_a_probe(self, tol, monkeypatch):
        # an unknown axis once ran the zero-misalignment probe first, and
        # a fine tol sized its scan as deflection's and reported that
        monkeypatch.setattr(face, "mate_feasible", lambda p, m: pytest.fail("probed"))
        with pytest.raises(ParameterError, match="unknown axis 'yaw'"):
            envelope_axis_limit(REFERENCE_PROFILE, "yaw", tol)

    @pytest.mark.parametrize("axis,tol", [("translation", 1e-9), ("translation", 0.0039),
                                          ("rotation", 0.0029), ("deflection", 1e-9)])
    def test_lattice_cap(self, axis, tol, monkeypatch):
        # a ray over the probe budget is refused before any probe runs
        monkeypatch.setattr(face, "mate_feasible", lambda p, m: pytest.fail("probed"))
        with pytest.raises(ParameterError, match=f"more than {face.MAX_ENVELOPE_PROBES} lattice"):
            envelope_axis_limit(REFERENCE_PROFILE, axis, tol)

    @pytest.mark.parametrize("axis,tol", [("rotation", 90.0), ("rotation", 60.000000000001),
                                          ("translation", 80.5), ("deflection", 61.0)])
    def test_tol_past_the_axis_cap_fails_before_a_probe(self, axis, tol, monkeypatch):
        # a rotation tol past the 60 deg ceiling once probed one lattice
        # point past it; 90 deg canonicalises to -30, which captures, so the
        # scan reported 90 deg
        monkeypatch.setattr(face, "mate_feasible", lambda p, m: pytest.fail("probed"))
        with pytest.raises(ParameterError, match=f"exceeds the {axis} axis cap"):
            envelope_axis_limit(REFERENCE_PROFILE, axis, tol)
        kwarg = "tol_translation_mm" if axis == "translation" else f"tol_{axis}_deg"
        with pytest.raises(ParameterError, match=f"exceeds the {axis} axis cap"):
            full_envelope(REFERENCE_PROFILE, **{kwarg: tol})

    @pytest.mark.parametrize("axis", face._AXES)
    def test_tol_at_the_axis_cap_probes_the_cap(self, axis):
        cap = face._axis_cap(REFERENCE_PROFILE, axis)
        want = cap if mate_feasible(REFERENCE_PROFILE, face._axis_state(axis, 1.0, cap)) else 0.0
        assert envelope_axis_limit(REFERENCE_PROFILE, axis, cap, 1.0) == want

    def test_lattice_cap_boundary(self, monkeypatch):
        # a ray of exactly the budget gets past the check to its first probe
        class Probed(Exception):
            pass

        def probe(p, m):
            raise Probed

        monkeypatch.setattr(face, "mate_feasible", probe)
        budget = face.MAX_ENVELOPE_PROBES
        with pytest.raises(Probed):
            envelope_axis_limit(REFERENCE_PROFILE, "rotation", 60.0 / (budget + 0.5))
        with pytest.raises(ParameterError, match="lattice points"):
            envelope_axis_limit(REFERENCE_PROFILE, "rotation", 60.0 / (budget + 1.5))

    @pytest.mark.parametrize("axis,tol,direction", [
        ("rotation", 1.0, math.nan), ("translation", 1.0, math.inf),
        ("deflection", 1.0, -math.inf), ("translation", math.nan, 0.0),
        ("rotation", math.inf, 1.0)])
    def test_non_finite_arguments(self, axis, tol, direction, monkeypatch):
        # a NaN direction once read as +1 on the rotation axis, an infinite
        # one or a NaN tol raised a bare ValueError; all fail before a probe
        monkeypatch.setattr(face, "mate_feasible", lambda p, m: pytest.fail("probed"))
        with pytest.raises(ParameterError, match="finite"):
            envelope_axis_limit(REFERENCE_PROFILE, axis, tol, direction)

    def test_degenerate_guard(self, monkeypatch):
        monkeypatch.setattr(face, "mate_feasible", lambda p, m: False)
        with pytest.raises(DegenerateProfileError):
            envelope_axis_limit(REFERENCE_PROFILE, "translation", 1.0)


class TestFullEnvelope:
    def test_quoted_are_minima(self, reference_envelope):
        env = reference_envelope
        for axis, quoted in (
            ("translation", env.translation_limit_mm),
            ("rotation", env.rotation_limit_deg),
            ("deflection", env.deflection_limit_deg),
        ):
            vals = [v for a, _, v in env.per_direction if a == axis]
            assert quoted == min(vals)

    def test_row_counts(self, reference_envelope):
        rows = reference_envelope.per_direction
        assert sum(1 for a, _, _ in rows if a == "translation") == 12
        assert sum(1 for a, _, _ in rows if a == "deflection") == 12
        assert sum(1 for a, _, _ in rows if a == "rotation") == 2

    def test_symmetry_replication(self, reference_envelope):
        rows = {(a, d): v for a, d, v in reference_envelope.per_direction}
        for axis in ("translation", "deflection"):
            for d in (0.0, 30.0, 60.0, 90.0):
                assert rows[(axis, d)] == rows[(axis, d + 120.0)] == rows[(axis, d + 240.0)]

    def test_reference_walls_regression(self, reference_envelope):
        env = reference_envelope
        assert env.translation_limit_mm == 11.0
        assert env.rotation_limit_deg == 40.0
        assert env.deflection_limit_deg == 13.0

    def test_bad_resolution(self):
        with pytest.raises(ParameterError):
            full_envelope(REFERENCE_PROFILE, angular_resolution_deg=0.0)

    @pytest.mark.parametrize("kwargs,match", [
        ({"angular_resolution_deg": 1e-9}, "rays"),
        ({"angular_resolution_deg": 0.099}, "rays"),
        ({"tol_translation_mm": 1e-9}, "lattice points"),
        ({"tol_rotation_deg": 1e-9}, "lattice points"),
        ({"tol_deflection_deg": 1e-9}, "lattice points"),
    ])
    def test_sweep_size_caps(self, kwargs, match, monkeypatch):
        # the probe budget is checked before the sweep probes anything, and
        # the message names the planned count and the budget
        monkeypatch.setattr(face, "mate_feasible", lambda p, m: pytest.fail("probed"))
        with pytest.raises(ParameterError, match=match) as ei:
            full_envelope(REFERENCE_PROFILE, **kwargs)
        assert re.fullmatch(r"sweep plans at least \d+ probes \(\d+ rays x \d+ lattice points "
                            rf"\+ 2 x \d+\), over the budget of {face.MAX_ENVELOPE_PROBES} probes",
                            str(ei.value))

    @pytest.mark.parametrize("kwargs", [
        {"angular_resolution_deg": math.nan}, {"angular_resolution_deg": math.inf},
        {"tol_translation_mm": math.nan}, {"tol_rotation_deg": math.inf},
        {"tol_deflection_deg": math.nan}])
    def test_non_finite_arguments(self, kwargs, monkeypatch):
        # a NaN resolution once swept one ray per axis, a NaN tol raised a
        # bare ValueError; all fail before a probe
        monkeypatch.setattr(face, "mate_feasible", lambda p, m: pytest.fail("probed"))
        with pytest.raises(ParameterError, match="finite"):
            full_envelope(REFERENCE_PROFILE, **kwargs)

    def test_envelope_type(self, reference_envelope):
        assert isinstance(reference_envelope, Envelope)


class TestCalibration:
    def test_rotation_ceiling_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_profile((12.0, 75.0, 14.0))

    def test_translation_ceiling_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_profile((90.0, 41.0, 14.0))

    def test_deflection_ceiling_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_profile((12.0, 41.0, 95.0))

    def test_nonpositive_targets_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_profile((0.0, 41.0, 14.0))

    @pytest.mark.parametrize("targets", [(5e-324, 41.0, 14.0), (1e-308, 41.0, 14.0),
                                         (12.0, 1e-308, 14.0), (12.0, 41.0, 1e-308)])
    def test_target_too_small_to_score_rejected(self, targets, monkeypatch):
        # 1 / 1e-308 is finite, but a residual of 11 mm against it is not
        monkeypatch.setattr(face, "full_envelope", lambda p: pytest.fail("probed"))
        with pytest.raises(CalibrationError) as err:
            calibrate_profile(targets)
        assert err.value.best_residual is None

    def test_published_targets_reachable(self, reference_envelope):
        prof = calibrate_profile((12.0, 41.0, 14.0))
        t, r, d = face._measured_limits(prof)
        assert abs(t - 12.0) / 12.0 <= 0.10
        assert abs(r - 41.0) / 41.0 <= 0.10
        assert abs(d - 14.0) / 14.0 <= 0.10


class TestCalibrationSearch:
    """The coordinate search itself, on a synthetic limit table: which
    candidates it scores, when it halves its steps and what it returns."""

    def test_search_path_and_result(self, monkeypatch):
        scored = synthetic_limits(monkeypatch)
        prof = calibrate_profile((8.0, 32.0, 12.0), tolerance=0.02)
        assert prof == replace(REFERENCE_PROFILE, chamfer_depth_mm=1.75)
        # round 1 keeps chamfer 1.5; round 2 improves nothing, so every step
        # halves and round 3 ends at the first candidate within tolerance
        assert scored == [
            (6.5, 24.7, 27.0, 1.0),
            (7.0, 24.7, 27.0, 1.0), (6.0, 24.7, 27.0, 1.0),
            (6.5, 26.7, 27.0, 1.0), (6.5, 22.7, 27.0, 1.0),
            (6.5, 24.7, 28.5, 1.0), (6.5, 24.7, 25.5, 1.0),
            (6.5, 24.7, 27.0, 1.5), (6.5, 24.7, 27.0, 1.0),
            (7.0, 24.7, 27.0, 1.5), (6.0, 24.7, 27.0, 1.5),
            (6.5, 26.7, 27.0, 1.5), (6.5, 22.7, 27.0, 1.5),
            (6.5, 24.7, 28.5, 1.5), (6.5, 24.7, 25.5, 1.5),
            (6.5, 24.7, 27.0, 2.0), (6.5, 24.7, 27.0, 1.0),
            (6.75, 24.7, 27.0, 1.5), (6.25, 24.7, 27.0, 1.5),
            (6.5, 25.7, 27.0, 1.5), (6.5, 23.7, 27.0, 1.5),
            (6.5, 24.7, 27.75, 1.5), (6.5, 24.7, 26.25, 1.5),
            (6.5, 24.7, 27.0, 1.75),
        ]

    def test_unreachable_target_reports_best_residual(self, monkeypatch):
        scored = synthetic_limits(monkeypatch)
        with pytest.raises(CalibrationError) as err:
            calibrate_profile((12.0, 33.0, 13.0), tolerance=0.01)
        assert err.value.best_residual == 1.0 / 6.0
        assert len(scored) == 1 + 3 * 8
        assert scored[0] == (6.5, 24.7, 27.0, 1.0)


def _bits(v) -> bytes:
    return np.asarray(v, dtype=np.float64).tobytes()


def _signed_zero_variants(state):
    """Every state equal to `state` as a memo key: zeros flipped to -0.0."""
    zeros = [i for i, v in enumerate(state) if v == 0.0]
    for mask in range(1 << len(zeros)):
        out = list(state)
        for j, i in enumerate(zeros):
            out[i] = -0.0 if mask >> j & 1 else 0.0
        yield tuple(out)


_JAM_12MM_AT_30 = (12.0 * math.cos(math.radians(30.0)), 12.0 * math.sin(math.radians(30.0)),
                   0.0, 0.0, 0.0)


def _distinct_variants(state):
    """`state` and its signed-zero variants, each bit pattern once."""
    return {_bits(v): v for v in (state, *_signed_zero_variants(state))}.values()


def _go_cold() -> None:
    """Clear every memo that lets a descent skip work or reuse a result, so
    the next descent runs cold: the verdicts, the path joins and the two
    settle terms."""
    for memo in (face._feasible, face._join, face._floor, face._fixed):
        memo.cache_clear()


@functools.cache
def _visited_states() -> tuple:
    """Every state five short descents consult past the moving-face bound,
    in first-visit order: each one's fixed-face sample bound or moving-face
    term is asked for, whether or not it is then settled."""
    visited = []
    real_floor, real_samples = face._floor, face._samples

    def record(profile, state):
        visited.append(state)
        return real_floor(profile, state)

    def samples(profile):
        rec = real_samples(profile)

        def record_fixed(state, i):
            visited.append(state)
            return rec.fixed(state, i)

        return rec._replace(fixed=record_fixed)

    _go_cold()
    face._floor, face._samples = record, samples
    try:
        for start in ((2.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 3.0, 0.0, 0.0),
                      (0.0, 0.0, 0.0, 2.0, 0.0), _JAM_12MM_AT_30, _dock_stream_draws(1, 1)[0]):
            face._descend(REFERENCE_PROFILE, start)
    finally:
        face._floor, face._samples = real_floor, real_samples
    return tuple(dict.fromkeys(visited))


class TestSettleMemo:
    def test_memo_inventory(self):
        # every memo of the capture kernel with its bound: adding, removing
        # or resizing one is a change made on purpose, here and in README
        memos = {name: obj.cache_info().maxsize for name, obj in vars(face).items()
                 if hasattr(obj, "cache_info")}
        assert memos == {"_feasible": 500_000, "_floor": 1024, "_fixed": 1024,
                         "_pose_matrix": 1024, "_join": 4096, "_samples": 16}

    def test_memo_bounded_after_reference_envelope(self, reference_envelope):
        for memo in (face._floor, face._fixed):
            info = memo.cache_info()
            assert 0 < info.currsize <= info.maxsize

    def test_memo_returns_exact_bits(self):
        visited = _visited_states()
        assert len(visited) > 100

        _go_cold()
        for state in visited:
            # a -0.0 hashes and compares equal to 0.0, so the variants are
            # memo hits served from the entries just made, and settle_height
            # reads both its terms from them; they must be exact too
            for variant in _distinct_variants(state):
                assert _bits(face._floor(REFERENCE_PROFILE, variant)[0]) == _bits(
                    reference_moving_term(REFERENCE_PROFILE, variant))
                assert _bits(settle_height(REFERENCE_PROFILE, variant)) == _bits(
                    reference_settle(REFERENCE_PROFILE, variant))

    @pytest.mark.parametrize("start, verdict", [
        ((0.0, 0.0, 0.0, 0.0, 0.0), True),        # converged at the start
        ((0.0, 0.0, 58.0, 0.0, 0.0), False),      # engage-gate reject
        ((2.0, 0.0, 0.0, 0.0, 0.0), True),        # captured after a descent
        (_JAM_12MM_AT_30, False),                 # jams after a descent
    ])
    def test_descend_same_verdict_cold_and_warm(self, start, verdict):
        _go_cold()
        cold = face._descend(REFERENCE_PROFILE, start)
        warm = face._descend(REFERENCE_PROFILE, start)
        assert cold == warm == verdict


def _production_trace(monkeypatch, start):
    """Verdict of a cold production descent and its (state, steps) per iteration."""
    trace = []
    real = face._candidate_moves

    def record(state, s_lat, s_rot, s_tilt):
        trace.append((state, s_lat, s_rot, s_tilt))
        return real(state, s_lat, s_rot, s_tilt)

    _go_cold()
    with monkeypatch.context() as m:
        m.setattr(face, "_candidate_moves", record)
        verdict = face._descend(REFERENCE_PROFILE, start)
    return verdict, trace


def _dock_stream_draws(seed: int, n: int):
    """Canonical approaches drawn as the dock benchmark draws them: lateral
    offset and tilt uniform over discs, rotation uniform, each at half the
    reference envelope's limit."""
    import random

    rng = random.Random(seed)
    out = []
    for _ in range(n):
        lat, tilt = 5.5 * math.sqrt(rng.random()), 6.5 * math.sqrt(rng.random())
        a, b = 2.0 * math.pi * rng.random(), 2.0 * math.pi * rng.random()
        c = canonicalize(Misalignment(lat * math.cos(a), lat * math.sin(a),
                                      20.0 * (2.0 * rng.random() - 1.0),
                                      tilt * math.cos(b), tilt * math.sin(b)))
        out.append((c.dx_mm, c.dy_mm, c.rot_deg, c.tilt_x_deg, c.tilt_y_deg))
    return out


@functools.cache
def _dock_stream_states() -> tuple:
    """Every state whose fixed-face term three cold dock-stream descents
    solve, in first-solve order; most of them close to converged."""
    solved = []
    real = face._fixed

    def record(profile, state):
        solved.append(state)
        return real(profile, state)

    _go_cold()
    face._fixed = record
    try:
        for start in _dock_stream_draws(1, 3):
            face._descend(REFERENCE_PROFILE, start)
    finally:
        face._fixed = real
    return tuple(dict.fromkeys(solved))


class TestFloorSkip:
    """The production descent skips candidates on their moving-face bound;
    a plain descent that settles every candidate exactly must agree."""

    @pytest.mark.parametrize("start, verdict", [
        ((0.0, 0.0, 0.0, 0.0, 0.0), True),        # converged at the start
        ((0.0, 0.0, 58.0, 0.0, 0.0), False),      # engage-gate reject
        ((70.0, 0.0, 0.0, 0.0, 0.0), False),      # face overlap lost
        ((2.0, 0.0, 0.0, 0.0, 0.0), True),        # captured after a descent
        (_JAM_12MM_AT_30, False),                 # jams after a descent
        *((draw, None) for draw in _dock_stream_draws(1, 3)),
    ])
    def test_same_accepted_states_as_reference(self, monkeypatch, start, verdict):
        got, trace = _production_trace(monkeypatch, start)
        want_trace = []
        want = reference_descend(REFERENCE_PROFILE, start, want_trace)
        assert got == want
        if verdict is not None:
            assert got == verdict
        assert trace == want_trace
        # the skip is sound only if the bound holds wherever it was asked
        consulted = [start, *(c for it in want_trace for c in face._candidate_moves(*it))]
        for state in consulted:
            assert face._floor(REFERENCE_PROFILE, state)[0] <= reference_settle(
                REFERENCE_PROFILE, state)

    @pytest.mark.parametrize("start, verdict", [
        (_JAM_12MM_AT_30, False),                 # jams after a descent
        ((0.0, 0.0, 0.0, 7.0, 0.0), True),        # captured after a descent
    ])
    def test_near_tie_runs_the_slot_order_chain(self, monkeypatch, start, verdict):
        # in one iteration of each of these descents two candidates settle
        # within NEAR_TIE_MM of the least, so that iteration runs the chain
        chains = []
        real = face._slot_chain

        def spy(settle, count, d):
            chains.append(real(settle, count, d))
            return chains[-1]

        monkeypatch.setattr(face, "_slot_chain", spy)
        got, trace = _production_trace(monkeypatch, start)
        assert len(chains) == 1 and chains[0][0] is not None
        want_trace = []
        assert got == reference_descend(REFERENCE_PROFILE, start, want_trace) == verdict
        assert trace == want_trace


def _plain_chain(values, d):
    """The slot-order rule with every candidate settled exactly."""
    best, best_d = None, d
    for j, v in enumerate(values):
        if math.isfinite(v) and v < best_d - 1e-10:
            best, best_d = j, v
    return best, best_d


# Strategies of _iteration, built once: grid steps of 1e-10 from the base,
# None for an infinite settle or a -inf bound
_BASE = st.sampled_from([0.0, 2.5, -1.75, 6.5, 2.0 ** 21, 2.0 ** 24])
_GRID = st.integers(-6, 6)
_COUNT = st.integers(13, 16)
_SETTLE = st.none() | _GRID
_BELOW = st.integers(0, 5)
_CASCADE = st.lists(_BELOW | st.none(), min_size=1, max_size=4)
_WON = st.none() | st.integers(0, 15)


@st.composite
def _iteration(draw):
    """One synthetic descent iteration: the incumbent's settle height d and
    13-16 candidates, each with a settle height and lower bounds of it, on
    a 1e-10 grid so exact ties, near ties and failed acceptance tests are
    common. At 2**21 a float step is 4.7e-10, so the 1e-10 offsets round
    away there; at 2**24 it is 3.7e-9, and the 3e-10 ones round away too."""
    base = draw(_BASE)
    d = base + draw(_GRID) * 1e-10
    values, bounds = [], []
    for _ in range(draw(_COUNT)):
        k = draw(_SETTLE)
        v = math.inf if k is None else base + k * 1e-10
        # the last bound is the moving term: +inf whenever the settle is
        cascade = [-math.inf if j is None else v - j * 1e-10 for j in draw(_CASCADE)]
        values.append(v)
        bounds.append([*cascade, math.inf if v == math.inf else v - draw(_BELOW) * 1e-10])
    return d, values, bounds, draw(_WON)


class TestSettleFirst:
    """Settling the likeliest winner first accepts the candidate that the
    slot-order chain accepts."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_iteration())
    def test_same_choice_as_the_slot_order_chain(self, iteration):
        d, values, bounds, won = iteration

        def settle(j, cap):
            return None if any(b >= cap for b in bounds[j]) else values[j]

        lows = [b[0] for b in bounds]
        assert face._settle_first(settle, lows, d, won) == _plain_chain(values, d)
        assert face._slot_chain(settle, len(values), d) == _plain_chain(values, d)


# Profiles the kernel must match the frozen copy on: the reference face,
# grooves off the default phase, no chamfer, and a flank shallow enough that
# the ramp width hits its 30 degree cap.
_KERNEL_PROFILES = (
    REFERENCE_PROFILE,
    replace(REFERENCE_PROFILE, groove_positions_deg=(100.0, 220.0, 340.0)),
    replace(REFERENCE_PROFILE, chamfer_depth_mm=0.0),
    replace(REFERENCE_PROFILE, petal_flank_angle_deg=10.0),
)

# Finite 5-DOF states, tilts up to 75 degrees (past the contact model at 78.5)
_STATE = st.tuples(
    st.floats(-45.0, 45.0), st.floats(-45.0, 45.0), st.floats(-200.0, 200.0),
    st.floats(-75.0, 75.0), st.floats(-75.0, 75.0))

_INF_STATES = (
    (70.0, 0.0, 0.0, 0.0, 0.0),     # face overlap lost
    (0.0, -65.0, 30.0, 2.0, 1.0),
    (0.0, 0.0, 0.0, 80.0, 0.0),     # tilt past the contact model
    (1.0, 2.0, 10.0, -60.0, 55.0),
)

# Steep tilts whose fixed-face solve runs all four evaluations and whose last
# evaluation still moves samples across the rim.
_STEEP_STATES = (
    (16.0, 0.0, 14.0, 63.0, -36.5),
    (10.0, -9.5, 10.0, 16.5, -63.0),
)


def _polar_grid():
    """Points at every radius of interest, on a 0.25 deg angle grid plus the
    angles where the petal phase sits at 0, 60 or 120 exactly: the +x and -x
    axes with both signs of zero, and a tiny negative angle, whose 120 deg
    remainder rounds up to 120. The origin comes with all four zero signs."""
    radii = np.array([1e-300, 1e-9, 4.0, 9.0, 15.999, 16.0, 16.001, 21.5, 27.0, 33.0,
                      38.999, 39.0, 39.5, 39.999, 40.0, 40.001, 55.0, 1e6])
    ang = np.radians(np.arange(-360.0, 360.25, 0.25))
    x = np.concatenate([np.outer(radii, np.cos(ang)).ravel(),
                        radii, radii, -radii, -radii, radii, [0.0, -0.0, 0.0, -0.0]])
    y = np.concatenate([np.outer(radii, np.sin(ang)).ravel(),
                        0.0 * radii, -0.0 * radii, 0.0 * radii, -0.0 * radii, -1e-18 * radii,
                        [0.0, 0.0, -0.0, -0.0]])
    return x, y


class TestFrozenKernel:
    """The settle kernel returns the frozen copy's bits (capture_oracle)."""

    @pytest.mark.parametrize("profile", _KERNEL_PROFILES)
    def test_height_field_polar_grid(self, profile):
        x, y = _polar_grid()
        pm = np.mod(np.degrees(np.arctan2(y, x)) - (profile.groove_positions_deg[0] - 90.0),
                    120.0)
        assert {0.0, 60.0, 120.0} <= set(pm.tolist())
        got = height_field(profile, x, y)
        assert got.shape == x.shape
        assert _bits(got) == _bits(capture_oracle.height_field(profile, x, y))

    def test_ramp_cap_profile_is_capped(self):
        assert _KERNEL_PROFILES[3].ramp_width_deg == 30.0

    @pytest.mark.parametrize("profile", _KERNEL_PROFILES)
    def test_height_field_scalars_lists_and_2d(self, profile):
        ref = capture_oracle.height_field
        for x, y in ((0.0, 0.0), (-0.0, -0.0), (3, 4), (-20.0, 0.0), (25.0, -1e-18),
                     (np.float64(30.0), np.float64(12.0))):
            got = height_field(profile, x, y)
            assert type(got) is np.float64
            assert _bits(got) == _bits(ref(profile, x, y))
        xs, ys = [0.0, 18.0, -25.0, 39.5], [0.0, -7.0, 3.0, -0.0]
        got = height_field(profile, xs, ys)
        assert isinstance(got, np.ndarray) and got.shape == (4,)
        assert _bits(got) == _bits(ref(profile, xs, ys))
        gx, gy = np.meshgrid(np.linspace(-45.0, 45.0, 31), np.linspace(-45.0, 45.0, 23))
        assert _bits(height_field(profile, gx, gy)) == _bits(ref(profile, gx, gy))
        col, row = gx[0][None, :], gy[:, 0][:, None]
        got = height_field(profile, col, row)
        assert got.shape == (23, 31)
        assert _bits(got) == _bits(ref(profile, col, row))

    @staticmethod
    def _check(profile, states):
        for state in states:
            for variant in _distinct_variants(state):
                want = reference_settle(profile, variant)
                assert _bits(settle_height(profile, variant)) == _bits(want), variant
                assert _bits(face._moving_term(profile, variant)[0]) == _bits(
                    reference_moving_term(profile, variant)), variant

    def test_descent_states(self):
        self._check(REFERENCE_PROFILE, _visited_states())

    def test_dock_stream_draws(self):
        self._check(REFERENCE_PROFILE, _dock_stream_draws(2, 20))

    @pytest.mark.parametrize("profile", _KERNEL_PROFILES)
    def test_origin_steep_and_infinite_states(self, profile):
        for state in _INF_STATES:
            assert settle_height(profile, state) == math.inf
            assert face._moving_term(profile, state) == (math.inf, -1)
        self._check(profile, ((0.0, 0.0, 0.0, 0.0, 0.0), (0, 0, 0, 0, 0),
                              (0.0, 0.0, 60.0, 0.0, 0.0), *_STEEP_STATES, *_INF_STATES))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(_STATE)
    def test_random_finite_states(self, state):
        self._check(REFERENCE_PROFILE, (state,))

    def test_rim_mask_keeps_the_first_of_tied_zeros(self, monkeypatch):
        # the moving term is the lift at the first argmax of the samples
        # inside the rim, signs of zero included, though it evaluates every
        # sample: crafted lifts (heights less a +0.0 z row) of samples at
        # the origin or, outside the rim, at 50 mm
        rng = np.random.default_rng(7)
        n = 14 * 72
        record = face._samples(REFERENCE_PROFILE)
        for _ in range(50):
            heights = rng.choice([0.0, -0.0, -1.0], n)
            radii = rng.choice([0.0, 0.0, 0.0, 50.0], n)
            rows = np.stack([radii, np.zeros(n), np.zeros(n)])
            w = face._pose_matrix(0.0, 0.0, 0.0) @ rows  # as _moving_term turns them
            assert _bits(w[0]) == _bits(radii) and _bits(w[2]) == _bits(np.zeros(n))
            monkeypatch.setattr(face, "_samples", lambda profile: record._replace(rows=rows))
            monkeypatch.setattr(face, "_height", lambda profile, x, y, r: heights.copy())
            inside = np.flatnonzero(radii <= REFERENCE_PROFILE.rim_radius_mm)
            k = inside[np.argmax(heights[inside])]
            got = face._moving_term(REFERENCE_PROFILE, (0.0, 0.0, 0.0, 0.0, 0.0))
            assert (_bits(got[0]), got[1]) == (_bits(heights[k]), k)


def _on_rim(profile, state, i):
    """state with its lateral offset moved so that sample i lands on the rim."""
    dx, dy, rot, tx, ty = state
    wx, wy, _ = (face._pose_matrix(rot, tx, ty) @ face._samples(profile).rows)[:, i]
    ux, uy = wx + dx, wy + dy
    r = math.hypot(ux, uy)
    ux, uy = (ux / r, uy / r) if r > 0.0 else (1.0, 0.0)
    rim = profile.rim_radius_mm
    return (float(rim * ux - wx), float(rim * uy - wy), rot, tx, ty)


_SAMPLE = st.integers(0, 14 * 72 - 1)  # a sample index: 14 radii x 72 angles


class TestSampleBound:
    """face._lows bounds each candidate's moving term from below by the
    lift of a few moving-face samples, in one numpy pass, less a margin:
    the descent skips candidates on it."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(profile=st.sampled_from(_KERNEL_PROFILES),
           state=_STATE | st.sampled_from((*_STEEP_STATES, *_INF_STATES)),
           rim_sample=st.none() | _SAMPLE,
           samples=st.lists(_SAMPLE, min_size=1, max_size=face.RECENT_SAMPLES - 1),
           steps=st.sampled_from(((0.5, 1.5, 0.5), (0.002, 0.002, 0.002))))
    def test_one_sample_bounds_the_moving_term(self, profile, state, rim_sample, samples,
                                               steps):
        if rim_sample is not None:
            state = _on_rim(profile, state, rim_sample)
            samples = [rim_sample, *samples]
        cands = [state, *face._candidate_moves(state, *steps)]
        lows = face._lows(profile, cands, samples)
        assert len(lows) == len(cands)
        for cand, low in zip(cands, lows):
            assert low <= reference_moving_term(profile, cand), cand
            if abs(face._pose_matrix(*cand[2:])[2, 2]) < 0.2:  # past the contact model
                assert low == math.inf
        dx, dy, rot, tx, ty = state
        if abs(face._pose_matrix(rot, tx, ty)[2, 2]) < 0.2:
            return
        # each sample on its own: one numpy counts as outside never bounds,
        # one dropped is at most the margin inside the rim, and one kept
        # gives its lift in the turned cloud less the margin
        w = (face._pose_matrix(rot, tx, ty) @ face._samples(profile).rows)[:, samples]
        wx, wy = w[0] + dx, w[1] + dy
        r, lift = np.hypot(wx, wy), height_field(profile, wx, wy) - w[2]
        margin = face._samples(profile).margin
        assert 1e-9 <= margin <= 1e-6
        alone = np.array([face._lows(profile, [state], [i])[0] for i in samples]) + margin
        kept = np.isfinite(alone)
        rim = profile.rim_radius_mm
        assert (r[kept] <= rim).all()
        assert (r[~kept] > rim - 2.0 * face.SAMPLE_RTOL * rim).all()
        assert np.abs(alone[kept] - lift[kept]).max(initial=0.0) <= 1e-12
        if rim_sample is not None:
            assert not kept[0]

    @pytest.mark.parametrize("profile", _KERNEL_PROFILES)
    def test_rim_states_drop_the_rim_sample(self, profile):
        # sample index = 14 * angle index + radius index; radius 13 is the rim
        for i in (13, 14 * 36 + 13, 14 * 71 + 7):
            state = _on_rim(profile, (1.0, -2.0, 10.0, 3.0, -1.0), i)
            assert face._lows(profile, [state], [i]) == [-math.inf]


def _solve_on_rim(profile, state, i):
    """state with its lateral offset moved so that fixed-face sample i ends
    its solve on the rim, to within 1e-12 mm; state itself if no move found.

    Moves along the offset that carries the sample's start straight
    outward. Its final position moves with its gap too, at steep tilts
    even against the start, but continuously: so scan for the crossing
    nearest the state, then close in by false position (Illinois).
    """
    m = face._pose_matrix(*state[2:])
    if abs(m[2, 2]) < 0.2:
        return state
    rim = profile.rim_radius_mm

    def moved(s):
        return (float(state[0] + s * step[0]), float(state[1] + s * step[1]), *state[2:])

    def excess(s):
        return math.hypot(*capture_oracle.fixed_samples(profile, moved(s))[1][i]) - rim

    lat = capture_oracle.fixed_samples(profile, state)[1][i]
    r = math.hypot(*lat)
    # the start moves by -m[:2, :2].T @ offset: step moves it 1 mm outward
    step = np.linalg.solve(-m[:2, :2].T, lat / r if r > 0.0 else np.array([1.0, 0.0]))
    grid = [(s, excess(s)) for s in range(-64, 65, 8)]
    pairs = [(a, b) for a, b in zip(grid, grid[1:]) if (a[1] > 0.0) != (b[1] > 0.0)]
    if not pairs:
        return state
    (a, fa), (b, fb) = min(pairs, key=lambda pair: abs(pair[0][0]))
    side = 0
    for _ in range(100):
        c = (a * fb - b * fa) / (fb - fa)
        fc = excess(c)
        if abs(fc) <= 1e-12 or abs(b - a) <= 1e-13:
            break
        if (fc > 0.0) == (fb > 0.0):
            b, fb = c, fc
            if side == -1:
                fa *= 0.5
            side = -1
        else:
            a, fa = c, fc
            if side == 1:
                fb *= 0.5
            side = 1
    return moved(c)


class TestFixedSampleBound:
    """One fixed-face sample's solve in scalar math (face._samples' fixed),
    less its margin, is a lower bound of the fixed-face term: the descent
    skips candidates on it."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(profile=st.sampled_from(_KERNEL_PROFILES),
           state=_STATE | st.sampled_from(_STEEP_STATES),
           rim_sample=st.none() | _SAMPLE)
    def test_one_sample_bounds_the_fixed_term(self, profile, state, rim_sample):
        if rim_sample is not None:
            state = _solve_on_rim(profile, state, rim_sample)
        fixed = face._samples(profile).fixed
        got, margin = np.array([fixed(state, i) for i in range(14 * 72)]).T
        bounds = np.isfinite(got)
        cos_t = abs(face._pose_matrix(*state[2:])[2, 2])
        if cos_t < 0.2:  # past the contact model: no sample bounds
            assert not bounds.any()
            return
        want, lat = capture_oracle.fixed_samples(profile, state)
        kept = np.hypot(lat[:, 0], lat[:, 1]) <= profile.rim_radius_mm
        # a sample the solve drops at the rim never bounds; a kept one
        # ends within its margin of the solve's final gap
        assert kept[bounds].all()
        assert (np.abs(got[bounds] - want[bounds]) <= margin[bounds]).all()
        if cos_t >= math.cos(math.radians(45.0)):
            assert margin.max() <= 1e-4
        lower = (got - margin).max()
        assert lower <= (want[kept].max() if kept.any() else -math.inf)
        assert lower <= reference_settle(profile, state)

    @pytest.mark.parametrize("profile", _KERNEL_PROFILES)
    def test_rim_solve_ends_drop_the_sample(self, profile):
        fixed = face._samples(profile).fixed
        for i in (13, 14 * 36 + 13, 14 * 71 + 7):
            for state in ((1.0, -2.0, 10.0, 3.0, -1.0), _STEEP_STATES[1]):
                state = _solve_on_rim(profile, state, i)
                lat = capture_oracle.fixed_samples(profile, state)[1][i]
                assert math.hypot(*lat) == pytest.approx(profile.rim_radius_mm, abs=1e-9)
                assert fixed(state, i)[0] == -math.inf


@st.composite
def _points_and_subset(draw):
    """(profile, points as the columns of an (n, 2) array, sorted random
    subset of 1 to n indices): one point, an odd count of points uniform on
    a 45 mm disc with some moved onto the hub, groove and rim radii, or the
    1,008 fixed-face samples at the start of a solve."""
    profile = draw(st.sampled_from(_KERNEL_PROFILES))
    n = draw(st.sampled_from((1, 14 * 72)) | st.integers(1, 400).map(lambda k: 2 * k + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if n == 14 * 72:
        dx, dy, rot, tx, ty = draw(_STATE)
        q = face._pose_matrix(rot, tx, ty).T @ (
            face._samples(profile).rows - np.array([[dx], [dy], [0.0]]))
        xy = q.T
    else:
        r = rng.uniform(0.0, 45.0, n)
        snap = rng.random(n) < 0.2
        r[snap] = rng.choice([0.0, face.HUB_RADIUS_MM, profile.groove_radius_mm,
                              profile.rim_radius_mm], snap.sum())
        a = rng.uniform(-math.pi, math.pi, n)
        xy = np.stack([r * np.cos(a), r * np.sin(a)], axis=1)
    idx = np.sort(rng.choice(n, size=draw(st.integers(1, n)), replace=False))
    return profile, xy[:, :2], idx


# A 3e-15 degree tilt: sample 332's gap moves 3 ulps in the solve, three
# times its slope bound, and ends tied with 333 and 334. Only the rounding
# slack keeps it, the first of the tie, past the first evaluation.
_ROUNDING_TIE = (0.0, 0.0, 18.5, -2.1940611048575114e-15, 2.0459950801874955e-15)

# The oracle reads 1.9655 mm at sample 761. A radius bound that leaves out a
# later evaluation's own gap change drops every sample that ends inside the
# rim and returns (-inf, -1), at both dispatch levels.
_STEP_TERM = (1.8201401720139212, -1.4690200236489395, -4.150471347320547, 1.7035679727088961,
              -1.4194853206524833)


class TestPrunedFixedSolve:
    """_fixed_term runs its later evaluations only on the samples that can
    bind. That is exact if height_field treats each point on its own, and
    it must return the full solve's value bits and first-argmax index."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_points_and_subset())
    def test_height_field_of_a_subset_is_the_subset_of_height_field(self, case):
        profile, xy, idx = case
        sub = xy[idx]
        want = height_field(profile, xy[:, 0], xy[:, 1])[idx]
        assert _bits(height_field(profile, sub[:, 0], sub[:, 1])) == _bits(want)

    @staticmethod
    def _check(profile, states):
        for state in states:
            got = face._fixed_term(profile, state)
            want = capture_oracle.fixed_term(profile, state)
            assert (_bits(got[0]), got[1]) == (_bits(want[0]), want[1]), state

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(profile=st.sampled_from(_KERNEL_PROFILES),
           state=_STATE | st.sampled_from(_STEEP_STATES))
    def test_random_states(self, profile, state):
        self._check(profile, (state,))

    def test_descent_and_dock_stream_states(self):
        # near convergence many samples sit on the rim and gaps tie closely
        self._check(REFERENCE_PROFILE, (*_visited_states(), *_dock_stream_states(), _STEP_TERM))

    @pytest.mark.parametrize("profile", _KERNEL_PROFILES)
    def test_rounding_tie(self, profile):
        self._check(profile, (_ROUNDING_TIE,))
        if profile == REFERENCE_PROFILE:
            assert capture_oracle.fixed_term(profile, _ROUNDING_TIE)[1] == 332

    def test_first_of_tied_zero_gaps(self, monkeypatch):
        # the fixed term is the gap at the first argmax of the samples that
        # end inside the rim, signs of zero included, though the prune keeps
        # only some of them: crafted gaps (heights less a +0.0 z row, at no
        # tilt) of samples on the x axis, each at its own radius, a fifth of
        # them outside the rim. The solve stays in numpy, where _height is
        # patched to read each sample's crafted height by its x
        rng = np.random.default_rng(11)
        n = 14 * 72
        record = face._samples(REFERENCE_PROFILE)
        monkeypatch.setattr(face, "SCALAR_SAMPLES", 0)
        for _ in range(50):
            heights = rng.choice([0.0, -0.0, -1.0], n)
            radii = rng.permutation(np.arange(n) * 0.05)
            table = dict(zip(radii.tolist(), heights.tolist()))
            rows = np.stack([radii, np.zeros(n), np.full(n, -0.0)])
            q = face._pose_matrix(0.0, 0.0, 0.0).T @ rows  # as _fixed_term turns them
            assert _bits(q[0]) == _bits(radii) and _bits(q[2]) == _bits(np.zeros(n))
            monkeypatch.setattr(face, "_samples", lambda profile: record._replace(rows=rows))
            monkeypatch.setattr(face, "_height",
                                lambda profile, x, y, r: np.array([table[v] for v in x.tolist()]))
            inside = np.flatnonzero(radii <= REFERENCE_PROFILE.rim_radius_mm)
            k = inside[np.argmax(heights[inside])]
            got = face._fixed_term(REFERENCE_PROFILE, (0.0, 0.0, 0.0, 0.0, 0.0))
            assert (_bits(got[0]), got[1]) == (_bits(heights[k]), k)


class TestSampleLayout:
    """The kernel keeps its samples as (3, 1008) x, y and z rows and works
    on them with matmuls of the transposed shape. Those must give the bits
    of the row-major (1008, 3) formulas they replaced: a BLAS that sums in
    another order fails here, naming the layout, before it moves a settle
    height or a verdict."""

    @staticmethod
    def _check(profile, states, monkeypatch):
        rows = face._samples(profile).rows
        cloud = capture_oracle._sample_cloud(profile)
        assert rows.shape == (3, 14 * 72) and rows.flags.c_contiguous
        assert _bits(rows) == _bits(cloud.T)
        # the record's z row, taken from its scalar surface, is _height's
        assert _bits(face._height(profile, rows[0], rows[1], np.hypot(rows[0], rows[1]))) == _bits(
            rows[2])
        heads = []
        real = face._height

        def head(profile, x, y, r):
            if not heads:
                heads.append((x, y))
            return real(profile, x, y, r)

        monkeypatch.setattr(face, "_height", head)
        for state in states:
            dx, dy, rot, tx, ty = state
            m = face._pose_matrix(rot, tx, ty)
            if abs(m[2, 2]) >= face.CONTACT_COS_MIN:
                heads.clear()
                # the moving term adds the offset to the turned rows in
                # place, and adding -0.0 leaves every bit as it is
                face._moving_term(profile, (-0.0, -0.0, rot, tx, ty))
                x, y = heads[0]
                turned = x.base
                assert turned.shape == (3, 14 * 72) and y.base is turned
                assert _bits(turned) == _bits((cloud @ m.T).T), state
            heads.clear()
            face._fixed_term(profile, state)
            # the first evaluation reads the x and y rows of the solve's head
            x, y = heads[0]
            q = x.base
            assert q.shape == (3, 14 * 72) and y.base is q
            assert _bits(q) == _bits(((cloud - np.array([dx, dy, 0.0])) @ m).T), state

    def test_descent_dock_stream_steep_and_tie_states(self, monkeypatch):
        self._check(REFERENCE_PROFILE, (*_visited_states(), *_dock_stream_states(),
                                        *_STEEP_STATES, _ROUNDING_TIE, _STEP_TERM), monkeypatch)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(profile=st.sampled_from(_KERNEL_PROFILES), state=_STATE | st.sampled_from(_STEEP_STATES))
    def test_random_states(self, profile, state):
        with pytest.MonkeyPatch.context() as m:
            self._check(profile, (state,), m)


class TestScalarFinish:
    """_fixed_term runs each evaluation that keeps more than SCALAR_SAMPLES
    samples in numpy (_height), and once a prune keeps at most that many,
    the rest of the solve in Python floats (_scalar_finish). Forced down
    either path, a solve must return the same value bits and binding
    index."""

    @staticmethod
    def _check(profile, states):
        for state in states:
            with pytest.MonkeyPatch.context() as m:
                m.setattr(face, "SCALAR_SAMPLES", 0)
                vector = face._fixed_term(profile, state)
                m.setattr(face, "SCALAR_SAMPLES", 14 * 72)
                scalar = face._fixed_term(profile, state)
            assert (_bits(scalar[0]), scalar[1]) == (_bits(vector[0]), vector[1]), state

    @pytest.mark.parametrize("profile", _KERNEL_PROFILES)
    def test_descent_dock_stream_steep_and_tie_states(self, profile):
        self._check(profile, (*_visited_states(), *_dock_stream_states(), *_STEEP_STATES,
                              _ROUNDING_TIE, _STEP_TERM))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(profile=st.sampled_from(_KERNEL_PROFILES), state=_STATE)
    def test_random_states(self, profile, state):
        self._check(profile, (state,))

    def test_dock_stream_solves_take_both_paths(self, monkeypatch):
        states = _dock_stream_states()  # solved before the spies go in
        later = []  # per solve: (path, samples) of each evaluation after the first

        def spy(path, real):
            def height(profile, x, y, r):
                later[-1].append((path, np.size(x)))
                return real(profile, x, y, r)
            return height

        monkeypatch.setattr(face, "_height", spy("vector", face._height))
        monkeypatch.setattr(face, "_scalar_height", spy("scalar", face._scalar_height))
        for state in states:
            later.append([])
            face._fixed_term(REFERENCE_PROFILE, state)
            del later[-1][0]  # the first evaluation, on the whole cloud
        paths = collections.Counter()
        for calls in later:
            for path, kept in calls:
                assert (path == "scalar") == (kept <= face.SCALAR_SAMPLES)
                paths[path] += 1
        # a handoff after the second or third evaluation: the forced
        # thresholds of _check (0 and all 1,008 samples) never take it
        handoffs = sum(calls[0][0] == "vector" and calls[-1][0] == "scalar" for calls in later)
        assert paths["scalar"] > 0 and paths["vector"] > 0 and handoffs > 0, (paths, handoffs)


class TestWorkCounters:
    """Hardware-independent work counts of the capture stack, from cold
    memos: exact settles (_fixed misses: an exact settle is the one place the
    fixed-face term is solved), moving-term evaluations (_floor misses),
    path joins (_join lookups that find a filled cell), candidate
    generations and fixed-face sample evaluations (the points _fixed_term
    passes to _height, and those its scalar finish passes to
    _scalar_height). The per-profile sample record is built once: _samples
    misses once per profile after its cache is cleared."""

    @staticmethod
    def _counts(monkeypatch, work):
        _go_cold()
        face._samples.cache_clear()
        joins, generations, samples = [], [], []
        real_join, real_moves = face._join, face._candidate_moves

        def counted(real, caller):
            def height(profile, x, y, r):
                if sys._getframe(1).f_code is caller.__code__:
                    samples.append(np.size(x))
                return real(profile, x, y, r)
            return height

        def join(*key):
            cell = real_join(*key)
            if cell:
                joins.append(key)
            return cell

        def moves(*args):
            generations.append(args)
            return real_moves(*args)

        with monkeypatch.context() as m:
            m.setattr(face, "_join", join)
            m.setattr(face, "_candidate_moves", moves)
            m.setattr(face, "_height", counted(face._height, face._fixed_term))
            m.setattr(face, "_scalar_height", counted(face._scalar_height, face._scalar_finish))
            work()
        return (face._fixed.cache_info().misses, face._floor.cache_info().misses,
                len(joins), len(generations), sum(samples))

    def test_cold_reference_envelope(self, monkeypatch):
        # the full solve on every sample would make 5,253,696 sample
        # evaluations, and one that prunes after its first evaluation only
        # 2,827,771
        assert self._counts(monkeypatch, lambda: full_envelope(REFERENCE_PROFILE)) == (
            1600, 1881, 151, 1078, 2_063_812)
        assert face._join.cache_info().currsize == 1120
        # the sample record is built once per profile, not once per descent
        assert face._samples.cache_info().misses == 1

    def test_three_dock_stream_descents(self, monkeypatch):
        # the full solve on every sample would make 786,240 sample
        # evaluations, and one that prunes after its first evaluation only
        # 215,475
        draws = _dock_stream_draws(1, 3)
        assert self._counts(
            monkeypatch, lambda: [face._descend(REFERENCE_PROFILE, s) for s in draws]
        ) == (195, 224, 0, 137, 204_983)


def _ray_starts(axis, direction_deg, n):
    """Canonical states of the first n lattice points of one envelope ray."""
    out = []
    for k in range(1, n + 1):
        c = canonicalize(face._axis_state(axis, direction_deg, float(k)))
        out.append((c.dx_mm, c.dy_mm, c.rot_deg, c.tilt_x_deg, c.tilt_y_deg))
    return out


class TestPathJoin:
    """A descent that reaches a (state, step sizes) pair an earlier descent
    passed through takes its verdict only if its own remaining budget
    covers the rest of that path."""

    @pytest.mark.parametrize("budget", [20, 45, 80, 150, 300])
    def test_joined_verdicts_match_reference_under_budget(self, monkeypatch, budget):
        monkeypatch.setattr(face, "DESCENT_BUDGET", budget)
        _go_cold()
        starts = [*_ray_starts("translation", 0.0, 15), *_ray_starts("translation", 30.0, 15),
                  *_ray_starts("deflection", 0.0, 15)]
        got = [face._descend(REFERENCE_PROFILE, s) for s in starts]
        assert got == [reference_descend(REFERENCE_PROFILE, s) for s in starts]
        info = face._join.cache_info()
        assert 0 < info.currsize <= info.maxsize == 4096
