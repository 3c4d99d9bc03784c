"""Acceptance gate: one test per published acceptance criterion.

Each test exercises exactly one criterion at its stated tolerance and prints
a single pass/fail line (visible with -s, or in the captured output of a
failing run; under plain -v the per-test PASSED/FAILED line carries the
same information). Tolerances are the criterion's own, not looser.
"""
import json
import math
import random
from pathlib import Path

import pytest

from docksim import cli
from docksim.assembly import ModuleGraph, Module, Port, Pose
from docksim.bus import PowerBus, RAIL_RATINGS_W
from docksim.coupling import CouplingConfig, Event, InterfaceState, step
from docksim.face import (
    FaceProfile,
    Misalignment,
    calibrate_profile,
    envelope_axis_limit,
    full_envelope,
    mate_feasible,
    rotate_misalignment_120,
)
from docksim.loads import Wrench, check_load, stress_estimate
from docksim.mechanism import MechanismParams, movability_report, self_locking
from docksim.scenario import COMMANDS

from assembly_oracle import make_random_tree, max_equilibrium_residual
from capture_oracle import axis_limit_linear_scan

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_movability_normalized_rhs():
    report = movability_report(MechanismParams())
    err = abs(report.normalized_rhs - 0.69)
    _verdict(1, "movability at published defaults",
             err < 1e-12 and report.movable,
             f"normalized rhs {report.normalized_rhs!r}, error {err:.3g} (tol 1e-12), "
             f"movable {report.movable}")


def test_criterion_02_self_locking_threshold():
    params = MechanismParams()  # beta = 5 deg
    lo, hi = 0.0, 1.0
    assert not self_locking(params, lo) and self_locking(params, hi)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if self_locking(params, mid):
            hi = mid
        else:
            lo = mid
    crossing = 0.5 * (lo + hi)
    err = abs(crossing - math.tan(math.radians(params.beta_deg)))
    _verdict(2, "self-locking threshold",
             err < 1e-9,
             f"bisected crossing {crossing:.12f} vs tan(beta) "
             f"{math.tan(math.radians(params.beta_deg)):.12f}, error {err:.3g} (tol 1e-9)")


def test_criterion_03_calibration_hits_published_targets():
    targets = (12.0, 41.0, 14.0)
    profile = calibrate_profile(targets, tolerance=0.10)
    # derived calibration result, frozen from this same deterministic search
    assert profile == FaceProfile(6.5, 24.7, 27.0, 1.0)
    env = full_envelope(profile)
    achieved = (env.translation_limit_mm, env.rotation_limit_deg, env.deflection_limit_deg)
    errs = [abs(a - t) / t for a, t in zip(achieved, targets)]
    _verdict(3, "capture envelope calibration",
             max(errs) <= 0.10,
             f"profile {profile}, achieved {achieved} vs targets {targets}, "
             f"relative errors {[f'{e:.3f}' for e in errs]} (tol 0.10)")


def test_criterion_04_threefold_symmetry():
    rng = random.Random(7)
    profile = FaceProfile(6.5, 24.7, 27.0, 1.0)
    violations = 0
    for _ in range(50):
        mis = Misalignment(
            dx_mm=rng.uniform(-20.0, 20.0),
            dy_mm=rng.uniform(-20.0, 20.0),
            rot_deg=rng.uniform(-45.0, 45.0),
            tilt_x_deg=rng.uniform(-20.0, 20.0),
            tilt_y_deg=rng.uniform(-20.0, 20.0),
        )
        base = mate_feasible(profile, mis)
        for turns in (1, 2):
            if mate_feasible(profile, rotate_misalignment_120(mis, turns)) != base:
                violations += 1
    _verdict(4, "120-degree symmetry of capture",
             violations == 0,
             f"{violations} violations across 50 random misalignments x 2 rotations")


def test_criterion_05_envelope_search_matches_reference_scan():
    # production search (memoised descents that skip candidates on their
    # moving-face bound) against a cold lattice scan whose every probe is a
    # plain descent settling each candidate exactly, with no shared memo
    profile = FaceProfile(6.5, 24.7, 27.0, 1.0)
    cases = (
        ("translation", 1.0, 0.0),
        ("translation", 1.0, 30.0),
        ("rotation", 1.0, 1.0),
        ("deflection", 1.0, 60.0),
    )
    mismatches = []
    for axis, tol, direction in cases:
        fast = envelope_axis_limit(profile, axis, tol, direction)
        slow = axis_limit_linear_scan(profile, axis, tol, direction)
        if fast != slow:
            mismatches.append((axis, direction, fast, slow))
    _verdict(5, "envelope search equals reference scan",
             not mismatches,
             f"{len(cases)} axis/direction pairs compared exactly; "
             f"mismatches: {mismatches or 'none'}")


def test_criterion_06_load_capacity_edges():
    at_cap = check_load(Wrench(fz_n=3000.0))
    over_cap = check_load(Wrench(fz_n=3001.0))
    bend_ok = check_load(Wrench(mx_nm=500.0))
    bend_over = check_load(Wrench(mx_nm=501.0))
    ok = (at_cap.ok and at_cap.combined == 1.0
          and not over_cap.ok and bend_ok.ok and not bend_over.ok)
    _verdict(6, "load capacity boundaries",
             ok,
             f"3000 N ok={at_cap.ok} u={at_cap.combined}, 3001 N ok={over_cap.ok}, "
             f"500 Nm ok={bend_ok.ok}, 501 Nm ok={bend_over.ok}")


def test_criterion_07_stress_rows_and_homogeneity():
    rows = (
        (Wrench(fz_n=3000.0), 21.999),
        (Wrench(mz_nm=500.0), 44.781),
        (Wrench(mx_nm=500.0), 52.237),
    )
    row_ok = all(stress_estimate(w).stress_mpa == expected for w, expected in rows)
    base = stress_estimate(Wrench(fz_n=3000.0, mz_nm=500.0, mx_nm=500.0))
    worst_rel = 0.0
    for k in (2.0, 5.0, 10.0):
        scaled = stress_estimate(Wrench(fz_n=3000.0 * k, mz_nm=500.0 * k, mx_nm=500.0 * k))
        worst_rel = max(worst_rel, abs(scaled.stress_mpa - k * base.stress_mpa)
                        / (k * base.stress_mpa))
    _verdict(7, "stress reference rows and homogeneity",
             row_ok and worst_rel < 1e-12,
             f"rows exact={row_ok}, worst scaling relative error {worst_rel:.3g} (tol 1e-12)")


def test_criterion_08_lock_timing(reference_profile):
    def time_to_lock(cfg: CouplingConfig, dt: float) -> float:
        s = step(InterfaceState(), Event("approach", misalignment=Misalignment(dx_mm=2.0)),
                 0.0, cfg, reference_profile)
        s = step(s, Event("tick", dt_s=1.0), 1.0, cfg, reference_profile)
        s = step(s, Event("start_lock"), 0.0, cfg, reference_profile)
        elapsed = 0.0
        while s.phase == "locking":
            s = step(s, Event("tick", dt_s=dt), dt, cfg, reference_profile)
            elapsed += dt
        assert s.phase == "locked"
        return elapsed

    dt = 0.25
    default_err = abs(time_to_lock(CouplingConfig(), dt) - 15.0)
    custom_errs = [abs(time_to_lock(CouplingConfig(lock_duration_s=d), dt) - d)
                   for d in (10.0, 12.5, 20.0)]
    with pytest.raises(Exception):
        CouplingConfig(lock_duration_s=9.9)
    with pytest.raises(Exception):
        CouplingConfig(lock_duration_s=20.1)
    ok = default_err <= dt and all(e <= dt for e in custom_errs)
    _verdict(8, "lock stroke timing",
             ok,
             f"default 15 s error {default_err:.3g} s, custom duration errors "
             f"{['%.3g' % e for e in custom_errs]} (tol dt={dt}), range [10, 20] enforced")


def test_criterion_09_power_budget_and_ledger():
    main = PowerBus(48.0)
    grant_500 = main.request_power(500.0)
    deny_501 = PowerBus(48.0).request_power(501.0)
    aux = PowerBus(24.0)
    aux_first = aux.request_power(30.0)
    aux_cumulative = aux.request_power(25.0)  # 55 W cumulative on a 50 W rail

    bus = PowerBus(48.0)
    rng = random.Random(99)
    mirror: dict[int, float] = {}
    conserved = True
    for _ in range(1000):
        if mirror and rng.random() < 0.45:
            gid = rng.choice(sorted(mirror))
            bus.release_power(gid)
            del mirror[gid]
        else:
            watts = rng.uniform(1.0, 120.0)
            gid = bus.request_power(watts)
            if gid is not None:
                mirror[gid] = watts
        total = sum(mirror.values())
        if abs(bus.allocated_w - total) > 1e-9 or bus.allocated_w > RAIL_RATINGS_W[48.0] + 1e-9:
            conserved = False
            break
    for gid in sorted(mirror):
        bus.release_power(gid)
    conserved = conserved and bus.allocated_w == 0.0

    ok = (grant_500 is not None and deny_501 is None
          and aux_first is not None and aux_cumulative is None and conserved)
    _verdict(9, "power budget enforcement",
             ok,
             f"500 W granted={grant_500 is not None}, 501 W denied={deny_501 is None}, "
             f"24 V cumulative denied={aux_cumulative is None}, "
             f"1000-op ledger conserved={conserved}")


def test_criterion_10_statics_against_free_body_oracle():
    worst = 0.0
    for seed in range(100):
        rng = random.Random(31000 + seed)
        graph, external, gravity = make_random_tree(rng, max_modules=10)
        result = graph.propagate_wrench(external, gravity)
        worst = max(worst, max_equilibrium_residual(graph, result, external, gravity))
    _verdict(10, "statics vs independent free-body oracle",
             worst < 1e-9,
             f"worst residual over 100 random trees {worst:.3g} N / Nm (tol 1e-9)")


def test_criterion_11_cli_determinism(tmp_path, capsys, reference_envelope):
    differing: list[str] = []
    for command in COMMANDS:
        outs = []
        for tag in ("first", "second"):
            out = tmp_path / command / tag
            rc = cli.main([command, "--scenario", str(SCENARIOS / f"{command}.json"),
                           "--out", str(out)])
            assert rc == 0, capsys.readouterr().out
            outs.append(out)
        names_a = sorted(p.name for p in outs[0].iterdir())
        names_b = sorted(p.name for p in outs[1].iterdir())
        if names_a != names_b:
            differing.append(f"{command}: artifact sets differ")
            continue
        for name in names_a:
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                differing.append(f"{command}/{name}")
    _verdict(11, "CLI artifact determinism",
             not differing,
             f"all commands {COMMANDS} run twice; differing artifacts: "
             f"{differing or 'none'}")
