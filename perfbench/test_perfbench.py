"""Tests of the benchmark's own machinery: python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import hostclock  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


def test_same_seed_gives_same_inputs():
    assert inputs.dock_stream(7) == inputs.dock_stream(7)
    assert inputs.assembly_plan(7) == inputs.assembly_plan(7)
    assert inputs.dock_stream(7) != inputs.dock_stream(8)
    assert inputs.dock_stream(7) != inputs.dock_stream(7, rep=1)
    assert inputs.assembly_plan(7) != inputs.assembly_plan(8)


def test_dock_stream_draws_are_distinct_and_in_range():
    stream = inputs.dock_stream(1)
    assert len(set(stream)) == inputs.DOCK_COUNT
    for dx, dy, rot, tx, ty in stream:
        assert dx * dx + dy * dy <= inputs.DOCK_TRANSLATION_MM ** 2
        assert abs(rot) <= inputs.DOCK_ROTATION_DEG
        assert tx * tx + ty * ty <= inputs.DOCK_TILT_DEG ** 2


def test_assembly_plan_has_double_docks_and_a_valid_tree():
    plan = inputs.assembly_plan(1)
    assert len(plan["modules"]) == inputs.MODULE_COUNT
    assert len(plan["build"]) == inputs.MODULE_COUNT - 1
    assert plan["pairs"] and all(("pair", a, b) in plan["build"] for a, b in plan["pairs"])
    assert len(plan["relocate"]) == 2 * inputs.RELOCATIONS
    assert [op[0] for op in plan["relocate"][:2]] == ["dock", "undock"]


def test_assembly_mix_follows_the_shipped_scenario():
    scenario = json.loads((HERE.parent / "scenarios" / "assembly.json").read_text())["assembly"]
    assert len(scenario["modules"]) == inputs.SCENARIO_MODULES
    assert [(r["watts"], r.get("rail_v", 48.0)) for r in scenario["power_requests"]] == list(
        inputs.POWER_REQUESTS)
    assert [(f["channel"], len(f["payload_text"])) for f in scenario["frames"]] == list(
        inputs.FRAME_PAYLOADS)
    [wrench] = scenario["external_wrenches"].values()
    assert inputs.EXTERNAL_WRENCH == tuple(
        wrench.get(k, 0.0) for k in ("fx_n", "fy_n", "fz_n", "mx_nm", "my_nm", "mz_nm"))
    assert len(scenario["plan"]) == inputs.SCENARIO_PLAN_OPS

    plan, n = inputs.assembly_plan(1), inputs.MODULE_COUNT
    assert len(plan["routes"]) == n * len(scenario["power_requests"]) // len(scenario["modules"])
    assert len(plan["frames"]) == n * len(scenario["frames"]) // len(scenario["modules"])
    assert len(plan["wrenches"]) == n * len(scenario["external_wrenches"]) // len(
        scenario["modules"])
    assert len(plan["relocate"]) == n * len(scenario["plan"]) // len(scenario["modules"])


def span(name, start, end, parent, outcome=None):
    return [name, start, end, parent, outcome]


def test_self_and_busy_time_arithmetic():
    spans = [
        span("a", 0.0, 10.0, -1),
        span("b", 1.0, 4.0, 0),
        span("c", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0, "raised KeyError"),
        span("b", 6.0, 7.5, 3),   # b nested in b
    ]
    stats = tracer.aggregate(spans)
    assert stats["a"]["self_s"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert stats["b"]["self_s"] == pytest.approx((3.0 - 1.0) + (4.0 - 1.5) + 1.5)
    assert stats["c"]["self_s"] == pytest.approx(1.0)
    assert stats["b"]["busy_s"] == pytest.approx(3.0 + 4.0)  # nested span not counted twice
    assert stats["b"]["calls"] == 3 and stats["b"]["errors"] == 1


def test_capture_counts_from_settle_children():
    mf, st = "face.mate_feasible", "face.settle_height"
    spans = [
        span("face.envelope_axis_limit", 0.0, 20.0, -1),
        span(mf, 1.0, 2.0, 0, True), span(st, 1.1, 1.2, 1),      # zero misalignment
        span(mf, 3.0, 9.0, 0, True),                              # descent, 3 settles
        span(st, 3.1, 3.2, 3), span(st, 4.0, 4.1, 3), span(st, 5.0, 5.1, 3),
        span(mf, 10.0, 10.1, 0, True),                            # memo hit
        span(mf, 11.0, 12.0, -1, False), span(st, 11.1, 11.2, 8),  # gate reject
    ]
    got = tracer.capture_counts(spans)
    assert got["face.mate_feasible.misses"] == 3
    assert got["face.mate_feasible.hit_ratio"] == pytest.approx(1 / 4)
    assert got["face.mate_feasible.capture_ratio"] == pytest.approx(2 / 3)
    assert got["face.mate_feasible.gate_rejects"] == 1
    assert got["face.settles_per_miss"] == pytest.approx(5 / 3)
    assert got["face.envelope_axis_limit.probes"] == 3


def test_reference_envelope_passes_and_a_tampered_copy_fails(tmp_path):
    good = tmp_path / "good"
    good.mkdir()
    shutil.copy(checks.REFERENCE_DIR / "envelope_directions.csv", good)
    assert checks.envelope_errors(good) == []

    bad = tmp_path / "bad"
    bad.mkdir()
    text = (good / "envelope_directions.csv").read_text()
    (bad / "envelope_directions.csv").write_text(text.replace("30.0,11.0", "30.0,12.0", 1))
    errors = checks.envelope_errors(bad)
    assert any("reference bytes" in e for e in errors)
    assert any("120-periodic" in e for e in errors)


def test_a_check_that_raises_counts_as_a_failed_operation(tmp_path):
    ops = worker.Ops()
    ops.verify("cli envelope", checks.envelope_errors, tmp_path)  # no csv at all
    (tmp_path / "envelope_directions.csv").write_text("axis,direction_deg\ntranslation,0.0\n")
    ops.verify("cli envelope", checks.envelope_errors, tmp_path)  # short rows
    assert ops.failures == {"cli envelope: check failed": 2}
    assert "check raised FileNotFoundError" in ops.check_errors[0]
    assert "check raised ValueError" in ops.check_errors[1]


def test_host_clock_normalises_by_nearby_kernel_samples():
    clock = hostclock.HostClock("python")
    nominal = hostclock.NOMINAL_S["python"]
    clock.samples = [(float(t), nominal) for t in range(10)]
    clock.samples += [(float(t), 2.0 * nominal) for t in range(20, 30)]
    assert clock.factor(3.0, 4.0) == 1.0
    assert clock.factor(24.0, 24.001) == 0.5       # a host at half speed
    assert clock.factor(12.0, 12.001) == 1.0       # none within a second: the closest five
    net, norm = clock.span((24.0, 0.0), (25.0, 0.25))  # 0.25 s spent in the sampler
    assert (net, norm) == (0.75, 0.375)


def test_host_clock_samples_while_started_and_subtracts_itself():
    clock = hostclock.HostClock("numpy").start()
    try:
        start = clock.mark()
        end_at = start[0] + 0.3
        while clock.mark()[0] < end_at:
            pass
        end = clock.mark()
    finally:
        clock.stop()
    assert len(clock.samples) >= 3 and clock.stolen > 0.0
    net, norm = clock.span(start, end)
    assert net == pytest.approx(end[0] - start[0] - (end[1] - start[1]))
    assert net < end[0] - start[0] and norm > 0.0


def test_unit_count_depends_only_on_the_arguments():
    assert run.unit_count("envelope_cold", 20) == 1
    assert run.unit_count("dock_stream", 1) == 1
    assert run.unit_count("assembly_mix", 20) == 5


def test_digest_check_flags_a_tampered_result():
    verdicts = [True, False, None, True]
    table = {"dock_stream": {"5": {"dock_verdicts": checks.digest(verdicts)}}}
    assert checks.digest_errors("dock_stream", 5, {"dock_verdicts": checks.digest(verdicts)},
                                table) == []
    tampered = [True, True, None, True]
    assert checks.digest_errors("dock_stream", 5, {"dock_verdicts": checks.digest(tampered)},
                                table)
    assert checks.digest_errors("dock_stream", 6, {"dock_verdicts": "x"}, table) == []
    assert checks.has_reference("dock_stream", 5, table)
    assert not checks.has_reference("dock_stream", 6, table)


def test_recorded_digests_are_well_formed():
    table = checks.load_digests()
    assert set(table) == {"dock_stream", "assembly_mix"}
    for seeds in table.values():
        for names in seeds.values():
            assert all(len(d) == 64 for d in names.values())


def test_calibrated_profile_must_equal_reference(tmp_path):
    (tmp_path / "calibrated_profile.json").write_text(json.dumps(checks.REFERENCE_PROFILE_JSON))
    assert checks.calibrate_errors(tmp_path) == []
    other = dict(checks.REFERENCE_PROFILE_JSON, petal_height_mm=7.0)
    (tmp_path / "calibrated_profile.json").write_text(json.dumps(other))
    assert checks.calibrate_errors(tmp_path)


def test_tracer_sees_names_other_layers_imported():
    code = (
        "from tracer import Tracer\n"
        "t = Tracer(); t.install()\n"
        "from docksim import coupling, face\n"
        "s = coupling.step(coupling.InterfaceState(), coupling.Event('approach', "
        "misalignment=face.Misalignment()), 0.0, coupling.CouplingConfig(), "
        "face.REFERENCE_PROFILE)\n"
        "names = [r[0] for r in t.spans]\n"
        "parent = t.spans[names.index('face.mate_feasible')][3]\n"
        "print(names[parent])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), str(HERE)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "coupling.step"
