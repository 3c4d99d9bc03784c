"""Scenario schema and CLI tests.

The shipped example scenarios are exercised through cli.main() in-process;
the byte-identical determinism sweep over all commands lives in the
acceptance suite.
"""
import json
from pathlib import Path

import pytest

from docksim import cli
from docksim.errors import ScenarioError
from docksim.scenario import load_scenario, parse_scenario, parse_profile, run

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def scenario_path(tmp_path: Path, doc: dict) -> str:
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    return str(p)


def run_cli(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out) if out.strip() else None


# ------------------------------------------------------------- parsing


class TestParsing:
    def test_minimal_scenario(self):
        s = parse_scenario({"schema_version": 1})
        assert s.schema_version == 1
        assert s.mechanism is None and s.assembly is None

    def test_missing_version(self):
        with pytest.raises(ScenarioError) as ei:
            parse_scenario({})
        assert ei.value.path == "$.schema_version"

    def test_unsupported_version(self):
        with pytest.raises(ScenarioError) as ei:
            parse_scenario({"schema_version": 2})
        assert ei.value.path == "$.schema_version"

    def test_unknown_top_level_field(self):
        with pytest.raises(ScenarioError) as ei:
            parse_scenario({"schema_version": 1, "mechanics": {}})
        assert ei.value.path == "$.mechanics"

    def test_unknown_nested_field_path(self):
        with pytest.raises(ScenarioError) as ei:
            parse_scenario({"schema_version": 1, "mechanism": {"muX": 0.1}})
        assert ei.value.path == "$.mechanism.muX"

    def test_unknown_list_item_field_path(self):
        doc = {
            "schema_version": 1,
            "assembly": {"modules": [
                {"id": "a", "kind": "link", "ports": [], "colour": "red"},
            ]},
        }
        with pytest.raises(ScenarioError) as ei:
            parse_scenario(doc)
        assert ei.value.path == "$.assembly.modules[0].colour"

    def test_type_errors_have_paths(self):
        with pytest.raises(ScenarioError) as ei:
            parse_scenario({"schema_version": 1, "mechanism": {"mu1": "big"}})
        assert ei.value.path == "$.mechanism.mu1"
        with pytest.raises(ScenarioError) as ei:
            parse_scenario({"schema_version": 1, "events": {}})
        assert ei.value.path == "$.events"

    def test_domain_violations_have_paths(self):
        with pytest.raises(ScenarioError) as ei:
            parse_scenario({"schema_version": 1, "coupling": {"lock_duration_s": 5.0}})
        assert ei.value.path == "$.coupling"

    def test_event_timestamps_must_not_decrease(self):
        doc = {"schema_version": 1, "events": [
            {"t": 1.0, "event": "wait"},
            {"t": 0.5, "event": "wait"},
        ]}
        with pytest.raises(ScenarioError) as ei:
            parse_scenario(doc)
        assert ei.value.path == "$.events[1].t"

    def test_event_payload_rules(self):
        with pytest.raises(ScenarioError) as ei:
            parse_scenario({"schema_version": 1, "events": [
                {"t": 0.0, "event": "wait", "payload": {"x": 1}},
            ]})
        assert ei.value.path == "$.events[0].payload"
        with pytest.raises(ScenarioError) as ei:
            parse_scenario({"schema_version": 1, "events": [
                {"t": 0.0, "event": "inject_fault", "payload": {"fault_kind": "gremlin"}},
            ]})
        assert ei.value.path == "$.events[0].payload.fault_kind"

    def test_load_case_requires_wrench(self):
        with pytest.raises(ScenarioError) as ei:
            parse_scenario({"schema_version": 1, "load_case": {"dual_lock": True}})
        assert ei.value.path == "$.load_case.wrench"

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_nonpositive_dt_rejected_with_path(self, dt):
        with pytest.raises(ScenarioError) as ei:
            parse_scenario({"schema_version": 1, "mechanism": {"dt_s": dt}})
        assert ei.value.path == "$.mechanism.dt_s"

    def test_stroke_sample_cap(self):
        # 10 mm at 1 mm/s in 1e-4 s steps is 100,000 samples, the cap
        at_cap = {"stroke_mm": 10.0, "rod_speed_mm_s": 1.0, "dt_s": 1e-4}
        parse_scenario({"schema_version": 1, "mechanism": at_cap})
        for over in ({**at_cap, "dt_s": 0.99e-4}, {"dt_s": 1e-7}):
            with pytest.raises(ScenarioError) as ei:
                parse_scenario({"schema_version": 1, "mechanism": over})
            assert ei.value.path == "$.mechanism.dt_s"

    def test_shipped_scenarios_all_parse(self):
        for path in sorted(SCENARIOS.glob("*.json")):
            load_scenario(path)


# ------------------------------------------------------------- CLI


class TestCli:
    def test_schema_violation_exits_2_with_path(self, capsys, tmp_path):
        p = scenario_path(tmp_path, {"schema_version": 1, "mechanism": {"muX": 1.0}})
        rc, err = run_cli(capsys, ["mechanism", "--scenario", p, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert err["error"]["kind"] == "schema"
        assert err["error"]["path"] == "$.mechanism.muX"

    def test_zero_dt_exits_2_with_path(self, capsys, tmp_path):
        p = scenario_path(tmp_path, {"schema_version": 1, "mechanism": {"dt_s": 0.0}})
        rc, err = run_cli(capsys, ["mechanism", "--scenario", p, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert err["error"]["kind"] == "schema"
        assert err["error"]["path"] == "$.mechanism.dt_s"

    def test_missing_section_exits_2(self, capsys, tmp_path):
        p = scenario_path(tmp_path, {"schema_version": 1})
        rc, err = run_cli(capsys, ["loads", "--scenario", p, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert err["error"]["path"] == "$.load_case"

    def test_unreadable_scenario_exits_2(self, capsys, tmp_path):
        rc, err = run_cli(capsys, ["loads", "--scenario", str(tmp_path / "nope.json"),
                                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert err["error"]["path"] == "$"

    def test_analysis_error_exits_3_with_payload(self, capsys, tmp_path):
        p = scenario_path(tmp_path, {
            "schema_version": 1,
            "mechanism": {"mu1": 0.9, "mu2": 0.9, "theta_deg": 20.0},
        })
        rc, err = run_cli(capsys, ["mechanism", "--scenario", p, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert err["error"]["kind"] == "analysis"
        assert err["error"]["error_type"] == "JamError"

    def test_protocol_error_in_script_exits_3(self, capsys, tmp_path):
        p = scenario_path(tmp_path, {
            "schema_version": 1,
            "events": [{"t": 0.0, "event": "start_lock"}],  # idle cannot lock
        })
        rc, err = run_cli(capsys, ["couple", "--scenario", p, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert err["error"]["error_type"] == "ProtocolError"

    def test_mechanism_report_matches_published_defaults(self, capsys, tmp_path):
        out = tmp_path / "o"
        rc, _ = run_cli(capsys, ["mechanism", "--scenario",
                                 str(SCENARIOS / "mechanism.json"), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "mechanism_report.json").read_text())
        assert report["normalized_rhs"] == pytest.approx(0.69, abs=1e-12)
        assert report["movable"] is True
        assert report["self_locking"] is True
        header = (out / "stroke_trace.csv").read_text().splitlines()[0]
        assert header == "t_s,rod_travel_mm,radial_travel_mm,pin_normal_force_N"

    def test_empty_event_script_echoes_initial_state(self, capsys, tmp_path):
        p = scenario_path(tmp_path, {"schema_version": 1, "events": []})
        out = tmp_path / "o"
        rc, _ = run_cli(capsys, ["couple", "--scenario", p, "--out", str(out)])
        assert rc == 0
        assert (out / "couple_log.jsonl").read_bytes() == b""
        report = json.loads((out / "couple_report.json").read_text())
        assert report["initial_state"]["phase"] == "idle"
        assert report["final_state"] == report["initial_state"]
        assert report["events_applied"] == 0

    def test_couple_log_lines_carry_event_triples(self, capsys, tmp_path):
        out = tmp_path / "o"
        rc, _ = run_cli(capsys, ["couple", "--scenario",
                                 str(SCENARIOS / "couple.json"), "--out", str(out)])
        assert rc == 0
        lines = (out / "couple_log.jsonl").read_text().splitlines()
        assert len(lines) == 6
        for line in lines:
            row = json.loads(line)
            assert {"t", "event", "payload", "state"} <= set(row)
        phases = [json.loads(line)["state"]["phase"] for line in lines]
        assert "locked" in phases and phases[-1] == "aligned"

    def test_seed_recorded_in_metadata(self, capsys, tmp_path):
        out = tmp_path / "o"
        rc, _ = run_cli(capsys, ["loads", "--scenario",
                                 str(SCENARIOS / "loads.json"), "--out", str(out),
                                 "--seed", "42"])
        assert rc == 0
        report = json.loads((out / "loads_report.json").read_text())
        assert report["meta"]["seed"] == 42

    def test_bad_seed_rejected(self, capsys, tmp_path):
        rc, err = run_cli(capsys, ["loads", "--scenario",
                                   str(SCENARIOS / "loads.json"),
                                   "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert rc == 2
        assert err["error"]["path"] == "$.seed"

    def test_fast_commands_are_byte_identical(self, capsys, tmp_path):
        for cmd in ("mechanism", "couple", "loads", "assembly"):
            dirs = []
            for tag in ("r1", "r2"):
                out = tmp_path / cmd / tag
                rc, _ = run_cli(capsys, [cmd, "--scenario",
                                         str(SCENARIOS / f"{cmd}.json"), "--out", str(out)])
                assert rc == 0
                dirs.append(out)
            names = sorted(p.name for p in dirs[0].iterdir())
            for name in names:
                assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_envelope_resolution_override(self, capsys, tmp_path, reference_envelope):
        # reference_envelope warms the feasibility cache for these rays
        out = tmp_path / "o"
        rc, _ = run_cli(capsys, ["envelope", "--scenario",
                                 str(SCENARIOS / "envelope.json"), "--out", str(out),
                                 "--resolution", "120.0"])
        assert rc == 0
        rows = (out / "envelope_directions.csv").read_text().splitlines()
        assert rows[0] == "axis,direction_deg,limit,unit"
        # one base direction per translation/deflection, replicated 3x, plus 2 rotation rows
        assert len(rows) - 1 == 3 + 3 + 2


class TestAssemblyCommand:
    def test_shipped_assembly_scenario_report(self, capsys, tmp_path):
        out = tmp_path / "o"
        rc, _ = run_cli(capsys, ["assembly", "--scenario",
                                 str(SCENARIOS / "assembly.json"), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "assembly_report.json").read_text())
        assert all(d["accepted"] for d in report["docks"])
        assert report["plan"]["completed"] is True
        assert report["loads_ok"] is True
        granted = [p["granted"] for p in report["power"]]
        assert granted == [True, False, True]  # 450 W on a loaded edge is denied
        ledger = (out / "power_ledger.csv").read_text().splitlines()
        assert ledger[0] == "time_s,interface,bus,rail_V,allocated_W"
        wrench = (out / "wrench_map.csv").read_text().splitlines()
        assert wrench[0] == ("interface,fx_N,fy_N,fz_N,mx_Nm,my_Nm,mz_Nm,"
                             "combined_utilization,ok,dual_lock")

    def test_rejected_dock_recorded_not_fatal(self, capsys, tmp_path):
        doc = json.loads((SCENARIOS / "assembly.json").read_text())
        doc["assembly"]["docks"][1]["misalignment"] = {"dx_mm": 80.0}
        doc["assembly"]["external_wrenches"] = {}
        doc["assembly"]["power_requests"] = [
            {"source": "base", "sink": "tool", "watts": 10.0}]
        doc["assembly"]["frames"] = []
        p = scenario_path(tmp_path, doc)
        out = tmp_path / "o"
        rc, _ = run_cli(capsys, ["assembly", "--scenario", p, "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "assembly_report.json").read_text())
        assert report["docks"][1]["accepted"] is False
        assert report["power"][0] == {
            "t": 0.0, "source": "base", "sink": "tool", "watts": 10.0,
            "rail_v": 48.0, "granted": False, "reason": "no locked path",
        }

    def test_unsupported_load_exits_3(self, capsys, tmp_path):
        doc = json.loads((SCENARIOS / "assembly.json").read_text())
        for module in doc["assembly"]["modules"]:
            module["grounded"] = False
            module.pop("world_pose", None)
        doc["assembly"]["power_requests"] = []
        doc["assembly"]["frames"] = []
        p = scenario_path(tmp_path, doc)
        rc, err = run_cli(capsys, ["assembly", "--scenario", p, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert err["error"]["error_type"] == "UnsupportedError"


class TestRoundTrip:
    def test_calibrated_profile_reparses_and_feeds_envelope(self, capsys, tmp_path,
                                                            reference_envelope):
        out = tmp_path / "cal"
        rc, _ = run_cli(capsys, ["calibrate", "--scenario",
                                 str(SCENARIOS / "calibrate.json"), "--out", str(out)])
        assert rc == 0
        emitted = json.loads((out / "calibrated_profile.json").read_text())
        profile = parse_profile(emitted, "$.profile")  # strict re-parse
        scenario = parse_scenario({"schema_version": 1, "profile": emitted})
        assert scenario.profile == profile

    def test_all_json_artifacts_reparse_as_json(self, capsys, tmp_path):
        for cmd in ("mechanism", "couple", "loads", "assembly"):
            out = tmp_path / cmd
            rc, _ = run_cli(capsys, [cmd, "--scenario",
                                     str(SCENARIOS / f"{cmd}.json"), "--out", str(out)])
            assert rc == 0
            for artifact in out.glob("*.json"):
                json.loads(artifact.read_text())


def test_run_rejects_unknown_command(tmp_path):
    scenario = parse_scenario({"schema_version": 1})
    with pytest.raises(ScenarioError):
        run("fly", scenario, tmp_path)
