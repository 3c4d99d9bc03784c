"""Scenario schema and CLI tests.

The shipped example scenarios are exercised through cli.main() in-process;
the byte-identical determinism sweep over all commands lives in the
acceptance suite.
"""
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from capture_oracle import synthetic_limits
from docksim import cli, face, scenario as scenario_module
from docksim.coupling import Event
from docksim.errors import NonFiniteError, ScenarioError
from docksim.face import Misalignment
from docksim.scenario import load_scenario, parse_scenario, parse_profile, run

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
README = Path(__file__).resolve().parents[1] / "README.md"

# SHA-256 of every artifact each shipped scenario writes with seed 7. A change
# that moves any of these bytes must say which ones moved and why.
ARTIFACT_SHA256 = {
    "mechanism": {
        "mechanism_report.json": "b1c9f344d1a3c01cfe1e4cb2c545bfedf4fe02309a947802b6d52169050c64b9",
        "stroke_trace.csv": "05691ee160fc8a49ba741353b1392de3875bfbf3c82d671f8ba8c62a51c3d124",
    },
    "envelope": {
        "envelope_limits.json": "0f6d4ce0746fdeb1850d79ea8817db9403629b39f8cd28112a64124e08cd9069",
        "envelope_directions.csv":
            "949139b35148beeb888444758fd7c3f79f8f83106317c9385897fad8647bdd5b",
    },
    "calibrate": {
        "calibrated_profile.json":
            "6f5710dfcdb4b5974c8646beaa54b5c0aafbab3babb27e3a0ecf6160daabe37b",
        "calibration_report.json":
            "e1b83d6d894b980f9a23212f3d73cab6296b79915f245716578d3b7748ad70e0",
    },
    "couple": {
        "couple_log.jsonl": "fe0f161246ece7e77d9933d3b88373a00c26c61549347d571337f65952d0aa0a",
        "couple_report.json": "8aae1600b040c1ec82547a3d706d6cf8ed1fa6e5932d030e2b47eca89ae311ce",
    },
    "loads": {
        "loads_report.json": "a5bbbbf630e2158df092173e702073f49216d25b8b11cb660c6a7aabedcc8a19",
    },
    "assembly": {
        "assembly_report.json": "7df2b13fed5fcf0f0e987b9cf1c445fa01ab944dafa6bd191b95a1dbddef5235",
        "wrench_map.csv": "696bca7a5b81f8c4ac11a235891802e255bd6e2c0d6bc3c83bd9867c4de11802",
        "power_ledger.csv": "dbe939fb8801a65d348b92b2f10ff6f8e8bf866b3534308a75eba2f8228a1e88",
    },
}


def scenario_path(tmp_path: Path, doc: dict) -> str:
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    return str(p)


def _refuse(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, as a strict decoder does."""
    return json.loads(text, parse_constant=_refuse)


def decode_strictly(out: Path) -> None:
    """Decode every artifact in out strictly: JSON and each JSONL line with
    strict_json, and no CSV cell may read as inf or nan."""
    for artifact in sorted(out.iterdir()):
        text = artifact.read_text()
        if artifact.suffix == ".csv":
            for line in text.splitlines()[1:]:
                for cell in line.split(","):
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(value), f"{artifact.name}: {line}"
        else:
            for doc in text.splitlines() if artifact.suffix == ".jsonl" else [text]:
                strict_json(doc)


def run_cli(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, strict_json(out) if out.strip() else None


def cli_process(argv, log_level=None) -> int:
    """Exit code of the CLI run in a fresh process with DOCKSIM_LOG set to
    log_level (unset for None); its output goes to the test's descriptors."""
    env = {k: v for k, v in os.environ.items() if k not in ("DOCKSIM_LOG", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    if log_level is not None:
        env["DOCKSIM_LOG"] = log_level
    return subprocess.run([sys.executable, "-m", "docksim.cli", *argv], env=env).returncode


def readme_artifacts() -> dict[str, list[str]]:
    """The README's command table: command -> its artifact names, in order."""
    rows = (re.fullmatch(r"\| `(\w+)` +\|[^|]*\|(.*)\|", line)
            for line in README.read_text(encoding="utf-8").splitlines())
    return {m[1]: re.findall(r"`([^`]+)`", m[2]) for m in rows if m}


CAPACITIES = ("traction_capacity_n", "lateral_capacity_n", "bending_capacity_nm",
              "torsion_capacity_nm")


def _tiny(command, capacities):
    """The shipped scenario of a command with these load capacities."""
    doc = json.loads((SCENARIOS / f"{command}.json").read_text())
    doc["load_envelope"] = {**doc.get("load_envelope", {}), **capacities}
    return doc


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

    def test_script_events_carry_their_fsm_event(self):
        s = load_scenario(SCENARIOS / "couple.json")
        assert s.events[0].event == Event("approach", misalignment=Misalignment(dx_mm=3.0,
                                                                               rot_deg=5.0))
        assert s.events[1].kind == "wait" and s.events[1].event is None
        assert s.events[2].event == Event("start_lock")

    def test_huge_integer_reads_as_non_finite(self):
        with pytest.raises(ScenarioError) as ei:
            parse_scenario({"schema_version": 1, "mechanism": {"mu_rail": 10 ** 400}})
        assert (ei.value.path, ei.value.reason) == ("$.mechanism.mu_rail", "must be finite")


# ------------------------------------------------------------- CLI


class TestCli:
    @pytest.mark.parametrize("content,message", [
        (b'{"schema_version": 1, "x": "\xff"}', "scenario is not UTF-8: "),
        (b"[" * 200_000, "invalid JSON: maximum recursion depth exceeded"),
        (b'{"schema_version": ' + b"7" * 5000 + b"}", "invalid JSON: Exceeds the limit"),
    ], ids=["non-utf8", "deep-array", "long-integer"])
    def test_undecodable_scenario_exits_2(self, capsys, tmp_path, content, message):
        p = tmp_path / "scenario.json"
        p.write_bytes(content)
        rc, err = run_cli(capsys, ["loads", "--scenario", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert err["error"]["path"] == "$"
        assert err["error"]["message"].startswith(message)
        assert not (tmp_path / "o").exists()

    def test_analysis_error_removes_only_the_out_directories_it_made(self, capsys, tmp_path):
        p = scenario_path(tmp_path, {
            "schema_version": 1,
            "mechanism": {"mu1": 0.9, "mu2": 0.9, "theta_deg": 20.0},
        })
        kept = tmp_path / "kept"
        kept.mkdir()
        rc, err = run_cli(capsys, ["mechanism", "--scenario", p,
                                   "--out", str(kept / "outx" / "deep")])
        assert rc == 3
        assert err["error"]["error_type"] == "JamError"
        assert list(kept.iterdir()) == []

    def test_failed_calibration_reports_its_best_residual(self, capsys, tmp_path, monkeypatch):
        synthetic_limits(monkeypatch)
        p = scenario_path(tmp_path, _doc("calibration_targets", {
            "translation_mm": 12.0, "rotation_deg": 33.0, "deflection_deg": 13.0,
            "tolerance": 0.01}))
        rc, err = run_cli(capsys, ["calibrate", "--scenario", p, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert err["error"]["error_type"] == "CalibrationError"
        assert err["error"]["payload"] == {"best_residual": 1.0 / 6.0}

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
        assert report["meta"]["seed"] == 42 and type(report["meta"]["seed"]) is int

    def test_resolution_flag_over_cap_exits_2(self, capsys, tmp_path):
        # the flag has no cap of its own: the sweep it sizes is over the probe budget
        rc, err = run_cli(capsys, ["envelope", "--scenario", str(SCENARIOS / "envelope.json"),
                                   "--out", str(tmp_path / "o"), "--resolution", "1e-9"])
        assert rc == 2
        assert err["error"]["path"] == "$.envelope"
        assert err["error"]["message"] == (
            "sweep plans at least 2800260 probes (20001 rays x 140 lattice points + 2 x 60), "
            "over the budget of 20000 probes")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("over", [0, 1])
    def test_sweep_at_the_probe_budget_runs(self, capsys, tmp_path, monkeypatch, over):
        # one ray, one rotation and one deflection point each, and translation
        # points up to the budget: a plan of exactly MAX_ENVELOPE_PROBES gets
        # past the check to its first probe, one probe more exits 2
        class Probed(Exception):
            pass

        def probe(p, m):
            raise Probed

        monkeypatch.setattr(face, "mate_feasible", probe)
        points = face.MAX_ENVELOPE_PROBES - 3 + over
        doc = _shipped("envelope", lambda e: e.update(
            angular_resolution_deg=120.0, rotation_tol_deg=60.0, deflection_tol_deg=60.0,
            translation_tol_mm=80.0 / (points + 0.5)))
        argv = ["envelope", "--scenario", scenario_path(tmp_path, doc),
                "--out", str(tmp_path / "o")]
        if over:
            rc, err = run_cli(capsys, argv)
            assert (rc, err["error"]["path"]) == (2, "$.envelope")
            assert err["error"]["message"].startswith(
                f"sweep plans at least {face.MAX_ENVELOPE_PROBES + 1} probes")
        else:
            with pytest.raises(Probed):
                cli.main(argv)
        assert not (tmp_path / "o").exists()

    def test_degenerate_profile_stays_exit_3(self, capsys, tmp_path, monkeypatch):
        # only the budget's ParameterError is a schema error
        monkeypatch.setattr(face, "_feasible", lambda *a: False)
        rc, err = run_cli(capsys, ["envelope", "--scenario", str(SCENARIOS / "envelope.json"),
                                   "--out", str(tmp_path / "o")])
        assert (rc, err["error"]["error_type"]) == (3, "DegenerateProfileError")

    def test_probe_budget_binds_only_the_envelope_command(self, capsys, tmp_path):
        doc = json.loads((SCENARIOS / "loads.json").read_text())
        doc["envelope"] = RUNAWAY_ENVELOPE
        rc, _ = run_cli(capsys, ["loads", "--scenario", scenario_path(tmp_path, doc),
                                 "--out", str(tmp_path / "o"), "--resolution", "1e-9"])
        assert rc == 0

    @pytest.mark.parametrize("value,message", [
        ("inf", "must be finite"), ("nan", "must be finite"), ("-inf", "must be finite"),
        ("0", "must be > 0"), ("-30", "must be > 0"),
    ])
    def test_resolution_flag_read_like_the_scenario_field(self, capsys, tmp_path, value,
                                                          message):
        rc, err = run_cli(capsys, ["envelope", "--scenario", str(SCENARIOS / "envelope.json"),
                                   "--out", str(tmp_path / "o"), f"--resolution={value}"])
        assert rc == 2
        assert (err["error"]["path"], err["error"]["message"]) == ("$.resolution", message)
        assert not (tmp_path / "o").exists()

    def test_out_naming_a_file_exits_2(self, capsys, tmp_path):
        out = tmp_path / "taken"
        out.write_text("not a directory")
        rc, err = run_cli(capsys, ["loads", "--scenario", str(SCENARIOS / "loads.json"),
                                   "--out", str(out)])
        assert rc == 2
        assert err["error"]["kind"] == "schema"
        assert err["error"]["path"] == "$.out"

    def test_unwritable_artifact_exits_2(self, capsys, tmp_path):
        out = tmp_path / "o"
        (out / "loads_report.json").mkdir(parents=True)
        rc, err = run_cli(capsys, ["loads", "--scenario", str(SCENARIOS / "loads.json"),
                                   "--out", str(out)])
        assert rc == 2
        assert err["error"]["path"] == "$.out"

    def test_failed_write_leaves_out_as_it_was(self, capsys, tmp_path):
        # the second artifact cannot be written: the first must not appear either
        out = tmp_path / "o"
        (out / "stroke_trace.csv").mkdir(parents=True)
        rc, err = run_cli(capsys, ["mechanism", "--scenario", str(SCENARIOS / "mechanism.json"),
                                   "--out", str(out)])
        assert rc == 2
        assert err["error"]["path"] == "$.out"
        assert "Is a directory" in err["error"]["message"]
        assert [p.name for p in out.iterdir()] == ["stroke_trace.csv"]
        assert [p.name for p in tmp_path.iterdir()] == ["o"]

    def test_rerun_replaces_the_artifact_set(self, capsys, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        (out / "mechanism_report.json").write_text("stale")
        (out / "notes.txt").write_text("kept")
        argv = ["mechanism", "--scenario", str(SCENARIOS / "mechanism.json"), "--out", str(out)]
        assert run_cli(capsys, argv)[0] == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(first) == ["mechanism_report.json", "notes.txt", "stroke_trace.csv"]
        assert first["notes.txt"] == b"kept"
        assert run_cli(capsys, argv)[0] == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    @pytest.mark.parametrize("command", list(scenario_module.COMMANDS))
    def test_artifact_set_is_the_readme_table(self, tmp_path, reference_envelope, command):
        # reference_envelope serves envelope and calibrate from the memo
        table = readme_artifacts()
        assert list(table) == list(scenario_module.COMMANDS)
        out = tmp_path / "o"
        names = run(command, load_scenario(SCENARIOS / f"{command}.json"), out, seed=7)
        assert names == table[command]
        # exactly the set: nothing else published, no staging directory left
        assert sorted(p.name for p in out.iterdir()) == sorted(names)

    @pytest.mark.parametrize("command", list(scenario_module.COMMANDS))
    def test_shipped_scenario_artifact_bytes(self, tmp_path, reference_envelope, command):
        # reference_envelope serves envelope and calibrate from the memo
        out = tmp_path / "o"
        run(command, load_scenario(SCENARIOS / f"{command}.json"), out, seed=7)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert digests == ARTIFACT_SHA256[command]

    def test_bad_seed_rejected(self, capsys, tmp_path):
        rc, err = run_cli(capsys, ["loads", "--scenario",
                                   str(SCENARIOS / "loads.json"),
                                   "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert rc == 2
        assert err["error"]["path"] == "$.seed"

    @pytest.mark.parametrize("flag,value,path,message", [
        ("--seed", "x", "$.seed", "expected an integer"),
        ("--seed", "1.5", "$.seed", "expected an integer"),
        ("--seed", str(2 ** 64), "$.seed", "seed must fit in an unsigned 64-bit integer"),
        ("--resolution", "abc", "$.resolution", "expected a number"),
        ("--resolution", "", "$.resolution", "expected a number"),
        ("--resolution", "1e400", "$.resolution", "must be finite"),
        ("--resolution", "inf", "$.resolution", "must be finite"),
        # a value that starts with '-' and is no plain number stays a value
        ("--resolution", "-inf", "$.resolution", "must be finite"),
        ("--resolution", "-abc", "$.resolution", "expected a number"),
        ("--seed", "-x", "$.seed", "expected an integer"),
    ])
    def test_unconvertible_flag_exits_2_with_path(self, capsys, tmp_path, flag, value, path,
                                                  message):
        rc = cli.main(["envelope", "--scenario", str(SCENARIOS / "envelope.json"),
                       "--out", str(tmp_path / "o"), flag, value])
        captured = capsys.readouterr()
        assert rc == 2
        err = strict_json(captured.out)["error"]
        assert (err["kind"], err["path"], err["message"]) == ("schema", path, message)
        assert "usage:" not in captured.err
        assert not (tmp_path / "o").exists()

    def test_set_lateral_rating_carries_no_assumption_note(self, capsys, tmp_path):
        p = scenario_path(tmp_path, {"schema_version": 1,
                                     "load_envelope": {"lateral_capacity_n": 1000.0},
                                     "load_case": {"wrench": {"fx_n": 100.0}}})
        rc, _ = run_cli(capsys, ["loads", "--scenario", p, "--out", str(tmp_path / "o")])
        assert rc == 0
        check = json.loads((tmp_path / "o" / "loads_report.json").read_text())["check"]
        assert check["utilization"]["lateral"] == 0.1
        assert check["notes"] == []

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

    def test_dock_ends_are_interchangeable(self, capsys, tmp_path):
        # the interface is genderless: naming either port of a dock a moves
        # only the echo of a and b, not one byte of the loads or the power
        doc = json.loads((SCENARIOS / "assembly.json").read_text())
        for dock in doc["assembly"]["docks"] + doc["assembly"]["plan"]:
            dock["a"], dock["b"] = dock["b"], dock["a"]
        plain, swapped = tmp_path / "plain", tmp_path / "swapped"
        for scenario, out in ((str(SCENARIOS / "assembly.json"), plain),
                              (scenario_path(tmp_path, doc), swapped)):
            assert run_cli(capsys, ["assembly", "--scenario", scenario, "--out", str(out)])[0] == 0
        for name in ("wrench_map.csv", "power_ledger.csv"):
            assert (swapped / name).read_bytes() == (plain / name).read_bytes()
        report = json.loads((swapped / "assembly_report.json").read_text())
        for dock in report["docks"]:
            dock["a"], dock["b"] = dock["b"], dock["a"]
        for step in report["plan"]["steps"]:
            step["op"][1:] = step["op"][3:] + step["op"][1:3]
        assert report == json.loads((plain / "assembly_report.json").read_text())

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

    def test_plan_undocks_and_a_frame_with_no_locked_path(self, capsys, tmp_path):
        # spare docks to link1 and base, then lets go of link1; undocking
        # base.px would then strand link1 and tool; "loose" docks nowhere
        doc = json.loads((SCENARIOS / "assembly.json").read_text())
        asm = doc["assembly"]
        spare = asm["modules"][3]
        spare["ports"].append(
            {"name": "nx", "xyz": [-1.0, 0.0, 0.0], "rpy_deg": [0.0, -90.0, 0.0]})
        asm["modules"].append({**spare, "id": "loose"})
        asm["plan"] += [
            {"op": "dock", "a": ["base", "pz"], "b": ["spare", "nx"]},
            {"op": "undock", "port": ["link1", "pz"]},
            {"op": "undock", "port": ["base", "px"]},
        ]
        asm["power_requests"] = []
        asm["frames"] = [{"channel": "can", "source": "base", "dest": "loose",
                          "payload_text": "intlk"}]
        out = tmp_path / "o"
        rc, _ = run_cli(capsys, ["assembly", "--scenario", scenario_path(tmp_path, doc),
                                 "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "assembly_report.json").read_text())
        assert report["plan"] == {
            "completed": False,
            "aborted_index": 3,
            "steps": [
                {"index": 0, "op": ["dock", "link1", "pz", "spare", "pz"], "applied": True,
                 "detail": "locked", "stranded": []},
                {"index": 1, "op": ["dock", "base", "pz", "spare", "nx"], "applied": True,
                 "detail": "locked", "stranded": []},
                {"index": 2, "op": ["undock", "link1", "pz"], "applied": True,
                 "detail": "undocked", "stranded": []},
                {"index": 3, "op": ["undock", "base", "px"], "applied": False,
                 "detail": "undock would strand modules from their anchor",
                 "stranded": ["link1", "tool"]},
            ],
        }
        assert report["frames"] == [{"channel": "can", "source": "base", "dest": "loose",
                                     "delivered": False, "reason": "no locked path"}]

    def test_overflow_leaves_only_the_log_line_on_stderr(self, capfd, tmp_path):
        # a separate process: in-process, pytest would catch a numpy warning
        doc = _shipped("assembly", _overflowing)
        argv = ["assembly", "--scenario", scenario_path(tmp_path, doc), "--out", str(tmp_path / "o")]
        rc = cli_process(argv)
        out, err = capfd.readouterr()
        assert rc == 3
        assert strict_json(out)["error"]["message"] == "ground reaction at anchor 'base' is not finite"
        assert err == "ERROR docksim: analysis error: ground reaction at anchor 'base' is not finite\n"

    @pytest.mark.parametrize("level", ["info", "bogus"])
    def test_log_level_changes_only_stderr(self, capfd, tmp_path, level):
        # info logs one line per artifact; an unknown level falls back to
        # warning, which a run that succeeds leaves silent
        logged, plain = tmp_path / "logged", tmp_path / "plain"
        scenario = str(SCENARIOS / "assembly.json")
        rc = cli_process(["assembly", "--scenario", scenario, "--out", str(logged)], level)
        out, err = capfd.readouterr()
        assert (rc, out) == (0, "")
        names = readme_artifacts()["assembly"]
        assert err == ("".join(f"INFO docksim: wrote {logged / name}\n" for name in names)
                       if level == "info" else "")
        assert cli.main(["assembly", "--scenario", scenario, "--out", str(plain)]) == 0
        assert ({p.name: p.read_bytes() for p in logged.iterdir()}
                == {p.name: p.read_bytes() for p in plain.iterdir()})


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

    def test_all_json_artifacts_reparse_as_json(self, capsys, tmp_path, reference_envelope):
        # strictly: NaN and Infinity are refused; reference_envelope serves
        # envelope and calibrate from the memo
        for cmd in scenario_module.COMMANDS:
            out = tmp_path / cmd
            rc, _ = run_cli(capsys, [cmd, "--scenario",
                                     str(SCENARIOS / f"{cmd}.json"), "--out", str(out)])
            assert rc == 0
            decode_strictly(out)

    @pytest.mark.parametrize("command,capacities", [
        ("loads", {"traction_capacity_n": 1e-308}),
        ("assembly", dict.fromkeys(CAPACITIES, 1e-308)),
    ], ids=["loads", "assembly"])
    def test_no_artifact_holds_a_non_finite_number(self, capsys, tmp_path, command,
                                                   capacities):
        # a load over a capacity of 1e-308 overflows to inf: the run either
        # writes strict artifacts or exits 3 and leaves no --out
        out = tmp_path / "o"
        rc, body = run_cli(capsys, [command, "--scenario",
                                    scenario_path(tmp_path, _tiny(command, capacities)),
                                    "--out", str(out)])
        if rc == 0:
            decode_strictly(out)
        else:
            assert rc == body["error"]["exit_code"] == 3
            assert not out.exists()


def test_run_rejects_unknown_command(tmp_path):
    scenario = parse_scenario({"schema_version": 1})
    with pytest.raises(ScenarioError):
        run("fly", scenario, tmp_path)


# ------------------------------------------------------------- pinned error paths

NAN = float("nan")
INF = float("inf")
POSE = {"xyz": [0.0, 0.0, 0.0], "rpy_deg": [0.0, 0.0, 0.0]}
PORT = {"name": "p", **POSE}
MODULE = {"id": "m", "kind": "link", "ports": [PORT]}
DOCK = {"a": ["m", "p"], "b": ["n", "p"]}
REQUEST = {"source": "m", "sink": "n", "watts": 10.0}
FRAME = {"channel": "can", "source": "m", "dest": "n", "payload_text": "x"}
PROFILE = {"petal_height_mm": 6.5, "petal_flank_angle_deg": 24.7,
           "groove_radius_mm": 27.0, "chamfer_depth_mm": 1.0}
TARGETS = {"translation_mm": 12.0, "rotation_deg": 41.0, "deflection_deg": 14.0}


def _doc(section, body):
    return {"schema_version": 1, section: body}


def _asm(key, item):
    """An assembly whose list `key` holds one item (other modules stay valid)."""
    return _doc("assembly", {"modules": [MODULE], key: [item]})


def _event(event):
    return _doc("events", [event])


# One single-fault document per fault kind for every section and list item,
# with the exact (path, message) the parser reports.
ERROR_PATHS = [
    # top level
    ({"schema_version": 1, "x": 1}, "$.x", "unknown field"),
    ([], "$", "expected an object, got list"),
    ({}, "$.schema_version", "required field is missing"),
    ({"schema_version": 1.0}, "$.schema_version", "expected an integer"),
    ({"schema_version": 2}, "$.schema_version", "unsupported version 2; this tool reads 1"),
    # mechanism
    (_doc("mechanism", []), "$.mechanism", "expected an object, got list"),
    (_doc("mechanism", {"x": 1}), "$.mechanism.x", "unknown field"),
    (_doc("mechanism", {"mu1": "big"}), "$.mechanism.mu1", "expected a number"),
    (_doc("mechanism", {"mu1": True}), "$.mechanism.mu1", "expected a number"),
    (_doc("mechanism", {"mu1": NAN}), "$.mechanism.mu1", "must be finite"),
    (_doc("mechanism", {"mu_rail": NAN}), "$.mechanism.mu_rail", "must be finite"),
    (_doc("mechanism", {"pin_count": 3.0}), "$.mechanism.pin_count", "expected an integer"),
    (_doc("mechanism", {"direction": "up"}), "$.mechanism.direction",
     "must be one of ['locking', 'unlocking']"),
    (_doc("mechanism", {"direction": 1}), "$.mechanism.direction", "expected a string"),
    (_doc("mechanism", {"dt_s": 0.0}), "$.mechanism.dt_s", "must be positive"),
    (_doc("mechanism", {"dt_s": 1e-7}), "$.mechanism.dt_s",
     "stroke would take more than 100000 samples"),
    (_doc("mechanism", {"theta_deg": 95.0}), "$.mechanism", "theta_deg must be in (0, 90)"),
    # profile
    (_doc("profile", {**PROFILE, "x": 1}), "$.profile.x", "unknown field"),
    (_doc("profile", {"petal_height_mm": 6.5}), "$.profile.petal_flank_angle_deg",
     "required field is missing"),
    (_doc("profile", {**PROFILE, "groove_radius_mm": "27"}), "$.profile.groove_radius_mm",
     "expected a number"),
    (_doc("profile", {**PROFILE, "chamfer_depth_mm": NAN}), "$.profile.chamfer_depth_mm",
     "must be finite"),
    (_doc("profile", {**PROFILE, "petal_count": 3.5}), "$.profile.petal_count",
     "expected an integer"),
    (_doc("profile", {**PROFILE, "groove_positions_deg": [0.0, 120.0]}),
     "$.profile.groove_positions_deg", "expected a list of 3 numbers"),
    (_doc("profile", {**PROFILE, "petal_count": 4}), "$.profile", "petal_count is fixed at 3"),
    # calibration_targets
    (_doc("calibration_targets", {**TARGETS, "x": 1}), "$.calibration_targets.x",
     "unknown field"),
    (_doc("calibration_targets", {"translation_mm": 12.0}), "$.calibration_targets.rotation_deg",
     "required field is missing"),
    (_doc("calibration_targets", {**TARGETS, "rotation_deg": None}),
     "$.calibration_targets.rotation_deg", "expected a number"),
    (_doc("calibration_targets", {**TARGETS, "tolerance": 1.0}),
     "$.calibration_targets.tolerance", "must be within (0, 1)"),
    # load_envelope
    (_doc("load_envelope", {"x": 1}), "$.load_envelope.x", "unknown field"),
    (_doc("load_envelope", {"traction_capacity_n": "3k"}), "$.load_envelope.traction_capacity_n",
     "expected a number"),
    (_doc("load_envelope", {"interaction": "sum"}), "$.load_envelope.interaction",
     "must be one of ['linear', 'max-component']"),
    (_doc("load_envelope", {"torsion_capacity_nm": -1.0}), "$.load_envelope",
     "capacities must be positive and finite"),
    # load_case and its wrench
    (_doc("load_case", {"wrench": {}, "x": 1}), "$.load_case.x", "unknown field"),
    (_doc("load_case", {}), "$.load_case.wrench", "required field is missing"),
    (_doc("load_case", {"wrench": []}), "$.load_case.wrench", "expected an object, got list"),
    (_doc("load_case", {"wrench": {"fq_n": 1.0}}), "$.load_case.wrench.fq_n", "unknown field"),
    (_doc("load_case", {"wrench": {"fz_n": "1"}}), "$.load_case.wrench.fz_n",
     "expected a number"),
    (_doc("load_case", {"wrench": {"mz_nm": NAN}}), "$.load_case.wrench.mz_nm",
     "must be finite"),
    (_doc("load_case", {"wrench": {}, "dual_lock": 1}), "$.load_case.dual_lock",
     "expected a boolean"),
    # coupling
    (_doc("coupling", {"x": 1}), "$.coupling.x", "unknown field"),
    (_doc("coupling", {"lock_duration_s": "15"}), "$.coupling.lock_duration_s",
     "expected a number"),
    (_doc("coupling", {"which_sides": "C"}), "$.coupling.which_sides",
     "must be one of ['A', 'B', 'both']"),
    (_doc("coupling", {"lock_duration_s": 5.0}), "$.coupling",
     "lock_duration_s must be within [10, 20] s"),
    # events and their payloads
    (_doc("events", {}), "$.events", "expected a list, got dict"),
    (_doc("events", [1]), "$.events[0]", "expected an object, got int"),
    (_event({"t": 0.0, "event": "wait", "x": 1}), "$.events[0].x", "unknown field"),
    (_event({"event": "wait"}), "$.events[0].t", "required field is missing"),
    (_event({"t": "0", "event": "wait"}), "$.events[0].t", "expected a number"),
    (_event({"t": NAN, "event": "wait"}), "$.events[0].t", "must be finite"),
    (_event({"t": -1.0, "event": "wait"}), "$.events[0].t", "must be >= 0"),
    (_doc("events", [{"t": 1.0, "event": "wait"}, {"t": 0.5, "event": "wait"}]),
     "$.events[1].t", "timestamps must be non-decreasing"),
    (_event({"t": 0.0}), "$.events[0].event", "required field is missing"),
    (_event({"t": 0.0, "event": "tick"}), "$.events[0].event",
     "must be one of ['approach', 'inject_fault', 'reset', 'start_lock', 'start_unlock', "
     "'wait']"),
    (_event({"t": 0.0, "event": "wait", "payload": []}), "$.events[0].payload",
     "expected an object, got list"),
    (_event({"t": 0.0, "event": "reset", "payload": {"x": 1}}), "$.events[0].payload",
     "reset takes no payload"),
    (_event({"t": 0.0, "event": "approach", "payload": {"dz_mm": 1.0}}),
     "$.events[0].payload.dz_mm", "unknown field"),
    (_event({"t": 0.0, "event": "approach", "payload": {"dx_mm": "1"}}),
     "$.events[0].payload.dx_mm", "expected a number"),
    (_event({"t": 0.0, "event": "approach", "payload": {"rot_deg": NAN}}),
     "$.events[0].payload.rot_deg", "must be finite"),
    (_event({"t": 0.0, "event": "inject_fault"}), "$.events[0].payload.fault_kind",
     "required field is missing"),
    (_event({"t": 0.0, "event": "inject_fault", "payload": {"fault_kind": "pin_jam", "x": 1}}),
     "$.events[0].payload.x", "unknown field"),
    (_event({"t": 0.0, "event": "inject_fault", "payload": {"fault_kind": "gremlin"}}),
     "$.events[0].payload.fault_kind",
     "must be one of ['comms_loss', 'pin_jam', 'power_trip', 'rod_stall']"),
    # envelope options
    (_doc("envelope", {"x": 1}), "$.envelope.x", "unknown field"),
    (_doc("envelope", {"translation_tol_mm": "1"}), "$.envelope.translation_tol_mm",
     "expected a number"),
    (_doc("envelope", {"angular_resolution_deg": 0.0}), "$.envelope.angular_resolution_deg",
     "must be > 0"),
    (_doc("envelope", {"translation_tol_mm": -1.0}), "$.envelope.translation_tol_mm",
     "must be > 0"),
    (_doc("envelope", {"rotation_tol_deg": 0.0}), "$.envelope.rotation_tol_deg", "must be > 0"),
    (_doc("envelope", {"deflection_tol_deg": 0.0}), "$.envelope.deflection_tol_deg",
     "must be > 0"),
    # assembly
    (_doc("assembly", {"x": 1}), "$.assembly.x", "unknown field"),
    (_doc("assembly", {"modules": {}}), "$.assembly.modules", "expected a list, got dict"),
    (_doc("assembly", {"gravity_mps2": [0.0, -9.81]}), "$.assembly.gravity_mps2",
     "expected a list of 3 numbers"),
    (_doc("assembly", {"external_wrenches": []}), "$.assembly.external_wrenches",
     "expected an object, got list"),
    (_doc("assembly", {"external_wrenches": {"m": 1}}), "$.assembly.external_wrenches.m",
     "expected an object, got int"),
    (_doc("assembly", {"external_wrenches": {"m": {"fz": 1}}}),
     "$.assembly.external_wrenches.m.fz", "unknown field"),
    # assembly.modules[i] and its ports and poses
    (_asm("modules", "m"), "$.assembly.modules[0]", "expected an object, got str"),
    (_asm("modules", {**MODULE, "x": 1}), "$.assembly.modules[0].x", "unknown field"),
    (_asm("modules", {"kind": "link"}), "$.assembly.modules[0].id",
     "required field is missing"),
    (_asm("modules", {**MODULE, "kind": 1}), "$.assembly.modules[0].kind", "expected a string"),
    (_asm("modules", {**MODULE, "mass_kg": NAN}), "$.assembly.modules[0].mass_kg",
     "must be finite"),
    (_asm("modules", {**MODULE, "grounded": "yes"}), "$.assembly.modules[0].grounded",
     "expected a boolean"),
    (_asm("modules", {**MODULE, "kind": "rocket"}), "$.assembly.modules[0]",
     "kind must be one of ('joint', 'link', 'end_effector', 'facility_module', 'truss_node'), "
     "got 'rocket'"),
    (_asm("modules", {**MODULE, "grounded": True}), "$.assembly.modules[0]",
     "world_pose must be given exactly for grounded modules"),
    (_asm("modules", {**MODULE, "world_pose": None}), "$.assembly.modules[0].world_pose",
     "expected an object, got NoneType"),
    (_asm("modules", {**MODULE, "world_pose": {"rpy": [0, 0, 0]}}),
     "$.assembly.modules[0].world_pose.rpy", "unknown field"),
    (_asm("modules", {**MODULE, "world_pose": {"xyz": [0, 0, True]}}),
     "$.assembly.modules[0].world_pose.xyz", "expected a list of 3 numbers"),
    (_asm("modules", {**MODULE, "world_pose": {"xyz": [0, 0, NAN]}}),
     "$.assembly.modules[0].world_pose.xyz", "must be finite"),
    (_asm("modules", {**MODULE, "ports": {}}), "$.assembly.modules[0].ports",
     "expected a list, got dict"),
    (_asm("modules", {**MODULE, "ports": [None]}), "$.assembly.modules[0].ports[0]",
     "expected an object, got NoneType"),
    (_asm("modules", {**MODULE, "ports": [{**PORT, "x": 1}]}),
     "$.assembly.modules[0].ports[0].x", "unknown field"),
    (_asm("modules", {**MODULE, "ports": [POSE]}), "$.assembly.modules[0].ports[0].name",
     "required field is missing"),
    (_asm("modules", {**MODULE, "ports": [{**PORT, "rpy_deg": [0, 0]}]}),
     "$.assembly.modules[0].ports[0].rpy_deg", "expected a list of 3 numbers"),
    (_asm("modules", {**MODULE, "ports": [PORT, PORT]}), "$.assembly.modules[0]",
     "port names must be unique per module"),
    # assembly.docks[i]
    (_asm("docks", {**DOCK, "x": 1}), "$.assembly.docks[0].x", "unknown field"),
    (_asm("docks", {"b": ["n", "p"]}), "$.assembly.docks[0].a", "required field is missing"),
    (_asm("docks", {**DOCK, "b": ["n"]}), "$.assembly.docks[0].b",
     "expected [module_id, port_name]"),
    (_asm("docks", {**DOCK, "which_sides": "C"}), "$.assembly.docks[0].which_sides",
     "must be one of ['A', 'B', 'both']"),
    (_asm("docks", {**DOCK, "misalignment": 1}), "$.assembly.docks[0].misalignment",
     "expected an object, got int"),
    (_asm("docks", {**DOCK, "misalignment": {"dx_mm": NAN}}),
     "$.assembly.docks[0].misalignment.dx_mm", "must be finite"),
    # assembly.plan[i]
    (_asm("plan", {"a": ["m", "p"]}), "$.assembly.plan[0].op", "required field is missing"),
    (_asm("plan", {"op": "swap"}), "$.assembly.plan[0].op",
     "must be one of ['dock', 'undock']"),
    (_asm("plan", {"op": "dock", **DOCK, "which_sides": "A"}),
     "$.assembly.plan[0].which_sides", "unknown field"),
    (_asm("plan", {"op": "dock", "b": ["n", "p"]}), "$.assembly.plan[0].a",
     "expected [module_id, port_name]"),
    (_asm("plan", {"op": "dock", **DOCK, "misalignment": {"tilt_x_deg": "1"}}),
     "$.assembly.plan[0].misalignment.tilt_x_deg", "expected a number"),
    (_asm("plan", {"op": "undock", "port": ["m", "p"], "a": ["m", "p"]}),
     "$.assembly.plan[0].a", "unknown field"),
    (_asm("plan", {"op": "undock"}), "$.assembly.plan[0].port",
     "expected [module_id, port_name]"),
    # assembly.power_requests[i]
    (_asm("power_requests", {**REQUEST, "x": 1}), "$.assembly.power_requests[0].x",
     "unknown field"),
    (_asm("power_requests", {"sink": "n", "watts": 1.0}), "$.assembly.power_requests[0].source",
     "required field is missing"),
    (_asm("power_requests", {**REQUEST, "watts": "10"}), "$.assembly.power_requests[0].watts",
     "expected a number"),
    (_asm("power_requests", {**REQUEST, "t": NAN}), "$.assembly.power_requests[0].t",
     "must be finite"),
    (_asm("power_requests", {**REQUEST, "rail_v": 12.0}), "$.assembly.power_requests[0].rail_v",
     "must be 48 or 24"),
    # assembly.frames[i]
    (_asm("frames", {**FRAME, "x": 1}), "$.assembly.frames[0].x", "unknown field"),
    (_asm("frames", {"channel": "can", "source": "m"}), "$.assembly.frames[0].dest",
     "required field is missing"),
    (_asm("frames", {**FRAME, "channel": "wifi"}), "$.assembly.frames[0].channel",
     "must be one of ['can', 'ethernet']"),
    (_asm("frames", {**FRAME, "payload_text": 1}), "$.assembly.frames[0].payload_text",
     "expected a string"),
    (_asm("frames", {**FRAME, "timestamp_s": NAN}), "$.assembly.frames[0].timestamp_s",
     "must be finite"),
]


@pytest.mark.parametrize("doc,path,message", ERROR_PATHS,
                         ids=[f"{i:03d}:{case[1]}" for i, case in enumerate(ERROR_PATHS)])
def test_error_path_and_message(doc, path, message):
    with pytest.raises(ScenarioError) as ei:
        parse_scenario(doc)
    assert (ei.value.path, ei.value.reason) == (path, message)


# Values that would otherwise fail later in the analysis (exit 3).
NEW_BOUNDS = [
    (_doc("mechanism", {"resisting_force_n": -1.0}), "$.mechanism.resisting_force_n",
     "must be >= 0"),
    (_doc("mechanism", {"mu_rail": -0.1}), "$.mechanism.mu_rail", "must be >= 0"),
    (_asm("power_requests", {**REQUEST, "watts": 0.0}), "$.assembly.power_requests[0].watts",
     "must be > 0"),
    (_asm("power_requests", {**REQUEST, "watts": -5.0}), "$.assembly.power_requests[0].watts",
     "must be > 0"),
    # the sweep's size is checked when it runs: see the CLI error bodies
    (_doc("envelope", {"angular_resolution_deg": -30.0}), "$.envelope.angular_resolution_deg",
     "must be > 0"),
    (_doc("envelope", {"rotation_tol_deg": -1.0}), "$.envelope.rotation_tol_deg", "must be > 0"),
    (_doc("envelope", {"deflection_tol_deg": -1.0}), "$.envelope.deflection_tol_deg",
     "must be > 0"),
    # every element of a 3-vector must be finite
    (_doc("assembly", {"gravity_mps2": [INF, 0.0, 0.0]}), "$.assembly.gravity_mps2",
     "must be finite"),
    (_doc("assembly", {"gravity_mps2": [0.0, NAN, -9.81]}), "$.assembly.gravity_mps2",
     "must be finite"),
    (_doc("assembly", {"gravity_mps2": [0, 0, -10 ** 400]}), "$.assembly.gravity_mps2",
     "must be finite"),
    (_asm("modules", {**MODULE, "ports": [{**PORT, "rpy_deg": [0, -INF, 0]}]}),
     "$.assembly.modules[0].ports[0].rpy_deg", "must be finite"),
    (_doc("profile", {**PROFILE, "groove_positions_deg": [NAN, NAN, NAN]}),
     "$.profile.groove_positions_deg", "must be finite"),
    # a frame cannot be sent before time 0
    (_asm("frames", {**FRAME, "timestamp_s": -1.0}), "$.assembly.frames[0].timestamp_s",
     "must be >= 0"),
    # a pin count no float can hold would overflow the rod force
    (_doc("mechanism", {"pin_count": 10 ** 400}), "$.mechanism",
     "pin_count must be within the float range"),
    # a rod that can push no force stalls at every sample
    (_doc("mechanism", {"rod_capacity_n": -5.0}), "$.mechanism.rod_capacity_n", "must be > 0"),
    (_doc("mechanism", {"rod_capacity_n": 0.0}), "$.mechanism.rod_capacity_n", "must be > 0"),
    # the frame's byte limit is the bus's: a 9-byte CAN payload
    (_asm("frames", {**FRAME, "payload_text": "123456789"}), "$.assembly.frames[0]",
     "can frame of 9 B exceeds 8 B"),
]


@pytest.mark.parametrize("doc,path,message", NEW_BOUNDS,
                         ids=[f"{i:03d}:{case[1]}" for i, case in enumerate(NEW_BOUNDS)])
def test_new_bound_path_and_message(doc, path, message):
    with pytest.raises(ScenarioError) as ei:
        parse_scenario(doc)
    assert (ei.value.path, ei.value.reason) == (path, message)


# Documents with two faults: the one reported is the first in read order
# (table order, not document order; field errors before domain validation).
TWO_FAULTS = [
    (_doc("calibration_targets", {"tolerance": 1.5}), "$.calibration_targets.tolerance",
     "must be within (0, 1)"),
    (_asm("power_requests", {"sink": "n", "watts": 1.0, "rail_v": 12.0}),
     "$.assembly.power_requests[0].rail_v", "must be 48 or 24"),
    (_asm("modules", {"kind": "link", "ports": 5}), "$.assembly.modules[0].ports",
     "expected a list, got int"),
    (_doc("mechanism", {"dt_s": 0.0, "mu1": "big"}), "$.mechanism.mu1", "expected a number"),
    (_doc("mechanism", {"mu1": -1.0, "dt_s": 0.0}), "$.mechanism.dt_s", "must be positive"),
    ({"schema_version": 1, "assembly": 5, "mechanism": []}, "$.mechanism",
     "expected an object, got list"),
    ({"envelope": {"x": 1}, "schema_version": 2}, "$.schema_version",
     "unsupported version 2; this tool reads 1"),
]


@pytest.mark.parametrize("doc,path,message", TWO_FAULTS,
                         ids=[f"{i:03d}:{case[1]}" for i, case in enumerate(TWO_FAULTS)])
def test_two_fault_document_reports_the_first_read(doc, path, message):
    with pytest.raises(ScenarioError) as ei:
        parse_scenario(doc)
    assert (ei.value.path, ei.value.reason) == (path, message)


@pytest.mark.parametrize("write,content,field,row", [
    (scenario_module.write_json, {"b": [1.0, {"c": NAN}], "a": INF}, "$.a", None),
    (scenario_module.write_json, {"b": [1.0, {"c": NAN}], "a": 0.0}, "$.b[1].c", None),
    (scenario_module.write_jsonl, [{"t": 0.0}, {"t": -INF}], "$.t", 2),
    (scenario_module.write_csv, ("x,y,ok", [(1.0, 2, True), (0.5, NAN, False)]), "y", 2),
])
def test_writers_refuse_non_finite_values(tmp_path, write, content, field, row):
    with pytest.raises(NonFiniteError) as ei:
        write(tmp_path / "a", content)
    assert (ei.value.artifact, ei.value.field, ei.value.row) == ("a", field, row)
    assert not (tmp_path / "a").exists()



# ------------------------------------------------------------- CLI error bodies


def _shipped(command, edit):
    """The shipped scenario of a command after edit(section) changes its section."""
    doc = json.loads((SCENARIOS / f"{command}.json").read_text())
    edit(doc[command])
    return doc


def _ungrounded(assembly):
    for module in assembly["modules"]:
        module["grounded"] = False
        module.pop("world_pose", None)
    assembly.update(power_requests=[], frames=[])


def _overflowing(assembly):
    # every interface load stays finite, the anchor's reaction does not
    assembly["modules"][0]["mass_kg"] = 1.5
    assembly["modules"][1]["mass_kg"] = 0.5
    assembly["gravity_mps2"] = [1e308, 0.0, 0.0]


# A sweep of a few hundred bytes that plans 1,200 rays x 14,000 lattice points
# + 2 x 6,000, about 16.8 M probes: hours of CPU.
RUNAWAY_ENVELOPE = {"angular_resolution_deg": 0.1, "translation_tol_mm": 0.01,
                    "rotation_tol_deg": 0.01, "deflection_tol_deg": 0.01}

# One row per way a run fails: the command, its scenario (None: no such
# file), the exit code and the fields of the JSON error body pinned.
CLI_ERRORS = [
    pytest.param("mechanism", _doc("mechanism", {"muX": 1.0}), 2,
                 {"kind": "schema", "path": "$.mechanism.muX"},
                 id="schema_violation_exits_2_with_path"),
    pytest.param("mechanism", _doc("mechanism", {"dt_s": 0.0}), 2,
                 {"kind": "schema", "path": "$.mechanism.dt_s"},
                 id="zero_dt_exits_2_with_path"),
    pytest.param("loads", {"schema_version": 1}, 2, {"path": "$.load_case"},
                 id="missing_section_exits_2"),
    pytest.param("loads", None, 2, {"path": "$"}, id="unreadable_scenario_exits_2"),
    pytest.param("mechanism", _doc("mechanism", {"mu1": 0.9, "mu2": 0.9, "theta_deg": 20.0}), 3,
                 {"kind": "analysis", "error_type": "JamError"},
                 id="analysis_error_exits_3_with_payload"),
    pytest.param("couple", _event({"t": 0.0, "event": "start_lock"}), 3,  # idle cannot lock
                 {"error_type": "ProtocolError"}, id="protocol_error_in_script_exits_3"),
    pytest.param("mechanism", _doc("mechanism", {"resisting_force_n": -1.0}), 2,
                 {"path": "$.mechanism.resisting_force_n"},
                 id="negative_resisting_force_exits_2_with_path"),
    pytest.param("mechanism", _shipped("mechanism", lambda m: m.update(rod_capacity_n=-5.0)), 2,
                 {"path": "$.mechanism.rod_capacity_n", "message": "must be > 0"},
                 id="negative_rod_capacity_exits_2_with_path"),
    pytest.param("assembly",
                 _shipped("assembly", lambda a: a["frames"][0].update(payload_text="intlk 123")),
                 2, {"path": "$.assembly.frames[0]", "message": "can frame of 9 B exceeds 8 B"},
                 id="oversized_can_frame_exits_2_with_path"),
    # a lone surrogate has no UTF-8 encoding: the frame is refused as it is parsed
    pytest.param("assembly",
                 _shipped("assembly", lambda a: a["frames"][0].update(payload_text="\ud800")),
                 2, {"path": "$.assembly.frames[0]"},
                 id="unencodable_frame_payload_exits_2_with_path"),
    pytest.param("assembly",
                 _shipped("assembly", lambda a: a["power_requests"][0].update(watts=0.0)), 2,
                 {"path": "$.assembly.power_requests[0].watts"},
                 id="nonpositive_power_request_exits_2_with_path"),
    pytest.param("assembly", _shipped("assembly", lambda a: a.update(gravity_mps2=[INF, 0.0, 0.0])),
                 2, {"path": "$.assembly.gravity_mps2", "message": "must be finite"},
                 id="non_finite_gravity_exits_2_with_path"),
    pytest.param("mechanism", _shipped("mechanism", lambda m: m.update(theta_deg=5e-324)), 2,
                 {"path": "$.mechanism", "message": "theta_deg must have a nonzero sine"},
                 id="theta_with_a_zero_sine_exits_2_with_no_artifact"),
    pytest.param("envelope", _shipped("envelope", lambda e: e.update(translation_tol_mm=1e-9)), 2,
                 {"path": "$.envelope",
                  "message": "sweep plans at least 80364 probes (4 rays x 20061 lattice points "
                             "+ 2 x 60), over the budget of 20000 probes"},
                 id="translation_scan_over_cap_exits_2_with_path"),
    pytest.param("envelope", _shipped("envelope", lambda e: e.update(angular_resolution_deg=1e-9)),
                 2, {"path": "$.envelope"}, id="ray_count_over_budget_exits_2_with_path"),
    pytest.param("envelope", _shipped("envelope", lambda e: e.update(rotation_tol_deg=1e-9)), 2,
                 {"path": "$.envelope",
                  "message": "sweep plans at least 40562 probes (4 rays x 140 lattice points "
                             "+ 2 x 20001), over the budget of 20000 probes"},
                 id="rotation_scan_over_budget_exits_2_with_path"),
    pytest.param("envelope", _shipped("envelope", lambda e: e.update(deflection_tol_deg=0.005)),
                 2, {"path": "$.envelope",
                     "message": "sweep plans at least 48440 probes (4 rays x 12080 lattice points "
                                "+ 2 x 60), over the budget of 20000 probes"},
                 id="deflection_scan_over_budget_exits_2_with_path"),
    pytest.param("envelope", _shipped("envelope", lambda e: e.update(rotation_tol_deg=90.0)), 2,
                 {"path": "$.envelope",
                  "message": "tol 90.0 exceeds the rotation axis cap of 60.0"},
                 id="rotation_tol_past_the_ceiling_exits_2_with_path"),
    pytest.param("envelope", _shipped("envelope", lambda e: e.update(RUNAWAY_ENVELOPE)), 2,
                 {"path": "$.envelope",
                  "message": "sweep plans at least 16812000 probes (1200 rays x 14000 lattice "
                             "points + 2 x 6000), over the budget of 20000 probes"},
                 id="runaway_envelope_exits_2_before_a_probe"),
    pytest.param("assembly", _shipped("assembly", _ungrounded), 3,
                 {"error_type": "UnsupportedError"}, id="unsupported_load_exits_3"),
    pytest.param("assembly", _shipped("assembly", _overflowing), 3,
                 {"error_type": "ParameterError",
                  "message": "ground reaction at anchor 'base' is not finite"},
                 id="overflowing_ground_reaction_exits_3",
                 marks=pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")),
    pytest.param("calibrate", _doc("calibration_targets", {**TARGETS, "translation_mm": 90.0}), 3,
                 {"error_type": "CalibrationError", "payload": {"best_residual": None}},
                 id="calibration_target_past_the_face_exits_3"),
    # a target so small that a residual against it overflows to inf
    *(pytest.param("calibrate", _doc("calibration_targets", {**TARGETS, "translation_mm": t}), 3,
                   {"error_type": "CalibrationError", "payload": {"best_residual": None}},
                   id=f"calibration_target_of_{t}_mm_exits_3") for t in (5e-324, 1e-308)),
    # a load over a capacity of 1e-308 overflows to inf: the model refuses it
    # before a writer meets it
    pytest.param("loads", _tiny("loads", {"traction_capacity_n": 1e-308}), 3,
                 {"error_type": "ParameterError",
                  "message": "traction utilization overflows: load 1200.0 over scaled capacity "
                             "1e-308",
                  "payload": {}},
                 id="non_finite_loads_report_exits_3"),
    pytest.param("assembly", _tiny("assembly", dict.fromkeys(CAPACITIES, 1e-308)), 3,
                 {"error_type": "ParameterError",
                  "message": "lateral utilization overflows: load 100.0 over scaled capacity "
                             "1.5e-308",
                  "payload": {}},
                 id="non_finite_wrench_map_exits_3"),
]


@pytest.mark.parametrize("command,doc,exit_code,pinned", CLI_ERRORS)
def test_cli_error_body(capsys, tmp_path, monkeypatch, command, doc, exit_code, pinned):
    if command == "envelope":  # every envelope row is refused before its first probe
        monkeypatch.setattr(face, "_feasible", lambda *a: pytest.fail("a capture probe ran"))
    p = str(tmp_path / "nope.json") if doc is None else scenario_path(tmp_path, doc)
    out = tmp_path / "o"
    rc, body = run_cli(capsys, [command, "--scenario", p, "--out", str(out)])
    assert rc == body["error"]["exit_code"] == exit_code
    assert {key: body["error"][key] for key in pinned} == pinned
    assert not out.exists()  # no artifact, and no directory, left behind


# ------------------------------------------------------------- schema docs

DOCS = Path(__file__).resolve().parents[1] / "docs" / "scenario_schema.md"

# docs section -> the field tables it documents
DOC_TABLES = {
    "Top-level sections": ["_SCENARIO"],
    "mechanism": ["_MECHANISM", "_MECHANISM_PARAMS"],
    "profile": ["_PROFILE"],
    "envelope": ["_ENVELOPE"],
    "calibration_targets": ["_TARGETS"],
    "coupling": ["_COUPLING"],
    "events": ["_EVENT", "_MISALIGNMENT", "_FAULT"],
    "load_envelope": ["_LOAD_ENVELOPE"],
    "load_case": ["_LOAD_CASE", "_WRENCH"],
    "assembly": ["_ASSEMBLY", "_MODULE", "_PORT", "_POSE", "_DOCK", "_PLAN",
                 "_POWER_REQUEST", "_FRAME"],
}


def _doc_sections() -> dict:
    sections, name = {}, None
    for line in DOCS.read_text().splitlines():
        if line.startswith("## "):
            m = re.match(r"## `([^`]+)`", line)
            name = m.group(1) if m else line[3:]
            sections[name] = ""
        elif name is not None:
            sections[name] += " " + line.strip()
    return sections


def _rows(name):
    table = getattr(scenario_module, name)
    if isinstance(table, dict):  # one table per plan op
        return [row for rows in table.values() for row in rows]
    return list(table)


def _rendered(row) -> str:
    """How a row is written in the docs: the key, then its default if it has one."""
    default = row.default
    if isinstance(default, tuple):
        default = list(default)
    if isinstance(default, (bool, int, float, str, list)):
        return f"`{row.key}` ({json.dumps(default)}"
    return f"`{row.key}`"


def test_every_field_table_is_documented():
    tables = {name for name, value in vars(scenario_module).items()
              if name.startswith("_") and name.isupper() and isinstance(value, (tuple, dict))
              and all(isinstance(row, scenario_module._Field) for row in _rows(name))}
    assert tables == {name for names in DOC_TABLES.values() for name in names}


@pytest.mark.parametrize("section", sorted(DOC_TABLES))
def test_docs_list_every_key_with_its_default(section):
    text = _doc_sections()[section]
    missing = [_rendered(row) for name in DOC_TABLES[section] for row in _rows(name)
               if _rendered(row) not in text]
    assert not missing, f"docs/scenario_schema.md section {section!r} lacks {missing}"
