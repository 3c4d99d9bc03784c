"""docksim benchmark: one command runs a workload, checks it and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Every unit of work runs in a fresh worker
process (perfbench/worker.py) because CLI users pay the cold capture memo on
every invocation. A run makes a fixed number of units, as many as fit in
--seconds at their usual length (at least one), so the same seed and
--seconds always attempt the same operations; nine more workers only set
up, for the set-up samples. Times are normalised to a reference host speed
(hostclock.py). With --trace 1 one more worker re-runs the first unit with
every layer wrapped, and the per-layer metrics come from its spans.

Prints one line per metric and check, then, as the last line, a JSON object
with the keys correct, attempted, failed and metrics. Exits 2 when the
checkout holds no docksim sources, 1 when a worker fails or runs out of time.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import hostclock

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = HERE / "_work"
SETUP_SAMPLES = 9
DEADLINE_S = 175.0
# Usual length of one unit in normalised seconds; it sets the unit count.
UNIT_S = {"envelope_cold": 30.0, "dock_stream": 25.0, "assembly_mix": 4.0}


class BenchError(Exception):
    pass


def percentile(values, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def spawn(workload, seed, rep, out, deadline, setup_only=False, trace=False):
    """Run one worker; returns ((raw, normalised) set-up seconds, result dict or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload,
           "--seed", str(seed), "--rep", str(rep), "--out", str(out)]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--trace"] if trace else []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker (rep {rep}) ran past the time limit")
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise BenchError(f"{workload} worker (rep {rep}) exited {proc.returncode}")
    ready, sampler_s, factor = map(float, lines[0].split()[1:])
    raw = ready - start
    return (raw, (raw - sampler_s) * factor), (None if setup_only else json.loads(lines[-1]))


def unit_count(workload, seconds) -> int:
    return max(1, round(seconds / UNIT_S[workload]))


def measure(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    shutil.rmtree(WORK, ignore_errors=True)
    units = [spawn(workload, seed, rep, WORK / f"rep{rep}", deadline)[1]
             for rep in range(unit_count(workload, seconds))]
    setups = [spawn(workload, seed, 0, WORK / "setup", deadline, setup_only=True)[0]
              for _ in range(SETUP_SAMPLES)]
    traced = spawn(workload, seed, 0, WORK / "traced", deadline, trace=True)[1] if trace else None
    return units, setups, traced


def summarise(spec, workload, seed, units, setups, traced):
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    stages = {k: statistics.median(u["stages"][k] for u in units) for k in units[0]["stages"]}
    errors = [e for u in units + ([traced] if traced else []) for e in u["check_errors"]]
    mismatched = checks.digest_errors(workload, seed, units[0]["digests"])
    unchecked = units[0]["digests"] and not checks.has_reference(workload, seed)
    failed += len(mismatched)  # a wrong result list counts as one failed operation
    errors += mismatched
    if traced is not None:
        errors += checks.digest_errors(workload, seed, traced["digests"])
    latencies = [x for u in units for x in u["latencies_s"]]
    raw_latencies = [x for u in units for x in u["raw_latencies_s"]]
    values = {
        "setup_s": statistics.median(s for _, s in setups),
        "norm_latency_p50_s": percentile(latencies, 50),
        "peak_rss_mb": max(u["peak_rss_mb"] for u in units),
        "ops_ok_ratio": 1.0 - failed / attempted,
    }
    stages["norm_latency_p75_s"] = percentile(latencies, 75)
    stages["raw_latency_p50_s"] = percentile(raw_latencies, 50)
    if workload == "dock_stream":
        stages["dock_p50_ms"] = values["norm_latency_p50_s"] * 1e3
        stages["dock_p75_ms"] = stages["norm_latency_p75_s"] * 1e3
    raw_stages = {k: statistics.median(u["stages_raw"][k] for u in units)
                  for k in units[0]["stages_raw"]}
    kernel_ms = statistics.median(u["kernel_s"] for u in units) * 1e3
    failures: dict[str, int] = {"reference digest: mismatch": len(mismatched)} if mismatched else {}
    for u in units:
        for k, n in u["failures"].items():
            failures[k] = failures.get(k, 0) + n

    units_of = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(f"workload {workload}  seed {seed}  units {len(units)}  set-up samples {len(setups)}")
    print(f"  host: {units[0]['kernel']} kernel mean {kernel_ms:.4g} ms (nominal "
          f"{hostclock.NOMINAL_S[units[0]['kernel']] * 1e3:.4g} ms); "
          f"set-up raw median {statistics.median(r for r, _ in setups):.4g} s")
    for name, value in stages.items():
        raw = f"  (raw {raw_stages[name]:.6g})" if name in raw_stages else ""
        print(f"  {name:<22} {value:.6g} {units_of[name]}{raw}")
    if "assembly_query_s" in stages:
        total = sum(v for k, v in stages.items() if k.startswith("assembly_"))
        print("  share of the tree: " + ", ".join(
            f"{k[len('assembly_'):-2]} {v / total:.1%}"
            for k, v in stages.items() if k.startswith("assembly_")))
    print(f"  {'ops_failed_ratio':<22} {failed / attempted:.6g} ratio  ({failed} of {attempted})")
    for key, n in sorted(failures.items()):
        print(f"    failed: {key} x{n}")
    for name, d in sorted(units[0]["digests"].items()):
        print(f"  digest {name} {d}")
    if unchecked:
        print(f"  no reference digest for seed {seed}: only the invariants are checked")
    if "leaked_w" in units[0]:
        print(f"  power left allocated by failed routes: {units[0]['leaked_w']} W")
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    print(f"  checks: {'pass' if not errors else f'{len(errors)} failed'}")

    if traced is None:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        layers = dict(traced["layers"])
        layers.update(stages)
        layers["trace.overhead_ratio"] = traced["wall_s"] / units[0]["wall_s"]
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for i, cmd in enumerate(traced.get("per_command", [])):
            print(f"  traced cli.main #{i + 1}: {cmd['misses']} misses, "
                  f"{cmd['settle_calls']} settle_height calls")
    for name, m in metrics.items():
        print(f"  metric {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "docksim" / "__init__.py").is_file():
        print("perfbench: no docksim sources under src/; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        units, setups, traced = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    result = summarise(spec, args.workload, args.seed, units, setups, traced)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
