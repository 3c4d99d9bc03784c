"""One benchmark worker: a fresh process that runs one unit of a workload.

    python3 perfbench/worker.py <workload> --seed N --rep R --out DIR [--setup-only] [--trace]

Run from the root of a checkout with src/ on PYTHONPATH. The worker imports
docksim, builds its inputs, prints "ready" (the parent times set-up up to
that line), runs the unit and prints one JSON result as its last line.
The "ready" line also carries what the worker's set-up clock saw, which it
starts before the heavy imports: the time its sampler took and the
host-speed factor over the set-up.
Times are taken with a HostClock (hostclock.py): every timed span is
reported in raw seconds and in seconds at the reference host speed.
An operation that raises or breaks a check is counted as failed; it never
ends the run.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from hostclock import HostClock

# Set-up is mostly interpreter work (imports, input generation): sample it
# with the python kernel, densely since it lasts a fraction of a second.
SETUP_CLOCK = HostClock("python", interval_s=0.01)
if __name__ == "__main__":
    SETUP_CLOCK.start()
SETUP_START = SETUP_CLOCK.mark()

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import Tracer, capture_counts, flat_metrics  # noqa: E402

from docksim import assembly, bus, cli, coupling, face, loads  # noqa: E402

# The host-speed kernel each workload is normalised by (hostclock.KERNELS).
KERNEL = {"envelope_cold": "numpy", "dock_stream": "numpy", "assembly_mix": "python"}
WORKLOADS = tuple(KERNEL)
FAILED = object()


class Stages:
    """Named timed spans; one request may span several."""

    def __init__(self, clock: HostClock):
        self.clock = clock
        self.marks: dict[str, tuple] = {}

    @contextlib.contextmanager
    def timed(self, name: str):
        start = self.clock.mark()
        try:
            yield
        finally:
            self.marks[name] = (start, self.clock.mark())

    def result(self, **extra) -> dict:
        """The stages, raw and normalised, as one request whose latency is
        their sum. Call it when the unit ends, so that the host-speed samples
        taken after a stage count for it too."""
        raw, norm = {}, {}
        for name, (start, end) in self.marks.items():
            raw[name], norm[name] = self.clock.span(start, end)
        return {"stages": norm, "stages_raw": raw, "latencies_s": [sum(norm.values())],
                "raw_latencies_s": [sum(raw.values())], **extra}


class Ops:
    """Counts operations and attributes each failure to '<op>: <reason>'."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.check_errors: list[str] = []

    def fail(self, op: str, reason: str, count: int = 1) -> None:
        key = f"{op}: {reason}"
        self.failures[key] = self.failures.get(key, 0) + count

    def call(self, op: str, fn, *args, steps: int = 1, **kwargs):
        """Run one call worth `steps` operations; returns FAILED if it raised."""
        self.attempted += steps
        try:
            return fn(*args, **kwargs)
        except Exception as err:  # a failed operation must not end the run
            self.fail(op, type(err).__name__, steps)
            return FAILED

    def check(self, op: str, errors: list[str], count: int = 1) -> None:
        """Charge broken checks to `count` operations that were already counted."""
        if errors:
            self.fail(op, "check failed", count)
            self.check_errors.extend(errors)

    def verify(self, op: str, fn, *args, count: int = 1):
        """Run the check fn(*args) -> errors; a check that raises is a broken check."""
        try:
            errors = fn(*args)
        except Exception as err:  # e.g. a missing or malformed artifact
            errors = [f"{op}: check raised {type(err).__name__}: {err}"]
        self.check(op, errors, count)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


# ---------------------------------------------------------------- envelope_cold

def prepare_envelope_cold(seed, rep):
    for name in ("envelope.json", "calibrate.json"):
        if not (Path("scenarios") / name).is_file():
            raise FileNotFoundError(f"scenarios/{name} is missing")


def run_envelope_cold(_prepared, seed, out: Path, ops: Ops, clock: HostClock) -> dict:
    stages = Stages(clock)
    verify = {"envelope": checks.envelope_errors, "calibrate": checks.calibrate_errors}
    for command, verify_outputs in verify.items():
        argv = [command, "--scenario", f"scenarios/{command}.json",
                "--out", str(out / command), "--seed", str(seed)]
        printed = io.StringIO()
        with stages.timed(f"{command}_s"), contextlib.redirect_stdout(printed):
            rc = ops.call(f"cli {command}", cli.main, argv)
        if rc == 0:
            ops.verify(f"cli {command}", verify_outputs, out / command)
        elif rc is not FAILED:
            ops.fail(f"cli {command}", f"exit {rc}")
            ops.check_errors.append(f"cli {command} exit {rc}: {printed.getvalue()[:300]}")
    return stages.result(digests={})


# ---------------------------------------------------------------- dock_stream

def prepare_dock_stream(seed, rep):
    return [face.Misalignment(*m) for m in inputs.dock_stream(seed, rep)]


def run_dock_stream(stream, seed, out, ops: Ops, clock: HostClock) -> dict:
    cfg, prof = coupling.CouplingConfig(), face.REFERENCE_PROFILE
    Event, State = coupling.Event, coupling.InterfaceState

    def dock(mis):
        """approach, tick, start_lock and ticks to locked, or rejection."""
        state = coupling.step(State(), Event("approach", misalignment=mis), 0.0, cfg, prof)
        accepted = state.phase == "capturing"
        if accepted:
            state = coupling.step(state, Event("tick", dt_s=1.0), 1.0, cfg, prof)
            state = coupling.step(state, Event("start_lock"), 0.0, cfg, prof)
            while state.phase == "locking":
                state = coupling.step(state, Event("tick", dt_s=1.0), 1.0, cfg, prof)
        return accepted, state.phase

    spans, outcomes = [], []
    for mis in stream:
        start = clock.mark()
        outcomes.append(ops.call("dock", dock, mis))
        spans.append((start, clock.mark()))
    raw, norm = zip(*(clock.span(a, b) for a, b in spans))

    verdicts = [None if got is FAILED else got[0] for got in outcomes]
    for mis, got in zip(stream, outcomes):
        if got is not FAILED and got[1] != ("locked" if got[0] else "idle"):
            ops.check("dock", [f"dock {mis}: accepted={got[0]} but the FSM ended {got[1]}"])
    return {
        "stages": {"docks_per_s": len(stream) / sum(norm)},
        "stages_raw": {"docks_per_s": len(stream) / sum(raw)},
        "latencies_s": list(norm),
        "raw_latencies_s": list(raw),
        "digests": {"dock_verdicts": checks.digest(verdicts)},
        "accepted": sum(1 for v in verdicts if v),
    }


# ---------------------------------------------------------------- assembly_mix

def prepare_assembly_mix(seed, rep):
    plan = inputs.assembly_plan(seed, rep)
    ports = tuple(
        assembly.Port(name, assembly.Pose.from_xyz_rpy(*xyz, *map(math.radians, rpy)))
        for name, (xyz, rpy) in inputs.PORT_XYZ_RPY_DEG.items()
    )
    modules = {
        m: assembly.Module(m, "truss_node", ports, mass_kg=2.0, grounded=True,
                           world_pose=assembly.Pose.identity())
        if m == "m0" else assembly.Module(m, "link", ports, mass_kg=1.0)
        for m in plan["modules"]
    }
    wrenches = {m: loads.Wrench(*w) for m, w in plan["wrenches"].items()}
    frames = [bus.Frame(ch, src, dst, bytes(n)) for ch, src, dst, n in plan["frames"]]
    return plan, modules, wrenches, frames


def run_assembly_mix(prepared, seed, out, ops: Ops, clock: HostClock) -> dict:
    plan, modules, wrenches, frames = prepared
    graph = assembly.ModuleGraph()
    stages = Stages(clock)
    docks, unlocks = [], []

    def dock(a, pa, b, pb):
        docks.append(((b, pb), ops.call("dock", graph.dock, a, pa, b, pb)))

    def unlock(m, p):
        unlocks.append(((m, p), ops.call("unlock", graph.unlock, m, p)))

    with stages.timed("assembly_build_s"):
        ops.call("add_module", graph.add_module, modules["m0"])
        for step in plan["build"]:
            b = step[-1] if step[0] == "pair" else step[3]
            ops.call("add_module", graph.add_module, modules[b])
            if step[0] == "dock":
                dock(*step[1:])
            else:  # docked through two interfaces, then the first is unlocked
                a = step[1]
                dock(a, "e0", b, "w1")
                dock(a, "e1", b, "w0")
                unlock(a, "e0")

    with stages.timed("assembly_query_s"):
        poses = ops.call("world_poses", graph.world_poses)
        result = ops.call("propagate_wrench", graph.propagate_wrench,
                          external=wrenches, gravity=assembly.GRAVITY_M_S2)
        held = []
        pair_routes = [(a, b, 10.0, 48.0) for a, b in plan["pairs"]]
        for src, dst, watts, rail in pair_routes + plan["routes"]:
            route = ops.call("route_power", graph.route_power, src, dst, watts, rail_v=rail)
            if route is None or route is FAILED:
                continue
            if ops.call("release_route", graph.release_route, route) is not FAILED:
                held.append((src, dst, [gid for ek, gid in route.grants if gid in
                                        graph.edge_info(ek).channels.buses[rail].grants()]))
        deliveries = [(f, ops.call("send_frame", bus.send_frame, f, graph)) for f in frames]
    # a route_power that raises part-way keeps the grants it already made
    leaked_w = sum(w for _, _, w in graph.power_allocations())

    with stages.timed("assembly_reconfig_s"):
        report = ops.call("reconfigure", graph.reconfigure, plan["relocate"],
                          steps=len(plan["relocate"]))
        for m, p in plan["unlocks"]:
            unlock(m, p)

    # checks, outside the timed stages and the request latency
    for ref, rep in docks:
        if rep is not FAILED and not (rep.accepted and rep.state.phase == "locked"):
            ops.check("dock", [f"dock at {ref}: accepted={rep.accepted} state={rep.state}"])
    for ref, state in unlocks:
        if state is not FAILED and state.phase != "aligned":
            ops.check("unlock", [f"unlock {ref} ended {state.phase}"])
    if leaked_w and not any(k.startswith("route_power:") for k in ops.failures):
        ops.check("release_route", [f"{leaked_w} W stay allocated after every route was released"])
    for src, dst, kept in held:
        if kept:
            ops.check("release_route", [f"route {src}->{dst}: grants {kept} kept after release"])
    for f, d in deliveries:
        if d is not FAILED and not (d.path[0] == f.source and d.path[-1] == f.dest
                                    and d.hops == len(d.path) - 1):
            ops.check("send_frame", [f"frame {f.source}->{f.dest} took path {d.path}"])
    if report is not FAILED:
        skipped = [f"step {s.index} {s.op}: {s.detail}" for s in report.steps if not s.applied]
        ops.check("reconfigure", skipped, len(skipped))
        if len(report.steps) < len(plan["relocate"]):
            ops.fail("reconfigure", "step not reached", len(plan["relocate"]) - len(report.steps))
    digests = {}
    if poses is not FAILED:
        ops.check("world_poses", [] if len(poses) == len(modules) else
                  [f"world_poses placed {len(poses)} of {len(modules)} modules"])
        if result is not FAILED:
            ops.verify("propagate_wrench", _equilibrium, modules, wrenches, poses, result)
            digests["wrench_map"] = checks.digest(checks.wrench_map(result.interface_loads))
    return stages.result(digests=digests, leaked_w=leaked_w)


def _equilibrium(modules, wrenches, poses, result) -> list[str]:
    g = assembly.GRAVITY_M_S2
    module_loads = {}
    for m, mod in modules.items():
        w = wrenches.get(m, loads.Wrench())
        force = tuple(f + mod.mass_kg * gv for f, gv in zip((w.fx_n, w.fy_n, w.fz_n), g))
        module_loads[m] = (force, (w.mx_nm, w.my_nm, w.mz_nm))
    positions = {m: tuple(map(float, p.translation)) for m, p in poses.items()}
    edge_points = {
        (pref, cref): tuple(map(float, (poses[pref[0]] @ modules[pref[0]].port(pref[1]).pose)
                                .translation))
        for pref, cref in result.interface_loads
    }
    return checks.equilibrium_errors(module_loads, positions, edge_points,
                                     result.interface_loads, result.ground_reactions)


# ---------------------------------------------------------------- main

def per_command(spans) -> list[dict]:
    """Capture counts under each top-level cli.main call, in call order."""
    starts = [i for i, s in enumerate(spans) if s[0] == "cli.main" and s[3] == -1]
    out = []
    for i, j in zip(starts, starts[1:] + [len(spans)]):
        sub = [[s[0], s[1], s[2], s[3] - i if s[3] >= 0 else -1, s[4]] for s in spans[i:j]]
        out.append({
            "misses": capture_counts(sub)["face.mate_feasible.misses"],
            "settle_calls": sum(1 for s in sub if s[0] == "face.settle_height"),
        })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    prepared = globals()[f"prepare_{args.workload}"](args.seed, args.rep)
    SETUP_CLOCK.stop()
    end = SETUP_CLOCK.mark()
    factor = SETUP_CLOCK.factor(SETUP_START[0], end[0])
    print(f"ready {time.monotonic()!r} {SETUP_CLOCK.stolen!r} {factor!r}", flush=True)
    if args.setup_only:
        return 0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # the traced worker runs without the sampler: its spans are raw seconds
    clock = HostClock(KERNEL[args.workload])
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    else:
        clock.start()
    ops = Ops()
    start = clock.mark()
    try:
        result = globals()[f"run_{args.workload}"](prepared, args.seed, out, ops, clock)
    finally:
        clock.stop()
    wall, _ = clock.span(start, clock.mark())
    result.update({
        "wall_s": wall,
        "kernel": clock.kernel_name,
        "kernel_s": statistics.fmean(d for _, d in clock.samples) if clock.samples else 0.0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "check_errors": ops.check_errors[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        result["layers"] = flat_metrics(tracer.spans)
        result["per_command"] = per_command(tracer.spans)
        tracer.dump(out / "spans.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
