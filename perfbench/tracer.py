"""Span tracing of docksim's layers from outside, and the per-layer metrics.

`Tracer.install` wraps every public function and public method of the layer
modules at module attribute level, in the calling process only, and rebinds
every name another layer module imported from them (for example
`coupling.mate_feasible`, `assembly.check_load`, `scenario.send_frame`).
No source file changes. Each call appends one span
[name, start, end, parent index, outcome] to an in-memory list; spans are
appended when the call starts, so a parent always precedes its children.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("face", "coupling", "assembly", "bus", "loads", "scenario", "cli")

NAME, START, END, PARENT, OUTCOME = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if type(out) is bool:
                    rec[OUTCOME] = out
                return out
            except BaseException as err:
                rec[OUTCOME] = "raised " + type(err).__name__
                raise
            finally:
                stack.pop()
                rec[END] = clock()

        return traced

    def install(self, package: str = "docksim") -> None:
        """Wrap the layers' public functions and methods."""
        mods = {m: importlib.import_module(f"{package}.{m}") for m in LAYERS}
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    new = self.wrap(f"{short}.{attr}", val)
                    wrapped[id(val)] = new
                    setattr(mod, attr, new)
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    for meth, fn in list(vars(val).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(val, meth, self.wrap(f"{short}.{attr}.{meth}", fn))
        pkg = importlib.import_module(package)
        for mod in (*mods.values(), pkg):
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped and inspect.isfunction(val):
                    setattr(mod, attr, wrapped[id(val)])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def aggregate(spans) -> dict:
    """calls, busy_s (time with at least one span of the name open), self_s
    (span time minus direct child span time) and errors, per span name."""
    stats: dict[str, dict] = {}
    child_time = [0.0] * len(spans)
    open_until: dict[str, float] = {}
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += dur
        s = stats.setdefault(rec[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
        s["calls"] += 1
        if isinstance(rec[OUTCOME], str):
            s["errors"] += 1
        # spans are in start order and nest, so one that starts after the
        # last outermost span of its name ended is itself outermost
        if rec[START] >= open_until.get(rec[NAME], float("-inf")):
            s["busy_s"] += dur
            open_until[rec[NAME]] = rec[END]
    for i, rec in enumerate(spans):
        stats[rec[NAME]]["self_s"] += (rec[END] - rec[START]) - child_time[i]
    return stats


def capture_counts(spans) -> dict:
    """Memo and descent counts of mate_feasible, from its settle children.

    A miss is a mate_feasible call under which at least one settle_height
    call ran; a gate reject is a miss with exactly one settle and a False
    verdict (a zero misalignment also converges after one settle, True).
    """
    mf, eal = "face.mate_feasible", "face.envelope_axis_limit"
    nearest_mf = [-1] * len(spans)
    under_eal = [False] * len(spans)
    settles: dict[int, int] = {}
    probes = 0
    for i, rec in enumerate(spans):
        p = rec[PARENT]
        nearest_mf[i] = i if rec[NAME] == mf else (nearest_mf[p] if p >= 0 else -1)
        under_eal[i] = rec[NAME] == eal or (p >= 0 and under_eal[p])
        if rec[NAME] == mf:
            settles.setdefault(i, 0)
            if p >= 0 and under_eal[p]:
                probes += 1
        elif rec[NAME] == "face.settle_height" and nearest_mf[i] >= 0:
            settles[nearest_mf[i]] += 1
    misses = [i for i, n in settles.items() if n > 0]
    calls = len(settles)
    miss_settles = sum(settles[i] for i in misses)
    captured = sum(1 for i in misses if spans[i][OUTCOME] is True)
    gate = sum(1 for i in misses if settles[i] == 1 and spans[i][OUTCOME] is False)
    return {
        "face.mate_feasible.misses": len(misses),
        "face.mate_feasible.hit_ratio": (calls - len(misses)) / calls if calls else 0.0,
        "face.mate_feasible.capture_ratio": captured / len(misses) if misses else 0.0,
        "face.mate_feasible.gate_rejects": gate,
        "face.settles_per_miss": miss_settles / len(misses) if misses else 0.0,
        "face.envelope_axis_limit.probes": probes,
    }


def flat_metrics(spans) -> dict:
    """{<span>.<calls|busy_s|self_s|errors>: value} plus the capture counts."""
    out = {f"{name}.{field}": value
           for name, fields in aggregate(spans).items() for field, value in fields.items()}
    out.update(capture_counts(spans))
    return out
