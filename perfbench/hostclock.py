"""Host-speed clock: times work in seconds at a fixed reference host speed.

The benchmark runs on a shared host whose speed drifts by a third or more
for seconds to minutes at a time. A fixed
reference kernel, owned by the benchmark and never changed with the
program, runs every INTERVAL_S of wall time from a SIGALRM handler, so it
samples the host's speed interleaved with the workload on the same CPU.
Each sample times the kernel's second run in a row, so the caches the
workload evicted are warm again and the workload's own memory footprint
does not enter the sample.
A span of work measured with this clock reports

    normalised seconds = net seconds * NOMINAL_S[kernel] / mean kernel time

over the kernel samples taken within WINDOW_S of the span, where net
seconds exclude the time the handler itself took. The raw seconds are
kept next to it.

Two kernels, each a frozen copy of the program's hot loop when the
benchmark was written: "numpy" is one face.settle_height evaluation and
normalises the capture workloads, "python" is the assembly graph's
neighbour scan and normalises assembly_mix. The program may change; the
kernels do not, so they measure the host and not the program.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL_S = 0.05
WINDOW_S = 1.0

# Round figures near the kernels' median times on a 2-CPU Xeon VM (Python
# 3.11.7, numpy 2.4.6). They only fix the unit: a normalised second is a
# second of a host on which the kernel takes exactly this long. Changing
# them rescales every normalised figure, so they stay fixed.
NOMINAL_S = {"numpy": 0.0006, "python": 0.0006}


def _face_height(np, x, y):
    """Height field of the reference face (6.5 mm petals, 27 mm grooves,
    80 mm rim): petal wave times radial window, as face.height_field."""
    def smooth(v):
        v = np.clip(v, 0.0, 1.0)
        return v * v * (3.0 - 2.0 * v)
    r = np.hypot(x, y)
    pm = np.mod(np.degrees(np.arctan2(y, x)), 120.0)
    up = pm <= 60.0
    xx = np.where(up, pm, 120.0 - pm)
    hump = smooth(np.minimum(xx, 60.0 - xx) / 30.0)
    window = smooth((r - 16.0) / 11.0) * (1.0 - smooth(r - 39.0) / 6.5)
    return 6.5 * np.where(up, hump, -hump) * window


def _numpy_kernel(_state={}):
    """One two-sided settle evaluation of a fixed pose, the arithmetic of
    face.settle_height when the benchmark was written, on its 1,008-point
    contact cloud."""
    import numpy as np
    if not _state:
        rs = np.concatenate([[4.0, 9.0], np.linspace(16.0, 40.0, 12)])
        rr, pp = np.meshgrid(rs, np.radians(np.linspace(0.0, 360.0, 72, endpoint=False)))
        x, y = (rr * np.cos(pp)).ravel(), (rr * np.sin(pp)).ravel()
        _state["cloud"] = np.stack([x, y, _face_height(np, x, y)], axis=1)
        c, s = math.cos(0.2), math.sin(0.2)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        _state["m"] = rot @ np.diag([1.0, -1.0, -1.0])
    cloud, m = _state["cloud"], _state["m"]
    w = cloud @ m.T
    wx, wy = w[:, 0] + 1.0, w[:, 1] + 0.5
    inside = np.hypot(wx, wy) <= 40.0
    d_move = np.max(_face_height(np, wx[inside], wy[inside]) - w[inside, 2])
    q0 = (cloud - np.array([1.0, 0.5, 0.0])) @ m
    m3, cos_t = m[2, :2], abs(m[2, 2])
    dz = (_face_height(np, q0[:, 0], q0[:, 1]) - q0[:, 2]) / cos_t
    for _ in range(3):
        lat = q0[:, :2] - dz[:, None] * m3
        dz = (_face_height(np, lat[:, 0], lat[:, 1]) - q0[:, 2]) / cos_t
    return float(max(d_move, np.max(dz)))


def _python_kernel(_state={}):
    """Locked-neighbour scans of a 320-port peer table, the loop of
    assembly.ModuleGraph.neighbors when the benchmark was written: dict
    items, tuple unpacking, string compares, frozenset-keyed lookups."""
    if not _state:
        peers, edges = {}, {}
        for i in range(1, 160):
            a, b = (f"m{i}", "w0"), (f"m{(i - 1) // 3}", ("e0", "e1", "w1")[i % 3])
            peers[a], peers[b] = b, a
            edges[frozenset((a, b))] = i % 7 != 0
        _state.update(peers=peers, edges=edges)
    peers, edges = _state["peers"], _state["edges"]
    found = 0
    for k in range(0, 160, 6):
        module_id = f"m{k}"
        out = []
        for (mid, pname), (pid, _) in peers.items():
            if mid != module_id:
                continue
            ref = (mid, pname)
            if edges[frozenset((ref, peers[ref]))]:
                out.append(pid)
        found += len(set(out))
    return found


KERNELS = {"numpy": _numpy_kernel, "python": _python_kernel}


class HostClock:
    """Samples host speed from SIGALRM while started; see the module docstring."""

    def __init__(self, kernel: str, interval_s: float = INTERVAL_S):
        self.kernel_name = kernel
        self.kernel = KERNELS[kernel]
        self.interval_s = interval_s
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.stolen = 0.0   # wall time spent inside the handler
        self._busy = False

    def _tick(self, _signum=None, _frame=None):
        if self._busy:
            return
        self._busy = True
        t = time.perf_counter()
        self.kernel()  # untimed: refills the caches the workload evicted
        k = time.perf_counter()
        self.kernel()
        d = time.perf_counter() - k
        self.samples.append((k, d))
        self.stolen += time.perf_counter() - t
        self._busy = False

    def start(self) -> "HostClock":
        self.kernel()  # warm: imports and first-call costs stay out of the samples
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float]:
        """A point in time: (wall, handler time so far)."""
        return time.perf_counter(), self.stolen

    def span(self, start: tuple[float, float], end: tuple[float, float]) -> tuple[float, float]:
        """(net seconds, normalised seconds) between two marks."""
        net = (end[0] - start[0]) - (end[1] - start[1])
        return net, net * self.factor(start[0], end[0])

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL / mean kernel time over the samples near [t0, t1].

        The mean, not the median: the host slows down in bursts shorter
        than a sample, and only the mean counts the share of slow samples."""
        near = [d for t, d in self.samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if len(near) < 5:  # too few near the span: use the closest ones
            mid = 0.5 * (t0 + t1)
            near = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:5]]
        if not near:
            return math.nan
        return NOMINAL_S[self.kernel_name] / statistics.fmean(near)
