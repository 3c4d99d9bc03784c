"""Reference capture search: a plain descent and a cold lattice scan.

The production descent (`face._descend`) skips a candidate whose
moving-face bound already fails the acceptance test, and shares bounded
memos across descents. The reference here does neither: it takes the exact
settle height of every candidate, computed with no production memo, and
remembers values only in its own table keyed by the bits of the state, so
a -0.0 never borrows the value of a 0.0. Everything the two must agree on
(verdicts, accepted states, envelope limits) is compared in the tests.
"""
from __future__ import annotations

import functools
import math
import struct

import docksim.face as face

_EXACT: dict[tuple, float] = {}


def exact_settle(profile, state) -> float:
    """settle_height with its moving-face term computed afresh, not memoised."""
    memo, face._floor = face._floor, face._moving_term
    try:
        return face.settle_height(profile, state)
    finally:
        face._floor = memo


def reference_settle(profile, state) -> float:
    key = (profile, struct.pack("<5d", *state))
    if key not in _EXACT:
        _EXACT[key] = exact_settle(profile, state)
    return _EXACT[key]


def reference_descend(profile, state, trace=None) -> bool:
    """Best-improvement pattern descent with an exact settle per candidate.

    Appends (state, s_lat, s_rot, s_tilt) to `trace` at every iteration,
    so a caller sees each accepted state and each step shrink.
    """
    d = reference_settle(profile, state)
    if not math.isfinite(d) or d > face.ENGAGE_FACTOR * profile.petal_height_mm:
        return False
    s_lat, s_rot, s_tilt = 0.5, 1.5, 0.5
    evals = 1
    while evals < face.DESCENT_BUDGET:
        if face._converged(state):
            return True
        if trace is not None:
            trace.append((state, s_lat, s_rot, s_tilt))
        best, best_d = None, d
        for cand in face._candidate_moves(state, s_lat, s_rot, s_tilt):
            dc = reference_settle(profile, cand)
            evals += 1
            if math.isfinite(dc) and dc < best_d - 1e-10:
                best, best_d = cand, dc
        if best is None:
            if s_lat <= 0.004 and s_rot <= 0.004 and s_tilt <= 0.004:
                return face._converged(state)
            s_lat = max(s_lat * 0.5, 0.002)
            s_rot = max(s_rot * 0.5, 0.002)
            s_tilt = max(s_tilt * 0.5, 0.002)
        else:
            state, d = best, best_d
    return face._converged(state)


@functools.cache
def axis_limit_linear_scan(profile, axis: str, tol: float, direction_deg: float = 0.0) -> float:
    """Walk the k*tol lattice until the first point the reference rejects."""
    kmax = max(1, int(math.floor(face._axis_cap(profile, axis) / tol)))
    for k in range(1, kmax + 1):
        c = face.canonicalize(face._axis_state(axis, direction_deg, k * tol))
        state = (c.dx_mm, c.dy_mm, c.rot_deg, c.tilt_x_deg, c.tilt_y_deg)
        if not reference_descend(profile, state):
            return (k - 1) * tol
    return kmax * tol
