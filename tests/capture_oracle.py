"""Reference capture kernel and search: a frozen settle height, a plain
descent and a cold lattice scan.

The settle kernel below is a frozen copy of `face.height_field`,
`face.settle_height` and their helpers as they were before the kernel was
rewritten for speed: one numpy expression per formula term, no pose or
cloud memo, and a full four-evaluation fixed-face solve. The production
kernel must return the same bits for every finite state. Both terms take
the value at the first argmax, as the kernel does: `np.max` would take the
sign of a tied zero from the lane order of its SIMD reduction.

The production fixed-face solve (`face._fixed_term`) stops at a bitwise
fixed point, and runs each later evaluation only on the samples that a
slope bound, applied after every evaluation, leaves able to bind: on a cold
reference envelope, 2,063,812 of the 5,253,696 sample evaluations the full
solve makes. The tests compare its value bits and first binding index with
`fixed_term` here.

The production descent (`face._descend`) settles the likeliest winner of
each iteration first, skips every candidate whose lower bounds show it
cannot be the one the slot-order rule accepts, reruns the slot-order rule
on a near tie, and shares bounded memos across descents. The reference
here does none of that: it takes the exact settle height of every
candidate, in slot order, from the frozen kernel, and remembers its terms
only in its own tables keyed by the bits of the state, so a -0.0 never
borrows the value of a 0.0. Everything the two must agree on (verdicts,
accepted states, envelope limits) is compared in the tests.

`synthetic_limits` stands in for the whole capture search with a limit
table linear in the profile fields, so a calibration search runs in
milliseconds with known residuals.
"""
from __future__ import annotations

import functools
import math
import struct

import numpy as np

import docksim.face as face
from docksim.face import HUB_RADIUS_MM, FaceProfile


# --- frozen settle kernel ----------------------------------------------------


def _smoothstep(x):
    x = np.minimum(np.maximum(x, 0.0), 1.0)
    return x * x * (3.0 - 2.0 * x)


@functools.cache
def _field_constants(profile: FaceProfile) -> tuple[float, ...]:
    crun = max(profile.chamfer_depth_mm, 1e-9)
    return (
        profile.groove_positions_deg[0] - 90.0,
        profile.ramp_width_deg,
        profile.groove_radius_mm - HUB_RADIUS_MM,
        profile.rim_radius_mm - crun,
        crun,
        min(1.0, profile.chamfer_depth_mm / profile.petal_height_mm),
    )


def height_field(profile: FaceProfile, x, y):
    """Surface height at cartesian face coordinates (vectorized)."""
    phase, delta, hub_run, c_start, crun, cfrac = _field_constants(profile)

    r = np.hypot(x, y)
    phi = np.degrees(np.arctan2(y, x)) - phase
    pm = np.mod(phi, 120.0)
    up = pm <= 60.0
    xx = np.where(up, pm, 120.0 - pm)
    hump = _smoothstep(np.minimum(xx, 60.0 - xx) / delta)
    wave = np.where(up, hump, -hump)

    inner = _smoothstep((r - HUB_RADIUS_MM) / hub_run)
    window = inner * (1.0 - cfrac * _smoothstep((r - c_start) / crun))
    return profile.petal_height_mm * wave * window


@functools.cache
def _sample_cloud(profile: FaceProfile) -> np.ndarray:
    rim = profile.rim_radius_mm
    rs = np.concatenate([[4.0, 9.0], np.linspace(HUB_RADIUS_MM, rim, 12)])
    ps = np.linspace(0.0, 360.0, 72, endpoint=False)
    rr, pp = np.meshgrid(rs, ps)
    rr, pp = rr.ravel(), pp.ravel()
    x = rr * np.cos(np.radians(pp))
    y = rr * np.sin(np.radians(pp))
    z = height_field(profile, x, y)
    return np.stack([x, y, z], axis=1)


_FLIP = np.diag([1.0, -1.0, -1.0])


def _rot_z(deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _tilt_matrix(tx_deg: float, ty_deg: float) -> np.ndarray:
    ang = math.hypot(tx_deg, ty_deg)
    if ang < 1e-15:
        return np.eye(3)
    ux, uy = tx_deg / ang, ty_deg / ang
    a = math.radians(ang)
    c, s = math.cos(a), math.sin(a)
    k = np.array([[0.0, 0.0, uy], [0.0, 0.0, -ux], [-uy, ux, 0.0]])
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


def _pose_matrix(state) -> np.ndarray:
    _, _, rot, tx, ty = state
    return _tilt_matrix(tx, ty) @ _rot_z(rot) @ _FLIP


def moving_term(profile: FaceProfile, state) -> tuple[float, int]:
    """Moving-face samples against the fixed analytic surface: the highest
    lift of the samples inside the rim and the cloud index of the first
    that reaches it; (+inf, -1) when face overlap is lost or the tilt is
    past the contact model."""
    dx, dy = state[0], state[1]
    m = _pose_matrix(state)
    cloud = _sample_cloud(profile)
    w = cloud @ m.T
    wx = w[:, 0] + dx
    wy = w[:, 1] + dy
    inside = np.flatnonzero(np.hypot(wx, wy) <= profile.rim_radius_mm)
    if len(inside) < 0.25 * len(cloud) or abs(m[2, 2]) < 0.2:
        return math.inf, -1
    lift = height_field(profile, wx[inside], wy[inside]) - w[inside, 2]
    k = int(np.argmax(lift))
    return float(lift[k]), int(inside[k])


def _moving_term(profile: FaceProfile, state) -> float:
    return moving_term(profile, state)[0]


def _remembered(term):
    """term(profile, state) remembered in a table keyed by the bits of the
    state, so a -0.0 never borrows the value of a 0.0."""
    table: dict[tuple, float] = {}

    def call(profile, state) -> float:
        key = (profile, struct.pack("<5d", *state))
        if key not in table:
            table[key] = term(profile, state)
        return table[key]

    return call


reference_moving_term = _floor = _remembered(_moving_term)


def fixed_samples(profile: FaceProfile, state) -> tuple[np.ndarray, np.ndarray]:
    """Each fixed-face sample's final gap along the approach axis after the
    full four-evaluation solve, and its final lateral position."""
    dx, dy = state[0], state[1]
    m = _pose_matrix(state)
    cloud = _sample_cloud(profile)
    cos_t = abs(m[2, 2])
    q0 = (cloud - np.array([dx, dy, 0.0])) @ m
    m3 = m[2, :2]
    dz = (height_field(profile, q0[:, 0], q0[:, 1]) - q0[:, 2]) / cos_t
    for _ in range(3):
        lat = q0[:, :2] - dz[:, None] * m3
        dz = (height_field(profile, lat[:, 0], lat[:, 1]) - q0[:, 2]) / cos_t
    return dz, q0[:, :2] - dz[:, None] * m3


def fixed_term(profile: FaceProfile, state) -> tuple[float, int]:
    """The final gap of the first sample that ends inside the rim with the
    highest gap, and its cloud index; (-inf, -1) when none does."""
    dz, lat = fixed_samples(profile, state)
    kept = np.flatnonzero(np.hypot(lat[:, 0], lat[:, 1]) <= profile.rim_radius_mm)
    if not len(kept):
        return -math.inf, -1
    k = int(np.argmax(dz[kept]))
    return float(dz[kept[k]]), int(kept[k])


def settle_height(profile: FaceProfile, state) -> float:
    """Axial separation at first contact for pose state (dx, dy, rot, tx, ty)."""
    d_move = _floor(profile, state)
    if d_move == math.inf:
        return math.inf
    return float(max(d_move, fixed_term(profile, state)[0]))


reference_settle = _remembered(settle_height)


# --- reference search ----------------------------------------------------------


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
    kmax = int(math.floor(face._axis_cap(profile, axis) / tol))
    for k in range(1, kmax + 1):
        c = face.canonicalize(face._axis_state(axis, direction_deg, k * tol))
        state = (c.dx_mm, c.dy_mm, c.rot_deg, c.tilt_x_deg, c.tilt_y_deg)
        if not reference_descend(profile, state):
            return (k - 1) * tol
    return kmax * tol


# --- synthetic limit table ---------------------------------------------------


def synthetic_limits(monkeypatch):
    """Replace envelope_axis_limit with a limit table linear in the profile
    fields, on the tol lattice, so the calibration search runs without a
    descent. Returns the list of profiles whose residual was computed, in
    order: each residual asks for the 0-degree translation ray once."""
    scored = []

    def limit(profile, axis, tol, direction_deg=0.0):
        p = profile
        if axis == "translation":
            if direction_deg == 0.0:
                scored.append((p.petal_height_mm, p.petal_flank_angle_deg,
                               p.groove_radius_mm, p.chamfer_depth_mm))
            v = (p.petal_height_mm + 0.2 * p.groove_radius_mm - 2.0 * p.chamfer_depth_mm
                 + direction_deg / 45.0)
        elif axis == "rotation":
            v = p.petal_flank_angle_deg + 5.0 * p.chamfer_depth_mm - (direction_deg < 0.0)
        else:
            v = (2.0 * p.petal_height_mm - 0.1 * p.petal_flank_angle_deg + p.chamfer_depth_mm
                 + (90.0 - direction_deg) / 60.0)
        return math.floor(v / tol) * tol

    monkeypatch.setattr(face, "envelope_axis_limit", limit)
    return scored
