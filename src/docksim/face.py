"""Parametric 120-degree-symmetric connection face and capture envelope.

The face is a height field h(r, phi) = H * w(phi) * u(r): w is an odd
120-periodic petal wave with smoothstep ramps, u a radial window from the
hub land out to the rim chamfer. Two identical faces mate flipped; capture
is modeled as a frictionless compliant descent of the floating side's five
misalignment DOFs over the settle-height potential.

Conventions: the fixed face sits at z=0 looking up, the moving face is
flipped (diag(1,-1,-1)), rotated, tilted, and offset; settle height is the
smallest axial separation with no surface interpenetration. (tilt_x, tilt_y)
is an axis-angle pair: tilt about the in-plane axis (tx, ty) by |(tx, ty)|
degrees, pivoting at the face-plane center.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import CalibrationError, DegenerateProfileError, ParameterError

# Model constants (not profile fields): hub land radius, the engagement
# gate factor, the contact model's limit, descent budget and convergence
# thresholds.
HUB_RADIUS_MM = 16.0
ENGAGE_FACTOR = 1.5
# The contact model covers moving-face tilts whose |cos| is at least this
# (up to about 78.5 degrees); past it settle_height is +inf.
CONTACT_COS_MIN = 0.2
DESCENT_BUDGET = 10000
CONV_LAT_MM = 0.01
CONV_ANG_DEG = 0.01
ROTATION_CEILING_DEG = 60.0
DEFLECTION_CEILING_DEG = 60.0
# Most probes one envelope may plan: rays x (translation + deflection lattice
# points) + 2 x rotation lattice points. Each probe may cost one capture
# descent, about 8 ms of CPU on a 0.01-step deflection ray.
MAX_ENVELOPE_PROBES = 20_000


@dataclass(frozen=True)
class FaceProfile:
    """Geometry of one connection face (both mating sides are identical)."""

    petal_height_mm: float
    petal_flank_angle_deg: float
    groove_radius_mm: float
    chamfer_depth_mm: float
    outer_diameter_mm: float = 80.0
    petal_count: int = 3
    groove_positions_deg: tuple[float, float, float] = (90.0, 210.0, 330.0)

    def __post_init__(self):
        if self.petal_count != 3:
            raise ParameterError("petal_count is fixed at 3")
        dims = (self.petal_height_mm, self.petal_flank_angle_deg, self.groove_radius_mm,
                self.chamfer_depth_mm, self.outer_diameter_mm)
        if not all(map(math.isfinite, dims)):
            raise ParameterError("profile dimensions must be finite")
        if self.outer_diameter_mm <= 0.0:
            raise ParameterError("outer_diameter_mm must be positive")
        if self.petal_height_mm <= 0.0 or self.groove_radius_mm <= 0.0:
            raise ParameterError("petal height and groove radius must be positive")
        if self.chamfer_depth_mm < 0.0:
            raise ParameterError("chamfer depth must be >= 0")
        if not 0.0 < self.petal_flank_angle_deg < 90.0:
            raise ParameterError("flank angle must be in (0, 90)")
        if not HUB_RADIUS_MM < self.groove_radius_mm < self.outer_diameter_mm / 2.0:
            raise ParameterError("groove radius must lie between hub and rim")
        g0, g1, g2 = self.groove_positions_deg
        if not all(map(math.isfinite, self.groove_positions_deg)):
            raise ParameterError("groove positions must be finite")
        if abs((g1 - g0) - 120.0) > 1e-9 or abs((g2 - g1) - 120.0) > 1e-9:
            raise ParameterError("groove positions must be spaced 120 degrees")

    @property
    def rim_radius_mm(self) -> float:
        return self.outer_diameter_mm / 2.0

    @property
    def ramp_width_deg(self) -> float:
        """Angular width of a petal flank ramp; capped at 30 (triangle wave)."""
        w = math.degrees(
            self.petal_height_mm
            / (self.groove_radius_mm * math.tan(math.radians(self.petal_flank_angle_deg)))
        )
        return min(w, 30.0)


@dataclass(frozen=True)
class Misalignment:
    """Relative pose error of the approaching face."""

    dx_mm: float = 0.0
    dy_mm: float = 0.0
    rot_deg: float = 0.0
    tilt_x_deg: float = 0.0
    tilt_y_deg: float = 0.0

    def __post_init__(self):
        vals = (self.dx_mm, self.dy_mm, self.rot_deg, self.tilt_x_deg, self.tilt_y_deg)
        if not all(math.isfinite(v) for v in vals):
            raise ParameterError("misalignment components must be finite")


@dataclass(frozen=True)
class Envelope:
    """Capture limits: quoted value per axis class plus the direction table."""

    translation_limit_mm: float
    rotation_limit_deg: float
    deflection_limit_deg: float
    per_direction: tuple[tuple[str, float, float], ...]  # (axis, direction_deg, limit)


# --- exact 120-degree symmetry machinery -------------------------------

_C120 = -0.5
_S120 = math.sqrt(3.0) / 2.0


def _rot120(x: float, y: float) -> tuple[float, float]:
    return (_C120 * x - _S120 * y, _S120 * x + _C120 * y)


def rotate_misalignment_120(mis: Misalignment, turns: int = 1) -> Misalignment:
    """Rotate a misalignment by turns*120 degrees about the face axis.

    rot_deg is 120-periodic by definition and therefore unchanged; lateral
    offset and tilt axis rotate. Using this helper (rather than trig on
    summed angles) keeps symmetry exact to the bit.
    """
    dx, dy = mis.dx_mm, mis.dy_mm
    tx, ty = mis.tilt_x_deg, mis.tilt_y_deg
    for _ in range(turns % 3):
        dx, dy = _rot120(dx, dy)
        tx, ty = _rot120(tx, ty)
    return replace(mis, dx_mm=dx, dy_mm=dy, tilt_x_deg=tx, tilt_y_deg=ty)


def canonicalize(mis: Misalignment) -> Misalignment:
    """Map a misalignment into the fundamental domain of the 3-fold symmetry.

    The reference vector (lateral offset if nonzero, else tilt axis) is
    rotated into angle [0, 120), or at most 1e-9 degrees below 0; rot wraps
    to (-60, 60]. Feasibility is solved on canonical states only, which
    makes the symmetry invariant exact by construction.
    """
    rot = math.remainder(mis.rot_deg, 120.0) if mis.rot_deg else mis.rot_deg
    if rot == -60.0:  # remainder rounds half to even: 180 -> -60 but 60 -> 60
        rot = 60.0
    out = replace(mis, rot_deg=rot)
    rx, ry = out.dx_mm, out.dy_mm
    if rx == 0.0 and ry == 0.0:
        rx, ry = out.tilt_x_deg, out.tilt_y_deg
        if rx == 0.0 and ry == 0.0:
            return out
    # A vector on a symmetry axis turns by rounding to a hair either side of
    # it, so a copy just below the 0 axis is taken as in the domain: else
    # that copy and the one read as 120.0 could both miss [0, 120). With the
    # slack, the third copy is in the domain when the first two are not.
    for _ in range(2):
        if -1e-9 < math.degrees(math.atan2(ry, rx)) < 120.0:
            return out
        out = rotate_misalignment_120(out)
        rx, ry = (out.dx_mm, out.dy_mm) if (out.dx_mm, out.dy_mm) != (0.0, 0.0) \
            else (out.tilt_x_deg, out.tilt_y_deg)
    return out


# --- height field and sampling ------------------------------------------


def _smoothstep(x):
    """3x^2 - 2x^3 of x clamped to [0, 1], in place in the float array x."""
    x.clip(0.0, 1.0, out=x)
    s = 2.0 * x
    np.subtract(3.0, s, out=s)
    x *= x
    x *= s
    return x


_DEG_PER_RAD = 180.0 / math.pi  # np.degrees multiplies by this


def height_field(profile: FaceProfile, x, y):
    """Surface height at cartesian face coordinates.

    x and y are scalars, sequences or arrays that broadcast together; the
    result has their broadcast shape, in float64, and a scalar pair gives an
    np.float64. The height is H * wave(phi) * inner(r) * (1 - cfrac *
    chamfer(r)): wave is the odd 120-periodic petal hump, inner and chamfer
    the hub and rim ramps. The three smoothstep ramps run as one stacked
    (3, n) array, in place; every element gets the same IEEE operations, in
    the same order, as the formula written out term by term.
    """
    return _height(profile, x, y, np.hypot(x, y))


def _height(profile: FaceProfile, x, y, r):
    """height_field at (x, y), given r = np.hypot(x, y), which it only reads."""
    rec = _samples(profile)
    ramps = np.empty((3, *np.shape(r)))
    hump, inner, chamfer = ramps[0, ...], ramps[1, ...], ramps[2, ...]
    pm = np.arctan2(y, x, out=hump)
    pm *= _DEG_PER_RAD
    pm -= rec.phase
    # np.mod(phi, 120) without its discarded floor division: the remainder,
    # then 120 added to a negative one (a -0.0 left as it is gives a +0.0 hump)
    np.fmod(pm, 120.0, out=pm)
    np.add(pm, 120.0, out=pm, where=pm < 0.0)
    rising = 60.0 - pm  # >= +0.0 exactly where pm <= 60: the wave's sign
    np.minimum(pm, 120.0 - pm, out=pm)
    np.minimum(pm, 60.0 - pm, out=pm)
    stacked = ramps.reshape(3, -1)
    np.subtract(np.ravel(r), rec.start, out=stacked[1:])
    stacked /= rec.run
    _smoothstep(stacked)
    chamfer *= rec.cfrac
    np.subtract(1.0, chamfer, out=chamfer)
    chamfer *= inner  # the radial window
    np.copysign(hump, rising, out=hump)  # the hump is never -0.0
    hump *= profile.petal_height_mm
    hump *= chamfer
    return ramps[0]


_FLIP = np.diag([1.0, -1.0, -1.0])
_EYE = np.eye(3)
_EYE.flags.writeable = False


def _rot_z(deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _tilt_matrix(tx_deg: float, ty_deg: float) -> np.ndarray:
    ang = math.hypot(tx_deg, ty_deg)
    if ang < 1e-15:
        return _EYE
    ux, uy = tx_deg / ang, ty_deg / ang
    a = math.radians(ang)
    c, s = math.cos(a), math.sin(a)
    k = np.array([[0.0, 0.0, uy], [0.0, 0.0, -ux], [-uy, ux, 0.0]])
    return _EYE + s * k + (1.0 - c) * (k @ k)


@functools.lru_cache(maxsize=1024)
def _pose_matrix(rot: float, tx: float, ty: float) -> np.ndarray:
    """Moving-face orientation; lateral moves of the descent share it."""
    m = _tilt_matrix(tx, ty) @ _rot_z(rot) @ _FLIP
    m.flags.writeable = False
    return m


def _moving_term(profile: FaceProfile, state) -> tuple[float, int]:
    """Moving-face samples against the fixed analytic surface.

    Returns the highest lift of the samples inside the rim and the sample
    index of the first that reaches it (the binding sample). Every sample is
    evaluated and the rim masks the max. settle_height is the max of this
    and the fixed-face term, so the lift is an exact lower bound of it;
    (+inf, -1) when face overlap is lost or the tilt is past the contact
    model (either makes settle_height +inf too).
    """
    dx, dy, rot, tx, ty = state
    m = _pose_matrix(rot, tx, ty)
    if abs(m[2, 2]) < CONTACT_COS_MIN:
        return math.inf, -1
    x, y, z = m @ _samples(profile).rows  # the samples in the moving face's orientation
    x += dx
    y += dy
    r = np.hypot(x, y)
    inside = r <= profile.rim_radius_mm
    if np.count_nonzero(inside) < 0.25 * len(r):
        return math.inf, -1
    lift = _height(profile, x, y, r) - z
    lift[~inside] = -math.inf
    k = int(lift.argmax())
    return float(lift[k]), k


# The descent asks for the bound of the candidates its sample bound cannot
# skip and settle_height asks again for the few it evaluates exactly; one
# bounded memo serves both.
_floor = functools.lru_cache(maxsize=1024)(_moving_term)

# Slack, relative to the face's size, that keeps one contact sample a lower
# bound of a settle term computed apart from it: 820,129 scalar fixed-face
# solves on four profiles differed from the term's by up to 3.8e-13 mm, and
# 604,800 moving-face values of _lows's few-sample matmul not at all (x86-64).
SAMPLE_RTOL = 1e-9


def _drift(slope: float, margin: float, g: float, h: float, cos_t: float):
    """(lean, grow, margin_f) of a fixed-face solve whose pose has third row
    (g, h, +-cos_t): a gap change d moves a sample laterally by d * lean, so
    the next evaluation's gap changes by at most grow * d, grow = slope *
    lean / cos_t, plus margin / cos_t of rounding. After evaluation k of the
    solve's four, which changed a gap by step, the final gap lies within
    step * (grow + ... + grow**(3 - k)) + margin_f of it; margin_f bounds
    the rounding of the final gap."""
    lean = math.hypot(g, h)
    grow = slope * lean / cos_t
    return lean, grow, margin * (1.0 + grow * (1.0 + grow * (1.0 + grow))) / cos_t


class _Samples(NamedTuple):
    """A profile's contact samples, their scalar bounds and the constants of
    its height field; see _samples."""

    rows: np.ndarray  # (3, 1008) x, y and z rows, read-only: hub rings + annulus on the surface
    slope: float  # a bound of |grad h| in mm per mm
    margin: float  # one sample term's rounding margin, SAMPLE_RTOL of the face's size
    inner_rim: float  # the rim less SAMPLE_RTOL of its size: a sample inside it bounds its term
    phase: float  # the petal phase in degrees
    cfrac: float  # the chamfer's fraction of the petal height
    start: np.ndarray  # (2, 1) read-only: the radial ramps' start radii (hub, chamfer)
    run: np.ndarray  # (3, 1) read-only: the smoothstep runs (ramp width, hub to groove, chamfer)
    fixed: Callable
    surface: Callable


@functools.lru_cache(maxsize=16)
def _samples(profile: FaceProfile) -> _Samples:
    """The one per-profile record of the capture kernel: the contact
    samples both faces use, the constants _height reads, the height field
    of one point in scalar math, and one fixed-face sample's term of
    settle_height in scalar math.

    surface(angle, r) is _height at the point of polar angle `angle` (in
    radians, as np.arctan2 gives it) and radius r, in the same IEEE
    operations in the same order: given np.arctan2's angle it has
    _height's bits, whatever numpy's dispatch level. The samples' z row is
    surface at np.arctan2's angle and np.hypot's radius.

    fixed(state, i) is fixed-face sample i's final gap in the solve of
    _fixed_term with its margin, as (gap, margin); the gap is -inf if the
    sample may end outside the rim. It takes the angle from math.atan2,
    which may differ from np.arctan2 by an ulp. The term is a max over the
    samples inside the rim, so a sample's gap less its margin is a lower
    bound of it, and of settle_height. margin covers one moving-face
    sample's rounding (_lows).
    """
    rim, height = profile.rim_radius_mm, profile.petal_height_mm
    phase = profile.groove_positions_deg[0] - 90.0
    cfrac = min(1.0, profile.chamfer_depth_mm / height)
    crun = max(profile.chamfer_depth_mm, 1e-9)
    hub, cstart = HUB_RADIUS_MM, rim - crun
    ramp, inner_run = profile.ramp_width_deg, profile.groove_radius_mm - HUB_RADIUS_MM
    start, run = np.array([[hub], [cstart]]), np.array([[ramp], [inner_run], [crun]])
    start.flags.writeable = run.flags.writeable = False
    # where h can be nonzero (r >= hub): a smoothstep rises at most 1.5
    # times as fast as its argument
    slope = 1.5 * height * (_DEG_PER_RAD / (HUB_RADIUS_MM * ramp) + 1.0 / inner_run
                            + cfrac / crun)
    margin = SAMPLE_RTOL * max(1.0, height, slope * rim)
    inner_rim = rim - SAMPLE_RTOL * max(1.0, rim)
    fmod, copysign = math.fmod, math.copysign

    # np.maximum and np.minimum as conditional expressions, which Python
    # evaluates several times faster than the min and max builtins
    def smooth(x):
        x = 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
        return x * x * (3.0 - 2.0 * x)

    def surface(angle, r):
        pm = fmod(angle * _DEG_PER_RAD - phase, 120.0)
        pm = pm + 120.0 if pm < 0.0 else pm
        rising = 60.0 - pm
        other = 120.0 - pm
        pm = other if other < pm else pm
        other = 60.0 - pm
        pm = other if other < pm else pm
        window = (1.0 - cfrac * smooth((r - cstart) / crun)) * smooth((r - hub) / inner_run)
        return copysign(smooth(pm / ramp), rising) * height * window

    rs = np.concatenate([[4.0, 9.0], np.linspace(HUB_RADIUS_MM, rim, 12)])
    ps = np.linspace(0.0, 360.0, 72, endpoint=False)
    rr, pp = np.meshgrid(rs, ps)
    rr, pp = rr.ravel(), pp.ravel()
    x = rr * np.cos(np.radians(pp))
    y = rr * np.sin(np.radians(pp))
    rows = np.stack([x, y, list(map(surface, np.arctan2(y, x).tolist(), np.hypot(x, y).tolist()))])
    rows.flags.writeable = False
    points = rows.T.tolist()

    def fixed(state, i):
        dx, dy, rot, tx, ty = state
        (a, b, c), (d, e, f), (g, h, k) = _pose_matrix(rot, tx, ty).tolist()
        cos_t = abs(k)
        if cos_t < CONTACT_COS_MIN:  # past the contact model: settle_height is +inf
            return -math.inf, 0.0
        lean, _, margin_f = _drift(slope, margin, g, h, cos_t)
        cx, cy, cz = points[i]
        px, py = cx - dx, cy - dy
        qx = px * a + py * d + cz * g
        qy = px * b + py * e + cz * h
        qz = px * c + py * f + cz * k
        x, y, dz = qx, qy, None
        for _ in range(4):
            nxt = (surface(math.atan2(y, x), math.hypot(x, y)) - qz) / cos_t
            if nxt == dz:
                break  # this sample's fixed point: x, y already belong to it
            dz = nxt
            x, y = qx - dz * g, qy - dz * h
        if not math.hypot(x, y) <= inner_rim - lean * margin_f:
            return -math.inf, margin_f
        return dz, margin_f

    return _Samples(rows, slope, margin, inner_rim, phase, cfrac, start, run, fixed, surface)


def _lows(profile: FaceProfile, cands, samples) -> list:
    """A lower bound of each candidate's moving term, in one pass: the
    highest lift of the moving-face samples (sample indices) that lie
    SAMPLE_RTOL of the face's size inside the rim, less margin, which also
    covers the ulps by which these lifts differ from _moving_term's; -inf
    if no sample is inside, +inf past the contact model."""
    rows, _, margin, inner_rim = _samples(profile)[:4]
    m = np.array([_pose_matrix(*cand[2:]) for cand in cands])
    w = m @ rows.take(samples, axis=1)  # each candidate's x, y and z rows
    at = np.array(cands)[:, :2, None]
    x, y = w[:, 0] + at[:, 0], w[:, 1] + at[:, 1]
    r = np.hypot(x, y)
    lift = _height(profile, x, y, r) - w[:, 2]
    low = lift.max(axis=1, where=r <= inner_rim, initial=-math.inf)
    low -= margin
    low[np.abs(m[:, 2, 2]) < CONTACT_COS_MIN] = math.inf
    return low.tolist()


# Most samples a fixed-face solve may keep for its remaining evaluations to
# run in Python floats (_scalar_finish): one _height makes about 30 numpy
# calls whatever its size, which on a few points cost more than the formula
# point by point. 16 and 32 measured the same on the dock stream.
SCALAR_SAMPLES = 16


def _scalar_height(profile: FaceProfile, x, y, r) -> list:
    """_height at a few points as a list of floats: the _samples record's
    surface at np.arctan2's angle and radius r, so with _height's bits at
    every dispatch level."""
    return list(map(_samples(profile).surface, np.arctan2(y, x).tolist(), r.tolist()))


def _scalar_finish(profile: FaceProfile, q, dz, g, h, cos_t, evaluations: int):
    """At most `evaluations` more evaluations of _fixed_term's solve in
    Python floats: final gaps and lateral radii of the kept samples' rows q
    from their gaps dz, as arrays. Each step makes the numpy loop's IEEE
    operations in its order, with np.arctan2's angle, np.hypot's radius and
    a bitwise fixed-point test, so the result is the loop's to the bit."""
    xs, ys, zs = q.tolist()
    dz = dz.tolist()
    for _ in range(evaluations):
        x = np.array([qx - d * g for qx, d in zip(xs, dz)])
        y = np.array([qy - d * h for qy, d in zip(ys, dz)])
        r = np.hypot(x, y)
        nxt = [(s - z) / cos_t for s, z in zip(_scalar_height(profile, x, y, r), zs)]
        if nxt == dz and np.array(nxt).tobytes() == np.array(dz).tobytes():
            return np.array(dz), r  # a bitwise fixed point (== alone takes -0.0 for 0.0)
        dz = nxt
    r = np.hypot([qx - d * g for qx, d in zip(xs, dz)], [qy - d * h for qy, d in zip(ys, dz)])
    return np.array(dz), r


def _fixed_term(profile: FaceProfile, state) -> tuple[float, int]:
    """Fixed-face samples against the moving body.

    A fixed-point solve along the approach axis, at most four evaluations,
    stopped at a bitwise fixed point: each sample's update depends only on
    its own gap, so the remaining evaluations would repeat it. Returns the
    final gap and sample index of the first sample that ends inside the
    rim with the highest gap (the binding sample; a tied zero keeps its
    sign); (-inf, -1) when none does. Only meaningful where the moving
    term is finite.

    Only the samples that can bind run on. After evaluation k < 3 moved a
    sample's gap by step to dz (from 0 for k = 0), its final gap lies within
    reach = step * (grow + ... + grow**(3 - k)) + margin_f of dz (_drift),
    and its final lateral radius is at most the radius that evaluation read
    plus lean * (step + reach). Over the samples whose radius bound is at
    least margin inside the rim, which so end inside it, floor = max(dz -
    reach) is at most the answer; a sample with dz + reach < floor ends
    below it and is dropped. The kept samples get the same elementwise
    operations, and a subset at its bitwise fixed point would repeat it
    under the evaluations the whole cloud still makes, so the result has
    the bits of the solve on every sample. Once at most SCALAR_SAMPLES
    samples are kept, the rest of the solve runs in Python floats
    (_scalar_finish), to the same bits.
    """
    dx, dy, rot, tx, ty = state
    m = _pose_matrix(rot, tx, ty)
    rows, slope, margin = _samples(profile)[:3]
    g, h, cos_t = m[2].tolist()
    cos_t = abs(cos_t)
    lean, grow, margin_f = _drift(slope, margin, g, h, cos_t)
    # grow + ... + grow**(3 - k) written out: a quotient of two could round low
    gains = (grow * (1.0 + grow * (1.0 + grow)), grow * (1.0 + grow), grow)
    inner = profile.rim_radius_mm - margin - lean * margin_f
    q = m.T @ (rows - np.array([[dx], [dy], [0.0]]))  # the rows in the moving frame
    pick = np.arange(q.shape[1])
    x, y, dz = q[0], q[1], 0.0
    r = np.hypot(x, y)
    for k in range(4):
        nxt = _height(profile, x, y, r)
        nxt -= q[2]
        nxt /= cos_t
        if k and nxt.tobytes() == dz.tobytes():
            break  # a fixed point, and r already belongs to it
        if k < 3:
            step = np.abs(nxt - dz)
            r += step * (lean * (1.0 + gains[k]))
            reach = step * gains[k] + margin_f
            floor = (nxt - reach)[r <= inner].max(initial=-math.inf)
            keep = (~(nxt + reach < floor)).nonzero()[0]  # all of them when floor is -inf
            pick, q, nxt = pick[keep], q.take(keep, axis=1), nxt[keep]
            if len(pick) <= SCALAR_SAMPLES:
                dz, r = _scalar_finish(profile, q, nxt, g, h, cos_t, 3 - k)
                break
        dz = nxt
        x, y = q[0] - dz * g, q[1] - dz * h
        r = np.hypot(x, y)
    kept = (r <= profile.rim_radius_mm).nonzero()[0]
    if not len(kept):
        return -math.inf, -1
    gaps = dz[kept]
    k = int(gaps.argmax())
    return float(gaps[k]), int(pick[kept[k]])


# settle_height solves the fixed-face term once per exact settle; the
# descent reads the binding sample of the states it settled from here.
_fixed = functools.lru_cache(maxsize=1024)(_fixed_term)


def settle_height(profile: FaceProfile, state) -> float:
    """Axial separation at first contact for pose state (dx, dy, rot, tx, ty).

    Two-sided rigid contact: the larger of the moving-face term (moving-face
    samples against the fixed analytic surface) and the fixed-face term
    (fixed-face samples against the moving body). Returns +inf when face
    overlap is lost. The terms are read from the `_floor` and `_fixed`
    memos.
    """
    d_move = _floor(profile, state)[0]
    if d_move == math.inf:
        return math.inf
    return max(d_move, _fixed(profile, state)[0])


# --- capture descent -----------------------------------------------------


def _rot2d(x: float, y: float, deg: float) -> tuple[float, float]:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return c * x - s * y, s * x + c * y


def _candidate_moves(state, s_lat, s_rot, s_tilt):
    dx, dy, rot, tx, ty = state
    out = []
    lat = math.hypot(dx, dy)
    ux, uy = (dx / lat, dy / lat) if lat > 1e-12 else (1.0, 0.0)
    out.append((dx - s_lat * ux, dy - s_lat * uy, rot, tx, ty))
    out.append((dx + s_lat * ux, dy + s_lat * uy, rot, tx, ty))
    if lat > 1e-12:
        arc = math.degrees(s_lat / max(lat, s_lat))
        for sgn in (1.0, -1.0):
            nx, ny = _rot2d(dx, dy, sgn * arc)
            out.append((nx, ny, rot, tx, ty))
    else:
        out.append((0.0, s_lat, rot, tx, ty))

    out.append((dx, dy, rot - s_rot, tx, ty))
    out.append((dx, dy, rot + s_rot, tx, ty))

    tmag = math.hypot(tx, ty)
    vx, vy = (tx / tmag, ty / tmag) if tmag > 1e-12 else (1.0, 0.0)
    out.append((dx, dy, rot, tx - s_tilt * vx, ty - s_tilt * vy))
    out.append((dx, dy, rot, tx + s_tilt * vx, ty + s_tilt * vy))
    if tmag > 1e-12:
        arc = math.degrees(s_tilt / max(tmag, s_tilt))
        for sgn in (1.0, -1.0):
            nx, ny = _rot2d(tx, ty, sgn * arc)
            out.append((dx, dy, rot, nx, ny))
        # rolling contact: untilt while translating along the dip direction
        ntx, nty = tx - s_tilt * vx, ty - s_tilt * vy
        gx, gy = -vy, vx
        for arm in (20.0, 40.0):
            shift = arm * math.radians(s_tilt)
            out.append((dx + shift * gx, dy + shift * gy, rot, ntx, nty))
            out.append((dx - shift * gx, dy - shift * gy, rot, ntx, nty))
    else:
        out.append((dx, dy, rot, 0.0, s_tilt))
    return out


def _converged(state) -> bool:
    return (
        math.hypot(state[0], state[1]) < CONV_LAT_MM
        and abs(state[2]) < CONV_ANG_DEG
        and math.hypot(state[3], state[4]) < CONV_ANG_DEG
    )


@functools.lru_cache(maxsize=4096)
def _join(profile: FaceProfile, state, s_lat: float, s_rot: float, s_tilt: float) -> list:
    """The path-join cell of one descent iteration: empty, or [verdict,
    spent] once a descent that passed through (state, step sizes) ended
    by convergence or by a jam, spent being the evaluations it made from
    there to its last budget check. A cold default envelope of the
    reference face fills 1,120 cells."""
    return []


# How close to the least exact settle height of an iteration a candidate
# must come to stay in the running: more than the 1e-10 the acceptance test
# asks, so that rounding cannot drop the candidate the slot-order rule takes.
NEAR_TIE_MM = 3e-10

# Moving-face samples one descent bounds its candidates by: the latest
# distinct binding samples it read. An iteration's winner is among its last
# 16 reads, so the incumbent's binding sample is always one of them.
RECENT_SAMPLES = 16


def _slot_chain(settle, count: int, d: float):
    """The slot-order rule of one descent iteration: each candidate in slot
    order is accepted if its settle height beats the best so far by 1e-10.

    settle(j, cap) is candidate j's exact settle height, or None once one of
    its lower bounds reaches cap. Returns (slot, settle height) of the last
    candidate accepted, or (None, d) if none beats the incumbent's d.
    """
    best, best_d = None, d
    for j in range(count):
        dc = settle(j, best_d - 1e-10)
        if dc is not None and dc < best_d - 1e-10:
            best, best_d = j, dc
    return best, best_d


def _settle_first(settle, lows: list, d: float, won):
    """_slot_chain's choice, found by settling the likeliest winner first.

    Tries slot `won` (the last iteration's winner), then the rest in
    ascending order of their first lower bounds `lows`, each against the
    cap min(d - 1e-10, least + NEAR_TIE_MM), least being the least exact
    settle height so far. A candidate whose bound reaches the cap is never
    the chain's choice: it fails the acceptance test, or settles at least
    NEAR_TIE_MM above the least, which the chain's choice never does
    (every candidate after it settles above it less 1e-10, every one
    before it above it). So if exactly one settled candidate lies under the
    final cap, the chain accepts it, whatever the slot order. Otherwise, if
    some candidate passes the acceptance test (a near tie, or a settle
    height so large that NEAR_TIE_MM rounds away), the iteration runs the
    chain itself, its settle heights served from the memos.
    """
    order = sorted(range(len(lows)), key=lows.__getitem__)
    if won is not None and won < len(lows):  # a state has 13 to 16 slots
        order.remove(won)
        order.insert(0, won)
    accept = d - 1e-10
    cap, least, settled = accept, math.inf, {}
    for j in order:
        dc = settle(j, cap)
        if dc is not None:
            settled[j] = dc
            if dc < least:
                least, cap = dc, min(accept, dc + NEAR_TIE_MM)
    near = [j for j, dc in settled.items() if dc < cap]
    if len(near) == 1:
        return near[0], settled[near[0]]
    if least < accept:
        return _slot_chain(settle, len(lows), d)
    return None, d


def _descend(profile: FaceProfile, state) -> bool:
    """Strict best-improvement pattern descent of the settle potential.

    Steps start small and only shrink, so the search cannot hop over
    physical feature barriers; a stall at the finest step is a jam. Each
    iteration accepts the candidate that _slot_chain would: the last one,
    in slot order, whose settle height beats the best before it by 1e-10.
    _settle_first finds it with fewer exact settles: the last winning slot
    first, then the rest by their first lower bound.

    A candidate whose lower bound of the settle height already reaches the
    cap it is settled against cannot be the one accepted, so it is not
    evaluated; it still spends one evaluation of the budget. The bounds are
    tried cheapest first. The moving-face lift of the RECENT_SAMPLES
    binding samples the descent read last, for all candidates in one numpy
    pass (_lows). One fixed-face sample in scalar math (the _samples
    record's fixed): the incumbent's binding sample, then the one that
    bound the same slot last time. Then the full moving term. Any sample
    bounds its term; recent binding samples are the likeliest to bind.

    The order and the skips change only the work, never the accepted
    state, so the rest of the path from a (state, step sizes) pair is fixed
    and only the remaining budget can change its verdict. A descent that
    reaches a pair an earlier one passed through (its _join cell is filled)
    takes that verdict if its budget covers the evaluations the earlier one
    spent from there. A descent that ends by convergence or a jam fills the
    cells of its path; one that runs out of budget fills none.
    """
    d = settle_height(profile, state)
    if not math.isfinite(d) or d > ENGAGE_FACTOR * profile.petal_height_mm:
        # Faces land on top of the features instead of interleaving:
        # the funnel never catches.
        return False
    fixed = _samples(profile).fixed
    # the moving-face binding samples read, least recent first, and the
    # incumbent's fixed-face binding sample
    recent, fbinding = [_floor(profile, state)[1]], _fixed(profile, state)[1]
    fslots = {}  # each candidate slot's last fixed-face binding sample

    def settle(j, cap):
        """Candidate j's exact settle height, or None once a bound reaches cap."""
        cand = cands[j]
        if lows[j] >= cap:
            return None
        gap, margin_f = fixed(cand, fbinding)
        if gap - margin_f >= cap:
            return None
        last = fslots.get(j, fbinding)
        if last != fbinding:
            gap, margin_f = fixed(cand, last)
            if gap - margin_f >= cap:
                return None
        floor, i = _floor(profile, cand)
        recent[:] = [*(k for k in recent if k != i), i][-RECENT_SAMPLES:]
        if floor >= cap:
            return None
        fslots[j] = _fixed(profile, cand)[1]
        return settle_height(profile, cand)

    s_lat, s_rot, s_tilt = 0.5, 1.5, 0.5
    evals, won = 1, None
    path = []  # (join cell, evals) at each budget check passed
    while evals < DESCENT_BUDGET:
        cell = _join(profile, state, s_lat, s_rot, s_tilt)
        if cell and evals + cell[1] < DESCENT_BUDGET:
            verdict, end = cell[0], evals + cell[1]
            break
        path.append((cell, evals))
        if _converged(state):
            verdict, end = True, evals
            break
        cands = _candidate_moves(state, s_lat, s_rot, s_tilt)
        evals += len(cands)
        lows = _lows(profile, cands, recent)
        j, dc = _settle_first(settle, lows, d, won)
        if j is None:
            if s_lat <= 0.004 and s_rot <= 0.004 and s_tilt <= 0.004:
                verdict, end = False, path[-1][1]  # a jam: state is not converged
                break
            s_lat = max(s_lat * 0.5, 0.002)
            s_rot = max(s_rot * 0.5, 0.002)
            s_tilt = max(s_tilt * 0.5, 0.002)
        else:
            state, d, fbinding, won = cands[j], dc, fslots[j], j
    else:  # out of budget: the path's cells stay as they are
        return _converged(state)
    for cell, at in path:
        cell[:] = verdict, end - at
    return verdict


_feasible = functools.lru_cache(maxsize=500_000)(_descend)


def mate_feasible(profile: FaceProfile, mis: Misalignment) -> bool:
    """True iff compliant descent from the misalignment converges to mated."""
    c = canonicalize(mis)
    return _feasible(profile, (c.dx_mm, c.dy_mm, c.rot_deg, c.tilt_x_deg, c.tilt_y_deg))


# --- envelope search ------------------------------------------------------

_AXES = ("translation", "rotation", "deflection")


def _axis_state(axis: str, direction_deg: float, magnitude: float) -> Misalignment:
    if axis == "translation":
        ux, uy = math.cos(math.radians(direction_deg)), math.sin(math.radians(direction_deg))
        return Misalignment(dx_mm=magnitude * ux, dy_mm=magnitude * uy)
    if axis == "rotation":
        sign = -1.0 if direction_deg < 0.0 else 1.0
        return Misalignment(rot_deg=sign * magnitude)
    ux, uy = math.cos(math.radians(direction_deg)), math.sin(math.radians(direction_deg))
    return Misalignment(tilt_x_deg=magnitude * ux, tilt_y_deg=magnitude * uy)


def _axis_cap(profile: FaceProfile, axis: str) -> float:
    if axis == "translation":
        return profile.outer_diameter_mm
    if axis == "rotation":
        return ROTATION_CEILING_DEG
    return DEFLECTION_CEILING_DEG


def _lattice_points(profile: FaceProfile, axis: str, tol: float) -> int:
    """Lattice points a scan along axis walks, clamped to MAX_ENVELOPE_PROBES + 1."""
    if not 0.0 < tol < math.inf:  # NaN fails too
        raise ParameterError("tol must be positive and finite")
    cap = _axis_cap(profile, axis)
    if tol > cap:  # its one lattice point would lie past the cap
        raise ParameterError(f"tol {tol!r} exceeds the {axis} axis cap of {cap!r}")
    return math.floor(min(cap / tol, MAX_ENVELOPE_PROBES + 1))


def envelope_axis_limit(
    profile: FaceProfile,
    axis: str,
    tol: float,
    direction_deg: float = 0.0,
) -> float:
    """Largest feasible magnitude along one axis, on the k*tol lattice.

    Walks the lattice from 1 up to the axis cap and stops at the first
    infeasible point, so a ray that turns out non-monotone is resolved to
    its first crossing.
    """
    if axis not in _AXES:  # before the scan is sized or probed
        raise ParameterError(f"unknown axis {axis!r}; expected one of {_AXES}")
    kmax = _lattice_points(profile, axis, tol)
    if kmax > MAX_ENVELOPE_PROBES:
        raise ParameterError(f"tol {tol!r} plans more than {MAX_ENVELOPE_PROBES} lattice points "
                             f"on the {axis} axis, the budget of one envelope")
    if not math.isfinite(direction_deg):
        raise ParameterError(f"direction {direction_deg!r} deg must be finite")
    if not mate_feasible(profile, Misalignment()):
        raise DegenerateProfileError("profile cannot mate at zero misalignment")
    for k in range(1, kmax + 1):
        if not mate_feasible(profile, _axis_state(axis, direction_deg, k * tol)):
            return (k - 1) * tol
    return kmax * tol


def full_envelope(
    profile: FaceProfile,
    angular_resolution_deg: float = 30.0,
    tol_translation_mm: float = 1.0,
    tol_rotation_deg: float = 1.0,
    tol_deflection_deg: float = 1.0,
) -> Envelope:
    """Sweep per-direction limits; the quoted limit per axis is the minimum.

    Only the fundamental domain psi in [0, 120) is evaluated; rows for
    psi+120 and psi+240 carry the same limit because feasibility is exact
    under 120-degree rotation by construction.
    """
    if not 0.0 < angular_resolution_deg < math.inf:  # NaN fails too
        raise ParameterError("angular resolution must be positive and finite")
    rows: list[tuple[str, float, float]] = []
    base = []
    psi = 0.0
    while psi < 120.0 - 1e-9 and len(base) <= MAX_ENVELOPE_PROBES:
        base.append(psi)
        psi += angular_resolution_deg
    t_pts, r_pts, d_pts = (_lattice_points(profile, axis, tol) for axis, tol in (
        ("translation", tol_translation_mm), ("rotation", tol_rotation_deg),
        ("deflection", tol_deflection_deg)))
    planned = len(base) * (t_pts + d_pts) + 2 * r_pts  # a clamped count is a lower bound
    if planned > MAX_ENVELOPE_PROBES:  # refused before the first probe
        raise ParameterError(f"sweep plans at least {planned} probes ({len(base)} rays x "
                             f"{t_pts + d_pts} lattice points + 2 x {r_pts}), over the budget "
                             f"of {MAX_ENVELOPE_PROBES} probes")

    for axis, tol in (("translation", tol_translation_mm), ("deflection", tol_deflection_deg)):
        for d in base:
            lim = envelope_axis_limit(profile, axis, tol, d)
            for turn in range(3):
                if d + 120.0 * turn < 360.0 - 1e-9:
                    rows.append((axis, d + 120.0 * turn, lim))
    for sign in (1.0, -1.0):
        rows.append(
            ("rotation", sign, envelope_axis_limit(profile, "rotation", tol_rotation_deg, sign))
        )

    t_lim = min(v for a, _, v in rows if a == "translation")
    r_lim = min(v for a, _, v in rows if a == "rotation")
    d_lim = min(v for a, _, v in rows if a == "deflection")
    return Envelope(
        translation_limit_mm=t_lim,
        rotation_limit_deg=r_lim,
        deflection_limit_deg=d_lim,
        per_direction=tuple(rows),
    )


# --- calibration ----------------------------------------------------------

REFERENCE_PROFILE = FaceProfile(
    petal_height_mm=6.5,
    petal_flank_angle_deg=24.7,
    groove_radius_mm=27.0,
    chamfer_depth_mm=1.0,
)

_CAL_ROUNDS = 3  # coordinate-search rounds before giving up


def _measured_limits(profile: FaceProfile) -> tuple[float, float, float]:
    """Quoted (translation, rotation, deflection) limits of the default envelope."""
    env = full_envelope(profile)
    return env.translation_limit_mm, env.rotation_limit_deg, env.deflection_limit_deg


def calibrate_profile(
    targets: tuple[float, float, float],
    tolerance: float = 0.10,
) -> FaceProfile:
    """Fit a profile whose envelope matches (translation, rotation, deflection).

    Deterministic coordinate search over petal height, flank angle, groove
    radius and chamfer, warm-started at the reference profile. Raises
    CalibrationError for unreachable targets, reporting the best residual.
    """
    t_t, t_r, t_d = targets
    if not (t_t > 0.0 and t_r > 0.0 and t_d > 0.0):
        raise CalibrationError("targets must be positive")
    base = REFERENCE_PROFILE
    if t_t >= base.outer_diameter_mm:
        raise CalibrationError(f"translation target {t_t} mm exceeds the face diameter")
    if t_r > ROTATION_CEILING_DEG:
        raise CalibrationError(f"rotation target {t_r} deg exceeds the 60 deg ceiling")
    if t_d >= 90.0:
        raise CalibrationError(f"deflection target {t_d} deg is not a mateable pose")
    # a measured limit lies within [0, axis cap], so a residual is finite
    # whenever cap / target is; refuse a target that overflows it (1 / target
    # can still be finite)
    for axis, target in zip(_AXES, targets):
        if math.isinf(_axis_cap(base, axis) / target):
            raise CalibrationError(f"{axis} target {target} is too small to score against")

    def residual(p: FaceProfile) -> float:
        mt, mr, md = _measured_limits(p)
        return max(abs(mt - t_t) / t_t, abs(mr - t_r) / t_r, abs(md - t_d) / t_d)

    best, best_res = base, residual(base)
    if best_res <= tolerance:
        return best

    steps = {
        "petal_height_mm": 0.5,
        "petal_flank_angle_deg": 2.0,
        "groove_radius_mm": 1.5,
        "chamfer_depth_mm": 0.5,
    }
    for _ in range(_CAL_ROUNDS):
        improved = False
        for name, step in steps.items():
            for sgn in (1.0, -1.0):
                try:
                    cand = replace(best, **{name: getattr(best, name) + sgn * step})
                except ParameterError:
                    continue
                res = residual(cand)
                if res < best_res - 1e-12:
                    best, best_res = cand, res
                    improved = True
                    if best_res <= tolerance:
                        return best
        if not improved:
            steps = {k: v * 0.5 for k, v in steps.items()}
    raise CalibrationError(
        f"calibration did not reach targets {targets} (best residual {best_res:.4f})",
        best_residual=best_res,
    )
