"""Every domain object checks its invariants when it is built.

An out-of-range field raises ParameterError from the constructor and from
dataclasses.replace alike, so no consumer has to remember a separate check:
a public function handed one of these objects can take it as valid. The
last two tests check a model invariant: neither the settle height nor the
capture verdict may depend on which of the two genderless faces is named
the fixed one. The verdict does today, on 13 pinned states (xfail).
"""
import math
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docksim.assembly import Module
from docksim.bus import Frame
from docksim.coupling import CouplingConfig, Event, InterfaceState
from docksim.errors import ParameterError
from docksim.face import (
    REFERENCE_PROFILE,
    Misalignment,
    canonicalize,
    height_field,
    mate_feasible,
    settle_height,
)
from docksim.loads import LoadEnvelope, Wrench
from docksim.mechanism import MechanismParams

# (valid object, field, out-of-range value, message)
CASES = [
    (REFERENCE_PROFILE, "petal_height_mm", 0.0,
     "petal height and groove radius must be positive"),
    (REFERENCE_PROFILE, "outer_diameter_mm", 0.0, "outer_diameter_mm must be positive"),
    (REFERENCE_PROFILE, "chamfer_depth_mm", -1.0, "chamfer depth must be >= 0"),
    (Misalignment(), "dx_mm", math.nan, "misalignment components must be finite"),
    (MechanismParams(), "theta_deg", 90.0, r"theta_deg must be in \(0, 90\)"),
    (MechanismParams(), "beta_deg", 90.0, r"beta_deg must be in \[0, 90\)"),
    (MechanismParams(), "stroke_mm", 0.0, "stroke and rod speed must be positive"),
    (Wrench(), "fx_n", math.inf, "wrench components must be finite"),
    (LoadEnvelope(), "traction_capacity_n", 0.0, "capacities must be positive and finite"),
    (CouplingConfig(), "lock_duration_s", 9.9, r"lock_duration_s must be within \[10, 20\] s"),
    (Event("tick", dt_s=1.0), "dt_s", 0.0, "tick requires dt_s > 0"),
    (Event("approach", misalignment=Misalignment()), "misalignment", None,
     "approach requires a misalignment"),
    (InterfaceState(), "phase", "locked", "locked requires at least one engaged side"),
    (InterfaceState(), "phase", "docked", "unknown phase 'docked'"),
    (Module("m", "link", ()), "mass_kg", -1.0, "mass_kg must be finite and >= 0"),
    (Module("m", "link", ()), "module_id", "", "module_id must be non-empty"),
    (Frame("can", "a", "b", b"x"), "timestamp_s", -1.0, "timestamp_s must be finite and >= 0"),
    # a bytearray could grow past the channel limit after the check, and
    # makes the frozen frame unhashable
    (Frame("can", "a", "b", b"x"), "payload", bytearray(8), "payload must be bytes"),
]
# a type's first row is named after the type, any further row after its field too
IDS = []
for case in CASES:
    name = type(case[0]).__name__
    IDS.append(f"{name}-{case[1]}" if name in IDS else name)


@pytest.mark.parametrize("valid, name, bad, message", CASES, ids=IDS)
def test_construction_rejects_an_out_of_range_field(valid, name, bad, message):
    kwargs = {f.name: getattr(valid, f.name) for f in fields(valid)}
    assert type(valid)(**kwargs) == valid
    with pytest.raises(ParameterError, match=f"^{message}$"):
        type(valid)(**{**kwargs, name: bad})


@pytest.mark.parametrize("valid, name, bad, message", CASES, ids=IDS)
def test_replace_rejects_an_out_of_range_field(valid, name, bad, message):
    assert replace(valid) == valid
    with pytest.raises(ParameterError, match=f"^{message}$"):
        replace(valid, **{name: bad})


def test_a_zero_petal_height_never_reaches_the_height_field():
    # a zero petal height divided by zero inside the field before it was checked
    for evaluate in (lambda p: height_field(p, 20.0, 0.0),
                     lambda p: settle_height(p, (0.0, 0.0, 0.0, 0.0, 0.0))):
        with pytest.raises(ParameterError):
            evaluate(replace(REFERENCE_PROFILE, petal_height_mm=0.0))


def test_canonicalize_never_sees_a_nan_offset():
    with pytest.raises(ParameterError, match="^misalignment components must be finite$"):
        canonicalize(Misalignment(dx_mm=math.nan))


def test_an_infinite_scale_is_refused():
    # 0 * inf is NaN: the scaled wrench would hold NaN in its unloaded components
    with pytest.raises(ParameterError, match="^wrench components must be finite$"):
        Wrench(1.0, 2.0, 3.0).scaled(math.inf)
    assert Wrench(1.0, 2.0, 3.0).scaled(2.0) == Wrench(2.0, 4.0, 6.0)


def _swapped(dx, dy, rot):
    """The zero-tilt state (dx, dy, rot) seen with the other face fixed."""
    c, s = math.cos(math.radians(rot)), math.sin(math.radians(rot))
    return (-(c * dx + s * dy), -(s * dx - c * dy), rot)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0), st.floats(-60.0, 60.0))
def test_settle_height_is_the_same_from_either_face(dx, dy, rot):
    # the faces are genderless: at zero tilt the approach axes coincide, so
    # naming the other face the fixed one must not move the settle height
    here = settle_height(REFERENCE_PROFILE, (dx, dy, rot, 0.0, 0.0))
    there = settle_height(REFERENCE_PROFILE, (*_swapped(dx, dy, rot), 0.0, 0.0))
    assert here == there == math.inf or abs(here - there) <= 1e-12


# of 600 zero-tilt states drawn from random.seed(2), the 13 whose verdict
# depends on which face is fixed: 8 are captured only as drawn, 5 only swapped
_rng = random.Random(2)
_DRAWS = [(_rng.uniform(-18.0, 18.0), _rng.uniform(-18.0, 18.0), _rng.uniform(-45.0, 45.0))
          for _ in range(600)]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the descent's candidate moves are not closed under the face swap")
@pytest.mark.parametrize("draw", (64, 85, 106, 132, 309, 373, 407, 421, 510, 519, 554, 577, 588))
def test_verdict_is_the_same_from_either_face(draw):
    # the rotation moves turn the moving face about its own axis only; seen
    # from the other face that is a turn about an axis no candidate uses
    dx, dy, rot = _DRAWS[draw]
    here = mate_feasible(REFERENCE_PROFILE, Misalignment(dx, dy, rot))
    there = mate_feasible(REFERENCE_PROFILE, Misalignment(*_swapped(dx, dy, rot)))
    assert here == there
