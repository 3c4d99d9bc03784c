"""Float sums that decide a verdict or an artifact byte add left to right.

Since Python 3.12 the builtin `sum` of floats compensates its rounding
(Neumaier summation); up to 3.11 it adds left to right, so the same values
can sum to different bits, and a load verdict can flip. These tests swap in
a compensated `sum` and check that `src/` keeps the left-to-right bits.
"""
import builtins

import pytest

from docksim.bus import PowerBus
from docksim.loads import LoadEnvelope, Wrench, check_load

_left_to_right = builtins.sum


def _compensated_sum(iterable, /, start=0):
    """builtins.sum as Python 3.12 and later compute it for floats (Neumaier)."""
    values = list(iterable)
    if not values or not all(type(v) is float for v in values) or type(start) not in (int, float):
        return _left_to_right(values, start)
    total, carry = float(start), 0.0
    for v in values:
        t = total + v
        carry += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + carry


@pytest.fixture
def compensated_sum(monkeypatch):
    assert _compensated_sum([0.1] * 10) == 1.0  # the 3.12 bits
    monkeypatch.setattr(builtins, "sum", _compensated_sum)


def test_linear_load_verdict_sums_left_to_right(compensated_sum):
    # utilizations 2507.3/3000 + 437.5/3000 + 9.2/500 + 0.0: 1.0 when compensated
    report = check_load(Wrench(fz_n=2507.3, fx_n=437.5, mx_nm=9.2),
                        LoadEnvelope(interaction="linear"))
    assert report.combined == 1.0000000000000002
    assert report.ok is False


def test_bus_allocation_sums_left_to_right(compensated_sum):
    bus = PowerBus(48.0)
    for _ in range(10):
        assert bus.request_power(0.1) is not None
    assert bus.allocated_w == 0.9999999999999999
