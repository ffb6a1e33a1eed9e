"""Consumption model: exact endpoint values and load behaviour of
power.PowerRows and PicoPowerRows, the draws the engine computes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetnetsim.power import (
    MACRO_POWER,
    PICO_POWER,
    PicoPowerRows,
    PowerRows,
)
from oracles import EnbMode, consumed_power_w


def draw(params, mode, n_served=0):
    """One station's draw through PowerRows, or a pico's sleep draw
    through PicoPowerRows, as the engine computes it."""
    if mode is EnbMode.ACTIVE:
        rows = PowerRows.of([params])
        return float(rows.active_draw(np.array([[n_served]]))[0, 0])
    return float(PicoPowerRows.of([params]).sleep_draw()[0, 0])


@pytest.mark.parametrize(
    "params,mode,n,expected",
    [
        (MACRO_POWER, EnbMode.ACTIVE, 1000, 1350.0),
        (MACRO_POWER, EnbMode.ACTIVE, 0, 780.0),
        (MACRO_POWER, EnbMode.ACTIVE, 500, 1065.0),
        (PICO_POWER, EnbMode.ACTIVE, 0, 13.6),
        (PICO_POWER, EnbMode.ACTIVE, 50, 14.6),
        (PICO_POWER, EnbMode.ACTIVE, 25, 14.1),
        (PICO_POWER, EnbMode.SLEEP, 0, 8.6),
        (PICO_POWER, EnbMode.BOOT, 0, 8.6),
    ],
)
def test_endpoint_values_exact(params, mode, n, expected):
    assert draw(params, mode, n) == pytest.approx(expected, abs=1e-9)
    assert consumed_power_w(params, mode, n) == pytest.approx(expected, abs=1e-9)


def test_load_saturates_at_user_capacity():
    full = draw(PICO_POWER, EnbMode.ACTIVE, 50)
    assert draw(PICO_POWER, EnbMode.ACTIVE, 80) == full
    assert draw(MACRO_POWER, EnbMode.ACTIVE, 2500) == 1350.0


def test_negative_load_rejected():
    # the scalar reference refuses a negative load; the engine's counts
    # are bincounts and never negative
    with pytest.raises(ValueError):
        consumed_power_w(PICO_POWER, EnbMode.ACTIVE, -1)


def test_pico_slope_is_20mw_per_user():
    p0 = draw(PICO_POWER, EnbMode.ACTIVE, 0)
    p1 = draw(PICO_POWER, EnbMode.ACTIVE, 1)
    assert p1 - p0 == pytest.approx(0.02, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3000), st.integers(0, 3000))
def test_active_draw_monotone_in_load(n1, n2):
    lo, hi = sorted((n1, n2))
    assert draw(MACRO_POWER, EnbMode.ACTIVE, lo) <= \
        draw(MACRO_POWER, EnbMode.ACTIVE, hi) + 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100))
def test_sleep_never_beats_active(n):
    # only the pico sleeps; the macro has no sleep draw
    assert draw(PICO_POWER, EnbMode.SLEEP) < draw(PICO_POWER, EnbMode.ACTIVE, n)
