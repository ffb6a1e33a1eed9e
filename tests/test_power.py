"""Consumption model: exact endpoint values and load behaviour of the
draws engine.Response computes from config.PowerParams and PicoPowerParams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetnetsim.config import MACRO_POWER, PICO_POWER, parse_scenario
from hetnetsim.engine import Response
from oracles import EnbMode, PicoControlState, consumed_power_w, engine_state

# one row with the default power models, MACRO_POWER and PICO_POWER
RESPONSE = Response([parse_scenario({"topology": "udc"})])


def draw(params, mode, n_served=0):
    """One station's draw as engine.Response computes it: the macro's, or
    that of the one pico of a row."""
    if params is MACRO_POWER:
        return float(RESPONSE.macro_power(np.array([[n_served]]))[0, 0])
    state = engine_state(PicoControlState(mode, int(mode is EnbMode.BOOT)))
    return float(RESPONSE.pico_power(np.array([[[state]]]), np.array([[n_served]]))[0, 0])


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
