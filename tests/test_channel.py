"""Link budget arithmetic against independently derived values.

The frozen constants below were computed with plain dB arithmetic
(log-domain, no shared code with the module under test).  They pin the
program's noise floor, the capacity of
kernels.link_capacity at two reference links, and the scalar link-budget
oracle in tests/oracles.py, which the kernel tests compare against.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetnetsim import kernels
from hetnetsim.config import ChannelParams
from hetnetsim.engine import noise_power_dbm
from oracles import (
    NonPositiveDistance,
    evaluate_link,
    path_loss_db,
    sample_shadow_db,
    shannon_capacity_bps,
)

NOISE_20KHZ_DBM = -130.9648872375883  # at 290 K
PL_MACRO_250M = 118.60439831826376
PL_PICO_25M = 67.86254432606862
CAP_MACRO_250M = 480752.6838773229
CAP_PICO_25M = 651777.8581885692

# the tier flag of the link-budget oracles
MACRO, PICO = False, True


class TestPathLoss:
    def test_macro_at_250m(self):
        assert path_loss_db(MACRO, 250.0) == pytest.approx(PL_MACRO_250M, abs=1e-9)

    def test_macro_at_1km_is_the_bare_intercept(self):
        assert path_loss_db(MACRO, 1000.0) == pytest.approx(140.7, abs=1e-12)

    def test_pico_at_25m(self):
        assert path_loss_db(PICO, 25.0) == pytest.approx(PL_PICO_25M, abs=1e-9)

    def test_sub_metre_distances_clamp_to_one_metre(self):
        assert path_loss_db(MACRO, 0.37) == path_loss_db(MACRO, 1.0)

    @pytest.mark.parametrize("d", [0.0, -3.0])
    def test_nonpositive_distance_rejected(self, d):
        with pytest.raises(NonPositiveDistance):
            path_loss_db(PICO, d)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1.0, 5000.0), st.floats(1.0, 5000.0))
    def test_monotone_in_distance(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert path_loss_db(MACRO, lo) <= path_loss_db(MACRO, hi) + 1e-12


def test_noise_floor_at_20khz():
    assert noise_power_dbm(20e3, 290.0) == pytest.approx(NOISE_20KHZ_DBM, abs=1e-9)


def test_noise_scales_10db_per_decade():
    assert (noise_power_dbm(2e6, 290.0) - noise_power_dbm(2e5, 290.0)
            == pytest.approx(10.0, abs=1e-9))


def test_shannon_zero_snr_is_zero_rate():
    assert shannon_capacity_bps(20e3, 0.0) == 0.0


def test_shannon_linear_in_bandwidth():
    assert shannon_capacity_bps(4e4, 100.0) == pytest.approx(
        2 * shannon_capacity_bps(2e4, 100.0), rel=1e-12)


class TestEvaluateLink:
    def test_macro_reference_link(self):
        lb = evaluate_link(MACRO, 250.0, 20e3)
        assert lb.path_loss_db == pytest.approx(PL_MACRO_250M, abs=1e-9)
        assert lb.rx_power_dbm == pytest.approx(60.0 - PL_MACRO_250M, abs=1e-9)
        assert lb.snr_db == pytest.approx(lb.rx_power_dbm - NOISE_20KHZ_DBM, abs=1e-9)
        assert lb.capacity_bps == pytest.approx(CAP_MACRO_250M, rel=1e-12)

    def test_pico_reference_link(self):
        lb = evaluate_link(PICO, 25.0, 20e3)
        assert lb.rx_power_dbm == pytest.approx(35.0 - PL_PICO_25M, abs=1e-9)
        assert lb.capacity_bps == pytest.approx(CAP_PICO_25M, rel=1e-12)

    def test_shadow_term_shifts_rx_one_for_one(self):
        base = evaluate_link(PICO, 40.0, 20e3)
        up = evaluate_link(PICO, 40.0, 20e3, shadow_db=6.0)
        assert up.rx_power_dbm - base.rx_power_dbm == pytest.approx(6.0, abs=1e-12)

    def test_kernel_gives_the_reference_capacities(self):
        def cap(dist, pico_link):
            return kernels.link_capacity(np.array([dist]), np.zeros(1), pico_link,
                                         20e3, 60.0, 35.0, noise_power_dbm(20e3, 290.0), 1.0)
        np.testing.assert_allclose(cap(250.0, False), [CAP_MACRO_250M], rtol=1e-12)
        np.testing.assert_allclose(cap(25.0, True), [CAP_PICO_25M], rtol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1.0, 2000.0), st.floats(1.0, 2000.0))
    def test_capacity_decays_with_distance(self, d1, d2):
        lo, hi = sorted((d1, d2))
        c_lo = evaluate_link(MACRO, lo, 20e3).capacity_bps
        c_hi = evaluate_link(MACRO, hi, 20e3).capacity_bps
        assert c_lo >= c_hi - 1e-9


def test_shadow_samples_follow_the_configured_sigma():
    rng = np.random.default_rng(0)
    params = ChannelParams()
    z_macro = np.array([sample_shadow_db(MACRO, rng, params) for _ in range(4000)])
    z_pico = np.array([sample_shadow_db(PICO, rng, params) for _ in range(4000)])
    assert abs(z_macro.mean()) < 0.5
    assert z_macro.std() == pytest.approx(8.0, rel=0.06)
    assert z_pico.std() == pytest.approx(10.0, rel=0.06)
