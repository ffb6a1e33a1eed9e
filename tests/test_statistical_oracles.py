"""Statistical oracles: closed-form expectations that the engine's
averages must match.

Unlike tests/oracles.py, which re-implements the engine's algorithm one
element at a time, these derive what the model should give from its
definition alone, so a wrong density, probability or law fails them.
Each bound is 4 sample standard errors at a fixed seed; a row whose
sample does not vary must equal its expectation exactly.
"""

import math

import numpy as np
import pytest

from hetnetsim.config import parse_scenario
from hetnetsim.engine import run_scenarios

THRESHOLDS = (0, 1, 2, 3, 4, 5, 6, 8, 10)
# with 500 of the 1000 users in hotspots a pico's mean count is about 16
HOTSPOT_THRESHOLDS = (0, 5, 10, 14, 16, 18, 20, 24, 30)


def count_tail(n_u: int, p_u: float, n_h: int, p_h: float, t: int) -> tuple[float, float]:
    """P(C >= t) and E[C 1{C >= t}] of C = U + H, with U ~ Bin(n_u, p_u)
    and H ~ Bin(n_h, p_h) independent, each as its whole value less the
    terms below t, so t = 0 gives 1 and E[C] exactly."""
    def pmf(n, p):
        return [math.comb(n, c) * p**c * (1 - p) ** (n - c) for c in range(t)]
    u, h = pmf(n_u, p_u), pmf(n_h, p_h)
    below = [sum(u[k] * h[c - k] for k in range(c + 1)) for c in range(t)]
    mean = n_u * p_u + n_h * p_h
    return 1.0 - sum(below), mean - sum(c * q for c, q in enumerate(below))


def assert_mean_matches(sample: np.ndarray, expected: float, label: str) -> None:
    se = sample.std(ddof=1) / math.sqrt(sample.size)
    if se == 0.0:
        assert sample.mean() == expected, label
    else:
        z = (sample.mean() - expected) / se
        assert abs(z) <= 4.0, f"{label}: z = {z:.2f}"


@pytest.mark.parametrize("topology, hotspot, thresholds", [
    ("udc", 0, THRESHOLDS), ("coe", 0, THRESHOLDS),
    ("udc", 500, HOTSPOT_THRESHOLDS), ("coe", 500, HOTSPOT_THRESHOLDS),
], ids=["udc", "coe", "udc-hotspot", "coe-hotspot"])
def test_snapshot_counts_are_exactly_binomial(topology, hotspot, thresholds):
    """Uniform users dropped statically, picos inside the macro disc and
    disjoint: a pico holds Bin(n_u, a_u (r/R)^2) active uniform users, and
    hotspot users, each placed in a uniformly drawn home pico, add
    Bin(n_h, a_h / m).  So a one-threshold snapshot at T wakes m P(C >= T)
    picos on average and they serve m E[C 1{C >= T}] users.  One grouped
    call, one row per T, 1000 realizations."""
    realizations = 1000
    scenarios = [parse_scenario({
        "topology": topology, "seed": 7, "realizations": realizations,
        "users": {"hotspot": hotspot},
        "policy": {"t_activate": t, "t_deactivate": None},
    }) for t in thresholds]
    results = run_scenarios(scenarios)
    s = scenarios[0]
    L, U = s.layout, s.users
    p_u = U.activity_uniform * (L.pico_radius_m / L.macro_radius_m) ** 2
    p_h = U.activity_hotspot / L.n_picos
    for t, result in zip(thresholds, results):
        m = result.topology.cx.size
        assert m == L.n_picos
        awake, served = count_tail(U.total - U.hotspot, p_u, U.hotspot, p_h, t)
        metrics = result.slot_metrics
        assert_mean_matches(metrics.n_active_picos, m * awake, f"n_active_picos T={t}")
        assert_mean_matches(metrics.pico_active_users, m * served,
                            f"pico_active_users T={t}")
