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


def binomial_tail(n: int, p: float, t: int) -> tuple[float, float]:
    """P(C >= t) and E[C 1{C >= t}] of C ~ Bin(n, p), each as its whole
    value less the terms below t, so t = 0 gives 1 and n p exactly."""
    pmf = [math.comb(n, c) * p**c * (1 - p) ** (n - c) for c in range(t)]
    return 1.0 - sum(pmf), n * p - sum(c * q for c, q in enumerate(pmf))


def assert_mean_matches(sample: np.ndarray, expected: float, label: str) -> None:
    se = sample.std(ddof=1) / math.sqrt(sample.size)
    if se == 0.0:
        assert sample.mean() == expected, label
    else:
        z = (sample.mean() - expected) / se
        assert abs(z) <= 4.0, f"{label}: z = {z:.2f}"


@pytest.mark.parametrize("topology", ["udc", "coe"])
def test_snapshot_counts_are_exactly_binomial(topology):
    """Uniform users dropped statically, picos inside the macro disc and
    disjoint: each pico's active count is Bin(n, a (r/R)^2), so a
    one-threshold snapshot at T wakes m P(C >= T) picos on average and
    they serve m E[C 1{C >= T}] users.  One grouped call, one row per T,
    1000 realizations."""
    realizations = 1000
    scenarios = [parse_scenario({
        "topology": topology, "seed": 7, "realizations": realizations,
        "policy": {"t_activate": t, "t_deactivate": None},
    }) for t in THRESHOLDS]
    results = run_scenarios(scenarios)
    s = scenarios[0]
    L, U = s.layout, s.users
    assert U.hotspot == 0
    p = U.activity_uniform * (L.pico_radius_m / L.macro_radius_m) ** 2
    for t, result in zip(THRESHOLDS, results):
        m = result.topology.cx.size
        assert m == L.n_picos
        awake, served = binomial_tail(U.total, p, t)
        metrics = result.slot_metrics
        assert_mean_matches(metrics.n_active_picos, m * awake, f"n_active_picos T={t}")
        assert_mean_matches(metrics.pico_active_users, m * served,
                            f"pico_active_users T={t}")
