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

from hetnetsim import kernels
from hetnetsim.config import parse_scenario
from hetnetsim.control import SLEEP
from hetnetsim.engine import SlotColumns, World, run_scenarios

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


def binomial_cdf(n: int, a: float, c: float) -> float:
    """P(C <= c) of C ~ Bin(n, a)."""
    return sum(math.comb(n, k) * a**k * (1 - a) ** (n - k) for k in range(min(math.floor(c), n) + 1))


def transition_chain(p: float, q: float, boot: int):
    """One pico's control as a Markov chain of B + 2 states, B = boot:
    0 is Sleep, 1 .. B the boot slots counted down, B + 1 Active.  Sleep
    wakes with probability p, Boot counts down whatever the count, Active
    sleeps with probability q.  Returns the chain's transitions (i, j),
    those with P[i, j] > 0, and the transition matrix of the chain of
    successive transitions, which is Markov too: (i, j) -> (j, l) with
    probability P[j, l]."""
    P = np.zeros((boot + 2, boot + 2))
    P[0, 0], P[0, 1] = 1 - p, p
    for i in range(1, boot + 1):
        P[i, i + 1] = 1.0
    P[-1, -1], P[-1, 0] = 1 - q, q
    edges = [(i, j) for i in range(boot + 2) for j in range(boot + 2) if P[i, j] > 0]
    Q = np.array([[P[j, l] if j == k else 0.0 for k, l in edges] for _, j in edges])
    return P, edges, Q


def additive_moments(Q: np.ndarray, start: np.ndarray, f: np.ndarray, T: int):
    """Mean and asymptotic variance of sum_{t=1}^T f(Y_t) for an
    irreducible chain Q whose Y_1 has law start.  With the stationary law
    pi, Pi = 1 pi and the fundamental matrix Z = (I - Q + Pi)^-1 (Kemeny
    & Snell): the mean is start ((I - (Q - Pi)^T) Z + (T - 1) Pi) f, exact
    at any T, and the variance T sum_i pi_i g_i (2 (Z g)_i - g_i) with g =
    f - pi f."""
    E = len(f)
    pi = np.linalg.solve((np.eye(E) - Q + 1.0).T, np.ones(E))
    Pi = np.tile(pi, (E, 1))
    Z = np.linalg.inv(np.eye(E) - Q + Pi)
    mean = start @ ((np.eye(E) - np.linalg.matrix_power(Q - Pi, T)) @ Z + (T - 1) * Pi) @ f
    g = f - pi @ f
    return float(mean), T * float(pi @ (g * (2 * Z @ g - g)))


def test_time_series_control_is_the_markov_chain_of_its_state_table():
    """Static uniform users (no speed, no hotspot users): pico j holds
    the same N_j users in every slot, each active with probability a, so
    its count is i.i.d. Bin(N_j, a) from slot to slot, and its control
    state is the Markov chain of transition_chain with p = P(C >=
    t_activate) and q = P(C <= t_sleep).  Picos hold disjoint users, so
    they are independent.  Each row's Active pico-slots (the sum of its
    n_active_picos column) and its wakes (Sleep left for Boot or Active)
    over 2,000 slots lie within 4 standard errors of the chain's; a pico
    whose users cannot reach t_activate never wakes.  One group of 12
    rows: wake at 3, 5 or 7, one threshold or sleep at 1, boot 0 or 3."""
    slots, a = 2000, 0.4
    rows = [(t, t_off, boot) for t in (3, 5, 7) for t_off in (None, 1) for boot in (0, 3)]
    scenarios = [parse_scenario({
        "topology": "udc", "seed": 1, "slots": slots, "boot_slots": boot,
        "layout": {"n_picos": 10, "pico_radius_m": 80.0},
        "users": {"total": 400, "hotspot": 0, "activity_uniform": a,
                  "speed_min": 0.0, "speed_max": 0.0},
        "policy": {"t_activate": t, "t_deactivate": t_off},
    }) for t, t_off, boot in rows]
    w = World(scenarios)
    w.drop(0)
    start_x = w.pop.px.copy()
    containing = kernels.containing_disc(w.pop.px, w.pop.py, w.discs)
    users_in = np.bincount(containing[containing >= 0], minlength=w.topo.cx.size).tolist()
    out = SlotColumns.empty(len(scenarios), slots)
    before = w.state
    wakes = np.zeros(w.state.shape, dtype=np.int64)
    for slot in range(slots):
        w.run_block(range(slot, slot + 1), out)
        wakes += (before == SLEEP) & (w.state != SLEEP)
        before = w.state
    assert (w.pop.px == start_x).all()  # the users never moved
    active_slots = out.n_active_picos.sum(axis=1)

    for k, s in enumerate(scenarios):
        want = np.zeros((2, 2))  # (mean, variance) of Active slots, then wakes
        for pico, n in enumerate(users_in):
            p = 1.0 - binomial_cdf(n, a, math.ceil(s.policy.t_activate) - 1)
            if p == 0.0:
                assert wakes[k, 0, pico] == 0, (k, pico)
                continue
            P, edges, Q = transition_chain(p, binomial_cdf(n, a, s.policy.t_sleep),
                                           s.boot_slots)
            first = np.array([P[0, j] if i == 0 else 0.0 for i, j in edges])
            awake = np.array([float(j == s.boot_slots + 1) for _, j in edges])
            woken = np.array([float(i == 0 and j != 0) for i, j in edges])
            want += [additive_moments(Q, first, f, slots) for f in (awake, woken)]
        for label, got, (mean, var) in zip(("Active pico-slots", "wakes"),
                                           (active_slots[k], wakes[k].sum()), want):
            z = (got - mean) / math.sqrt(var)
            assert abs(z) <= 4.0, f"{label} of row {rows[k]}: {got} vs {mean:.1f}, z = {z:.2f}"


BOLTZMANN = 1.380649e-23  # J/K


def test_macro_link_capacity_is_the_readme_link_budget_by_quadrature():
    """README, Model notes, Channel: a macro-served user at distance d from
    the macro centre, clamped below at min_distance_m, has path loss
    140.7 + 36.7 log10(d_km) dB, SNR_dB = EIRP_macro - PL + sigma_macro Z
    - N with Z standard normal and N = 10 log10(k T W 1000) dBm over its
    share W = bandwidth_hz / users.total, and capacity W log2(1 + SNR).
    In a monet snapshot whose every user is active, all n users are
    macro-served and uniform in the disc (density 2d/R^2), so a
    realization's capacity has mean n E[W log2(1 + SNR)]: Gauss-Hermite
    over Z, Gauss-Legendre over d in [d_min, R], plus the clamped mass
    (d_min/R)^2 at d_min.  This makes the README's path-loss assignment
    (ROADMAP item 3) a tested statement."""
    n, realizations = 1000, 200
    s = parse_scenario({"topology": "monet", "seed": 5, "realizations": realizations,
                        "users": {"total": n, "activity_uniform": 1.0}})
    (result,) = run_scenarios([s])
    m = result.slot_metrics
    assert (m.macro_active_users == n).all() and (m.pico_active_users == 0).all()

    C, R = s.channel, s.layout.macro_radius_m
    w = C.bandwidth_hz / n
    noise_dbm = 10.0 * math.log10(BOLTZMANN * C.temperature_k * w * 1000.0)
    eirp_dbm = C.macro_tx_dbm + C.macro_antenna_gain_dbi + C.ue_antenna_gain_dbi
    z, z_weights = np.polynomial.hermite_e.hermegauss(40)
    z_weights /= math.sqrt(2.0 * math.pi)  # E over a standard normal
    x, x_weights = np.polynomial.legendre.leggauss(100)
    d_min = C.min_distance_m
    d = d_min + (R - d_min) * (x + 1.0) / 2.0
    d_weights = x_weights * (R - d_min) / 2.0 * 2.0 * d / R**2
    d, d_weights = np.append(d, d_min), np.append(d_weights, (d_min / R) ** 2)
    assert d_weights.sum() == pytest.approx(1.0, abs=1e-12)
    path_loss_db = 140.7 + 36.7 * np.log10(d / 1000.0)
    snr_db = eirp_dbm - path_loss_db[:, None] + C.macro_shadow_sigma_db * z - noise_dbm
    expected = n * d_weights @ (w * np.log2(1.0 + 10.0 ** (snr_db / 10.0))) @ z_weights

    se = m.capacity_bps.std(ddof=1) / math.sqrt(realizations)
    z_score = (result.capacity_mean - expected) / se
    assert abs(z_score) <= 4.0, \
        f"capacity_mean {result.capacity_mean} vs {expected}, z = {z_score:.2f}"
