"""Slot loop semantics: serving, accounting, determinism, histograms,
and grouped runs that share one user process."""

import dataclasses
import itertools
import tempfile
import tracemalloc
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hetnetsim import engine, kernels
from hetnetsim.config import parse_scenario
from hetnetsim.control import ACTIVE, SLEEP
from hetnetsim.engine import (
    HIST_BINS,
    Response,
    RunResult,
    SlotColumns,
    TraceSinks,
    World,
    build_geometry,
    compute_ee,
    hist_counts,
    run_scenario,
    run_scenarios,
    write_histogram_csv,
    write_pico_trace_csv,
    write_pico_view_csv,
    write_slot_csv,
    write_user_trace_csv,
    write_users_csv,
)
from oracles import (
    EnbMode,
    PicoControlState,
    consumed_power_w,
    oracle_state,
    rate_histogram,
    step_state,
)


def scenario(**kw):
    doc = {"topology": "udc", "seed": 11}
    doc.update(kw)
    return parse_scenario(doc)


def slot_counts(w, active, containing):
    """Each pico's active users, as the slot's control step saw them."""
    covered = active & (containing >= 0)
    return np.bincount(containing[covered], minlength=w.state.shape[-1])


def macro_power(n_served):
    return 3 * (260.0 + 4.75 * 40.0 * min(n_served, 1000) / 1000)


@dataclasses.dataclass
class Trace:
    """One scenario's traces, gathered from its sinks into whole-run
    arrays indexed by row (entry r * S + t of the slot columns): (rows, n)
    x, y and serving, (rows, m) states; a user is active where its serving
    code is not -2."""

    x: np.ndarray
    y: np.ndarray
    serving: np.ndarray
    states: np.ndarray

    @property
    def active(self) -> np.ndarray:
        return self.serving != -2


def collecting_sinks(users: list, picos: list) -> TraceSinks:
    """Sinks that copy every block, with its sequence of rows, one row per
    line of its columns, into users and picos."""
    def take_users(topology, rows, *columns):
        assert len(rows) == columns[0].shape[0]
        users.append((rows, [c.copy() for c in columns]))

    def take_picos(rows, states):
        assert len(rows) == states.shape[0]
        picos.append((rows, states.copy()))

    return TraceSinks(users=take_users, picos=take_picos)


def in_row_order(ranges, batches):
    """The batches, stacked and put in row order, checking that their
    row sequences give every row of the run exactly once."""
    rows = np.concatenate([np.array(r) for r in ranges])
    order = np.argsort(rows)
    np.testing.assert_array_equal(rows[order], np.arange(rows.size))
    return np.concatenate(batches)[order]


def run_traced(scenarios, per_user=False):
    """run_scenarios with every scenario traced into memory; returns the
    results and one Trace per scenario."""
    batches = [([], []) for _ in scenarios]
    results = run_scenarios(scenarios, per_user, [collecting_sinks(*b) for b in batches])
    traces = []
    for users, picos in batches:
        ranges, columns = zip(*users)
        traces.append(Trace(*(in_row_order(ranges, c) for c in zip(*columns)),
                            in_row_order(*zip(*picos))))
    return results, traces


def test_compute_ee_reference_value():
    ee = compute_ee(np.array([4.5977e8]), np.array([1350.0]))
    assert ee[0] == pytest.approx(340570.3703703704, rel=1e-12)


def test_compute_ee_is_zero_where_power_is_not_positive():
    """One rule for the slot columns and the pico view: 0 b/J without
    power, as the CSVs write it."""
    np.testing.assert_array_equal(
        compute_ee(np.array([1e6, 3e6, 0.0, 5.0]), np.array([0.0, 2.0, 0.0, -1.0])),
        [0.0, 1.5e6, 0.0, 0.0])


def test_single_active_pico_power_decomposition():
    """With exactly one pico awake, the slot power must split into the
    macro's load-dependent draw, that pico's draw, and 27 sleepers.  The
    thresholds keep the hand-set modes through the slot's control step,
    and every user is active."""
    w = World([scenario(users={"total": 1000, "activity_uniform": 1.0},
                        policy={"t_activate": float("inf"),
                                "t_deactivate": float("-inf")})])
    w.drop(0)
    w.state[0, 0, 0] = ACTIVE
    out = SlotColumns.empty(1, 1)
    active, containing, _, _ = w.run_block(range(1), out)
    m = out.row(0)
    assert active.all()
    n0 = int((containing == 0).sum())
    assert n0 > 0  # layout seed gives the first pico some users
    expected = macro_power(1000 - n0) + (13.6 + 0.02 * min(n0, 50)) + 27 * 8.6
    assert m.power_w.shape == (1,)
    assert m.power_w[0] == pytest.approx(expected, abs=1e-9)
    assert m.n_active_picos[0] == 1
    assert m.pico_active_users[0] == n0
    assert m.macro_active_users[0] == 1000 - n0


@pytest.mark.parametrize("boot_slots", [0, 1, 3])
def test_engine_mode_trail_follows_the_state_table(boot_slots):
    """Replaying each pico's per-slot counts through the state-table
    oracle gives back the state trail, boot countdowns included, that the
    engine produced for it."""
    s = scenario(
        slots=90, boot_slots=boot_slots,
        layout={"n_picos": 8},
        users={"total": 240, "hotspot": 180},
        work={"start_slots": [0, 10], "duration": 45},
        policy={"t_activate": 12, "t_deactivate": 8},
    )
    w = World([s])
    w.drop(0)
    out = SlotColumns.empty(1, s.slots)
    counts, states = [], []
    for slot in range(s.slots):
        active, containing, _, _ = w.run_block(range(slot, slot + 1), out)
        counts.append(slot_counts(w, active, containing))
        states.append(w.state[0, 0].copy())
    states = np.array(states)
    assert {SLEEP, ACTIVE} <= set(states.ravel())
    assert (states > 0).any() == (boot_slots > 0)
    for j in range(states.shape[1]):
        state = PicoControlState()
        for t in range(s.slots):
            state = step_state(state, int(counts[t][j]), s.policy, boot_slots)
            assert state == oracle_state(int(states[t, j])), (j, t)


@pytest.mark.parametrize("p_active", [0.1, 0.9])
def test_bandwidth_is_split_over_all_configured_users(p_active):
    """Each user's share is bandwidth / users.total, however many of them
    are active in the slot."""
    s = scenario(users={"total": 400, "activity_uniform": p_active},
                 channel={"bandwidth_hz": 1e7})
    w = World([s])
    w.drop(0)
    active, *_ = w.run_block(range(1), SlotColumns.empty(1, 1))
    assert abs(int(active.sum()) - 400 * p_active) < 60
    assert w.w_user == 1e7 / 400


def power_params(sleeps):
    """A power document for power.macro (sleeps False) or power.pico."""
    doc = st.fixed_dictionaries({
        "sectors": st.integers(1, 6),
        "p_max_w": st.floats(0.01, 100.0),
        "p0_w": st.floats(0.0, 500.0),
        "delta_p": st.floats(0.0, 10.0),
        "user_capacity": st.integers(1, 2000),
    })
    if sleeps:
        doc = st.builds(lambda d, p: {**d, "p_sleep_w": p}, doc, st.floats(0.0, 100.0))
    return doc


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.fixed_dictionaries({
           "topology": st.sampled_from(["udc", "monet_udc_users"]),
           "power": st.fixed_dictionaries({"macro": power_params(False),
                                           "pico": power_params(True)}),
       }), min_size=1, max_size=5),
       data=st.data())
def test_pico_power_is_the_per_pico_loop_added_in_order(rows, data):
    """Each row's vectorized pico draw in each of B drops equals
    consumed_power_w summed pico by pico, bit for bit (the output bytes
    depend on the addition order), and is 0.0 in a row whose layout does
    not serve; each row's macro draw equals consumed_power_w of its own
    parameters."""
    scenarios = [parse_scenario(doc) for doc in rows]
    response = Response(scenarios)
    K, B, m = len(scenarios), data.draw(st.integers(1, 3)), data.draw(st.integers(1, 30))
    state = data.draw(hnp.arrays(np.int64, (K, B, m), elements=st.integers(-1, 3)))
    counts = data.draw(hnp.arrays(np.int64, (B, m), elements=st.integers(0, 2500)))
    n_macro = data.draw(hnp.arrays(np.int64, (K, B), elements=st.integers(0, 3000)))
    pico = response.pico_power(state, counts)
    macro = response.macro_power(n_macro)
    assert pico.shape == macro.shape == (K, B)
    for k, s in enumerate(scenarios):
        for b in range(B):
            want = 0.0
            for state_j, c in zip(state[k, b].tolist(), counts[b]):
                mode_j = oracle_state(state_j).mode
                served = int(c) if mode_j is EnbMode.ACTIVE else 0
                want += consumed_power_w(s.power.pico, mode_j, served)
            assert pico[k, b] == (want if s.serves_from_picos() else 0.0)
            assert macro[k, b] == consumed_power_w(s.power.macro, EnbMode.ACTIVE,
                                                   int(n_macro[k, b]))


def test_snapshot_ensemble_indexes_rows_by_realization():
    r = run_scenario(scenario(realizations=5, users={"total": 200}))
    assert r.slot_metrics.ee_bits_per_joule.shape == (5,)
    assert r.ee_std > 0.0
    assert r.ee_mean == pytest.approx(
        np.mean(r.slot_metrics.ee_bits_per_joule.tolist()), rel=1e-12)


def test_single_realization_has_zero_spread():
    r = run_scenario(scenario(users={"total": 100}))
    assert r.ee_std == 0.0


def test_timeseries_covers_every_slot():
    r = run_scenario(scenario(slots=7, users={"total": 80, "hotspot": 20}))
    m = r.slot_metrics
    assert all(getattr(m, f.name).shape == (7,)
               for f in dataclasses.fields(m) if f.name != "pico_capacity_bps")
    assert m.pico_capacity_bps is None  # built only with per_user


@pytest.mark.parametrize("writer, needs", [
    (write_users_csv, "per_user"),
    (write_histogram_csv, "per_user"),
    (write_pico_view_csv, "per_user"),
])
def test_writers_need_their_output(tmp_path, writer, needs):
    """A writer of a run made without per_user raises ValueError and
    writes nothing."""
    result = run_scenario(scenario(slots=3, users={"total": 20}), per_user=False)
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=f"without {needs}"):
        writer(result, path)
    assert not path.exists()


@pytest.mark.parametrize("output", ["user_trace", "pico_trace"])
def test_traces_leave_a_run_only_through_its_sinks(output):
    """No result holds a trace; in a group, only the scenarios given
    sinks are traced, one call per block of entries (here all 3 in one),
    and a list of sinks must match the scenarios one to one."""
    assert output not in {f.name for f in dataclasses.fields(RunResult)}
    s = scenario(slots=3, users={"total": 20})
    calls = []
    sink = TraceSinks(users=lambda topology, rows, *_: calls.append(("users", list(rows))),
                      picos=lambda rows, _: calls.append(("picos", list(rows))))
    twin = dataclasses.replace(s, boot_slots=0)
    run_scenarios([s, twin], traces=[None, sink])
    assert calls == [("users", [0, 1, 2]), ("picos", [0, 1, 2])]
    with pytest.raises(ValueError, match="1 traces for 2 scenarios"):
        run_scenarios([s, twin], traces=[sink])


def test_slot_metrics_are_internally_consistent():
    r = run_scenario(scenario(slots=40, users={"total": 300, "hotspot": 120}), per_user=True)
    m = r.slot_metrics
    on = m.capacity_bps > 0
    np.testing.assert_allclose(m.ee_bits_per_joule[on],
                               m.capacity_bps[on] / m.power_w[on], rtol=1e-12)
    assert (0.0 <= m.pico_capacity_bps).all()
    assert (m.pico_capacity_bps <= m.capacity_bps + 1e-9).all()
    assert ((0.0 < m.pico_power_w) & (m.pico_power_w <= m.power_w)).all()
    assert (m.n_active_picos <= 28).all()


def test_idle_network_burns_idle_power_only():
    r = run_scenario(scenario(
        slots=5,
        users={"total": 200, "activity_uniform": 0.0, "activity_hotspot": 0.0},
    ))
    m = r.slot_metrics
    assert (m.capacity_bps == 0.0).all()
    assert (m.ee_bits_per_joule == 0.0).all()
    assert (m.macro_active_users == 0).all() and (m.pico_active_users == 0).all()
    # idle macro plus 28 sleeping picos
    np.testing.assert_allclose(m.power_w, 780.0 + 28 * 8.6, rtol=0, atol=1e-9)


def test_static_hotspot_snapshot_serves_workers_from_their_picos():
    r = run_scenario(scenario(
        users={"total": 100, "hotspot": 60,
               "activity_uniform": 0.0, "activity_hotspot": 1.0},
        policy={"t_activate": 1, "t_deactivate": None},
    ))
    m = r.slot_metrics
    assert m.pico_active_users.tolist() == [60]
    assert m.macro_active_users.tolist() == [0]


def test_snapshot_results_do_not_depend_on_boot_slots():
    """A snapshot is one control step from all-Sleep with no boot, so its
    rows give the same slot columns and pico modes at any boot_slots,
    in one group or run alone."""
    docs = [dict(realizations=6, boot_slots=b,
                 users={"total": 300, "hotspot": 150},
                 policy={"t_activate": 3, "t_deactivate": None}) for b in (0, 3)]
    scenarios = [scenario(**d) for d in docs]
    grouped, traces = run_traced(scenarios, per_user=True)
    for s in scenarios:
        results, trace = run_traced([s], per_user=True)
        grouped += results
        traces += trace
    assert grouped[0].slot_metrics.n_active_picos.min() > 0
    for r, trace in zip(grouped, traces):
        assert_same_columns(r.slot_metrics, grouped[0].slot_metrics)
        np.testing.assert_array_equal(trace.states, traces[0].states)
        assert (trace.states <= ACTIVE).all()  # no pico boots


def test_engine_reruns_bit_identically():
    s = scenario(slots=30, users={"total": 150, "hotspot": 50})
    a = run_scenario(s, per_user=True)
    b = run_scenario(s, per_user=True)
    assert_same_columns(a.slot_metrics, b.slot_metrics)
    np.testing.assert_array_equal(a.mean_rate_bps, b.mean_rate_bps)
    np.testing.assert_array_equal(a.hist_counts, b.hist_counts)


@pytest.fixture(scope="module")
def traced():
    """A traced time series: its result and its Trace."""
    s = parse_scenario({
        "topology": "udc", "seed": 3, "slots": 60,
        "users": {"total": 250, "hotspot": 100},
        "policy": {"t_activate": 3, "t_deactivate": 1},
    })
    (result,), (trace,) = run_traced([s])
    return result, trace


class TestServingInvariants:
    def test_active_users_are_partitioned_between_tiers(self, traced):
        result, trace = traced
        m = result.slot_metrics
        for slot in range(trace.x.shape[0]):
            serving = trace.serving[slot][trace.active[slot]]
            assert (serving == -1).sum() == m.macro_active_users[slot]
            assert (serving != -1).sum() == m.pico_active_users[slot]

    def test_only_awake_picos_serve(self, traced):
        _, trace = traced
        slot, user = np.nonzero(trace.active & (trace.serving >= 0))
        assert (trace.states[slot, trace.serving[slot, user]] == ACTIVE).all()

    def test_boot_appears_in_the_mode_trace(self, traced):
        states = traced[1].states
        assert (states > 0).any() and (states == ACTIVE).any() and (states == SLEEP).any()

    @pytest.mark.parametrize("shape", [{"slots": 40}, {"realizations": 5}])
    def test_run_slot_serves_no_idle_user_and_only_from_active_discs(self, shape):
        """Checked on the outputs of World.run_block (the one slot path),
        since a trace's activity follows from its serving code: in every
        row, slot and drop of a block, here 34 slots of the time series at
        once, no idle user is pico-served, and a pico-served user lies
        strictly inside the disc of a pico that is Active in that row, slot
        and drop."""
        scenarios = [scenario(**shape, boot_slots=1,
                              layout={"n_picos": 8, "pico_radius_m": 100.0},
                              users={"total": 120, "hotspot": 60, "activity_uniform": 0.5},
                              policy={"t_activate": t, "t_deactivate": None})
                     for t in (1.0, 4.0)]
        w = World(scenarios)
        K, R, S, n = len(scenarios), w.s.realizations, w.s.slots, w.s.users.total
        assert w.block == min(S, engine.BLOCK_ROW_USERS // (K * w.batch * n))
        cx, cy, r = w.topo.cx, w.topo.cy, w.topo.pico_radius
        out = SlotColumns.empty(K, R * S)
        n_served = 0
        for r0 in range(0, R, w.batch):
            w.drop(r0)
            B = w.state.shape[1]
            for t0 in range(0, S, w.block):
                L = min(w.block, S - t0)
                active, _, served, _ = w.run_block(range(t0, t0 + L), out)
                assert not (served & ~active).any()
                dx, dy = w.x[:L].reshape(-1, 1) - cx, w.y[:L].reshape(-1, 1) - cy
                inside = dx * dx + dy * dy < r * r
                awake = (w.states[:L] == ACTIVE).swapaxes(0, 1).reshape(K, L * B, -1)
                assert (inside & np.repeat(awake, n, axis=1)).any(axis=2)[served].all()
                n_served += int(served.sum())
        assert n_served > 0


def reference_csv(header, rows) -> bytes:
    """Rows written one value at a time: repr for floats, str otherwise."""
    lines = [header, *rows]
    return "".join(
        ",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in lines
    ).encode()


# floats whose shortest repr takes each of its forms: signed zero,
# exponent notation at both ends, subnormal, and integral values; and
# reprs longer than the fast path's 18 characters, up to 24
LONG_REPRS = [1.2345678901234567e-05, -1.2345678901234567e-300, 5e-324, 1e16, -0.0]
COORDINATES = st.sampled_from([-0.0, 0.0, 1e-05, 5e-324, 1e16, 3.0, 1000.0, *LONG_REPRS]) | \
    st.floats(-2000.0, 2000.0) | st.floats(allow_nan=False, allow_infinity=False)


def write_traces(tmp, topology, trace, splits):
    """Feed the two trace writers trace's rows in the batches that the
    row indices splits start, as a run's sinks would; returns the bytes
    of both files."""
    paths = (Path(tmp) / "user_trace.csv", Path(tmp) / "pico_trace.csv")
    bounds = [0, *splits, trace.x.shape[0]]
    for a, b in zip(bounds, bounds[1:]):
        rows = list(range(a, b))
        write_user_trace_csv(paths[0], topology, rows, trace.x[a:b], trace.y[a:b],
                             trace.serving[a:b])
        write_pico_trace_csv(paths[1], rows, trace.states[a:b])
    return tuple(path.read_bytes() for path in paths)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), slots=st.integers(1, 12), n=st.integers(0, 12),
       pico_less=st.booleans())
def test_trace_writers_match_a_row_by_row_reference(data, slots, n, pico_less):
    """The per-slot chunked writers, fed the rows in any split of batches,
    give the bytes of formatting every trace row value by value, for any
    coordinates and every serving and mode code (active exactly where the
    serving code is not -2), with one- and two-digit slot, user and pico
    ids, and with no picos at all; a pico's state is Sleep, Active or 1 to
    3 boot slots left."""
    topology = build_geometry(scenario(topology="monet" if pico_less else "udc"))
    m = topology.cx.size
    trace = Trace(
        x=data.draw(hnp.arrays(np.float64, (slots, n), elements=COORDINATES)),
        y=data.draw(hnp.arrays(np.float64, (slots, n), elements=COORDINATES)),
        serving=data.draw(hnp.arrays(np.int64, (slots, n),
                                     elements=st.integers(-2, m - 1))),
        states=data.draw(hnp.arrays(np.int64, (slots, m), elements=st.integers(-1, 3))),
    )
    splits = sorted(data.draw(st.sets(st.integers(1, slots - 1))) if slots > 1 else ())

    def label(code):
        return {-2: "none", -1: "macro"}.get(code, f"pico:{code}")

    users = [
        (t, i, float(trace.x[t, i]), float(trace.y[t, i]), int(trace.active[t, i]),
         label(int(trace.serving[t, i])))
        for t in range(slots) for i in range(n)
    ]
    picos = [(t, j, oracle_state(int(trace.states[t, j])).mode.value)
             for t in range(slots) for j in range(m)]
    with tempfile.TemporaryDirectory() as tmp:
        assert write_traces(tmp, topology, trace, splits) == (
            reference_csv(["slot", "user_id", "x", "y", "active", "serving_cell"], users),
            reference_csv(["slot", "pico_id", "mode"], picos))


@pytest.mark.parametrize("slots, n", [(600, 1), (150, 7), (3, 1500)])
def test_user_trace_writer_matches_repr_line_by_line(tmp_path, slots, n):
    """The user-trace writer formats its coordinates by kernels.float_text,
    a call per FORMAT_LINES lines: many rows a call at n = 1 and 7, two at
    n = 1500; either way each line holds repr of its x and y.  The
    coordinates mix values repr writes in exponent form, 0, powers of two
    and the edges of the fast path's [1, 1e14) among random positions and
    magnitudes."""
    rng = np.random.default_rng(n)
    special = [0.0, -0.0, 1e-05, 0.5, 1.0, 1e14, np.nextafter(1e14, 0.0),
               *(2.0 ** np.arange(-3, 50, 4))]

    def coordinates():
        values = np.where(rng.random((slots, n)) < 0.5, rng.uniform(0.0, 1000.0, (slots, n)),
                          10.0 ** rng.uniform(-6.0, 17.0, (slots, n)))
        values.flat[rng.integers(0, values.size, len(special))] = special
        return values

    x, y = coordinates(), coordinates()
    serving = rng.integers(-2, 28, (slots, n))
    topology = build_geometry(scenario())
    write_user_trace_csv(tmp_path / "user_trace.csv", topology, list(range(slots)), x, y,
                         serving)
    label = {-2: "0,none", -1: "1,macro"}
    lines = [(t, i, float(x[t, i]), float(y[t, i]),
              label.get(int(serving[t, i]), f"1,pico:{serving[t, i]}"))
             for t in range(slots) for i in range(n)]
    assert (tmp_path / "user_trace.csv").read_bytes() == reference_csv(
        ["slot", "user_id", "x", "y", "active,serving_cell"], lines)


@pytest.mark.parametrize("first", [5, 95, 999_995])
def test_trace_writers_cross_digit_widths_in_one_block(tmp_path, first):
    """One block of ten trace rows from first, so its row numbers cross
    9 -> 10, 99 -> 100 or 999,999 -> 1,000,000 within one line assembly
    (three rows a call here); 1003 users, so user ids cross
    10, 100 and 1000, served by picos of ids 0 to 27.  A block that does
    not start at row 0 is appended without a header."""
    rng = np.random.default_rng(first)
    topology = build_geometry(scenario())
    slots, n, m = 10, 1003, topology.cx.size
    x = rng.uniform(0.0, 1000.0, (slots, n))
    y = np.where(rng.random((slots, n)) < 0.1, rng.choice(LONG_REPRS, (slots, n)),
                 rng.uniform(0.0, 1000.0, (slots, n)))
    serving = rng.integers(-2, m, (slots, n))
    states = rng.integers(-1, 4, (slots, m))
    rows = range(first, first + slots)
    write_user_trace_csv(tmp_path / "user_trace.csv", topology, rows, x, y, serving)
    write_pico_trace_csv(tmp_path / "pico_trace.csv", rows, states)
    label = {-2: "0,none", -1: "1,macro"}
    users = [(r, i, float(x[t, i]), float(y[t, i]),
              label.get(int(serving[t, i]), f"1,pico:{serving[t, i]}"))
             for t, r in enumerate(rows) for i in range(n)]
    picos = [(r, j, oracle_state(int(states[t, j])).mode.value)
             for t, r in enumerate(rows) for j in range(m)]
    for name, header, lines in (("user_trace.csv", ["slot", "user_id", "x", "y",
                                                    "active,serving_cell"], users),
                                ("pico_trace.csv", ["slot", "pico_id", "mode"], picos)):
        expected = reference_csv(header, lines).split(b"\n", 1)[1]
        assert (tmp_path / name).read_bytes() == expected, name


def test_users_csv_crosses_digit_widths_and_keeps_signed_zeros(traced, tmp_path):
    """users.csv of more users than two line assemblies take, so ids
    cross 10, 100 and 1000 and the assemblies' bounds: rates among them
    whose repr is longer than 18 characters, and fracs among a few
    distinct values, -0.0 written apart from 0.0."""
    rng = np.random.default_rng(7)
    n = 2 * engine.FORMAT_LINES + 3
    rates = np.where(rng.random(n) < 0.1, rng.choice(LONG_REPRS, n),
                     rng.lognormal(16.0, 2.0, n))
    frac = rng.choice([0.0, -0.0, 0.05, 0.5, 1.0, 1 / 3], n)
    result = dataclasses.replace(traced[0], is_hotspot=rng.random(n) < 0.5,
                                 mean_rate_bps=rates, frac_slots_on_pico=frac)
    write_users_csv(result, tmp_path / "users.csv")
    users = [(i, "hotspot" if result.is_hotspot[i] else "uniform", float(rates[i]),
              float(frac[i])) for i in range(n)]
    assert (tmp_path / "users.csv").read_bytes() == reference_csv(
        ["user_id", "kind", "mean_rate_bps", "frac_slots_on_pico"], users)
    assert b",-0.0\n" in (tmp_path / "users.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rows=st.integers(1, 12))
def test_column_writers_match_a_row_by_row_reference(traced, data, rows):
    """The chunked column writers give the bytes of formatting every row
    value by value, for any float values; EE is capacity over power, and
    0 where the power is not positive."""
    def floats(size):
        return data.draw(hnp.arrays(np.float64, size, elements=COORDINATES))

    def counts(size):
        return data.draw(hnp.arrays(np.int64, size, elements=st.integers(0, 10**6)))

    metrics = SlotColumns(
        n_active_picos=counts(rows), macro_active_users=counts(rows),
        pico_active_users=counts(rows), capacity_bps=floats(rows),
        power_w=floats(rows), ee_bits_per_joule=floats(rows),
        pico_power_w=floats(rows), pico_capacity_bps=floats(rows),
    )
    n = data.draw(st.integers(0, 12))
    result = dataclasses.replace(
        traced[0], slot_metrics=metrics,
        is_hotspot=data.draw(hnp.arrays(bool, n)),
        mean_rate_bps=floats(n), frac_slots_on_pico=floats(n),
        hist_counts=counts(HIST_BINS),
    )

    def slot_rows(capacity, power):
        m = metrics
        return [
            (t, int(m.n_active_picos[t]), int(m.macro_active_users[t]),
             int(m.pico_active_users[t]), c, p, c / p if p > 0 else 0.0)
            for t, c, p in zip(range(rows), capacity.tolist(), power.tolist())
        ]

    slot_header = ["slot", "n_active_picos", "macro_active_users",
                   "pico_active_users", "capacity_bps", "power_w", "ee_bits_per_joule"]
    users = [
        (i, "hotspot" if result.is_hotspot[i] else "uniform",
         float(result.mean_rate_bps[i]), float(result.frac_slots_on_pico[i]))
        for i in range(n)
    ]
    edges = rate_histogram(())[1].tolist()
    histogram = [(edges[b], edges[b + 1], int(result.hist_counts[b]))
                 for b in range(HIST_BINS)]
    expected = {
        "slots.csv": (write_slot_csv, reference_csv(
            slot_header, slot_rows(metrics.capacity_bps, metrics.power_w))),
        "pico_view.csv": (write_pico_view_csv, reference_csv(
            slot_header, slot_rows(metrics.pico_capacity_bps, metrics.pico_power_w))),
        "users.csv": (write_users_csv, reference_csv(
            ["user_id", "kind", "mean_rate_bps", "frac_slots_on_pico"], users)),
        "histogram.csv": (write_histogram_csv, reference_csv(
            ["bin_left_bps", "bin_right_bps", "count"], histogram)),
    }
    with tempfile.TemporaryDirectory() as tmp, np.errstate(over="ignore"):
        for name, (write, reference) in expected.items():
            write(result, Path(tmp) / name)
            assert (Path(tmp) / name).read_bytes() == reference, name


def test_user_trace_writer_holds_a_few_slots_at_a_time(tmp_path):
    """Handed a 200-slot x 1000-user batch, the user-trace writer
    allocates the bytes of FORMAT_LINES lines at a time (three slots,
    about 0.78 MiB with their float digits) beyond the batch itself; the
    serving codes of all slots at once, as one (slots, n) int64 array,
    would take 1.5 MiB."""
    rng = np.random.default_rng(5)
    slots, n = 200, 1000
    active = rng.random((slots, n)) < 0.5
    x = rng.uniform(-500.0, 500.0, (slots, n))
    y = rng.uniform(-500.0, 500.0, (slots, n))
    serving = np.where(active, rng.integers(-1, 28, (slots, n)), -2)
    topology = build_geometry(scenario())
    tracemalloc.start()
    try:
        write_user_trace_csv(tmp_path / "user_trace.csv", topology, list(range(slots)), x, y,
                             serving)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_traced_run_memory_does_not_grow_with_slots(tmp_path):
    """A 1000-user run streaming both traces to their writers peaks under
    2 MiB of Python allocations, and at 400 slots within 0.5 MiB of its
    peak at 50: the run holds one block of trace at a time, 16 slots
    under TRACE_BLOCK_ROW_USERS (about 0.85 MiB at either length).
    Keeping every slot's columns until the run ended peaked at 9.9 MiB at
    400 slots."""
    def peak(slots):
        s = scenario(slots=slots, users={"total": 1000, "hotspot": 500},
                     policy={"t_activate": 12, "t_deactivate": 8})
        trace = TraceSinks(
            users=partial(write_user_trace_csv, tmp_path / "user_trace.csv"),
            picos=partial(write_pico_trace_csv, tmp_path / "pico_trace.csv"))
        tracemalloc.start()
        try:
            run_scenario(s, trace=trace)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # numpy's first-call allocations
    short, long = peak(50), peak(400)
    assert long < 2 * 2**20
    assert long - short < 2**19


def test_snapshot_trace_numbers_realizations_across_chunks(tmp_path):
    """A traced snapshot with blocks of L = 3 entries writes realizations
    0 .. 6 in order, each with every user and pico, and hands each sink
    the blocks of realizations 0 .. 2, 3 .. 5 and 6, whatever the chunk
    bound (here chunks of 2 drops untraced)."""
    s = scenario(realizations=7, users={"total": 40, "hotspot": 10})
    batches = []
    paths = (tmp_path / "user_trace.csv", tmp_path / "pico_trace.csv")

    def take_users(topology, rows, *columns):
        batches.append(list(rows))
        write_user_trace_csv(paths[0], topology, rows, *columns)

    with mock.patch.object(engine, "CHUNK_ROW_USERS", 2 * 40), \
            mock.patch.object(engine, "TRACE_BLOCK_ROW_USERS", 3 * 40):
        run_scenario(s, trace=TraceSinks(users=take_users,
                                         picos=partial(write_pico_trace_csv, paths[1])))
    assert batches == [[0, 1, 2], [3, 4, 5], [6]]
    for path, per_row in zip(paths, (40, 28)):
        lines = path.read_text().splitlines()[1:]
        assert [line.split(",", 1)[0] for line in lines] == \
            [str(r) for r in range(7) for _ in range(per_row)]
        assert [int(line.split(",")[1]) for line in lines] == list(range(per_row)) * 7


@settings(max_examples=25, deadline=None)
@given(geometry=st.sampled_from(["coe", "udc"]), seed=st.integers(0, 10**6),
       shape=st.sampled_from([{"slots": 1, "realizations": 3}, {"slots": 15}]),
       t_on=st.integers(0, 6), gap=st.none() | st.integers(1, 6),
       boot_slots=st.integers(0, 2))
def test_pico_service_follows_containment_and_mode(geometry, seed, shape, t_on,
                                                   gap, boot_slots):
    """An active user is pico:j exactly when j is the lowest index whose
    disc strictly contains its traced position, (x - cx)^2 + (y - cy)^2 <
    r^2, and pico j is active in that slot; every other active user is
    served by the macro."""
    t_off = None if gap is None or gap > t_on else float(t_on - gap)
    (result,), (trace,) = run_traced([parse_scenario({
        "topology": geometry, "seed": seed, **shape, "boot_slots": boot_slots,
        "layout": {"n_picos": 6, "pico_radius_m": 120.0},
        "users": {"total": 60, "hotspot": 30},
        "work": {"start_slots": [0, 3], "duration": 8},
        "policy": {"t_activate": float(t_on), "t_deactivate": t_off},
    })])
    cx, cy, r = result.topology.cx, result.topology.cy, result.topology.pico_radius
    awake = trace.states == ACTIVE
    slots, users = np.nonzero(trace.active)
    dx = trace.x[slots, users][:, None] - cx
    dy = trace.y[slots, users][:, None] - cy
    inside = dx * dx + dy * dy < r * r
    for slot, serving, hits in zip(slots, trace.serving[slots, users], inside):
        j = int(hits.argmax())
        pico = hits[j] and awake[slot, j]
        assert serving == (j if pico else -1)


def test_unserved_layouts_shape_users_but_draw_no_pico_power():
    """Macro-only twins keep the pico geometry for population shaping; the
    per-slot power must be exactly the macro's load curve."""
    r = run_scenario(parse_scenario({
        "topology": "monet_udc_users", "seed": 11, "slots": 50,
        "users": {"total": 400, "hotspot": 150},
    }))
    m = r.slot_metrics
    assert (m.n_active_picos == 0).all()
    assert (m.pico_active_users == 0).all()
    for power, n_macro in zip(m.power_w, m.macro_active_users):
        assert power == pytest.approx(macro_power(n_macro), abs=1e-9)


def test_sleepy_pico_layout_degenerates_to_its_macro_twin():
    """Infinite wake threshold with free sleeping is indistinguishable,
    bit for bit, from the macro-only twin."""
    base = {"seed": 7, "slots": 120, "realizations": 1,
            "users": {"hotspot": 200, "total": 500},
            "power": {"pico": {"p_sleep_w": 0.0}}}
    never = parse_scenario({**base, "topology": "udc",
                            "policy": {"t_activate": float("inf"),
                                       "t_deactivate": 4.0}})
    twin = parse_scenario({**base, "topology": "monet_udc_users"})
    ra, rb = run_scenario(never, per_user=True), run_scenario(twin, per_user=True)
    for name in ("capacity_bps", "power_w", "ee_bits_per_joule", "macro_active_users"):
        np.testing.assert_array_equal(getattr(ra.slot_metrics, name),
                                      getattr(rb.slot_metrics, name), err_msg=name)
    np.testing.assert_array_equal(ra.hist_counts, rb.hist_counts)
    np.testing.assert_array_equal(ra.mean_rate_bps, rb.mean_rate_bps)


def test_capacity_falls_as_the_wake_threshold_rises():
    caps = []
    for t in (0, 30):
        s = parse_scenario({
            "topology": "udc", "seed": 11, "realizations": 20,
            "users": {"total": 500, "activity_uniform": 1.0},
            "policy": {"t_activate": t, "t_deactivate": None},
            "power": {"pico": {"p_sleep_w": 0.0}},
        })
        caps.append(run_scenario(s).capacity_mean)
    assert caps[0] > caps[1]


RATES = st.floats(0.0, 2e6) | st.sampled_from(
    [0.0, 9999.999, 1e4, 999999.999, 1e6, 1e6 + 1e-9, 1.5e6, 1e12])


class TestRateHistogram:
    def test_binning_and_overflow_clamp(self):
        counts = hist_counts(np.array([[5e3, 1.5e4, 9.99e5, 1e6, 2e6]]))
        assert counts.shape == (1, HIST_BINS)
        assert counts[0, 0] == 1 and counts[0, 1] == 1 and counts[0, 99] == 3
        assert counts.sum() == 5

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(0, 30)),
                      elements=RATES))
    @example(np.zeros((3, 0)))
    @example(np.array([[1e6, 1e6, 3e6], [0.0, 1e6 - 1e-9, 1e12]]))
    def test_rows_match_the_reference(self, rates):
        """Row k of hist_counts is the reference histogram of row k's rates,
        for no rates at all, rates at the top edge and rates past it."""
        counts = hist_counts(rates)
        assert counts.shape == (rates.shape[0], HIST_BINS)
        for got, row in zip(counts, rates):
            np.testing.assert_array_equal(got, rate_histogram(row)[0])

    def test_snapshot_histogram_counts_user_realizations(self):
        r = run_scenario(scenario(
            realizations=3, users={"total": 200, "activity_uniform": 1.0}), per_user=True)
        assert r.hist_counts.sum() == 3 * 200

    def test_timeseries_histogram_counts_ever_active_users(self):
        (r,), (trace,) = run_traced(
            [scenario(slots=25, users={"total": 150, "hotspot": 40})], per_user=True)
        assert r.hist_counts.sum() == int(trace.active.any(axis=0).sum())


def test_user_rate_summaries_are_consistent():
    (r,), (trace,) = run_traced([scenario(
        slots=150, users={"total": 200, "hotspot": 80},
        policy={"t_activate": 1, "t_deactivate": 0})], per_user=True)
    active_slots = trace.active.sum(axis=0)
    pico_slots = (trace.serving >= 0).sum(axis=0)
    on = active_slots > 0
    assert (r.mean_rate_bps[~on] == 0.0).all()
    assert (r.mean_rate_bps[on] > 0.0).all()
    assert (pico_slots <= active_slots).all()
    np.testing.assert_array_equal(r.frac_slots_on_pico, pico_slots / r.scenario.slots)
    # hotspot workers accumulate far more pico time than passers-by
    assert r.frac_slots_on_pico[r.is_hotspot].mean() > \
        2 * max(r.frac_slots_on_pico[~r.is_hotspot].mean(), 1e-9)


# --- grouped runs: one user process, one response row per scenario -----------

TWINS = {"coe": "monet_coe_users", "udc": "monet_udc_users"}

SUMMARY_FIELDS = ("ee_mean", "ee_std", "capacity_mean", "power_mean",
                  "active_picos_mean")
PER_USER_FIELDS = ("is_hotspot", "mean_rate_bps", "frac_slots_on_pico",
                   "hist_counts")


def assert_same_columns(a, b):
    for f in dataclasses.fields(a):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name),
                                      err_msg=f.name)


def assert_same_run(a, b):
    assert a.scenario == b.scenario
    assert_same_columns(a.slot_metrics, b.slot_metrics)
    for name in SUMMARY_FIELDS:
        assert getattr(a, name) == getattr(b, name), name
    for name in PER_USER_FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name),
                                      err_msg=name)


@st.composite
def process_groups(draw):
    """Scenario documents that share one user process (layout, users,
    mobility, channel) and differ in how their picos respond."""
    geometry = draw(st.sampled_from(["coe", "udc"]))
    snapshot = draw(st.booleans())
    total = draw(st.integers(20, 80))
    base = {
        "seed": draw(st.integers(0, 50)),
        "slots": 1 if snapshot else draw(st.integers(2, 30)),
        "realizations": draw(st.integers(1, 4)) if snapshot else 1,
        # more than 8 picos, so a pairwise sum of their draws would add in
        # another order than the engine's
        "layout": draw(st.sampled_from([{"n_picos": 6, "pico_radius_m": 120.0},
                                        {"n_picos": 20, "pico_radius_m": 60.0}])),
        "users": {"total": total, "hotspot": draw(st.integers(0, total)),
                  "activity_uniform": draw(st.sampled_from([0.4, 1.0]))},
        "work": {"start_slots": [0, 5], "duration": 12},
    }
    docs = []
    for _ in range(draw(st.integers(1, 5))):
        t_on = draw(st.integers(0, 8))
        t_off = draw(st.none() | st.integers(0, t_on - 1)) if t_on else None
        docs.append({
            **base,
            "topology": draw(st.sampled_from([geometry, TWINS[geometry]])),
            "boot_slots": draw(st.integers(0, 3)),
            "policy": {"t_activate": float(t_on),
                       "t_deactivate": None if t_off is None else float(t_off)},
            # validation keeps every load slope >= 0
            "power": {"pico": {"p_sleep_w": draw(st.sampled_from([0.0, 4.0, 8.6])),
                               "delta_p": draw(st.sampled_from([0.0, 4.0, 13.0]))},
                      "macro": {"p0_w": draw(st.sampled_from([0.0, 260.0])),
                                "delta_p": draw(st.sampled_from([0.0, 4.75, 13.0]))}},
        })
    return docs


@settings(max_examples=30, deadline=None)
@given(docs=process_groups(), data=st.data())
def test_grouped_runs_equal_solo_runs(docs, data):
    """Every scenario of a grouped call gets, bit for bit, the result it
    gets alone, in input order; a scenario with another seed, hotspot count
    or channel is simulated as its own group."""
    first = docs[0]
    users = first["users"]
    outsiders = [
        {**first, "seed": first["seed"] + 1},
        {**first, "users": {**users, "hotspot": (users["hotspot"] + 1) % (users["total"] + 1)}},
        {**first, "channel": {"bandwidth_hz": 1e7}},
    ]
    scenarios = data.draw(
        st.permutations([parse_scenario(d) for d in docs + outsiders])
    )
    with mock.patch.object(engine, "build_geometry",
                           wraps=engine.build_geometry) as layouts:
        grouped = run_scenarios(scenarios, per_user=True)
    assert layouts.call_count == 1 + len(outsiders)  # one layout per group
    for s, result in zip(scenarios, grouped):
        assert_same_run(result, run_scenarios([s], per_user=True)[0])


@settings(max_examples=30, deadline=None)
@given(docs=process_groups())
def test_user_process_does_not_depend_on_the_policy_row(docs):
    """The user process (positions and activity of the user trace) is the
    same in every row of a group, whatever each row's policy, boot time or
    power, and each row run alone sees it too."""
    scenarios = [parse_scenario(d) for d in docs]
    _, grouped = run_traced(scenarios)
    first = grouped[0]
    for s, in_group in zip(scenarios, grouped):
        _, (solo,) = run_traced([s])
        for trace in (in_group, solo):
            for column in ("x", "y", "active"):
                np.testing.assert_array_equal(getattr(trace, column),
                                              getattr(first, column), err_msg=column)


def test_hysteresis_one_below_the_threshold_is_the_one_threshold_rule():
    """Policy {t_activate: 5} keeps the default t_deactivate 4, and for
    integer counts that 5/4 hysteresis is the one-threshold rule at 5: both
    sleep a pico at count <= 4.  ee_timeseries relies on this, so a udc
    time series whose picos wake and sleep has the same slot columns,
    per-user values and pico trace under either policy."""
    policies = [{"t_activate": 5}, {"t_activate": 5.0, "t_deactivate": None}]
    (a, b), (ta, tb) = run_traced(
        [scenario(slots=80, users={"hotspot": 500}, policy=p) for p in policies], True)
    assert a.scenario.policy.t_deactivate == 4.0 and b.scenario.policy.t_deactivate is None
    assert (ta.states[1:] != ta.states[:-1]).any()  # picos change state
    assert_same_columns(a.slot_metrics, b.slot_metrics)
    for name in PER_USER_FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    np.testing.assert_array_equal(ta.states, tb.states)


def reference_slot_columns(scenarios):
    """Per row, the (slots, 8) slot metrics of the per-row scalar loop:
    power from the oracle's consumed_power_w, pico by pico in index
    order; capacity as the row's sum and pico capacity as a sum over the
    pico-served users alone.  The group's World is stepped one drop at a
    time (a chunk bound of 0 gives batches of one), realization by
    realization and slot by slot, and each slot's users, links and modes
    are read off it."""
    with mock.patch.object(engine, "CHUNK_ROW_USERS", 0):
        w = World(scenarios)
    assert w.batch == 1
    R, S = w.s.realizations, w.s.slots
    out = SlotColumns.empty(len(scenarios), R * S)
    rows = [[] for _ in scenarios]
    for r, slot in itertools.product(range(R), range(S)):
        if slot == 0:
            w.drop(r)
        row = r * S + slot
        active, containing, served_rows, cap_rows = w.run_block(range(slot, slot + 1), out)
        counts = slot_counts(w, active, containing)
        for k, s in enumerate(scenarios):
            served, cap = served_rows[k], cap_rows[k]
            modes = [oracle_state(state).mode for state in w.state[k, 0].tolist()]
            n_pico = int(served.sum())
            n_macro = int(active.sum()) - n_pico
            macro_w = consumed_power_w(s.power.macro, EnbMode.ACTIVE, n_macro)
            pico_w = 0.0
            if s.serves_from_picos():
                for mode, c in zip(modes, counts):
                    served_here = int(c) if mode is EnbMode.ACTIVE else 0
                    pico_w += consumed_power_w(s.power.pico, mode, served_here)
            capacity = float(cap.sum())
            power = macro_w + pico_w
            rows[k].append((
                modes.count(EnbMode.ACTIVE), n_macro, n_pico, capacity, power,
                capacity / power if power > 0 else 0.0, pico_w,
                float(cap[served].sum()),
            ))
    return [np.array(r) for r in rows]


COLUMNS = ("n_active_picos", "macro_active_users", "pico_active_users",
           "capacity_bps", "power_w", "ee_bits_per_joule", "pico_power_w",
           "pico_capacity_bps")


@settings(max_examples=30, deadline=None)
@given(docs=process_groups())
def test_slot_columns_equal_the_per_row_reference(docs):
    """Every slot column of a grouped run equals, bit for bit, the per-row
    scalar loop; a run without per_user gets the same slot columns, bit
    for bit, and the same means, and builds no pico capacity or per-user
    value."""
    scenarios = [parse_scenario(d) for d in docs]
    full = run_scenarios(scenarios, per_user=True)
    bare = run_scenarios(scenarios)
    for result, want, plain in zip(full, reference_slot_columns(scenarios), bare):
        for i, name in enumerate(COLUMNS):
            np.testing.assert_array_equal(getattr(result.slot_metrics, name),
                                          want[:, i], err_msg=name)
            if name != "pico_capacity_bps":
                np.testing.assert_array_equal(getattr(plain.slot_metrics, name),
                                              want[:, i], err_msg=name)
        for name in SUMMARY_FIELDS:
            assert getattr(plain, name) == getattr(result, name), name
        assert plain.slot_metrics.pico_capacity_bps is None
        for name in PER_USER_FIELDS:
            assert getattr(plain, name) is None, name


# slot entries R * S on each side of numpy's pairwise-sum blocks (8, 128)
ENTRIES = (1, 2, 7, 8, 9, 127, 128, 129, 300)


@settings(max_examples=40, deadline=None)
@given(docs=process_groups(), entries=st.sampled_from(ENTRIES), data=st.data())
def test_group_means_equal_each_rows_column_alone(docs, entries, data):
    """Each result's five means equal, bit for bit, those of its own 1-D
    slot column reduced alone: the group reduces all its rows in one call
    along the entry axis, and a solo run reduces its one row along that
    axis too, so grouped-equals-solo cannot tell the two apart.  ee_std
    is the column's ddof-1 spread, and 0.0 at one entry."""
    realizations = data.draw(st.sampled_from(
        [r for r in range(1, entries + 1) if entries % r == 0]))
    scenarios = [parse_scenario({**d, "realizations": realizations,
                                 "slots": entries // realizations}) for d in docs[:4]]
    for result in run_scenarios(scenarios):
        m = result.slot_metrics
        ees = m.ee_bits_per_joule.copy()
        assert ees.shape == (entries,)
        assert result.ee_mean == float(ees.mean())
        assert result.ee_std == (float(ees.std(ddof=1)) if entries > 1 else 0.0)
        assert result.capacity_mean == float(m.capacity_bps.copy().mean())
        assert result.power_mean == float(m.power_w.copy().mean())
        assert result.active_picos_mean == float(m.n_active_picos.copy().mean())


def assert_same_traces(a, b):
    for f in dataclasses.fields(a):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name),
                                      err_msg=f.name)


def one_drop_at_a_time(scenarios):
    """run_traced with per_user, its snapshots stepped in batches of
    one drop (a chunk bound of 0)."""
    with mock.patch.object(engine, "CHUNK_ROW_USERS", 0):
        return run_traced(scenarios, per_user=True)


@settings(max_examples=30, deadline=None)
@given(docs=process_groups(), realizations=st.integers(2, 9), batch=st.integers(2, 4))
def test_chunked_drops_equal_drops_stepped_one_at_a_time(docs, realizations, batch):
    """A snapshot group stepped in chunks of up to `batch` drops, R a
    multiple of it or not, gives bit for bit every slot column, per-user
    value and histogram of the group stepped one drop at a time; traced,
    it steps one drop at a time under that bound too, and gives the same
    traces."""
    scenarios = [parse_scenario({**d, "slots": 1, "realizations": realizations})
                 for d in docs]
    bound = batch * len(scenarios) * scenarios[0].users.total
    with mock.patch.object(engine, "CHUNK_ROW_USERS", bound):
        assert World(scenarios).batch == min(batch, realizations)
        chunked = run_scenarios(scenarios, per_user=True)
        _, traces = run_traced(scenarios)
    for a, b, trace_a, trace_b in zip(chunked, *one_drop_at_a_time(scenarios), traces):
        assert_same_run(a, b)
        assert_same_traces(trace_a, trace_b)


@pytest.mark.parametrize("batch, realizations", [(3, 7), (1, 3)])
def test_snapshot_chunks_follow_the_bound(batch, realizations):
    """Under the module's own bound, a group of K rows and n users steps
    CHUNK_ROW_USERS // (K * n) drops at a time, and one drop when K * n
    exceeds the bound; either way it gives the results of one drop at a
    time, and the slot columns of the per-row reference; traced, the
    group steps one drop at a time and gives the same traces."""
    K = 3
    n = engine.CHUNK_ROW_USERS // (K * batch) + (batch == 1)
    scenarios = [scenario(realizations=realizations, topology=topology,
                          users={"total": n, "hotspot": n // 3},
                          policy={"t_activate": t, "t_deactivate": None})
                 for topology, t in (("udc", 4.0), ("udc", 40.0), ("monet_udc_users", 4.0))]
    assert World(scenarios).batch == batch
    chunked = run_scenarios(scenarios, per_user=True)
    _, traces = run_traced(scenarios)
    for a, b, trace_a, trace_b, want in zip(chunked, *one_drop_at_a_time(scenarios), traces,
                                            reference_slot_columns(scenarios)):
        assert_same_run(a, b)
        assert_same_traces(trace_a, trace_b)
        for i, name in enumerate(COLUMNS):
            np.testing.assert_array_equal(getattr(a.slot_metrics, name), want[:, i],
                                          err_msg=name)


@pytest.mark.parametrize("slots, realizations", [(1, 100), (5, 20)],
                         ids=["snapshot", "timeseries"])
def test_memory_does_not_grow_with_realizations(slots, realizations):
    """A K = 16, n = 1000 group, sweep_udc's shape, peaks at 4 R
    realizations of S slots within 16 KiB of its peak at R, beside the
    (K, R * S) slot columns of the added realization-slots: a chunk bounds
    what one step holds, snapshot or time series.  Stepping every
    snapshot drop at once held (K, R * n) arrays, 92 MiB more at R =
    400."""
    def peak(realizations):
        scenarios = [parse_scenario({
            "topology": "udc", "seed": 1, "slots": slots, "realizations": realizations,
            "users": {"total": 1000, "hotspot": 200, "activity_uniform": 1.0},
            "policy": {"t_activate": float(t), "t_deactivate": None},
        }) for t in range(16)]
        tracemalloc.start()
        try:
            run_scenarios(scenarios)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # numpy's first-call allocations
    # seven float64 or int64 (K, R * S) columns
    added_columns = 7 * 16 * 3 * realizations * slots * 8
    assert peak(4 * realizations) - peak(realizations) < added_columns + 2**14


def traced_to_files(tmp, scenarios, bound, block=engine.TRACE_BLOCK_ROW_USERS):
    """run_scenarios with per_user under a chunk bound and a trace block
    bound, every scenario's two traces written to files in tmp by the
    trace writers; returns the results and each scenario's user and pico
    trace lines."""
    paths = [(Path(tmp) / f"users{k}.csv", Path(tmp) / f"picos{k}.csv")
             for k in range(len(scenarios))]
    sinks = [TraceSinks(users=partial(write_user_trace_csv, users),
                        picos=partial(write_pico_trace_csv, picos)) for users, picos in paths]
    with mock.patch.object(engine, "CHUNK_ROW_USERS", bound), \
            mock.patch.object(engine, "TRACE_BLOCK_ROW_USERS", block):
        results = run_scenarios(scenarios, per_user=True, traces=sinks)
    return results, [[path.read_text().splitlines() for path in pair] for pair in paths]


def file_bytes(tmp):
    return {path.name: path.read_bytes() for path in Path(tmp).iterdir()}


@settings(max_examples=30, deadline=None)
@given(docs=process_groups(), realizations=st.integers(1, 5), batch=st.integers(1, 4),
       block=st.integers(2, 4))
def test_trace_blocks_write_the_bytes_of_one_slot_at_a_time(docs, realizations, batch,
                                                            block):
    """A group's traces, handed to the writers in blocks of up to `block`
    entries or in blocks under the module's bound, are byte for byte the
    traces handed over one entry at a time (a block bound of 0), under a
    chunk bound of `batch` drops: time series of one or several
    realizations, and snapshots of several drops."""
    scenarios = [parse_scenario({**d, "realizations": realizations}) for d in docs]
    n = scenarios[0].users.total
    bound = batch * len(scenarios) * n
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b, \
            tempfile.TemporaryDirectory() as c:
        traced_to_files(a, scenarios, bound, 0)
        traced_to_files(b, scenarios, bound, block * n)
        traced_to_files(c, scenarios, bound)
        one_slot = file_bytes(a)
        assert len(one_slot) == 2 * len(scenarios)
        assert file_bytes(b) == one_slot
        assert file_bytes(c) == one_slot


def test_a_traced_run_writes_each_trace_file_once_a_block(tmp_path):
    """A 125-slot, 1000-user traced run, ts_traced's shape, writes each
    trace file in at most ceil(S / L) write_file calls, L =
    TRACE_BLOCK_ROW_USERS // n slots a block (8 calls), where a call a
    slot reopened each file 125 times."""
    s = scenario(slots=125, users={"total": 1000, "hotspot": 500},
                 policy={"t_activate": 12, "t_deactivate": 8})
    paths = (tmp_path / "user_trace.csv", tmp_path / "pico_trace.csv")
    trace = TraceSinks(users=partial(write_user_trace_csv, paths[0]),
                       picos=partial(write_pico_trace_csv, paths[1]))
    with mock.patch.object(engine, "write_file", wraps=engine.write_file) as write:
        run_scenario(s, trace=trace)
    L = max(1, engine.TRACE_BLOCK_ROW_USERS // 1000)
    for path in paths:
        assert 1 <= [c.args[0] for c in write.call_args_list].count(path) <= -(-125 // L)
    assert len(paths[0].read_text().splitlines()) == 1 + 125 * 1000


@settings(max_examples=30, deadline=None)
@given(docs=process_groups(), slots=st.integers(2, 12), realizations=st.integers(2, 6),
       batch=st.integers(2, 4))
def test_chunked_time_series_equal_drops_stepped_one_at_a_time(docs, slots, realizations,
                                                              batch):
    """A group of R time series stepped in chunks of up to `batch` drops
    gives bit for bit every slot column, per-user value and histogram of
    the group stepped one drop at a time.  Traced, it steps one drop at a
    time under either bound, with the same results, and writes the same
    trace lines, in entry order."""
    scenarios = [parse_scenario({**d, "slots": slots, "realizations": realizations})
                 for d in docs]
    bound = batch * len(scenarios) * scenarios[0].users.total
    with mock.patch.object(engine, "CHUNK_ROW_USERS", bound):
        assert World(scenarios).batch == min(batch, realizations)
        chunked = run_scenarios(scenarios, per_user=True)
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        traced, traced_lines = traced_to_files(a, scenarios, bound)
        alone, alone_lines = traced_to_files(b, scenarios, 0)
    for x, y, z in zip(chunked, traced, alone):
        assert_same_run(x, z)
        assert_same_run(y, z)
    assert traced_lines == alone_lines
    n, entries = scenarios[0].users.total, realizations * slots
    for user_lines, _ in alone_lines:
        assert user_lines[0] == "slot,user_id,x,y,active,serving_cell"
        assert [int(line.split(",", 1)[0]) for line in user_lines[1:]] == \
            [row for row in range(entries) for _ in range(n)]


def run_in_blocks(tmp, scenarios, L, traced, trace_lines):
    """run_scenarios with per_user, each chunk stepped in blocks of L
    slots; traced, with trace blocks of trace_lines entries, every
    scenario's traces go to the trace writers, in files in tmp.  Returns
    the results, the trace files' bytes and each sink call's scenario,
    kind and entries, in call order."""
    K, n = len(scenarios), scenarios[0].users.total
    calls, sinks = [], []
    for k in range(K):
        def take_users(topology, rows, *columns, k=k):
            calls.append((k, "users", list(rows)))
            write_user_trace_csv(Path(tmp) / f"users{k}.csv", topology, rows, *columns)

        def take_picos(rows, states, k=k):
            calls.append((k, "picos", list(rows)))
            write_pico_trace_csv(Path(tmp) / f"picos{k}.csv", rows, states)

        sinks.append(TraceSinks(users=take_users, picos=take_picos))
    B = World(scenarios, traced).batch
    with mock.patch.object(engine, "BLOCK_ROW_USERS", L * K * B * n), \
            mock.patch.object(engine, "TRACE_BLOCK_ROW_USERS", trace_lines * n):
        assert World(scenarios, traced).block == L
        results = run_scenarios(scenarios, per_user=True, traces=sinks if traced else ())
    return results, file_bytes(tmp), calls


@settings(max_examples=30, deadline=None)
@given(docs=process_groups(), slots=st.integers(2, 9), realizations=st.sampled_from([1, 3]),
       traced=st.booleans(), trace_lines=st.integers(1, 5))
def test_blocks_of_slots_equal_one_slot_at_a_time(docs, slots, realizations, traced,
                                                  trace_lines):
    """A group of R time series stepped in blocks of 2, 3 or all S slots
    gives bit for bit every slot column, mean, per-user value and
    histogram of the group stepped one slot a block; traced, it writes
    byte for byte the same trace files and hands its sinks the same
    blocks of entries, as a block of slots ends where a trace block
    does."""
    scenarios = [parse_scenario({**d, "slots": slots, "realizations": realizations})
                 for d in docs]
    runs = []
    for L in (1, 2, 3, slots):
        with tempfile.TemporaryDirectory() as tmp:
            runs.append(run_in_blocks(tmp, scenarios, min(L, slots), traced, trace_lines))
    (one, files, calls), *others = runs
    assert len(files) == (2 * len(scenarios) if traced else 0)
    entries = realizations * slots
    assert [rows for k, kind, rows in calls if (k, kind) == (0, "users")] == \
        [list(range(e, min(e + trace_lines, entries))) for e in range(0, entries, trace_lines)
         ] * traced
    for results, other_files, other_calls in others:
        for a, b in zip(results, one):
            assert_same_run(a, b)
        assert other_files == files
        assert other_calls == calls


def test_block_memory_does_not_grow_with_slots():
    """A two-row, 1000-user time series with per_user, untraced, peaks at
    4 S slots within 16 KiB of its peak at S, beside the (K, R * S) slot
    columns of the added slots: it steps blocks of L = BLOCK_ROW_USERS //
    (K * n) = 4 slots, whose buffers hold one block however long the
    run.  Its users have no work schedule, whose retargets of many
    hotspot users at once would add their own peak."""
    def peak(slots):
        scenarios = [parse_scenario({
            "topology": "udc", "seed": 1, "slots": slots,
            "users": {"total": 1000, "hotspot": 0},
            "policy": {"t_activate": t, "t_deactivate": None},
        }) for t in (4.0, 12.0)]
        assert World(scenarios).block == min(slots, 4)
        tracemalloc.start()
        try:
            run_scenarios(scenarios, per_user=True)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # numpy's first-call allocations
    S = 40
    # eight float64 or int64 (K, R * S) columns, with pico_capacity_bps
    added_columns = 8 * 2 * 3 * S * 8
    assert peak(4 * S) - peak(S) < added_columns + 2**14


@settings(max_examples=30, deadline=None)
@given(docs=process_groups(), realizations=st.integers(2, 5))
def test_first_realization_is_the_one_realization_run(docs, realizations):
    """Realization 0 of an R-realization group, snapshot or time series,
    is bit for bit the group's run of one realization: slot column
    entries 0 .. S - 1 and trace rows 0 .. S - 1, in every row."""
    one = [parse_scenario({**d, "realizations": 1}) for d in docs]
    many = [parse_scenario({**d, "realizations": realizations}) for d in docs]
    S = one[0].slots
    for (a, trace_a), (b, trace_b) in zip(zip(*run_traced(one, per_user=True)),
                                          zip(*run_traced(many, per_user=True))):
        assert b.slot_metrics.power_w.shape == (realizations * S,)
        for f in dataclasses.fields(SlotColumns):
            np.testing.assert_array_equal(getattr(a.slot_metrics, f.name),
                                          getattr(b.slot_metrics, f.name)[:S], err_msg=f.name)
        for f in dataclasses.fields(Trace):
            np.testing.assert_array_equal(getattr(trace_a, f.name),
                                          getattr(trace_b, f.name)[:S], err_msg=f.name)


# a traced udc row of 60 users: 3 slots of 4 realizations, or 6 drops
TRACED = {"topology": "udc", "seed": 1, "users": {"total": 60, "hotspot": 20}}
TRACED_SHAPES = {"timeseries": {"slots": 3, "realizations": 4},
                 "snapshot": {"slots": 1, "realizations": 6}}


@pytest.mark.parametrize("shape", TRACED_SHAPES.values(), ids=TRACED_SHAPES)
def test_a_trace_does_not_depend_on_the_chunk_bound_or_its_group(tmp_path, shape):
    """A traced row writes byte-identical user and pico traces run alone
    and with its macro-only twin in its group, under a chunk bound of 4
    drops of it alone (2 with the twin) and under a bound of 0: a traced
    group steps one drop at a time, so its lines come in entry order, as
    in slots.csv."""
    s = parse_scenario({**TRACED, **shape})
    twin = dataclasses.replace(s, topology="monet_udc_users")
    n, entries = s.users.total, s.realizations * s.slots
    runs = [traced_to_files(tmp_path / str(i), group, bound)[1][0] for i, (group, bound)
            in enumerate(itertools.product([[s], [s, twin]], [4 * n, 0]))]
    assert all(lines == runs[0] for lines in runs[1:])
    user_lines, pico_lines = runs[0]
    assert [int(line.split(",", 1)[0]) for line in user_lines[1:]] == \
        [e for e in range(entries) for _ in range(n)]
    assert len(pico_lines) == 1 + entries * s.layout.n_picos


@pytest.mark.parametrize("slots", [3, 1], ids=["timeseries", "snapshot"])
def test_the_traces_of_r_realizations_begin_the_traces_of_more(tmp_path, slots):
    """The user and pico traces of a 2-realization run are, line for line,
    the first lines of the 5-realization run's, those of its first 2 * S
    entries: realization r's trace does not depend on R."""
    few, more = (traced_to_files(tmp_path / str(R), [parse_scenario(
        {**TRACED, "slots": slots, "realizations": R})], engine.CHUNK_ROW_USERS)[1][0]
                 for R in (2, 5))
    assert len(few[0]) == 1 + 2 * slots * TRACED["users"]["total"]
    for a, b in zip(few, more):
        assert b[:len(a)] == a
        assert 2 * (len(b) - 1) == 5 * (len(a) - 1)


@settings(max_examples=30, deadline=None)
@given(docs=process_groups())
def test_slot_power_lies_between_its_floor_and_ceiling(docs):
    """A slot draws at least the idle macro and every serving pico's sleep
    floor, and at most every station at full load."""
    scenarios = [parse_scenario(d) for d in docs]
    for s, result in zip(scenarios, run_scenarios(scenarios)):
        m = result.topology.cx.size if s.serves_from_picos() else 0
        P, M = s.power.pico, s.power.macro
        floor = consumed_power_w(M, EnbMode.ACTIVE, 0) + \
            m * consumed_power_w(P, EnbMode.SLEEP)
        ceiling = consumed_power_w(M, EnbMode.ACTIVE, M.user_capacity) + \
            m * consumed_power_w(P, EnbMode.ACTIVE, P.user_capacity)
        power = result.slot_metrics.power_w
        slack = 1e-12 * ceiling  # m draws summed one by one, or as m * draw
        assert (power >= floor - slack).all() and (power <= ceiling + slack).all()


@pytest.mark.parametrize("shape, slots", [({"slots": 12}, 12), ({"realizations": 4}, 4)])
def test_a_group_builds_its_disc_index_once(shape, slots):
    """One layout, built before the Response, and one disc index per group;
    one population per chunk of drops (here chunks of 3, so 3 + 1 for 4
    realizations), so one for a whole time series, with each realization's
    generator, in order, given to one of them exactly once; one
    containment query per block of slots (here blocks of 5, so 5 + 5 + 2
    for 12 slots), so one per chunk of a snapshot."""
    s = scenario(**shape, users={"total": 100})
    calls = mock.Mock()
    with mock.patch.object(engine, "CHUNK_ROW_USERS", 3 * 2 * 100), \
            mock.patch.object(engine, "BLOCK_ROW_USERS", 5 * 2 * 100), \
            mock.patch.object(engine, "build_geometry", wraps=engine.build_geometry) as layouts, \
            mock.patch.object(engine, "Response", wraps=engine.Response) as responses, \
            mock.patch.object(kernels, "disc_index", wraps=kernels.disc_index) as build, \
            mock.patch.object(kernels, "containing_disc",
                              wraps=kernels.containing_disc) as query, \
            mock.patch.object(engine, "init_population",
                              wraps=engine.init_population) as drops:
        calls.attach_mock(layouts, "build_geometry")
        calls.attach_mock(responses, "Response")
        run_scenarios([s, dataclasses.replace(s, boot_slots=0)])
    assert [c[0] for c in calls.mock_calls] == ["build_geometry", "Response"]
    assert build.call_count == 1
    chunks = 2 if "realizations" in shape else 1
    assert query.call_count == (chunks if "realizations" in shape else -(-slots // 5))
    assert drops.call_count == chunks
    rngs = [rng for call in drops.call_args_list for rng in call.args[3]]
    assert [rng.bit_generator.seed_seq.entropy for rng in rngs] == \
        [[s.seed, engine.TAG_WORLD, r] for r in range(s.realizations)]



LINK_ROWS = {
    "never wakes": {"topology": "monet_udc_users"},
    "always on": {"policy": {"t_activate": 0.0, "t_deactivate": -np.inf}},
    "12/8": {"policy": {"t_activate": 12.0, "t_deactivate": 8.0}},
}


@pytest.mark.parametrize("rows", [list(LINK_ROWS), ["always on", "12/8"]],
                         ids=["three rows", "two rows"])
def test_links_are_evaluated_only_where_a_row_reads_them(tmp_path, rows):
    """A group evaluates the macro link of each active user that some row
    does not pico-serve and the pico link of each user that some row
    does, no other; and every row's columns, pico_capacity_bps and
    users.csv equal those of the row run alone.  With the macro-only
    twin in the group no user is pico-served in every row; without it,
    many are."""
    base = {"topology": "udc", "seed": 3, "slots": 30, "boot_slots": 2,
            "users": {"total": 1000, "hotspot": 800}}
    scenarios = [parse_scenario({**base, **LINK_ROWS[row]}) for row in rows]
    blocks = []

    def record(world, *args, **kw):
        blocks.append(run_block(world, *args, **kw))
        return blocks[-1]

    run_block = World.run_block
    with mock.patch.object(World, "run_block", autospec=True, side_effect=record), \
            mock.patch.object(kernels, "link_capacity", wraps=kernels.link_capacity) as links:
        grouped = run_scenarios(scenarios, per_user=True)
    evaluated = sum(call.args[0].size for call in links.call_args_list)
    macro = sum(int((active & ~served.all(axis=0)).sum()) for active, _, served, _ in blocks)
    pico = sum(int(served.any(axis=0).sum()) for _, _, served, _ in blocks)
    assert evaluated == macro + pico
    every = sum(int(served.all(axis=0).sum()) for _, _, served, _ in blocks)
    assert (every > 0) == ("never wakes" not in rows)
    # every row but the twin pico-serves some users
    for k, row in enumerate(rows):
        assert any(served[k].any() for _, _, served, _ in blocks) == (row != "never wakes")
    for k, (s, result) in enumerate(zip(scenarios, grouped)):
        (solo,) = run_scenarios([s], per_user=True)
        assert_same_run(result, solo)
        write_users_csv(result, tmp_path / f"group{k}.csv")
        write_users_csv(solo, tmp_path / f"solo{k}.csv")
        assert (tmp_path / f"group{k}.csv").read_bytes() == (tmp_path / f"solo{k}.csv").read_bytes()

def test_means_only_sweep_holds_no_per_user_arrays():
    """A hotspot_sweep-shaped group (124 rows, 1000 users, 20
    realizations) run for its means keeps no (n,) array in its results
    and peaks under 5 MiB of Python allocations; building per-user totals
    and histograms for every row peaked at 8.5 MiB."""
    def doc(topology, t, p_sleep):
        return {"topology": topology, "seed": 1, "realizations": 20,
                "users": {"total": 1000, "hotspot": 500,
                          "activity_uniform": 0.4, "activity_hotspot": 0.8},
                "policy": {"t_activate": float(t), "t_deactivate": None},
                "power": {"pico": {"p_sleep_w": p_sleep}}}

    scenarios = [parse_scenario(doc(topology, t, p)) for p in (0.0, 8.6)
                 for topology in ("udc", "monet_udc_users") for t in range(31)]
    tracemalloc.start()
    try:
        results = run_scenarios(scenarios)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    for result in results:
        values = [getattr(result, f.name) for f in dataclasses.fields(result)]
        values += [getattr(result.slot_metrics, f.name)
                   for f in dataclasses.fields(result.slot_metrics)]
        arrays = [v for v in values if isinstance(v, np.ndarray)]
        assert arrays and all(a.shape == (20,) for a in arrays)


@pytest.mark.parametrize("shape", [{"slots": 40}, {"realizations": 3}])
def test_macro_only_twin_shares_its_donors_user_process(shape):
    """A monet_udc_users twin and its udc donor, each run alone, see the
    same positions and activity in every slot (common random numbers), and
    each slot's active users are split exactly between the two tiers."""
    doc = {"seed": 9, **shape, "users": {"total": 150, "hotspot": 60},
           "policy": {"t_activate": 2.0, "t_deactivate": None}}
    (donor,), (donor_trace,) = run_traced([parse_scenario({**doc, "topology": "udc"})])
    (twin,), (twin_trace,) = run_traced([parse_scenario({**doc, "topology": "monet_udc_users"})])
    for column in ("x", "y", "active"):
        np.testing.assert_array_equal(getattr(donor_trace, column),
                                      getattr(twin_trace, column))
    active = donor_trace.active.sum(axis=1)
    for result in (donor, twin):
        m = result.slot_metrics
        np.testing.assert_array_equal(m.macro_active_users + m.pico_active_users, active)
    assert donor.slot_metrics.pico_active_users.sum() > 0
