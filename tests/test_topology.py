"""Layout construction: ring geometry, random placement, containment."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hetnetsim import kernels
from hetnetsim.topology import (
    Topology,
    TopologyError,
    build_coe,
    build_monet,
    build_udc,
    validate_topology,
)

RING_STEP = 0.22268202868192777  # 2*asin(50/450)


def layout(cx, cy, r=50.0):
    """A hand-built layout of picos of radius r in a 500 m macro cell."""
    return Topology("udc", 500.0, np.array(cx, dtype=float), np.array(cy, dtype=float), r)


def test_monet_is_a_bare_macro_cell():
    topo = build_monet()
    assert topo.kind == "monet"
    assert topo.macro_radius == 500.0
    assert topo.cx.shape == topo.cy.shape == (0,)
    validate_topology(topo)


@pytest.mark.parametrize("topo", [build_monet(), build_coe(), build_udc(np.random.default_rng(1))],
                         ids=["monet", "coe", "udc"])
def test_built_layouts_cannot_be_changed(topo):
    """The centre columns are read-only, and the fields cannot be rebound."""
    for column in (topo.cx, topo.cy):
        with pytest.raises(ValueError, match="read-only"):
            column[:1] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            column += 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        topo.pico_radius = 1.0


class TestCoe:
    def test_ring_has_28_tangent_picos(self):
        topo = build_coe()
        assert topo.cx.size == 28
        r_from_macro = np.hypot(topo.cx - 500.0, topo.cy - 500.0)
        np.testing.assert_allclose(r_from_macro, 450.0, atol=1e-9)
        # tangent to the macro edge: farthest point touches the boundary
        assert np.all(r_from_macro + 50.0 <= 500.0 + 1e-9)
        validate_topology(topo)

    def test_first_pico_sits_on_the_positive_x_axis(self):
        topo = build_coe()
        assert topo.cx[0] == pytest.approx(950.0, abs=1e-9)
        assert topo.cy[0] == pytest.approx(500.0, abs=1e-9)

    def test_adjacent_centers_are_exactly_one_diameter_apart(self):
        topo = build_coe()
        d = np.hypot(np.diff(topo.cx), np.diff(topo.cy))
        np.testing.assert_allclose(d, 100.0, atol=1e-9)

    def test_angular_step_value(self):
        topo = build_coe()
        theta = math.atan2(topo.cy[1] - 500.0, topo.cx[1] - 500.0)
        assert theta == pytest.approx(RING_STEP, abs=1e-12)
        assert 28 * RING_STEP < 2 * math.pi
        assert 29 * RING_STEP > 2 * math.pi

    def test_29_picos_do_not_fit(self):
        with pytest.raises(TopologyError, match="^29 picos of radius 50.0 do not fit"):
            build_coe(n_picos=29)

    def test_single_pico_ring_is_fine(self):
        assert build_coe(n_picos=1).cx.size == 1


class TestUdc:
    def test_placement_is_valid_and_reproducible(self):
        topo_a = build_udc(np.random.default_rng(42))
        topo_b = build_udc(np.random.default_rng(42))
        assert topo_a.cx.size == 28
        validate_topology(topo_a)
        np.testing.assert_array_equal(topo_a.cx, topo_b.cx)
        np.testing.assert_array_equal(topo_a.cy, topo_b.cy)

    def test_different_streams_give_different_layouts(self):
        a = build_udc(np.random.default_rng(1))
        b = build_udc(np.random.default_rng(2))
        assert not np.array_equal(a.cx, b.cx)

    def test_centers_stay_one_radius_inside_the_macro_edge(self):
        topo = build_udc(np.random.default_rng(0))
        d = np.hypot(topo.cx - 500.0, topo.cy - 500.0)
        assert d.max() <= 450.0 + 1e-9

    def test_impossible_packing_raises(self):
        # five 50 m discs cannot pack into a 150 m macro cell
        with pytest.raises(TopologyError, match="^could not place pico "):
            build_udc(np.random.default_rng(0), macro_radius=150.0,
                      n_picos=5, max_attempts=2000)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), macro_r=st.sampled_from([150.0, 500.0]),
       r=st.floats(2.0, 120.0), fill=st.floats(0.0, 1.0),
       attempts=st.sampled_from([1, 30, 10_000]))
def test_udc_placement_equals_the_scan(seed, macro_r, r, fill, attempts):
    """build_udc places the centres the plain scan places, from the same
    sequence of draws, or fails on the same pico; counts up to the area
    limit, so a small budget or a dense count jams.  build_udc draws in
    blocks, so its generator ends further along than the scan's."""
    r = min(r, macro_r / 3)
    n = min(300, int(fill * (macro_r / r) ** 2))
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        topo = build_udc(rngs[0], macro_r, r, n, attempts)
        got = list(zip(topo.cx.tolist(), topo.cy.tolist()))
    except TopologyError as exc:
        got = str(exc)
    try:
        want = oracles.udc_centres(rngs[1], macro_r, r, n, attempts)
    except TopologyError as exc:
        want = str(exc)
    assert got == want


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("macro_r, r, n", [(500.0, 50.0, 28), (500.0, 20.0, 200),
                                           (150.0, 30.0, 3)])
def test_udc_centres_equal_the_scalar_draw_scan(seed, macro_r, r, n):
    """The paper layout, the stress layout (many blocks of draws) and a
    small cell give the centres of the scan's one-uniform-per-call draws."""
    got = build_udc(np.random.default_rng(seed), macro_r, r, n)
    want = oracles.udc_centres(np.random.default_rng(seed), macro_r, r, n, 10_000)
    assert list(zip(got.cx.tolist(), got.cy.tolist())) == want


def test_udc_placement_fails_on_the_scans_pico():
    """60 picos of 50 m jam a 500 m cell; with 200 attempts each, both
    give up on the same pico."""
    with pytest.raises(TopologyError) as exc:
        build_udc(np.random.default_rng(3), 500.0, 50.0, 60, 200)
    with pytest.raises(TopologyError) as want:
        oracles.udc_centres(np.random.default_rng(3), 500.0, 50.0, 60, 200)
    assert str(exc.value) == str(want.value)
    assert str(exc.value) == "could not place pico 44 after 200 attempts"


def validation_error(validate, topo):
    try:
        validate(topo)
    except TopologyError as exc:
        return str(exc)
    return None


@st.composite
def near_valid_layouts(draw):
    """A coe ring (neighbours tangent, every pico tangent to the macro
    edge) or a udc packing, with some centres and the shared radius moved
    by a few ulps or by up to a metre, so some picos escape or overlap by a
    hair."""
    macro_r = 500.0
    if draw(st.booleans()):
        topo = build_coe(macro_r, 50.0, draw(st.integers(0, 28)))
    else:
        topo = build_udc(np.random.default_rng(draw(st.integers(0, 99))),
                         macro_r, 20.0, draw(st.integers(0, 150)))
    cx, cy, r = topo.cx.copy(), topo.cy.copy(), topo.pico_radius

    def move(v, by):
        if isinstance(by, int):
            for _ in range(abs(by)):
                v = float(np.nextafter(v, np.inf if by > 0 else -np.inf))
            return v
        return v + by

    by = st.integers(-4, 4) | st.floats(-1.0, 1.0)
    if cx.size:
        moves = st.tuples(st.integers(0, cx.size - 1), st.sampled_from("xy"), by)
        for i, axis, step in draw(st.lists(moves, max_size=6)):
            column = cx if axis == "x" else cy
            column[i] = move(float(column[i]), step)
        if draw(st.booleans()):
            r = move(r, draw(by))
    return Topology(topo.kind, macro_r, cx, cy, r)


@settings(max_examples=200, deadline=None)
@given(topo=near_valid_layouts())
def test_validation_equals_the_pairwise_scan(topo):
    """validate_topology raises what the plain scan raises, for the first
    escaping pico, then the first overlapping pair, or nothing."""
    assert (validation_error(validate_topology, topo)
            == validation_error(oracles.validate_topology, topo))


@pytest.mark.parametrize("moves", [(), ((650, 600),), ((690, 10), (620, 600))])
def test_validation_of_many_picos_equals_the_pairwise_scan(moves):
    """700 picos, so the overlap screen runs in more than one block of
    rows; each move puts a pico 3 m from another (5 m picos overlap)."""
    built = build_udc(np.random.default_rng(5), 500.0, 5.0, 700)
    cx, cy = built.cx.copy(), built.cy.copy()
    for i, onto in moves:
        cx[i], cy[i] = cx[onto] + 3.0, cy[onto]
    topo = Topology("udc", 500.0, cx, cy, 5.0)
    error = validation_error(validate_topology, topo)
    assert error == validation_error(oracles.validate_topology, topo)
    assert (error is None) == (not moves)


def containing_pico(topo, x, y):
    """The pico the engine's containment kernel puts (x, y) in, or None."""
    index = kernels.disc_index(topo.cx, topo.cy, topo.pico_radius)
    hit = int(kernels.containing_disc(np.array([x]), np.array([y]), index)[0])
    return None if hit < 0 else hit


class TestContainingPico:
    def test_interior_point_resolves_to_its_disc(self):
        topo = build_coe()
        assert containing_pico(topo, topo.cx[3] + 1.0, topo.cy[3] - 2.0) == 3

    def test_boundary_is_outside(self):
        topo = build_coe()
        x, y = topo.cx[0], topo.cy[0]
        assert containing_pico(topo, x + 50.0, y) is None
        assert containing_pico(topo, x + 49.999, y) == 0

    def test_open_ground_resolves_to_none(self):
        assert containing_pico(build_coe(), 500.0, 500.0) is None

    def test_ties_break_to_the_lowest_id(self):
        # hand-built overlapping discs; resolution must not depend on order
        topo = layout([480.0, 520.0], [500.0, 500.0])
        assert containing_pico(topo, 500.0, 500.0) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0))
    def test_matches_exhaustive_scan(self, x, y):
        topo = build_udc(np.random.default_rng(7))
        assert containing_pico(topo, x, y) == oracles.containing_pico(topo, x, y)


def test_validate_rejects_escaping_pico():
    with pytest.raises(Exception):
        validate_topology(layout([990.0], [500.0]))


def _assert_overlap_rejected(r):
    with pytest.raises(TopologyError, match="^picos 0 and 1 overlap$"):
        validate_topology(layout([500.0 - 0.8 * r, 500.0 + 0.8 * r], [500.0, 500.0], r))


def test_validate_rejects_overlap():
    """Two 50 m picos with centres 80 m apart."""
    _assert_overlap_rejected(50.0)


@pytest.mark.parametrize("r", [1e-3, 1e-10, 1e-300])
def test_validate_rejects_overlap_of_tiny_picos(r):
    """Centres 1.6 r apart, or rounded onto one point: the overlap slack
    is 1e-9 of the diameter, not a fixed length."""
    _assert_overlap_rejected(r)


def test_json_round_trip_structure():
    doc = json.loads(build_coe().to_json())
    assert doc["kind"] == "coe"
    assert doc["macro"]["r"] == 500.0
    assert len(doc["picos"]) == 28
    assert {"id", "x", "y", "r"} <= set(doc["picos"][0])
