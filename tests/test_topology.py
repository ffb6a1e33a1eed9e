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
    Cell,
    CellKind,
    PlacementFailure,
    RingOverflow,
    Topology,
    TopologyError,
    build_coe,
    build_monet,
    build_udc,
    validate_topology,
)
from oracles import contains_point

RING_STEP = 0.22268202868192777  # 2*asin(50/450)


def test_monet_is_a_bare_macro_cell():
    topo = build_monet()
    assert topo.kind == "monet"
    assert (topo.macro.x, topo.macro.y, topo.macro.radius) == (500.0, 500.0, 500.0)
    assert topo.macro.kind is CellKind.MACRO
    assert topo.picos == ()
    validate_topology(topo)


class TestCoe:
    def test_ring_has_28_tangent_picos(self):
        topo = build_coe()
        assert len(topo.picos) == 28
        centers = topo.pico_centers()
        r_from_macro = np.hypot(centers[:, 0] - 500.0, centers[:, 1] - 500.0)
        np.testing.assert_allclose(r_from_macro, 450.0, atol=1e-9)
        # tangent to the macro edge: farthest point touches the boundary
        assert np.all(r_from_macro + 50.0 <= 500.0 + 1e-9)
        validate_topology(topo)

    def test_first_pico_sits_on_the_positive_x_axis(self):
        topo = build_coe()
        assert topo.picos[0].x == pytest.approx(950.0, abs=1e-9)
        assert topo.picos[0].y == pytest.approx(500.0, abs=1e-9)

    def test_adjacent_centers_are_exactly_one_diameter_apart(self):
        centers = build_coe().pico_centers()
        d = np.hypot(np.diff(centers[:, 0]), np.diff(centers[:, 1]))
        np.testing.assert_allclose(d, 100.0, atol=1e-9)

    def test_angular_step_value(self):
        theta = math.atan2(build_coe().picos[1].y - 500.0,
                           build_coe().picos[1].x - 500.0)
        assert theta == pytest.approx(RING_STEP, abs=1e-12)
        assert 28 * RING_STEP < 2 * math.pi
        assert 29 * RING_STEP > 2 * math.pi

    def test_29_picos_do_not_fit(self):
        with pytest.raises(RingOverflow):
            build_coe(n_picos=29)

    def test_single_pico_ring_is_fine(self):
        assert len(build_coe(n_picos=1).picos) == 1


class TestUdc:
    def test_placement_is_valid_and_reproducible(self):
        topo_a = build_udc(np.random.default_rng(42))
        topo_b = build_udc(np.random.default_rng(42))
        assert len(topo_a.picos) == 28
        validate_topology(topo_a)
        np.testing.assert_array_equal(topo_a.pico_centers(), topo_b.pico_centers())

    def test_different_streams_give_different_layouts(self):
        a = build_udc(np.random.default_rng(1)).pico_centers()
        b = build_udc(np.random.default_rng(2)).pico_centers()
        assert not np.array_equal(a, b)

    def test_centers_stay_one_radius_inside_the_macro_edge(self):
        centers = build_udc(np.random.default_rng(0)).pico_centers()
        d = np.hypot(centers[:, 0] - 500.0, centers[:, 1] - 500.0)
        assert d.max() <= 450.0 + 1e-9

    def test_impossible_packing_raises(self):
        # five 50 m discs cannot pack into a 150 m macro cell
        with pytest.raises(PlacementFailure):
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
        got = [(p.x, p.y) for p in build_udc(rngs[0], macro_r, r, n, attempts).picos]
    except PlacementFailure as exc:
        got = str(exc)
    try:
        want = oracles.udc_centres(rngs[1], macro_r, r, n, attempts)
    except PlacementFailure as exc:
        want = str(exc)
    assert got == want


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("macro_r, r, n", [(500.0, 50.0, 28), (500.0, 20.0, 200),
                                           (150.0, 30.0, 3)])
def test_udc_centres_equal_the_scalar_draw_scan(seed, macro_r, r, n):
    """The paper layout, the stress layout (many blocks of draws) and a
    small cell give the centres of the scan's one-uniform-per-call draws."""
    got = build_udc(np.random.default_rng(seed), macro_r, r, n).pico_centers()
    want = oracles.udc_centres(np.random.default_rng(seed), macro_r, r, n, 10_000)
    assert got.tolist() == [list(c) for c in want]


def test_udc_placement_fails_on_the_scans_pico():
    """60 picos of 50 m jam a 500 m cell; with 200 attempts each, both
    give up on the same pico."""
    with pytest.raises(PlacementFailure) as exc:
        build_udc(np.random.default_rng(3), 500.0, 50.0, 60, 200)
    with pytest.raises(PlacementFailure) as want:
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
    edge) or a udc packing, with some centres and radii moved by a few ulps
    or by up to a metre, so some picos escape or overlap by a hair."""
    macro_r = 500.0
    if draw(st.booleans()):
        topo = build_coe(macro_r, 50.0, draw(st.integers(0, 28)))
    else:
        topo = build_udc(np.random.default_rng(draw(st.integers(0, 99))),
                         macro_r, 20.0, draw(st.integers(0, 150)))
    picos = list(topo.picos)
    if picos:
        moves = st.tuples(st.integers(0, len(picos) - 1),
                          st.sampled_from(["x", "y", "radius"]),
                          st.integers(-4, 4) | st.floats(-1.0, 1.0))
        for i, field, by in draw(st.lists(moves, max_size=6)):
            v = getattr(picos[i], field)
            if isinstance(by, int):
                for _ in range(abs(by)):
                    v = float(np.nextafter(v, np.inf if by > 0 else -np.inf))
            else:
                v += by
            picos[i] = dataclasses.replace(picos[i], **{field: v})
    return Topology(topo.kind, topo.macro, tuple(picos))


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
    picos = list(build_udc(np.random.default_rng(5), 500.0, 5.0, 700).picos)
    for i, onto in moves:
        picos[i] = dataclasses.replace(picos[i], x=picos[onto].x + 3.0, y=picos[onto].y)
    topo = Topology("udc", build_monet().macro, tuple(picos))
    error = validation_error(validate_topology, topo)
    assert error == validation_error(oracles.validate_topology, topo)
    assert (error is None) == (not moves)


def containing_pico(topo, x, y):
    """The pico the engine's containment kernel puts (x, y) in, or None."""
    centres = topo.pico_centers()
    index = kernels.disc_index(centres[:, 0], centres[:, 1], topo.pico_radius())
    hit = int(kernels.containing_disc(np.array([x]), np.array([y]), index)[0])
    return None if hit < 0 else hit


class TestContainingPico:
    def test_interior_point_resolves_to_its_disc(self):
        topo = build_coe()
        p = topo.picos[3]
        assert containing_pico(topo, p.x + 1.0, p.y - 2.0) == 3

    def test_boundary_is_outside(self):
        topo = build_coe()
        p = topo.picos[0]
        assert containing_pico(topo, p.x + 50.0, p.y) is None
        assert containing_pico(topo, p.x + 49.999, p.y) == 0

    def test_open_ground_resolves_to_none(self):
        assert containing_pico(build_coe(), 500.0, 500.0) is None

    def test_ties_break_to_the_lowest_id(self):
        # hand-built overlapping discs; resolution must not depend on order
        macro = Cell(-1, 500.0, 500.0, 500.0, CellKind.MACRO)
        picos = (
            Cell(0, 480.0, 500.0, 50.0, CellKind.PICO),
            Cell(1, 520.0, 500.0, 50.0, CellKind.PICO),
        )
        topo = Topology("udc", macro, picos)
        assert containing_pico(topo, 500.0, 500.0) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0))
    def test_matches_exhaustive_scan(self, x, y):
        topo = build_udc(np.random.default_rng(7))
        hits = [p.id for p in topo.picos if contains_point(p, x, y)]
        assert containing_pico(topo, x, y) == (min(hits) if hits else None)


def test_validate_rejects_escaping_pico():
    macro = Cell(-1, 500.0, 500.0, 500.0, CellKind.MACRO)
    stray = Cell(0, 990.0, 500.0, 50.0, CellKind.PICO)
    with pytest.raises(Exception):
        validate_topology(Topology("udc", macro, (stray,)))


def test_validate_rejects_overlap():
    macro = Cell(-1, 500.0, 500.0, 500.0, CellKind.MACRO)
    picos = (
        Cell(0, 400.0, 500.0, 50.0, CellKind.PICO),
        Cell(1, 480.0, 500.0, 50.0, CellKind.PICO),
    )
    with pytest.raises(Exception):
        validate_topology(Topology("udc", macro, picos))


def test_json_round_trip_structure():
    doc = json.loads(build_coe().to_json())
    assert doc["kind"] == "coe"
    assert doc["macro"]["r"] == 500.0
    assert len(doc["picos"]) == 28
    assert {"id", "x", "y", "r"} <= set(doc["picos"][0])
