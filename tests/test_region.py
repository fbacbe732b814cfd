"""The conjectured region: vertices, chain, membership, measures, SVG."""

import random
from fractions import Fraction

import pytest

from gsrs.exact import QComplex
from gsrs.region import (
    area_estimate,
    boundary_chain,
    boundary_svg,
    cells_svg_overlay,
    local_gc_cells,
    measure_json,
    perimeter_estimate,
    prefix_gc_cells,
    prefix_window,
    region_contains,
    sector_window,
    sqrt_bracket_num,
    vertex,
)


def qc(x, y):
    return QComplex.make(Fraction(x), Fraction(y))


# -- vertices ---------------------------------------------------------------

def test_vertex_values():
    assert vertex(0, 1) == qc(1, 0)
    assert vertex(0, 2) == qc("22/23", "4/23")
    assert vertex(4, 3) == qc("8/9", "1/3")
    assert vertex(5, 1) == qc("1/2", "1/2")
    assert vertex(5, 0) == qc(0, 0)
    assert vertex(6, 0) == qc(0, 1)
    assert vertex(10, 8) == qc("76/78", "9/78")


def test_vertex_domain_errors():
    with pytest.raises(ValueError):
        vertex(0, 4)
    with pytest.raises(ValueError):
        vertex(11, 5)
    with pytest.raises(ValueError):
        vertex(3, 1)
    with pytest.raises(ValueError):
        vertex(4, 0)


def test_radial_spike_slopes():
    # P_5(n) and P_6(n) lie on the ray of slope 1/n
    for n in range(1, 101):
        p5, p6 = vertex(5, n), vertex(6, n)
        assert p5.im * n == p5.re
        assert p6.im * n == p6.re


def test_spike_length_closed_form():
    # |P_5(n) - P_6(n)|^2 = (n^2+1) / ((n^2+1)(n^2+n+1))^2
    for n in range(8, 101):
        d2 = (vertex(6, n) - vertex(5, n)).norm2()
        a, b = n * n + 1, n * n + n + 1
        assert d2 == Fraction(a, (a * b) ** 2)


# -- the chain --------------------------------------------------------------

def test_chain_structure():
    chain = boundary_chain(10)
    assert len(chain.edge_solid) == len(chain.points) - 1
    assert len(chain.overline) == len(chain.points)
    assert chain.points[0] == qc(1, 0)
    # ten vertices per regular pike
    assert sum(1 for k in chain.pike_index if k == 9) == 10
    # the chain is strictly inside the closed unit disk after the start
    assert all(p.norm2() <= 1 for p in chain.points)


def test_chain_needs_a_pike():
    with pytest.raises(ValueError):
        boundary_chain(0)


# -- membership -------------------------------------------------------------

def test_region_contains_known_points():
    assert region_contains(qc(0, 0))
    assert region_contains(qc("1/2", "1/2"))
    assert region_contains(qc("1/2", "-1/2"))
    assert region_contains(qc("3/5", "3/5"))
    assert region_contains(qc(0, "99/100"))
    assert not region_contains(qc(1, 0))
    assert not region_contains(qc(0, 1))
    assert not region_contains(qc("2/3", "2/3"))
    assert not region_contains(qc("-1/10", "1/10"))
    assert not region_contains(qc(1, 1))


def test_region_boundary_markup():
    # marked vertices belong, unmarked ones do not (regular pikes)
    for n in (8, 9, 12):
        assert region_contains(vertex(1, n))
        assert region_contains(vertex(5, n))
        assert not region_contains(vertex(4, n))
        assert not region_contains(vertex(6, n))


def test_region_conjugation_symmetry():
    rng = random.Random(3)
    for _ in range(50):
        den = rng.randrange(1, 30)
        p = QComplex.make(
            Fraction(rng.randrange(0, den + 1), den),
            Fraction(rng.randrange(-den, den + 1), den),
        )
        assert region_contains(p) == region_contains(p.conj())


def test_region_is_star_shaped_on_samples():
    rng = random.Random(5)
    for _ in range(30):
        den = rng.randrange(2, 20)
        p = QComplex.make(
            Fraction(rng.randrange(0, den + 1), den),
            Fraction(rng.randrange(-den, den + 1), den),
        )
        if region_contains(p):
            half = p * QComplex.make(Fraction(1, 2), 0)
            assert region_contains(half)


# -- windows and local cells ------------------------------------------------

def test_sector_window_markup():
    w = sector_window(9)
    assert w.contains(qc(1, "1/8"))       # slope 1/8 included
    assert not w.contains(qc(1, "1/9"))   # slope 1/9 excluded (next sector)
    assert w.contains(qc("1/2", "1/17"))
    with pytest.raises(ValueError):
        sector_window(6)


def test_prefix_window_markup():
    w = prefix_window()
    assert w.contains(qc("1/2", "1/2"))
    assert not w.contains(qc(0, "1/2"))    # imaginary axis excluded
    assert not w.contains(qc(1, "1/7"))    # slope 1/7 belongs to sector 7


def test_local_cells_agree_with_membership():
    n = 9
    window = sector_window(n)
    cells = local_gc_cells(n)
    rng = random.Random(17)
    checked = 0
    while checked < 200:
        den = rng.randrange(8, 40)
        p = QComplex.make(
            Fraction(rng.randrange(0, den + 1), den),
            Fraction(rng.randrange(0, den // 4 + 1), den),
        )
        if not window.contains(p):
            continue
        checked += 1
        assert any(c.contains(p) for c in cells) == region_contains(p)


def test_prefix_cells_agree_with_membership():
    window = prefix_window()
    cells = prefix_gc_cells()
    rng = random.Random(19)
    checked = 0
    while checked < 200:
        den = rng.randrange(4, 40)
        p = QComplex.make(
            Fraction(rng.randrange(0, den + 1), den),
            Fraction(rng.randrange(0, den + 1), den),
        )
        if not window.contains(p):
            continue
        checked += 1
        assert any(c.contains(p) for c in cells) == region_contains(p)


# -- measures ---------------------------------------------------------------

def test_sqrt_bracket():
    for q in (Fraction(2), Fraction(1, 3), Fraction(49), Fraction(7, 11)):
        lo, hi = sqrt_bracket_num(q, 64)
        assert Fraction(lo, 1 << 64) ** 2 <= q <= Fraction(hi, 1 << 64) ** 2
    with pytest.raises(ValueError):
        sqrt_bracket_num(Fraction(-1), 64)


def test_estimates_tighten_with_depth():
    p_lo1, p_hi1 = perimeter_estimate(100)
    p_lo2, p_hi2 = perimeter_estimate(400)
    assert p_lo1 <= p_lo2 <= p_hi2 <= p_hi1
    a_lo1, a_hi1 = area_estimate(100)
    a_lo2, a_hi2 = area_estimate(400)
    assert a_lo1 <= a_lo2 < a_hi2 and a_hi2 - a_lo2 < a_hi1 - a_lo1
    # the tighter bracket stays inside the looser one's span
    assert a_lo1 <= a_lo2 and a_hi2 <= a_hi1 + (a_hi1 - a_lo1)


def test_measure_json_shape():
    data = measure_json(50, 128)
    assert data["n_pikes"] == 50
    assert set(data["perimeter"]) == {"low", "high"}
    assert set(data["area"]) == {"low", "high"}


# -- SVG --------------------------------------------------------------------

def test_boundary_svg_smoke():
    svg = boundary_svg(10, width=400)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "stroke-dasharray" in svg   # dotted edges rendered dashed
    assert '<circle' in svg
    zoom = boundary_svg(10, window=(Fraction(9, 10), 0, 1, Fraction(1, 8)))
    assert zoom.startswith("<svg")


def test_cells_svg_overlay_smoke():
    svg = cells_svg_overlay(local_gc_cells(9)[:5])
    assert "<polygon" in svg or "<line" in svg or "<circle" in svg
