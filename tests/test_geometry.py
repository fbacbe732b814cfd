"""Half-open convex cells and their boolean difference."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gsrs.exact import QComplex
from gsrs.geometry import (
    Cell,
    HalfPlane,
    closures_intersect,
    disk_relation,
    intersect_halfplanes,
    subtract_cover,
)


def qc(x, y):
    return QComplex.make(Fraction(x), Fraction(y))


def square(b):
    """The closed square [-b, b]^2."""
    return Cell.from_closure([qc(-b, -b), qc(b, -b), qc(b, b), qc(-b, b)], [])


def test_halfplane_normalization():
    h = HalfPlane.make(4, -2, 6)
    assert (h.a, h.b, h.c) == (1, Fraction(-1, 2), Fraction(3, 2))
    v = HalfPlane.make(0, -3, 1)
    assert (v.a, v.b, v.c) == (0, -1, Fraction(1, 3))


def test_halfplane_needs_normal():
    with pytest.raises(ValueError):
        HalfPlane.make(0, 0, 1)


def test_halfplane_complement():
    h = HalfPlane.make(1, 2, -1, strict=False)
    c = h.complement()
    assert c.strict and c.complement() == h
    p = qc(2, 0)
    # every point satisfies exactly one of the pair
    for pt in (qc(0, 0), qc(1, 0), qc(2, 3)):
        in_h = h.eval(pt) > 0 or (h.eval(pt) == 0 and not h.strict)
        in_c = c.eval(pt) > 0 or (c.eval(pt) == 0 and not c.strict)
        assert in_h != in_c


def test_intersect_halfplanes_unit_square():
    cell = intersect_halfplanes([
        HalfPlane.make(1, 0, 0),
        HalfPlane.make(-1, 0, 1),
        HalfPlane.make(0, 1, 0),
        HalfPlane.make(0, -1, 1),
    ])
    assert cell.dim == 2
    assert set(cell.vertices) == {qc(0, 0), qc(1, 0), qc(1, 1), qc(0, 1)}
    assert all(cell.edge_solid) and all(cell.vertex_member)


def test_half_open_square_markup():
    # [0, 1) x [0, 1): the two upper/right edges and three corners excluded
    cell = intersect_halfplanes([
        HalfPlane.make(1, 0, 0),
        HalfPlane.make(-1, 0, 1, strict=True),
        HalfPlane.make(0, 1, 0),
        HalfPlane.make(0, -1, 1, strict=True),
    ])
    assert cell.contains(qc(0, 0))
    assert cell.contains(qc("1/2", 0))
    assert not cell.contains(qc(1, 0))
    assert not cell.contains(qc("1/2", 1))
    assert sum(cell.edge_solid) == 2
    assert sum(cell.vertex_member) == 1


def test_degenerate_segment_and_point():
    seg = intersect_halfplanes([
        HalfPlane.make(0, 1, 0),
        HalfPlane.make(0, -1, 0),
        HalfPlane.make(1, 0, 0),
        HalfPlane.make(-1, 0, 1),
    ])
    assert seg.dim == 1
    assert seg.vertices == (qc(0, 0), qc(1, 0))
    pt = intersect_halfplanes([
        HalfPlane.make(0, 1, 0), HalfPlane.make(0, -1, 0),
        HalfPlane.make(1, 0, 0), HalfPlane.make(-1, 0, 0),
    ])
    assert pt.dim == 0
    empty = intersect_halfplanes([HalfPlane.make(1, 0, 0, strict=True),
                                  HalfPlane.make(-1, 0, 0, strict=True)])
    assert empty.is_empty()
    assert not empty.contains(qc(0, 0))


def test_cell_constraints_reproduce_cell():
    cell = intersect_halfplanes([
        HalfPlane.make(1, 0, 0, strict=True),
        HalfPlane.make(-2, -1, 2),
        HalfPlane.make(0, 1, 0),
    ])
    again = intersect_halfplanes(cell.constraints)
    assert again == cell


def test_interior_point_belongs():
    cell = intersect_halfplanes([
        HalfPlane.make(1, 0, 0, strict=True),
        HalfPlane.make(0, 1, 0, strict=True),
        HalfPlane.make(-1, -1, 1, strict=True),
    ])
    assert cell.contains(cell.interior_point())


def test_from_markup_canonicalizes():
    # same triangle entered in both orientations
    tri = [qc(0, 0), qc(1, 0), qc(0, 1)]
    a = Cell.from_markup(tri, [True, True, False], [True, True, False])
    b = Cell.from_markup(
        list(reversed(tri)), [True, True, False], [False, True, True]
    )
    assert a == b


def _random_system(rng):
    """A few random constraints, strict and non-strict; a non-strict
    half-plane paired with its opposite pins a line, so the cells include
    segments and points as well as polygons."""
    hs = []
    for _ in range(rng.randrange(1, 6)):
        a, b = rng.randrange(-3, 4), rng.randrange(-3, 4)
        if a == 0 and b == 0:
            b = 1
        c = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        if rng.random() < 0.3:
            hs += [HalfPlane.make(a, b, c), HalfPlane.make(-a, -b, -c)]
        else:
            hs.append(HalfPlane.make(a, b, c, strict=rng.random() < 0.5))
    return hs


def test_from_markup_reproduces_cells_from_every_entry():
    rng = random.Random(7)
    dims = set()
    for _ in range(400):
        cell = intersect_halfplanes(_random_system(rng))
        if cell.is_empty():
            continue
        dims.add(cell.dim)
        vs, es, ms = cell.vertices, cell.edge_solid, cell.vertex_member
        assert Cell.from_markup(vs, es, ms) == cell
        n = len(vs)
        # the full ring: a segment's closing edge is its one open edge
        # again, a point's edge is the point itself
        ring = es if n > 2 else (True,) * n
        rev_vs = vs[::-1]
        rev_ms = ms[::-1]
        # reversed edge j joins original vertices n-1-j and n-2-j
        rev_es = tuple(ring[(n - 2 - j) % n] for j in range(n))
        for v, e, m in ((vs, ring, ms), (rev_vs, rev_es, rev_ms)):
            for k in range(n):
                entry = (v[k:] + v[:k], e[k:] + e[:k], m[k:] + m[:k])
                assert Cell.from_markup(*entry) == cell, entry
    assert dims == {0, 1, 2}


def test_collinear_ring_keeps_its_segment():
    # a clip along an edge of a start polygon with a collinear vertex on
    # that edge leaves three collinear points: the segment between the
    # outer two, not the first point
    start = [qc(0, 0), qc(1, 0), qc(2, 0), qc(2, 2), qc(0, 2)]
    seg = intersect_halfplanes([HalfPlane.make(0, -1, 0)], start_poly=start)
    assert seg == Cell((qc(0, 0), qc(2, 0)), (True,), (True, True))
    assert Cell.from_closure([qc(0, 0), qc(1, 0), qc(2, 0)], []) == seg


def test_from_markup_rejects_mismatched_flags():
    tri = [qc(0, 0), qc(1, 0), qc(0, 1)]
    with pytest.raises(ValueError):
        Cell.from_markup(tri, [True, True], [True, True, True])
    with pytest.raises(ValueError):
        Cell.from_markup(tri, [True, True, True], [True, True])


# -- subtraction ------------------------------------------------------------

def _random_point(rng, lo=-2, hi=2):
    den = rng.randrange(1, 17)
    return QComplex.make(
        Fraction(rng.randrange(lo * den, hi * den + 1), den),
        Fraction(rng.randrange(lo * den, hi * den + 1), den),
    )


def _random_cover(rng):
    hs = []
    for _ in range(3):
        a = rng.randrange(-3, 4)
        b = rng.randrange(-3, 4)
        if a == 0 and b == 0:
            a = 1
        hs.append(HalfPlane.make(a, b, Fraction(rng.randrange(-4, 5), 2),
                                 strict=rng.random() < 0.5))
    return intersect_halfplanes(hs)


def test_subtract_cover_probe_consistency():
    rng = random.Random(11)
    target = square(Fraction(3, 2))
    for trial in range(20):
        covers = [_random_cover(rng) for _ in range(3)]
        residuals = subtract_cover(target, covers)
        for _ in range(50):
            p = _random_point(rng)
            expected = target.contains(p) and not any(c.contains(p) for c in covers)
            hits = sum(cell.contains(p) for cell in residuals)
            assert hits <= 1  # pairwise disjoint
            assert (hits == 1) == expected


def test_subtract_cover_empty_and_total():
    target = square(1)
    assert subtract_cover(target, [target]) == []
    assert subtract_cover(target, [Cell.empty()]) == [target]
    assert subtract_cover(Cell.empty(), [target]) == []


# -- disk relations ---------------------------------------------------------

def test_disk_relation_basic():
    inside = Cell.from_closure([qc("1/4", 0), qc("1/2", 0), qc("1/4", "1/4")], [])
    assert disk_relation(inside) == "inside"
    outside = Cell.from_closure([qc(2, 2), qc(3, 2), qc(2, 3)], [])
    assert disk_relation(outside) == "outside"
    meets = Cell.from_closure([qc(0, 0), qc(2, 0), qc(0, 2)], [])
    assert disk_relation(meets) == "meets"


def test_disk_relation_half_open_touch():
    # a segment whose closure touches the circle only at an excluded endpoint
    seg_excl = Cell.from_markup([qc(1, 0), qc(2, 0)], [True], [False, True])
    assert disk_relation(seg_excl) == "outside"
    seg_incl = Cell.from_markup([qc(1, 0), qc(2, 0)], [True], [True, True])
    assert disk_relation(seg_incl) == "meets"


def test_disk_relation_rejects_empty():
    with pytest.raises(ValueError):
        disk_relation(Cell.empty())


def test_closures_intersect():
    a = Cell.from_closure([qc(0, 0), qc(1, 0), qc(0, 1)], [])
    b = Cell.from_closure([qc(1, 1), qc(2, 1), qc(1, 2)], [])
    c = Cell.from_closure([qc("1/2", "1/2"), qc(2, 0), qc(2, 2)], [])
    assert not closures_intersect(a, b)
    assert closures_intersect(a, c)
    assert not closures_intersect(a, Cell.empty())
