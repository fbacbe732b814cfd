"""Cutout polygons of cycles and witness polyhedra."""

from fractions import Fraction

from hypothesis import given, strategies as st

from gsrs.cutout import (
    cycle_polygon,
    floor_constraints,
    witness_constraints,
    witness_polyhedron,
)
from gsrs.dynamics import decide_finiteness, witness_graph
from gsrs.exact import GaussianInt, QComplex, complex_floor, qc_mul
from gsrs.families import FamilyInstance, instance_cycle
from gsrs.geometry import intersect_halfplanes

params = st.builds(
    QComplex,
    st.fractions(min_value=-1, max_value=1, max_denominator=24),
    st.fractions(min_value=-1, max_value=1, max_denominator=24),
)
gaussians = st.builds(
    GaussianInt,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-6, max_value=6),
)


@given(params, gaussians)
def test_floor_constraints_characterize_floor(r, z):
    if z.is_zero():
        assert floor_constraints(z, GaussianInt(0, 0)) == []
        return
    k = complex_floor(qc_mul(r, z))
    good = floor_constraints(z, k)
    assert all(
        h.eval(r) > 0 or (h.eval(r) >= 0 and not h.strict) for h in good
    )
    # a wrong floor value must be infeasible at r
    bad = floor_constraints(z, k + GaussianInt(1, 0))
    assert any(
        h.eval(r) < 0 or (h.eval(r) == 0 and h.strict) for h in bad
    )


def test_cycle_polygon_closed_point():
    cyc = instance_cycle(FamilyInstance(0, 1))
    cell = cycle_polygon(cyc)
    assert cell.dim == 0
    assert cell.vertices == (QComplex.make(Fraction(2, 3), Fraction(2, 3)),)
    assert cell.vertex_member == (True,)


def test_cycle_polygon_realizes_cycle():
    for key in (2, 4, 8, 15, 25):
        cyc = instance_cycle(FamilyInstance(0, key))
        cell = cycle_polygon(cyc)
        assert not cell.is_empty()
        r = cell.interior_point()
        assert cell.contains(r)
        assert cyc.verify(r)


def test_cycle_polygon_excludes_other_parameters():
    cyc = instance_cycle(FamilyInstance(0, 1))
    cell = cycle_polygon(cyc)
    assert not cell.contains(QComplex.make(Fraction(1, 2), Fraction(1, 2)))


def test_witness_polyhedron_contains_parameter():
    for r in (
        QComplex.make(Fraction(1, 3), Fraction(1, 5)),
        QComplex.make(Fraction(-2, 7), Fraction(1, 4)),
        QComplex.make(Fraction(3, 5), Fraction(1, 5)),
    ):
        g = witness_graph(r)
        cell = witness_polyhedron(g)
        assert cell.contains(r)
        # the full polyhedron refines every single witness's cell
        for a in g.vertices:
            assert intersect_halfplanes(witness_constraints(g, a)).contains(r)


def test_witness_polyhedron_parameters_share_graph():
    r = QComplex.make(Fraction(1, 4), Fraction(1, 6))
    g = witness_graph(r)
    cell = witness_polyhedron(g)
    p = cell.interior_point()
    g2 = witness_graph(p)
    assert g2.vertices == g.vertices
    assert g2.edges == g.edges


def test_infinite_verdict_cycle_cuts_out_parameter():
    r = QComplex.make(Fraction(9, 10), Fraction(2, 5))
    res = decide_finiteness(r)
    assert res.verdict == "infinite"
    assert cycle_polygon(res.witness_cycle).contains(r)
