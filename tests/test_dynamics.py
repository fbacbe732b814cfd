"""The map, orbits, witness sets and the finiteness decision."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gsrs.dynamics import (
    BudgetExceeded,
    Cycle,
    brunotte_witnesses,
    decide_finiteness,
    gamma,
    gamma_variant,
    nontrivial_cycle,
    orbit,
    witness_graph,
    witness_order,
)
from gsrs.exact import GaussianInt, QComplex, complex_floor, qc_mul

gaussians = st.builds(
    GaussianInt,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
)
params = st.builds(
    QComplex,
    st.fractions(min_value=-1, max_value=1, max_denominator=16),
    st.fractions(min_value=-1, max_value=1, max_denominator=16),
)


@given(params, gaussians)
def test_gamma_definition(r, a):
    assert gamma(r, a) == -complex_floor(qc_mul(r, a))


@given(params, gaussians)
def test_gamma_variant_identities(r, a):
    assert gamma_variant(1, r, a) == gamma(r, a)
    assert gamma_variant(2, r, a) == -gamma(r, -a)
    assert gamma_variant(3, r, a) == gamma(r, a.conj()).conj()
    assert gamma_variant(4, r, a) == -(gamma(r, -a.conj()).conj())


def test_gamma_variant_rejects_bad_index():
    r = QComplex.make(Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        gamma_variant(5, r, GaussianInt(1, 0))


# -- cycles -----------------------------------------------------------------

def test_cycle_canonical_rotation_invariance():
    elems = [GaussianInt(2, 0), GaussianInt(-1, -1), GaussianInt(0, 2)]
    cycles = {
        Cycle.canonical(elems[k:] + elems[:k]) for k in range(len(elems))
    }
    assert len(cycles) == 1
    assert cycles.pop().elements[0] == GaussianInt(-1, -1)


def test_cycle_json_round_trip():
    cyc = Cycle.canonical(
        [GaussianInt(-2, 0), GaussianInt(2, 2), GaussianInt(0, -2)]
    )
    assert Cycle.from_json(cyc.to_json()) == cyc


def test_cycle_empty_rejected():
    with pytest.raises(ValueError):
        Cycle.canonical([])


# -- orbits -----------------------------------------------------------------

def test_orbit_reaches_zero():
    res = orbit(QComplex.make(Fraction(1, 2), Fraction(1, 2)), GaussianInt(1, 0))
    assert res.outcome == "zero"
    assert res.steps == 1


def test_orbit_from_zero():
    res = orbit(QComplex.make(Fraction(1, 2), 0), GaussianInt(0, 0))
    assert res.outcome == "zero"
    assert res.steps == 0


def test_orbit_finds_cycle():
    r = QComplex.make(Fraction(2, 3), Fraction(2, 3))
    res = orbit(r, GaussianInt(-2, 0))
    assert res.outcome == "cycle"
    assert res.cycle.verify(r)
    assert not res.cycle.is_trivial()


def test_orbit_budget_must_be_positive():
    with pytest.raises(ValueError):
        orbit(QComplex.make(0, 0), GaussianInt(1, 0), budget=0)


# -- witness sets -----------------------------------------------------------

def test_witnesses_contain_seed_and_are_closed():
    r = QComplex.make(Fraction(3, 5), Fraction(1, 5))
    w = brunotte_witnesses(r)
    for seed in (GaussianInt(1, 0), GaussianInt(-1, 0), GaussianInt(0, 1), GaussianInt(0, -1)):
        assert seed in w
    for a in w:
        for i in (1, 2, 3, 4):
            assert gamma_variant(i, r, a) in w


def test_witnesses_budget_raises():
    r = QComplex.make(Fraction(3, 5), Fraction(1, 5))
    with pytest.raises(BudgetExceeded):
        brunotte_witnesses(r, size_budget=2)


def test_witness_graph_edges_match_variants():
    r = QComplex.make(Fraction(1, 3), Fraction(1, 3))
    g = witness_graph(r)
    for a in g.vertices:
        for i in (1, 2, 3, 4):
            assert g.image(i, a) == gamma_variant(i, r, a)


def test_decide_finite():
    assert decide_finiteness(QComplex.make(Fraction(1, 2), Fraction(1, 2))).verdict == "finite"


def test_decide_infinite_with_certifying_cycle():
    r = QComplex.make(Fraction(2, 3), Fraction(2, 3))
    res = decide_finiteness(r)
    assert res.verdict == "infinite"
    assert res.witness_cycle.verify(r)
    assert not res.witness_cycle.is_trivial()


def test_decide_unknown_past_witness_budget():
    r = QComplex.make(Fraction(3, 5), Fraction(1, 5))
    assert decide_finiteness(r, size_budget=2).verdict == "unknown"


# -- the orbit walk against a walk of the graph's gamma edges -----------------

def edge_walk_cycle(g):
    """Reference: follow the E1 edges of the witness graph from each witness
    in witness order, remembering the vertices known to reach 0, and return
    the first cycle other than {0} met, or None."""
    step = g.edges[0]
    reaches_zero = {GaussianInt(0, 0)}
    for a in witness_order(g.vertices):
        path = {}  # vertex -> position on this walk
        x = a
        while x not in reaches_zero:
            if x in path:
                return Cycle.canonical(list(path)[path[x]:])
            path[x] = len(path)
            x = step[x]
        reaches_zero.update(path)
    return None


def check_walk(r):
    """The orbit walk and the edge walk agree on the verdict and the cycle,
    and `decide_finiteness` reports exactly that; returns the cycle."""
    g = witness_graph(r)
    cycle = nontrivial_cycle(r, g.vertices)
    assert cycle == edge_walk_cycle(g)
    res = decide_finiteness(r)
    if cycle is None:
        assert (res.verdict, res.witness_cycle) == ("finite", None)
    else:
        assert cycle.verify(r) and not cycle.is_trivial()
        assert (res.verdict, res.witness_cycle) == ("infinite", cycle)
    return cycle


def test_walk_rejects_a_set_not_closed_under_gamma():
    r = QComplex.make(Fraction(2, 3), Fraction(2, 3))
    a = GaussianInt(5, 0)
    assert orbit(r, a, 1).outcome == "budget"
    with pytest.raises(ValueError):
        nontrivial_cycle(r, {a})


# outside the region: 2/3 + 2i/3, and points near |r| = 0.97 at 20..170
# degrees, whose first cycles have lengths 11, 7, 5, 3, 1, 10, 12 and 1
INFINITE_POINTS = [
    ("2/3", "2/3"),
    ("91/100", "33/100"),
    ("21/25", "12/25"),
    ("37/50", "31/50"),
    ("31/50", "37/50"),
    ("-17/100", "24/25"),
    ("-37/50", "31/50"),
    ("-21/25", "12/25"),
    ("-24/25", "17/100"),
]


@pytest.mark.parametrize("re, im", INFINITE_POINTS)
def test_walk_matches_edge_walk_on_cycles(re, im):
    assert check_walk(QComplex.make(Fraction(re), Fraction(im))) is not None


rim_fractions = st.fractions(min_value=-1, max_value=1, max_denominator=100)
disk_params = st.builds(QComplex, rim_fractions, rim_fractions).filter(
    lambda r: r.norm2() < Fraction(97, 100) ** 2
)


@settings(max_examples=150, deadline=None)
@given(disk_params)
def test_walk_matches_edge_walk(r):
    check_walk(r)
