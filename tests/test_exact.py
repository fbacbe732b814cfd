"""Exact arithmetic primitives."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gsrs.exact import (
    GaussianInt,
    QComplex,
    complex_floor,
    format_rational,
    parse_rational,
    qc_mul,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=64
)
gaussians = st.builds(
    GaussianInt,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
)
qcomplexes = st.builds(QComplex, rationals, rationals)


@given(rationals)
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_format_rational_integers():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3, 6)) == "-1/2"


@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == GaussianInt(0, 0)
    assert a - b == a + (-b)


@given(gaussians, gaussians)
def test_gaussian_norm_and_conj(a, b):
    assert (a * b).norm2() == a.norm2() * b.norm2()
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a
    assert a.norm2() == (a * a.conj()).re
    assert a.is_zero() == (a == GaussianInt(0, 0))


@given(qcomplexes, qcomplexes)
def test_qcomplex_field_ops(p, q):
    assert p + q == q + p
    assert p * q == q * p
    assert (p - q) + q == p
    assert (-p) + p == QComplex.make(0, 0)
    assert (p * q).norm2() == p.norm2() * q.norm2()
    assert (p * q).conj() == p.conj() * q.conj()


@given(qcomplexes)
def test_qcomplex_string_round_trip(p):
    s = ",".join(p.as_strings())
    assert QComplex.parse(s) == p


def test_qcomplex_parse_rejects_garbage():
    with pytest.raises(ValueError):
        QComplex.parse("1/2")
    with pytest.raises(ValueError):
        QComplex.parse("1/2,3,4")


@given(qcomplexes)
def test_complex_floor_brackets_value(z):
    f = complex_floor(z)
    assert f.re <= z.re < f.re + 1
    assert f.im <= z.im < f.im + 1


@given(qcomplexes, gaussians)
def test_qc_mul_matches_field_product(r, a):
    assert qc_mul(r, a) == r * QComplex.make(a.re, a.im)
