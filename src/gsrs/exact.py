"""Exact arithmetic primitives: Gaussian integers and rational complex numbers.

Everything downstream (dynamics, geometry, coverage verification) depends on
these being exact; no floats appear anywhere in this module.  Rationals are
``fractions.Fraction`` which is canonical by construction (lowest terms,
positive denominator), so structural equality equals value equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def parse_rational(s: str) -> Fraction:
    """Parse a canonical rational string "p/q" or "p"."""
    return Fraction(s.strip())


def format_rational(q: Fraction) -> str:
    """Canonical string form: "p/q", or just "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class GaussianInt:
    """A Gaussian integer a + b*i with unbounded integer components."""

    re: int
    im: int

    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianInt":
        return GaussianInt(-self.re, -self.im)

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def norm2(self) -> int:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __repr__(self) -> str:
        return f"({self.re}, {self.im})"


@dataclass(frozen=True)
class QComplex:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def make(re, im) -> "QComplex":
        return QComplex(Fraction(re), Fraction(im))

    def __add__(self, other: "QComplex") -> "QComplex":
        return QComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QComplex") -> "QComplex":
        return QComplex(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "QComplex":
        return QComplex(-self.re, -self.im)

    def __mul__(self, other: "QComplex") -> "QComplex":
        return QComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> "QComplex":
        return QComplex(self.re, -self.im)

    def norm2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def as_strings(self) -> list:
        return [format_rational(self.re), format_rational(self.im)]

    @staticmethod
    def parse(s: str) -> "QComplex":
        """Parse "p/q,p/q" (real,imag)."""
        parts = s.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 're,im', got {s!r}")
        return QComplex(parse_rational(parts[0]), parse_rational(parts[1]))

    def __repr__(self) -> str:
        return f"({format_rational(self.re)}, {format_rational(self.im)})"


def complex_floor(z: QComplex) -> GaussianInt:
    """Component-wise floor toward -infinity."""
    return GaussianInt(math.floor(z.re), math.floor(z.im))


def qc_mul(r: QComplex, a: GaussianInt) -> QComplex:
    """Exact product r * a of a rational complex with a Gaussian integer."""
    return QComplex(
        r.re * a.re - r.im * a.im,
        r.re * a.im + r.im * a.re,
    )
