"""Cutout polygons of cycles and witness polyhedra of witness graphs.

A cycle pins down, for every step, the value of a component-wise floor; each
pinned floor contributes four half-plane constraints (lower bounds
non-strict, upper bounds strict, straight from floor(v) = k  <=>  k <= v <
k+1).  A witness graph pins down sixteen constraints per witness, four for
each of the variant maps.
"""

from __future__ import annotations

from .dynamics import Cycle, WitnessGraph, witness_order
from .exact import GaussianInt
from .geometry import Cell, HalfPlane, intersect_halfplanes


def floor_constraints(z: GaussianInt, k: GaussianInt):
    """Constraints on r = (x, y) equivalent to floor(r * z) = k.

    With z = (p, q): r*z = (x*p - y*q, x*q + y*p), so each component is
    boxed into [k, k+1) by a non-strict lower and a strict upper bound.
    """
    p, q = z.re, z.im
    if p == 0 and q == 0:
        return []
    return [
        HalfPlane.make(p, -q, -k.re),                 # x*p - y*q >= k.re
        HalfPlane.make(-p, q, k.re + 1, strict=True),  # x*p - y*q < k.re + 1
        HalfPlane.make(q, p, -k.im),
        HalfPlane.make(-q, -p, k.im + 1, strict=True),
    ]


def cycle_polygon(pi: Cycle) -> Cell:
    """The set of parameters realizing every step of the cycle, clipped to
    the standard frame."""
    hs = []
    n = len(pi.elements)
    for i in range(n):
        a = pi.elements[i]
        b = pi.elements[(i + 1) % n]
        # gamma(a) = b  <=>  floor(r*a) = -b
        hs.extend(floor_constraints(a, -b))
    return intersect_halfplanes(hs)


def witness_constraints(g: WitnessGraph, a: GaussianInt):
    """The 16 constraints contributed by one witness, from its recorded
    images under the four variant maps."""
    b1, b2, b3, b4 = (g.image(i, a) for i in (1, 2, 3, 4))
    hs = []
    hs += floor_constraints(a, -b1)            # gamma(a) = b1
    hs += floor_constraints(-a, b2)            # -gamma(-a) = b2
    hs += floor_constraints(a.conj(), -b3.conj())   # conj gamma conj = b3
    hs += floor_constraints(-a.conj(), b4.conj())   # -conj gamma(-conj) = b4
    return hs


def witness_polyhedron(g: WitnessGraph) -> Cell:
    """The parameter cell on which the entire witness graph is realized."""
    hs = []
    for a in witness_order(g.vertices):
        hs.extend(witness_constraints(g, a))
    return intersect_halfplanes(hs)
