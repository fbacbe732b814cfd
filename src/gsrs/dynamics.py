"""The Gaussian shift radix map, its signed/conjugated variants, orbits,
Brunotte's witness-set algorithm and the finiteness decision, plus Gaussian
numeration digits.

All operations are pure; budgets are explicit because termination is only
guaranteed for parameters strictly inside the unit disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import GaussianInt, GI_ZERO, QComplex, complex_floor, qc_mul

ORBIT_BUDGET_DEFAULT = 10**6
WITNESS_BUDGET_DEFAULT = 10**6


class BudgetExceeded(Exception):
    """Raised when an iteration passes its step or size budget."""


def gamma(r: QComplex, a: GaussianInt) -> GaussianInt:
    """One step of the shift radix map: a -> -floor(r*a)."""
    return -complex_floor(qc_mul(r, a))


def gamma_variant(i: int, r: QComplex, a: GaussianInt) -> GaussianInt:
    """The four sign/conjugation variants of the map.

    1: gamma, 2: -gamma(-a), 3: conj(gamma(conj a)), 4: -conj(gamma(-conj a)).
    """
    if i == 1:
        return gamma(r, a)
    if i == 2:
        return -gamma(r, -a)
    if i == 3:
        return gamma(r, a.conj()).conj()
    if i == 4:
        return -(gamma(r, -a.conj()).conj())
    raise ValueError(f"variant index must be 1..4, got {i}")


@dataclass(frozen=True)
class Cycle:
    """A periodic orbit, stored in canonical rotation (lexicographically
    smallest element by (re, im) first)."""

    elements: tuple

    @staticmethod
    def canonical(elems) -> "Cycle":
        elems = tuple(elems)
        if not elems:
            raise ValueError("cycle must be nonempty")
        k = min(range(len(elems)), key=lambda i: (elems[i].re, elems[i].im))
        return Cycle(elems[k:] + elems[:k])

    def __len__(self):
        return len(self.elements)

    def is_trivial(self) -> bool:
        return len(self.elements) == 1 and self.elements[0].is_zero()

    def verify(self, r: QComplex) -> bool:
        """Check that gamma at r realizes every step of the cycle."""
        n = len(self.elements)
        return all(
            gamma(r, self.elements[i]) == self.elements[(i + 1) % n]
            for i in range(n)
        )

    def to_json(self):
        return [[g.re, g.im] for g in self.elements]

    @staticmethod
    def from_json(data) -> "Cycle":
        return Cycle.canonical(GaussianInt(int(a), int(b)) for a, b in data)


def minimal_cycle(elems) -> Cycle:
    """Canonical cycle with any repeated sub-rotation collapsed."""
    elems = list(elems)
    n = len(elems)
    for p in range(1, n):
        if n % p == 0 and all(elems[i] == elems[i % p] for i in range(n)):
            return Cycle.canonical(elems[:p])
    return Cycle.canonical(elems)


@dataclass(frozen=True)
class OrbitResult:
    outcome: str  # "zero" | "cycle" | "budget"
    steps: Optional[int] = None  # for "zero": number of steps to reach 0
    cycle: Optional[Cycle] = None
    preperiod: Optional[int] = None


def orbit(r: QComplex, a: GaussianInt, budget: int = ORBIT_BUDGET_DEFAULT) -> OrbitResult:
    """Iterate gamma from a, classifying the orbit.

    First revisit of an exact state defines the preperiod and period; the
    trivial fixed point 0 is reported as "zero" with the step count.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    seen = {a: 0}
    path = [a]
    x = a
    for step in range(1, budget + 1):
        x = gamma(r, x)
        if x.is_zero():
            return OrbitResult("zero", steps=step if not a.is_zero() else 0)
        if x in seen:
            start = seen[x]
            return OrbitResult(
                "cycle",
                cycle=minimal_cycle(path[start:]),
                preperiod=start,
            )
        seen[x] = step
        path.append(x)
    return OrbitResult("budget")


@dataclass
class WitnessGraph:
    """Colored functional graph of the four variants on a witness set."""

    r: QComplex
    vertices: set
    edges: tuple  # (E1, E2, E3, E4), each a dict vertex -> image

    def image(self, i: int, a: GaussianInt) -> GaussianInt:
        return self.edges[i - 1][a]


def witness_graph(r: QComplex, size_budget: int = WITNESS_BUDGET_DEFAULT) -> WitnessGraph:
    """Brunotte's iteration: close V_0 = {1, -1, i, -i} under the four
    variants, breadth-first, until stationary, recording every image as
    an edge of the graph.

    Termination is guaranteed for |r| < 1; raises BudgetExceeded when the
    set grows past size_budget.
    """
    v0 = [GaussianInt(1, 0), GaussianInt(-1, 0), GaussianInt(0, 1), GaussianInt(0, -1)]
    witnesses = set(v0)
    edges = ({}, {}, {}, {})
    queue = list(v0)
    while queue:
        a = queue.pop()
        for i, images in zip((1, 2, 3, 4), edges):
            b = gamma_variant(i, r, a)
            images[a] = b
            if b not in witnesses:
                witnesses.add(b)
                queue.append(b)
                if len(witnesses) > size_budget:
                    raise BudgetExceeded(f"witness set passed {size_budget} elements")
    return WitnessGraph(r=r, vertices=witnesses, edges=edges)


def brunotte_witnesses(r: QComplex, size_budget: int = WITNESS_BUDGET_DEFAULT) -> set:
    """The vertex set of the witness graph at r."""
    return witness_graph(r, size_budget).vertices


def witness_order(witnesses) -> list:
    """Witnesses sorted by (norm2, re, im), the one order in which orbits
    are checked, constraints listed and vertices printed."""
    return sorted(witnesses, key=lambda g: (g.norm2(), g.re, g.im))


@dataclass(frozen=True)
class FinitenessResult:
    verdict: str  # "finite" | "infinite" | "unknown"
    witness_cycle: Optional[Cycle] = None


def decide_finiteness(
    r: QComplex,
    size_budget: int = WITNESS_BUDGET_DEFAULT,
    orbit_budget: int = ORBIT_BUDGET_DEFAULT,
) -> FinitenessResult:
    """Decide the finiteness property via a set of witnesses.

    Finite iff every witness orbit reaches 0; an orbit entering a
    nontrivial cycle yields that cycle as an explicit counterexample.
    """
    try:
        witnesses = brunotte_witnesses(r, size_budget)
    except BudgetExceeded:
        return FinitenessResult("unknown")
    for a in witness_order(witnesses):
        res = orbit(r, a, orbit_budget)
        if res.outcome == "budget":
            return FinitenessResult("unknown")
        if res.outcome == "cycle" and not res.cycle.is_trivial():
            return FinitenessResult("infinite", witness_cycle=res.cycle)
    return FinitenessResult("finite")


def gns_digits(beta: GaussianInt, x: GaussianInt, budget: int = ORBIT_BUDGET_DEFAULT) -> list:
    """Digits of x in the Gaussian numeration system with base beta.

    Digit i is beta * frac(-1/beta * s_i) where s_i is the i-th iterate of
    gamma at -1/beta started from -x; the expansion terminates exactly when
    the iterate hits 0.  Requires -1/beta to have the finiteness property
    (caller-checked); a non-terminating expansion exhausts the budget.
    """
    if beta.is_zero():
        raise ValueError("beta must be nonzero")
    n2 = beta.norm2()
    q = QComplex(Fraction(-beta.re, n2), Fraction(beta.im, n2))  # -1/beta
    state = -x
    digits = []
    for _ in range(budget):
        if state.is_zero():
            return digits
        prod = qc_mul(q, state)
        fl = complex_floor(prod)
        frac = prod - QComplex.of(fl)
        d = qc_mul(frac, beta)
        if d.re.denominator != 1 or d.im.denominator != 1:
            raise ValueError(f"non-integer digit {d} for beta={beta}, x={x}")
        digits.append(GaussianInt(int(d.re), int(d.im)))
        state = -fl
    raise BudgetExceeded(f"expansion of {x} in base {beta} did not terminate")


def gns_reconstruct(beta: GaussianInt, digits) -> GaussianInt:
    """Sum of digit_i * beta^i, the inverse of gns_digits."""
    total = GI_ZERO
    power = GaussianInt(1, 0)
    for d in digits:
        total = total + d * power
        power = power * beta
    return total
