"""End-to-end acceptance gate.

One test per acceptance criterion:
 1. explicit cutout polygons match the closed-form catalog exactly;
 2. every valid family instance's expansion matches its closed-form cutout;
 3. regular sectors 7..30 are covered (with a family-19 negative control);
 4. the irregular head window is covered;
 5. the core flood fill tiles radius 1/4 with finite tiles only;
 6. perimeter bracket (width <= 1e-3) plus the exact spike-length term;
 7. area bracket (width <= 1e-6, and <= 1e-13 at 64,000 pikes);
 8. shrinking-orbit, displacement-rule and rotation checks;
 9. the finiteness decision agrees with region membership where verified;
10. randomized subtraction/coverage audits at 10^4 probes per campaign.
"""

import random
from fractions import Fraction

from gsrs.cutout import cycle_polygon
from gsrs.dynamics import decide_finiteness
from gsrs.exact import GaussianInt, QComplex
from gsrs.families import (
    FamilyInstance,
    expected_cutout,
    instance_cycle,
    valid_instances,
)
from gsrs.geometry import subtract_cover
from gsrs.region import (
    area_estimate,
    local_gc_cells,
    perimeter_estimate,
    prefix_gc_cells,
    prefix_window,
    region_contains,
    sector_window,
    vertex,
)
from gsrs.verify import (
    boundary_set,
    critical_orbit_check,
    flood_fill_tiles,
    rotation_cycle_check,
    step_rule_check,
    verify_prefix,
    verify_sector,
)

# The published constants are printed to 13 decimals, so each stands for
# the interval [C - 1e-13, C + 1e-13]: the printed area lies 4.2e-14 below
# the low end of the 64,000-pike area bracket.
PERIMETER = Fraction(70317015814551, 10**13)
AREA = Fraction(11616244963841, 10**13)
PRINTED_ULP = Fraction(1, 10**13)


def meets_printed(lo, hi, constant):
    """Whether the bracket [lo, hi] meets the interval a 13-decimal
    constant stands for."""
    return lo <= constant + PRINTED_ULP and constant - PRINTED_ULP <= hi


def test_criterion_1_explicit_cutouts_match_catalog():
    for n in range(1, 15):
        inst = FamilyInstance(0, n)
        assert cycle_polygon(instance_cycle(inst)) == expected_cutout(inst), str(inst)


def test_criterion_2_family_cutouts_match_catalog():
    checked = 0
    for f in range(1, 20):
        for inst in valid_instances(f, 30):
            got = cycle_polygon(instance_cycle(inst))
            assert got == expected_cutout(inst), str(inst)
            checked += 1
    assert checked == 1677  # 1691 catalog instances = 1677 parametric + 14 explicit


def test_criterion_3_regular_sectors_covered():
    for n in range(7, 31):
        rep = verify_sector(n)
        assert rep.verdict == "covered", (n, rep.failed_cells())


def test_criterion_3_negative_control_without_family_19():
    rep = verify_sector(20, families=set(range(1, 19)))
    assert rep.verdict == "failed"
    assert rep.failed_cells()


def test_criterion_4_prefix_covered():
    rep = verify_prefix()
    assert rep.verdict == "covered", rep.failed_cells()


def test_criterion_5_core_tiles_finite():
    rep = flood_fill_tiles(Fraction(1, 4))
    assert rep.verdict == "covered"
    assert rep.uncovered == []
    assert all(fin for _, _, fin in rep.tiles)


def test_criterion_6_perimeter_bracket():
    lo, hi = perimeter_estimate(10**5, 256)
    assert hi - lo <= Fraction(1, 1000)
    assert meets_printed(lo, hi, PERIMETER)
    # per-edge spot check: the radial spike length term
    for n in range(8, 101):
        a, b = n * n + 1, n * n + n + 1
        assert (vertex(6, n) - vertex(5, n)).norm2() == Fraction(a, (a * b) ** 2)


def test_criterion_7_area_bracket():
    lo, hi = area_estimate(10**4, 256)
    assert hi - lo <= Fraction(1, 10**6)
    assert meets_printed(lo, hi, AREA)
    lo, hi = area_estimate(64000, 256)
    assert hi - lo <= Fraction(1, 10**13)
    assert meets_printed(lo, hi, AREA)


def _admissible_parameters(n, count, rng):
    """Random rational parameters with 0 <= y*(n-1) <= x, |r| <= 1, r != 1."""
    out = []
    while len(out) < count:
        den = rng.randrange(4, 64)
        x = Fraction(rng.randrange(1, den + 1), den)
        y = x / (n - 1) * Fraction(rng.randrange(0, 101), 100)
        r = QComplex(x, y)
        if r.norm2() > 1 or r == QComplex.make(1, 0):
            continue
        out.append(r)
    return out


def test_criterion_8_critical_orbit_checks():
    rng = random.Random(7)
    for n in range(2, 11):
        for r in _admissible_parameters(n, 5, rng):
            assert critical_orbit_check(n, r), (n, r)


def test_criterion_8_step_rule_all_admissible():
    for n in range(5, 9):
        m = 2 * (n - 1) + 1  # odd and > 2(n-1): slope 2m/(m^2-1) < 1/(n-1)
        r = QComplex(Fraction(m * m - 1, m * m + 1), Fraction(2 * m, m * m + 1))
        assert r.norm2() == 1
        for z in boundary_set(n):
            if z.is_zero():
                continue
            assert step_rule_check(n, r, z), (n, z)


def test_criterion_8_rotation_cycles():
    rng = random.Random(13)
    for _ in range(100):
        a = GaussianInt(rng.randrange(-50, 51), rng.randrange(-50, 51))
        assert rotation_cycle_check(a), a


def test_criterion_9_oracle_equivalence():
    rng = random.Random(20260823)
    small2 = Fraction(1, 16)  # the radius-1/4 verified core
    points = 0
    while points < 200:
        den = rng.randrange(1, 65)
        p = QComplex.make(
            Fraction(rng.randrange(-64, 65), den),
            Fraction(rng.randrange(-64, 65), den),
        )
        if p.norm2() > Fraction(63, 64) ** 2:
            continue
        points += 1
        inside = p.re >= 0 and region_contains(p)
        if inside and p.norm2() <= small2:
            assert decide_finiteness(p).verdict == "finite", p
        elif not inside:
            assert decide_finiteness(p).verdict == "infinite", p


def _probe_audit(window, covers, rng, probes, box):
    """subtract_cover probe-consistency: the residual cells are pairwise
    disjoint and their union is exactly window minus the covers."""
    residuals = subtract_cover(window, covers)
    x0, y0, x1, y1 = box
    for _ in range(probes):
        den = rng.randrange(1, 48)
        p = QComplex.make(
            Fraction(rng.randrange(int(x0 * den), int(x1 * den) + 1), den),
            Fraction(rng.randrange(int(y0 * den), int(y1 * den) + 1), den),
        )
        expected = window.contains(p) and not any(c.contains(p) for c in covers)
        hits = sum(cell.contains(p) for cell in residuals)
        assert hits <= 1, p
        assert (hits == 1) == expected, p


def test_criterion_10_sector_subtraction_audit():
    rng = random.Random(101)
    _probe_audit(sector_window(9), local_gc_cells(9), rng, 10**4, (0, 0, 2, 1))


def test_criterion_10_prefix_subtraction_audit():
    rng = random.Random(103)
    _probe_audit(prefix_window(), prefix_gc_cells(), rng, 10**4, (0, 0, 2, 2))
