"""Verification campaigns.

Three computations back the two halves of the characterization and the
critical-point analysis:

* sector/prefix coverage: the part of a sector window outside the region
  must be covered by the catalog's cutout polygons, up to residue strictly
  outside the closed unit disk;
* witness-tile flood fill: the region's core is tiled by witness-graph
  cells whose parameters all satisfy the finiteness property, decided on
  each cell's witness set (no cycle other than {0});
* direct orbit checks at the circle boundary (shrinking-orbit lemma, the
  two-step displacement table, and the rotation cycles at +-i).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .cutout import cycle_polygon, witness_polyhedron
from .dynamics import (
    GaussianInt,
    WITNESS_BUDGET_DEFAULT,
    gamma,
    nontrivial_cycle,
    witness_graph,
)
from .exact import QComplex
from .families import (
    PREFIX_INSTANCES,
    all_selection_instances,
    instance_cycle,
    selection,
)
from .geometry import Cell, closures_intersect, disk_relation, subtract_cover
from .region import local_gc_cells, prefix_gc_cells, prefix_window, sector_window

PREFIX_FAMILY_N_MAX = 12
TILE_BUDGET_DEFAULT = 500


@dataclass
class CoverageReport:
    sector: object  # pike number or "prefix"
    instances_used: int
    residuals: List[Tuple[Cell, str]]  # (cell, disk relation)
    verdict: str  # "covered" | "failed"

    def failed_cells(self):
        return [c for c, rel in self.residuals if rel != "outside"]

    def to_json(self):
        return {
            "sector": self.sector,
            "instances_used": self.instances_used,
            "residuals": [
                {"cell": c.to_json(), "disk": rel} for c, rel in self.residuals
            ],
            "verdict": self.verdict,
        }


@dataclass
class TileReport:
    tiles: List[Tuple[Cell, QComplex, bool]]
    uncovered: List[Cell]
    verdict: str  # "covered" | "budget" | "failed"

    def to_json(self):
        return {
            "tiles": [
                {"cell": c.to_json(), "parameter": r.as_strings(), "finite": fin}
                for c, r, fin in self.tiles
            ],
            "uncovered": [c.to_json() for c in self.uncovered],
            "verdict": self.verdict,
        }


def _apply_covers(targets: List[Cell], covers: List[Cell]):
    """Subtract covers from target cells, discarding residue that is
    strictly outside the closed unit disk along the way.  Returns
    (still_inside, discarded_outside)."""
    outside = []
    work = []
    for cell in targets:
        (outside if disk_relation(cell) == "outside" else work).append(cell)
    for cover in covers:
        if not work:
            break
        nxt = []
        for cell in work:
            if not closures_intersect(cell, cover):
                nxt.append(cell)
                continue
            for piece in subtract_cover(cell, [cover]):
                if disk_relation(piece) == "outside":
                    outside.append(piece)
                else:
                    nxt.append(piece)
        work = nxt
    return work, outside


def _coverage(sector, targets, instances) -> CoverageReport:
    covers = [cycle_polygon(instance_cycle(inst)) for inst in instances]
    remaining, outside = _apply_covers(targets, covers)
    residuals = [(c, disk_relation(c)) for c in remaining]
    residuals += [(c, "outside") for c in outside]
    verdict = "covered" if not remaining else "failed"
    return CoverageReport(sector, len(instances), residuals, verdict)


def verify_sector(n: int, families: Optional[set] = None) -> CoverageReport:
    """Coverage of sector n's window outside the region by the catalog
    selection.  `families` restricts which family numbers contribute
    (negative-control hook)."""
    instances = selection(n)
    if families is not None:
        instances = [i for i in instances if i.family in families]
    targets = subtract_cover(sector_window(n), local_gc_cells(n))
    return _coverage(n, targets, instances)


def verify_prefix() -> CoverageReport:
    """Coverage of the irregular head window (slopes above 1/7) by the
    fixed prefix instances plus the low-parameter family instances."""
    instances = list(PREFIX_INSTANCES) + all_selection_instances(1, PREFIX_FAMILY_N_MAX)
    targets = subtract_cover(prefix_window(), prefix_gc_cells())
    return _coverage("prefix", targets, instances)


# ---------------------------------------------------------------------------
# witness-tile flood fill
# ---------------------------------------------------------------------------

def _core_square(radius: Fraction) -> Cell:
    """Axis-aligned bounding square of the radius-`radius` disk clipped to
    the closed right half plane; for radius < 1/2 it lies entirely inside
    the region, so it is a valid stand-in for region ∩ disk."""
    r = Fraction(radius)
    if not 0 < r < Fraction(1, 2):
        raise ValueError("core square construction needs 0 < radius < 1/2")
    return Cell.from_closure(
        [QComplex.make(0, -r), QComplex.make(r, -r), QComplex.make(r, r), QComplex.make(0, r)],
        [],
    )


def _probe_point(cell: Cell) -> QComplex:
    p = cell.interior_point()
    if not cell.contains(p):
        raise ValueError(f"cell sample {p.as_strings()} violates its own cell")
    return p


def flood_fill_tiles(
    target_radius: Fraction,
    budget: int = TILE_BUDGET_DEFAULT,
    witness_budget: int = WITNESS_BUDGET_DEFAULT,
) -> TileReport:
    """Tile the core of the region with witness-graph cells.

    Repeatedly sample an uncovered point, realize its witness graph, carve
    out the graph's parameter cell, and record whether gamma has no cycle
    other than {0} on the graph's vertices, which decides finiteness on the
    whole cell.
    Covered = nothing uncovered and every tile finite.
    """
    uncovered = [_core_square(target_radius)]
    tiles = []
    any_infinite = False
    while uncovered and len(tiles) < budget:
        p = _probe_point(uncovered[0])
        g = witness_graph(p, witness_budget)
        cell = witness_polyhedron(g)
        if not cell.contains(p):
            raise AssertionError("witness cell must contain its parameter")
        finite = nontrivial_cycle(p, g.vertices) is None
        any_infinite = any_infinite or not finite
        tiles.append((cell, p, finite))
        nxt = []
        for c in uncovered:
            nxt.extend(subtract_cover(c, [cell]))
        uncovered = nxt
    if uncovered:
        verdict = "budget"
    elif any_infinite:
        verdict = "failed"
    else:
        verdict = "covered"
    return TileReport(tiles, uncovered, verdict)


# ---------------------------------------------------------------------------
# critical-point computations
# ---------------------------------------------------------------------------

def _check_circle_sector(n: int, r: QComplex, on_circle: bool = False):
    if not (0 <= r.im * (n - 1) <= r.re) or r.re <= 0:
        raise ValueError("parameter must satisfy 0 <= y*(n-1) <= x, x > 0")
    if r.norm2() > 1:
        raise ValueError("parameter must lie in the closed unit disk")
    if on_circle and r.norm2() != 1:
        raise ValueError("parameter must lie exactly on the unit circle")
    if r == QComplex.make(1, 0):
        # at r = 1 the two-element cycle {1, -1} never reaches the origin,
        # so the shrinking-orbit statement is genuinely false there
        raise ValueError("parameter 1 is excluded")


def boundary_set(n: int):
    """The diamond |a|+|b| <= n with the closed quadrant corners shaved:
    any element with a <= 0 or b <= 0 must satisfy |a|+|b| < n."""
    out = []
    for a in range(-n, n + 1):
        for b in range(-n, n + 1):
            s = abs(a) + abs(b)
            if s > n:
                continue
            if (a <= 0 or b <= 0) and s == n:
                continue
            out.append(GaussianInt(a, b))
    return out


def critical_orbit_check(n: int, r: QComplex) -> bool:
    """Every element of the shaved diamond reaches 0 within
    2*(n^2 - ceil(n/2)) steps of the map at r.

    The budget counts single map applications; the shrinking argument
    advances by the two-step displacement table, so its n^2 - ceil(n/2)
    step bound is doubled here.  Empirically the doubled bound is tight
    (attained at n = 3, 5, 7)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    _check_circle_sector(n, r)
    m = 2 * (n * n - (n + 1) // 2)
    for z in boundary_set(n):
        x = z
        steps = 0
        while not x.is_zero():
            if steps >= m:
                return False
            x = gamma(r, x)
            steps += 1
    return True


_STEP_CASES = (
    (lambda a, b: a > 1 and b >= 0, GaussianInt(-1, 1)),
    (lambda a, b: a == 1 and b >= 0, GaussianInt(-1, 0)),
    (lambda a, b: a <= 0 and b > 1, GaussianInt(-1, -1)),
    (lambda a, b: a <= 0 and b == 1, GaussianInt(0, -1)),
    (lambda a, b: a < 0 and b <= 0, GaussianInt(1, -1)),
    (lambda a, b: a >= 0 and b < 0, GaussianInt(1, 1)),
)


def step_displacement(z: GaussianInt):
    """The displacement the two-step map must produce for z's sign pattern,
    or None for the exceptional origin."""
    for guard, disp in _STEP_CASES:
        if guard(z.re, z.im):
            return disp
    return None


def step_rule_check(n: int, r: QComplex, z: GaussianInt) -> bool:
    """gamma^2 moves z by exactly the displacement of its sign-pattern case.

    Valid only for |r| = 1 exactly: off the circle the product spirals
    inward and the displacement table fails (already for z = (1, 2) at
    r = (9/10, 1/10))."""
    _check_circle_sector(n, r, on_circle=True)
    a, b = z.re, z.im
    if abs(a) + abs(b) > n or max(abs(a), abs(b)) >= n:
        raise ValueError("z outside the admissible diamond")
    if (a < 0 or b < 0) and abs(a) + abs(b) >= n:
        raise ValueError("z outside the admissible diamond")
    disp = step_displacement(z)
    if disp is None:
        raise ValueError("the origin has no displacement case")
    return gamma(r, gamma(r, z)) == z + disp


def rotation_cycle_check(a: GaussianInt) -> bool:
    """The two printed four-step rotation cycles at the parameters +-i."""
    up = QComplex.make(0, 1)
    down = QComplex.make(0, -1)
    cyc_up = (a, GaussianInt(a.im, -a.re), -a, GaussianInt(-a.im, a.re))
    cyc_down = (a, GaussianInt(-a.im, a.re), -a, GaussianInt(a.im, -a.re))
    ok = True
    for r, cyc in ((up, cyc_up), (down, cyc_down)):
        for i in range(4):
            ok = ok and gamma(r, cyc[i]) == cyc[(i + 1) % 4]
    return ok
