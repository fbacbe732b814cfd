"""The conjectured characterization region: closed-form boundary vertices,
the infinite boundary chain with solid/dotted and membership markup, exact
point membership, sector windows, local cell decompositions, and rigorous
perimeter/area brackets.

The region is the union of the area bounded by an infinite polygonal chain
in the closed upper half plane and its mirror image across the real axis.
The chain starts at (1, 0), runs through the origin up the imaginary axis
to (0, 1), and then descends through an infinite sequence of "pikes" that
accumulate back at (1, 0).  Pike n carries a radial spike of slope 1/n;
from pike 8 on every pike is the same ten-vertex pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Tuple

from .exact import QComplex, format_rational
from .geometry import Cell, HalfPlane, intersect_halfplanes, line_through

REGULAR_START = 8  # first pike with the regular ten-vertex pattern


# ---------------------------------------------------------------------------
# vertex formulas
# ---------------------------------------------------------------------------

_P0 = {
    1: (Fraction(1), Fraction(0)),
    2: (Fraction(22, 23), Fraction(4, 23)),
    3: (Fraction(26, 27), Fraction(4, 27)),
}

# index -> (denominator(n), x-offset numerator, y numerator(n))
_VERTEX_FORMS = {
    1: (lambda n: n * n - 2, 2, lambda n: n),
    2: (lambda n: n * n - n - 1, 1, lambda n: n - 1),
    3: (lambda n: n * n - n, 1, lambda n: n - 1),
    4: (lambda n: n * n, 1, lambda n: n),
    5: (lambda n: n * n + 1, 1, lambda n: n),
    6: (lambda n: n * n + n + 1, 1, lambda n: n + 1),
    7: (lambda n: n * n + n + 2, 1, lambda n: n + 1),
    8: (lambda n: n * n + 2, 1, lambda n: n),
    9: (lambda n: n * n + 3, 1, lambda n: n),
    10: (lambda n: n * n + n + 6, 2, lambda n: n + 1),
}


def vertex(i: int, n: int) -> QComplex:
    """Boundary vertex P_i(n), an exact rational point."""
    if i == 0:
        if n not in _P0:
            raise ValueError(f"P_0 is only defined for n in {{1, 2, 3}}, got {n}")
        x, y = _P0[n]
        return QComplex(x, y)
    if i not in _VERTEX_FORMS:
        raise ValueError(f"vertex index must be 0..10, got {i}")
    if i == 3 and n in (0, 1):
        raise ValueError("P_3 is undefined for n in {0, 1}")
    if i == 4 and n == 0:
        raise ValueError("P_4 is undefined for n = 0")
    den_f, xoff, ynum_f = _VERTEX_FORMS[i]
    den = den_f(n)
    if den == 0:
        raise ValueError(f"P_{i}({n}) has a vanishing denominator")
    return QComplex(1 - Fraction(xoff, den), Fraction(ynum_f(n), den))


# ---------------------------------------------------------------------------
# the boundary chain
# ---------------------------------------------------------------------------

# Irregular head of the chain, pikes 0..7.  Entries are (i, n, overline,
# solid_edge_to_next); the last entry's edge connects to P_1(8).
_PREFIX_ROWS = (
    ((0, 1, False, True), (5, 0, True, True), (6, 0, False, False)),
    ((5, 1, True, True), (6, 1, False, True), (7, 0, True, False), (7, 1, False, False)),
    ((5, 2, True, True), (6, 2, True, False), (7, 2, False, False), (8, 2, True, False)),
    ((4, 3, False, False), (5, 3, True, True), (6, 3, False, False), (7, 3, False, False),
     (8, 3, True, True)),
    ((3, 4, True, False), (4, 4, False, False), (5, 4, True, True), (6, 4, False, False),
     (7, 4, False, False), (8, 4, True, True)),
    ((3, 5, True, False), (4, 5, False, False), (5, 5, True, True), (6, 5, False, False),
     (7, 5, False, False), (8, 5, True, True), (9, 5, True, True)),
    ((0, 2, True, True), (2, 6, True, True), (3, 6, True, False), (4, 6, False, False),
     (5, 6, True, True), (6, 6, False, False), (7, 6, False, False), (8, 6, True, True),
     (9, 6, True, True)),
    ((0, 3, True, True), (2, 7, True, True), (3, 7, True, False), (4, 7, False, False),
     (5, 7, True, True), (6, 7, False, False), (7, 7, False, False), (8, 7, True, True),
     (9, 7, True, True)),
)

# Regular pike pattern for n >= 8: (vertex index, overline, solid edge to next).
_REGULAR_ROW = (
    (1, True, True), (2, True, True), (3, True, False), (4, False, False),
    (5, True, True), (6, False, False), (7, False, False), (8, True, True),
    (9, True, True), (10, True, False),
)


def _chain_entries(n_pikes: int):
    """(point, overline, solid_after, pike) for the chain through pike
    n_pikes (the head rows always included)."""
    for row_idx, row in enumerate(_PREFIX_ROWS):
        for i, n, over, solid in row:
            yield vertex(i, n), over, solid, row_idx
    for n in range(REGULAR_START, n_pikes + 1):
        for i, over, solid in _REGULAR_ROW:
            yield vertex(i, n), over, solid, n


@dataclass(frozen=True)
class BoundaryChain:
    """Materialized chain: parallel tuples of vertices, overline flags,
    pike indices, and per-consecutive-pair edge solidity (one shorter)."""

    points: tuple
    overline: tuple
    pike_index: tuple
    edge_solid: tuple

    def __len__(self):
        return len(self.points)

    def edges(self):
        """(u, v, solid, over_u, over_v) for every chain edge."""
        for k in range(len(self.points) - 1):
            yield (self.points[k], self.points[k + 1], self.edge_solid[k],
                   self.overline[k], self.overline[k + 1])


def boundary_chain(n_pikes: int) -> BoundaryChain:
    """The chain from P_0(1) through pike n_pikes with exact markup."""
    if n_pikes < 1:
        raise ValueError("need at least one pike")
    pts, overs, pikes, solids = [], [], [], []
    for p, over, solid, pike in _chain_entries(max(n_pikes, len(_PREFIX_ROWS) - 1)):
        pts.append(p)
        overs.append(over)
        pikes.append(pike)
        solids.append(solid)
    solids.pop()  # the trailing mark leads to the unmaterialized next pike
    return BoundaryChain(tuple(pts), tuple(overs), tuple(pikes), tuple(solids))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def _cross_dir(d: QComplex, w: QComplex) -> Fraction:
    return d.re * w.im - d.im * w.re


def _ray_scalar(w: QComplex, d: QComplex) -> Fraction:
    """c with w = c*d, assuming w lies on the line spanned by d."""
    return w.re / d.re if d.re != 0 else w.im / d.im


def _ray_hits(d: QComplex, chain: BoundaryChain):
    """All (c, belongs) where the ray {c*d : c > 0} meets a chain edge or
    vertex; belongs tells whether that boundary point is part of the region."""
    out = []
    for u, v, solid, over_u, over_v in chain.edges():
        cu = _cross_dir(d, u)
        cv = _cross_dir(d, v)
        if cu == 0 and cv == 0:
            # edge collinear with the ray (a radial spike)
            for w, over in ((u, over_u), (v, over_v)):
                c = _ray_scalar(w, d)
                if c > 0:
                    out.append((c, over))
            continue
        denom = cu - cv
        if denom == 0:
            continue  # parallel, off the ray
        t = cu / denom
        if t < 0 or t > 1:
            continue
        w = QComplex(u.re + (v.re - u.re) * t, u.im + (v.im - u.im) * t)
        c = _ray_scalar(w, d)
        if c <= 0:
            continue
        belongs = over_u if t == 0 else over_v if t == 1 else solid
        out.append((c, belongs))
    return out


def region_contains(p: QComplex) -> bool:
    """Exact membership in the region (symmetric across the real axis).

    The region is star shaped with respect to the origin and its boundary
    chain sweeps strictly decreasing slopes past the imaginary axis, so a
    point is decided by the farthest intersection of its origin ray with
    the locally materialized chain.
    """
    a, b = p.re, abs(p.im)
    if a < 0:
        return False
    if a == 0:
        return b < 1  # the solid imaginary-axis edge, tip excluded
    if b == 0:
        return a < 1  # on-axis interior; the limit point (1, 0) is excluded
    depth = max(REGULAR_START, int(a / b) + 2)
    chain = boundary_chain(depth)
    hits = _ray_hits(QComplex(a, b), chain)
    c_max = max(c for c, _ in hits)
    belongs = any(bel for c, bel in hits if c == c_max)
    return c_max > 1 or (c_max == 1 and belongs)


# ---------------------------------------------------------------------------
# sector windows and local cell decompositions
# ---------------------------------------------------------------------------

def sector_window(n: int) -> Cell:
    """The wedge 1/n < y/x <= 1/(n-1), clipped to the standard frame."""
    if n < 7:
        raise ValueError("regular sectors start at n = 7")
    return intersect_halfplanes([
        HalfPlane.make(-1, n, 0, strict=True),   # n*y > x
        HalfPlane.make(1, -(n - 1), 0),          # x >= (n-1)*y
    ])


def prefix_window() -> Cell:
    """The irregular head's window: slopes above 1/7 in the open right half
    plane, clipped to the frame.  The positive imaginary axis is excluded
    (its only disk point outside the region is the limit vertex (0, 1))."""
    return intersect_halfplanes([
        HalfPlane.make(-1, 7, 0, strict=True),   # 7*y > x
        HalfPlane.make(1, 0, 0, strict=True),    # x > 0
    ])


def _window_cells(window: Cell, chain: BoundaryChain):
    """Cells whose union is region ∩ window, built edge by edge from the
    chain: a fan cell (origin triangle) per non-radial edge, a clipped
    segment cell per radial edge, and point cells for member vertices that
    no two-dimensional cell can carry."""
    origin = QComplex(Fraction(0), Fraction(0))
    win = list(window.constraints)
    cells = []
    for u, v, solid, over_u, over_v in chain.edges():
        cu = _cross_dir(u, v)
        if cu == 0:
            # radial edge: clip the marked segment by the window
            if u == v:
                continue
            seg = Cell.from_markup([u, v], [solid], [over_u, over_v])
            if seg.is_empty():
                continue
            piece = intersect_halfplanes(win + list(seg.constraints))
            if not piece.is_empty():
                cells.append(piece)
            continue
        # the side of the chain edge containing the origin
        a, b, c = line_through(u, v)
        if c < 0:
            a, b, c = -a, -b, -c
        edge_h = HalfPlane.make(a, b, c, strict=not solid)
        helpers = []
        for w, other in ((u, v), (v, u)):
            ha, hb, _ = line_through(origin, w)
            if ha * other.re + hb * other.im < 0:
                ha, hb = -ha, -hb
            helpers.append(HalfPlane.make(ha, hb, 0))
        piece = intersect_halfplanes(
            win + [edge_h] + helpers,
            start_poly=[origin, u, v],
        )
        if not piece.is_empty():
            cells.append(piece)
    # member vertices stranded on strict boundaries get their own point cell
    for k, w in enumerate(chain.points):
        if chain.overline[k] and window.contains(w):
            if not any(cell.contains(w) for cell in cells):
                cells.append(Cell((w,), (), (True,)))
    return cells


def local_gc_cells(n: int):
    """Exact decomposition of region ∩ sector_window(n)."""
    if n < 7:
        raise ValueError("regular sectors start at n = 7")
    return _window_cells(sector_window(n), boundary_chain(n + 1))


def prefix_gc_cells():
    """Exact decomposition of region ∩ prefix_window()."""
    return _window_cells(prefix_window(), boundary_chain(REGULAR_START))


# ---------------------------------------------------------------------------
# perimeter and area brackets
# ---------------------------------------------------------------------------

def sqrt_bracket_num(q: Fraction, bits: int) -> Tuple[int, int]:
    """Integers (lo, hi) with lo/2^bits <= sqrt(q) <= hi/2^bits."""
    if q < 0:
        raise ValueError("negative radicand")
    scaled = (q.numerator << (2 * bits)) // q.denominator
    r = isqrt(scaled)
    return r, r + 2  # r <= sqrt(scaled) and (r+2)^2 > scaled + 2r + ... safe

def _per_pike_tail_perimeter(n_from: int) -> Fraction:
    """Upper bound on the total chain length of pikes n >= n_from (one half
    plane side, connector edges included).

    All eleven points of pike n's edges lie in a box of width 2/(n^2-2) and
    height n/(n^2-2) - (n+1)/(n^2+2n-1) = (n^2+n+2)/((n^2-2)(n^2+2n-1)); ten
    edges of at most width+height each, and both box dimensions are bounded
    by 2/(n^2-n) whose sum over n > N telescopes to 2/N.
    """
    if n_from < 9:
        raise ValueError("tail bound needs n_from >= 9")
    n_prev = n_from - 1
    return Fraction(40, n_prev)


def perimeter_estimate(n_pikes: int, precision_bits: int = 256) -> Tuple[Fraction, Fraction]:
    """[low, high] bracket of the region's perimeter.

    Twice the chain length through pike n_pikes (the on-axis edge from
    (1, 0) to the origin is interior to the mirrored union and excluded),
    plus a rigorous tail bound for the omitted pikes.
    """
    if n_pikes < REGULAR_START:
        raise ValueError("need at least the first regular pike")
    p = precision_bits
    lo_num = 0
    hi_num = 0
    first = True
    prev = None
    for pt, _over, _solid, _pike in _chain_entries(n_pikes):
        if prev is not None:
            if first:
                first = False  # skip the on-axis edge P_0(1) -- P_5(0)
            else:
                dx = pt.re - prev.re
                dy = pt.im - prev.im
                l, h = sqrt_bracket_num(dx * dx + dy * dy, p)
                lo_num += l
                hi_num += h
        prev = pt
    scale = Fraction(1, 1 << p)
    low = 2 * lo_num * scale
    high = 2 * (hi_num * scale + _per_pike_tail_perimeter(n_pikes + 1))
    return low, high


def area_estimate(n_pikes: int, precision_bits: int = 256) -> Tuple[Fraction, Fraction]:
    """[low, high] bracket of the region's area.

    Twice the exact triangle-fan sum over the chain through pike n_pikes,
    plus a bracket of the remaining circular-sector-like tail: the leftover
    region spans slopes (0, s] with s the last vertex's slope, its radial
    extent is pinched between the minimal x and the maximal |v| of the tail
    chain, and arctan(s) lies in [s - s^3/3, s].
    """
    if n_pikes < REGULAR_START:
        raise ValueError("need at least the first regular pike")
    p = precision_bits
    lo_num = 0
    hi_num = 0
    prev = None
    last = None
    for pt, _over, _solid, _pike in _chain_entries(n_pikes):
        if prev is not None:
            t = prev.re * pt.im - pt.re * prev.im
            # the chain sweeps clockwise: fan terms accumulate negatively
            num = (-t).numerator << p
            den = t.denominator
            lo_num += -(-num // den)  # floor
            hi_num += -(num // -den)  # ceil
        prev = pt
        last = pt
    scale = Fraction(1, 1 << p)
    fan_lo = lo_num * scale / 2
    fan_hi = hi_num * scale / 2
    # tail beyond the last materialized vertex
    s = last.im / last.re
    n1 = n_pikes + 1
    x_min = 1 - Fraction(2, n_pikes * n_pikes + n_pikes + 6)  # x of the final vertex
    y_max = last.im
    r2_min = x_min * x_min
    r2_max = 1 + y_max * y_max
    tail_lo = r2_min * (s - s ** 3 / 3) / 2
    tail_hi = r2_max * s / 2
    return 2 * (fan_lo + tail_lo), 2 * (fan_hi + tail_hi)


# ---------------------------------------------------------------------------
# SVG export
# ---------------------------------------------------------------------------

def boundary_svg(n_pikes: int, width: int = 800, mirror: bool = False,
                 window=None) -> str:
    """SVG rendering of the chain: solid strokes for member edges, dashed
    for excluded ones, filled dots for member vertices and open dots for
    excluded ones.  `window` = (x0, y0, x1, y1) zooms into a sub-box of the
    default [0, 1.05] x [-y, 1.05] viewport."""
    chain = boundary_chain(n_pikes)
    if window is None:
        lo_y = -1.05 if mirror else -0.05
        window = (-0.05, lo_y, 1.05, 1.05)
    x0, y0, x1, y1 = (float(w) for w in window)
    height = int(width * (y1 - y0) / (x1 - x0))
    sx = width / (x1 - x0)

    def tx(p):
        return (float(p.re) - x0) * sx, (y1 - float(p.im)) * sx

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    sides = [1, -1] if mirror else [1]
    for side in sides:
        for u, v, solid, _ou, _ov in chain.edges():
            (ux, uy) = tx(QComplex(u.re, side * u.im))
            (vx, vy) = tx(QComplex(v.re, side * v.im))
            dash = '' if solid else ' stroke-dasharray="6 4"'
            parts.append(
                f'<line x1="{ux:.3f}" y1="{uy:.3f}" x2="{vx:.3f}" y2="{vy:.3f}" '
                f'stroke="black" stroke-width="1.2"{dash}/>'
            )
        for k, pnt in enumerate(chain.points):
            (px, py) = tx(QComplex(pnt.re, side * pnt.im))
            if chain.overline[k]:
                parts.append(f'<circle cx="{px:.3f}" cy="{py:.3f}" r="2.5" fill="black"/>')
            else:
                parts.append(
                    f'<circle cx="{px:.3f}" cy="{py:.3f}" r="2.5" fill="white" '
                    'stroke="black" stroke-width="1"/>'
                )
    parts.append('</svg>')
    return '\n'.join(parts)


def cells_svg_overlay(cells, width: int = 800, window=None) -> str:
    """Translucent filled polygons for a list of cells (diagnostic figure
    companion to boundary_svg)."""
    if window is None:
        window = (-0.05, -0.05, 1.05, 1.05)
    x0, y0, x1, y1 = (float(w) for w in window)
    height = int(width * (y1 - y0) / (x1 - x0))
    sx = width / (x1 - x0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    for idx, cell in enumerate(cells):
        hue = (idx * 47) % 360
        pts = ' '.join(
            f'{(float(p.re) - x0) * sx:.3f},{(y1 - float(p.im)) * sx:.3f}'
            for p in cell.vertices
        )
        if cell.dim == 2:
            parts.append(
                f'<polygon points="{pts}" fill="hsl({hue},70%,60%)" '
                'fill-opacity="0.35" stroke="black" stroke-width="0.5"/>'
            )
        elif cell.dim == 1:
            u, v = cell.vertices
            parts.append(
                f'<line x1="{(float(u.re)-x0)*sx:.3f}" y1="{(y1-float(u.im))*sx:.3f}" '
                f'x2="{(float(v.re)-x0)*sx:.3f}" y2="{(y1-float(v.im))*sx:.3f}" '
                f'stroke="hsl({hue},70%,40%)" stroke-width="2"/>'
            )
        elif cell.dim == 0:
            w = cell.vertices[0]
            parts.append(
                f'<circle cx="{(float(w.re)-x0)*sx:.3f}" cy="{(y1-float(w.im))*sx:.3f}" '
                f'r="3" fill="hsl({hue},70%,40%)"/>'
            )
    parts.append('</svg>')
    return '\n'.join(parts)


def measure_json(n_pikes: int, precision_bits: int = 256) -> dict:
    plo, phi = perimeter_estimate(n_pikes, precision_bits)
    alo, ahi = area_estimate(n_pikes, precision_bits)
    return {
        "n_pikes": n_pikes,
        "perimeter": {"low": format_rational(plo), "high": format_rational(phi)},
        "area": {"low": format_rational(alo), "high": format_rational(ahi)},
    }
