"""Exact half-open convex cells.

A cell is an intersection of rational half-planes, each independently strict
or non-strict.  The canonical form of a cell is a description of its closure
(vertex list, counter-clockwise, starting at the lexicographically smallest
vertex) together with per-edge and per-vertex membership flags; the
constraint list is re-derived from that description, which keeps constraint
lists small under repeated boolean subtraction.

Degenerate cells (segments, points) are first-class citizens: the boundary
bookkeeping of the verification campaigns lives exactly in these
lower-dimensional pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import QComplex, format_rational

FRAME_BOUND = Fraction(2)


@dataclass(frozen=True)
class HalfPlane:
    """The set {(x, y) : a*x + b*y + c >= 0} (or > 0 when strict)."""

    a: Fraction
    b: Fraction
    c: Fraction
    strict: bool = False

    @staticmethod
    def make(a, b, c, strict=False) -> "HalfPlane":
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        if a == 0 and b == 0:
            raise ValueError("half-plane needs a nonzero normal")
        lead = a if a != 0 else b
        scale = abs(lead)
        return HalfPlane(a / scale, b / scale, c / scale, strict)

    def eval(self, p: QComplex) -> Fraction:
        return self.a * p.re + self.b * p.im + self.c

    def complement(self) -> "HalfPlane":
        # complement of {f >= 0} is {-f > 0} and vice versa
        return HalfPlane(-self.a, -self.b, -self.c, not self.strict)

    def to_json(self):
        return {
            "a": format_rational(self.a),
            "b": format_rational(self.b),
            "c": format_rational(self.c),
            "strict": self.strict,
        }


def _cross(o: QComplex, u: QComplex, v: QComplex) -> Fraction:
    return (u.re - o.re) * (v.im - o.im) - (u.im - o.im) * (v.re - o.re)


def _midpoint(p: QComplex, q: QComplex) -> QComplex:
    return QComplex((p.re + q.re) / 2, (p.im + q.im) / 2)


def line_through(u: QComplex, v: QComplex):
    """Raw coefficients (a, b, c) of the line through u and v, oriented so
    that a*x + b*y + c > 0 exactly on the left of u -> v.  The normal
    (a, b) is u -> v turned a quarter left, unnormalised."""
    a = u.im - v.im
    b = v.re - u.re
    return a, b, -(a * u.re + b * u.im)


def _clip(poly, h: HalfPlane):
    """Sutherland-Hodgman clip of a (possibly degenerate) closed vertex list
    by the closure {f >= 0} of h.  Exact; points on the line are kept."""
    out = []
    n = len(poly)
    vals = [h.a * p.re + h.b * p.im + h.c for p in poly]
    for i in range(n):
        p, fp = poly[i], vals[i]
        q, fq = poly[(i + 1) % n], vals[(i + 1) % n]
        if fp >= 0:
            out.append(p)
        if (fp > 0 and fq < 0) or (fp < 0 and fq > 0):
            t = fp / (fp - fq)
            out.append(QComplex(p.re + (q.re - p.re) * t, p.im + (q.im - p.im) * t))
    # drop consecutive duplicates (cyclically)
    dedup = []
    for p in out:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _clip_all(poly, hs):
    """`poly` clipped by the closure of every half-plane in hs in turn;
    empty as soon as one clip empties it."""
    for h in hs:
        poly = _clip(poly, h)
        if not poly:
            return []
    return poly


def _simplify_closure(poly):
    """Remove collinear intermediate vertices; returns distinct extreme
    points in original orientation."""
    pts = []
    for p in poly:
        if p not in pts:
            pts.append(p)
    if len(pts) <= 2:
        return pts
    out = []
    n = len(pts)
    for i in range(n):
        prev, cur, nxt = pts[i - 1], pts[i], pts[(i + 1) % n]
        if _cross(prev, cur, nxt) != 0:
            out.append(cur)
    if not out:
        # fully collinear ring (a ring that turns anywhere turns at three
        # vertices at least): keep the two extremes
        lo = min(pts, key=lambda p: (p.re, p.im))
        hi = max(pts, key=lambda p: (p.re, p.im))
        return [lo, hi]
    return out


def _signed_area2(poly) -> Fraction:
    s = Fraction(0)
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        s += p.re * q.im - q.re * p.im
    return s


@dataclass(frozen=True)
class Cell:
    """Canonical half-open convex cell.

    vertices: closure vertices (CCW for polygons, lexicographic order for
    segments); edge_solid[i] tells whether the open edge from vertex i to
    vertex i+1 belongs to the cell; vertex_member[i] whether vertex i does.
    The empty cell has no vertices.
    """

    vertices: tuple
    edge_solid: tuple
    vertex_member: tuple

    # -- classification ----------------------------------------------------

    @property
    def dim(self) -> int:
        n = len(self.vertices)
        if n == 0:
            return -1
        if n == 1:
            return 0
        if n == 2:
            return 1
        return 2

    def is_empty(self) -> bool:
        return not self.vertices

    # -- construction ------------------------------------------------------

    @staticmethod
    def empty() -> "Cell":
        return Cell((), (), ())

    @staticmethod
    def from_closure(poly, constraints) -> "Cell":
        """Build the canonical cell whose closure is `poly` and whose
        strictness bookkeeping comes from evaluating `constraints`."""
        poly = _simplify_closure(poly)
        strict = [h for h in constraints if h.strict]

        def member(p):
            return all(h.eval(p) > 0 for h in strict)

        n = len(poly)
        edge_solid = [member(_midpoint(poly[i], poly[(i + 1) % n])) for i in range(n)]
        return Cell.from_markup(poly, edge_solid, [member(p) for p in poly])

    @staticmethod
    def from_markup(vertices, edge_solid, vertex_member) -> "Cell":
        """Build a cell directly from a vertex/edge/vertex-flag description
        (e.g. a transcribed boundary listing).  Canonicalizes orientation
        and starting vertex.

        edge_solid[i] is the flag of the edge from vertex i to vertex i+1,
        cyclically; a point's edge and a segment's closing edge add nothing
        and may be left out."""
        vertices = list(vertices)
        edge_solid = list(edge_solid)
        vertex_member = list(vertex_member)
        n = len(vertices)
        min_edges = n if n > 2 else n - 1
        if len(vertex_member) != n or not min_edges <= len(edge_solid) <= n:
            raise ValueError(
                f"a {n}-vertex cell needs {n} edge and {n} vertex flags, "
                f"got {len(edge_solid)} and {len(vertex_member)}"
            )
        if n == 0:
            return Cell.empty()
        if n == 1:
            if not vertex_member[0]:
                return Cell.empty()
            return Cell((vertices[0],), (), (True,))
        if n == 2:
            if not edge_solid[0]:
                mem = [vertices[i] for i in range(2) if vertex_member[i]]
                if len(mem) == 1:
                    return Cell((mem[0],), (), (True,))
                if not mem:
                    return Cell.empty()
                raise ValueError("two isolated points are not a convex cell")
            if (vertices[1].re, vertices[1].im) < (vertices[0].re, vertices[0].im):
                vertices.reverse()
                vertex_member.reverse()
            return Cell(tuple(vertices), (True,), tuple(vertex_member))
        if _signed_area2(vertices) < 0:
            # reversing vertex order: edge i (v_i -> v_{i+1}) becomes the
            # edge between reversed positions n-1-i-1 and n-1-i
            vertices.reverse()
            vertex_member.reverse()
            edge_solid = [edge_solid[n - 2 - i] for i in range(n - 1)] + [edge_solid[n - 1]]
        k = min(range(n), key=lambda i: (vertices[i].re, vertices[i].im))
        vertices = vertices[k:] + vertices[:k]
        vertex_member = vertex_member[k:] + vertex_member[:k]
        edge_solid = edge_solid[k:] + edge_solid[:k]
        return Cell(tuple(vertices), tuple(edge_solid), tuple(vertex_member))

    # -- constraints -------------------------------------------------------

    @property
    def constraints(self) -> tuple:
        """Canonical constraint list realizing exactly this cell."""
        n = len(self.vertices)
        if n == 0:
            return (HalfPlane.make(1, 0, 0, True), HalfPlane.make(-1, 0, 0, True))
        if n == 1:
            p = self.vertices[0]
            return (
                HalfPlane.make(1, 0, -p.re),
                HalfPlane.make(-1, 0, p.re),
                HalfPlane.make(0, 1, -p.im),
                HalfPlane.make(0, -1, p.im),
            )
        if n == 2:
            p, q = self.vertices
            a, b, c = line_through(p, q)
            dx, dy = b, -a  # direction p -> q
            out = [HalfPlane.make(a, b, c), HalfPlane.make(-a, -b, -c)]
            out.append(
                HalfPlane.make(dx, dy, -(dx * p.re + dy * p.im), not self.vertex_member[0])
            )
            out.append(
                HalfPlane.make(-dx, -dy, dx * q.re + dy * q.im, not self.vertex_member[1])
            )
            return tuple(out)
        out = []
        normals = []
        for i in range(n):
            a, b, c = line_through(self.vertices[i], self.vertices[(i + 1) % n])
            normals.append((a, b))
            out.append(HalfPlane.make(a, b, c, not self.edge_solid[i]))
        for i in range(n):
            if self.vertex_member[i]:
                if not (self.edge_solid[i] and self.edge_solid[i - 1]):
                    raise ValueError("member vertex adjacent to a dotted edge")
            elif self.edge_solid[i] and self.edge_solid[i - 1]:
                # excluded vertex between two solid edges: cut it out with a
                # strict supporting line (sum of adjacent inward normals)
                w = self.vertices[i]
                a = normals[i - 1][0] + normals[i][0]
                b = normals[i - 1][1] + normals[i][1]
                out.append(HalfPlane.make(a, b, -(a * w.re + b * w.im), True))
        return tuple(out)

    def contains(self, p: QComplex) -> bool:
        if self.is_empty():
            return False
        for h in self.constraints:
            v = h.eval(p)
            if v < 0 or (v == 0 and h.strict):
                return False
        return True

    # -- misc --------------------------------------------------------------

    def interior_point(self) -> QComplex:
        """An exact rational point belonging to the cell (centroid of the
        closure vertices; for full-dimensional cells this satisfies every
        strict constraint strictly)."""
        if self.is_empty():
            raise ValueError("empty cell has no points")
        n = len(self.vertices)
        if n == 1:
            return self.vertices[0]
        if n == 2:
            return _midpoint(*self.vertices)
        sx = sum(p.re for p in self.vertices)
        sy = sum(p.im for p in self.vertices)
        return QComplex(Fraction(sx, n), Fraction(sy, n))

    def to_json(self):
        return {
            "constraints": [h.to_json() for h in self.constraints] if not self.is_empty() else [],
            "vertices": [p.as_strings() for p in self.vertices],
            "edge_solid": list(self.edge_solid),
            "vertex_member": list(self.vertex_member),
        }


_FRAME = (
    QComplex.make(-FRAME_BOUND, -FRAME_BOUND),
    QComplex.make(FRAME_BOUND, -FRAME_BOUND),
    QComplex.make(FRAME_BOUND, FRAME_BOUND),
    QComplex.make(-FRAME_BOUND, FRAME_BOUND),
)


def intersect_halfplanes(hs, start_poly=None) -> Cell:
    """Canonical cell for start_poly ∩ ⋂hs.

    The default start polygon, the [-2, 2]^2 frame, guarantees boundedness;
    strictness bookkeeping is exact.
    """
    poly = _clip_all(_FRAME if start_poly is None else start_poly, hs)
    return Cell.from_closure(poly, hs) if poly else Cell.empty()


def _split_out(cell: Cell, cover: Cell):
    """Pairwise-disjoint pieces of cell ∖ cover."""
    if cover.is_empty():
        return [cell]
    pieces = []
    kept = []
    base = list(cell.constraints)
    for h in cover.constraints:
        cut = kept + [h.complement()]
        poly = _clip_all(cell.vertices, cut)
        if poly:
            # the cell's own constraints would leave a polygon inside its
            # closure unchanged, so they only contribute strictness
            piece = Cell.from_closure(poly, cut + base)
            if not piece.is_empty():
                pieces.append(piece)
        kept.append(h)
    return pieces


def subtract_cover(target: Cell, covers) -> list:
    """Finite list of pairwise-disjoint nonempty cells whose union is
    exactly target minus the union of the covers."""
    residuals = [target] if not target.is_empty() else []
    for cover in covers:
        nxt = []
        for cell in residuals:
            nxt.extend(_split_out(cell, cover))
        residuals = nxt
        if not residuals:
            break
    return residuals


def _segment_min_point(u: QComplex, v: QComplex) -> QComplex:
    dx, dy = v.re - u.re, v.im - u.im
    dd = dx * dx + dy * dy
    if dd == 0:
        return u
    t = -(u.re * dx + u.im * dy) / dd
    if t <= 0:
        return u
    if t >= 1:
        return v
    return QComplex(u.re + dx * t, u.im + dy * t)


def disk_relation(c: Cell) -> str:
    """'inside', 'outside' or 'meets' relative to the closed unit disk,
    honoring the cell's half-open membership: a cell whose closure touches
    the disk only in excluded boundary points still counts as outside."""
    if c.is_empty():
        raise ValueError("empty cell")
    verts = c.vertices
    if all(p.norm2() < 1 for p in verts):
        return "inside"
    n = len(verts)
    closest = [
        _segment_min_point(verts[i], verts[(i + 1) % n])
        for i in range(n if n > 2 else 1)
    ]
    mind = min(p.norm2() for p in closest)
    if mind > 1:
        return "outside"
    if mind < 1:
        return "meets"
    # closure touches the unit circle exactly; the touch points decide
    touching = {p for p in closest if p.norm2() == 1}
    touching.update(p for p in verts if p.norm2() == 1)
    if any(c.contains(p) for p in touching):
        return "meets"
    return "outside"


def closures_intersect(c1: Cell, c2: Cell) -> bool:
    """Whether the closures of two cells overlap (cheap pruning test)."""
    if c1.is_empty() or c2.is_empty():
        return False
    return bool(_clip_all(c1.vertices, c2.constraints))
