"""An external tracer for `gsrs`: spans around calls into its public
functions, recorded from outside the package.

`install` wraps each traced function and rebinds every binding of it in
every loaded `gsrs` module, so that names imported with `from .x import y`
are caught as well; class attributes (`Cell.contains`, the staticmethod
`Cell.from_closure`, the property `Cell.constraints`) are wrapped in place.
`uninstall` restores every original.

Each call is folded into a call-path tree node (calls, total time, time in
traced children), so memory stays bounded however many calls a round makes.
Calls of functions outside `HOT` are also kept as individual spans with a
name, start, end and parent.  Outcome counts are derived from arguments and
results by per-function observers; `gamma` is not wrapped, and its count
comes from the orbit results.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from gsrs import cli, cutout, dynamics, families, geometry, region, verify

# (label, owner, attribute); the label is "<module>.<function>" as reported
TRACED = (
    ("dynamics.orbit", dynamics, "orbit"),
    ("dynamics.brunotte_witnesses", dynamics, "brunotte_witnesses"),
    ("dynamics.witness_graph", dynamics, "witness_graph"),
    ("dynamics.decide_finiteness", dynamics, "decide_finiteness"),
    ("cutout.cycle_polygon", cutout, "cycle_polygon"),
    ("cutout.witness_polyhedron", cutout, "witness_polyhedron"),
    ("families.instance_cycle", families, "instance_cycle"),
    ("families.selection", families, "selection"),
    ("geometry.intersect_halfplanes", geometry, "intersect_halfplanes"),
    ("geometry.subtract_cover", geometry, "subtract_cover"),
    ("geometry.closures_intersect", geometry, "closures_intersect"),
    ("geometry.disk_relation", geometry, "disk_relation"),
    ("geometry.Cell.contains", geometry.Cell, "contains"),
    ("geometry.Cell.constraints", geometry.Cell, "constraints"),
    ("geometry.Cell.from_closure", geometry.Cell, "from_closure"),
    ("region.region_contains", region, "region_contains"),
    ("region.boundary_chain", region, "boundary_chain"),
    ("region.local_gc_cells", region, "local_gc_cells"),
    ("region.prefix_gc_cells", region, "prefix_gc_cells"),
    ("region.perimeter_estimate", region, "perimeter_estimate"),
    ("region.area_estimate", region, "area_estimate"),
    ("verify.verify_sector", verify, "verify_sector"),
    ("verify.verify_prefix", verify, "verify_prefix"),
    ("verify.flood_fill_tiles", verify, "flood_fill_tiles"),
    ("cli.main", cli, "main"),
)
LABELS = tuple(label for label, _owner, _attr in TRACED)

# called often enough that only their call-path totals are kept
HOT = frozenset({
    "dynamics.orbit", "cutout.cycle_polygon", "families.instance_cycle",
    "geometry.intersect_halfplanes", "geometry.closures_intersect",
    "geometry.disk_relation", "geometry.Cell.contains", "geometry.Cell.constraints",
    "geometry.Cell.from_closure", "region.boundary_chain",
})

COUNTS = (
    "dynamics.orbit.steps",
    "dynamics.witnesses.total",
    "dynamics.witnesses.max",
    "cutout.cycle_polygon.distinct",
    "cutout.witness_polyhedron.halfplanes",
    "geometry.intersect_halfplanes.halfplanes",
    "geometry.subtract_cover.pieces",
    "geometry.closures_intersect.hits",
    "families.selection.instances",
    "region.boundary_chain.vertices",
    "region.pikes",
    "verify.tiles",
    "verify.residuals.inside",
    "verify.residuals.meets",
    "verify.residuals.outside",
)


class Node:
    """One call path: calls, total time and time spent in traced children."""

    __slots__ = ("label", "children", "calls", "total", "child")

    def __init__(self, label):
        self.label = label
        self.children = {}
        self.calls = 0
        self.total = 0.0
        self.child = 0.0

    def to_json(self):
        return {"name": self.label, "calls": self.calls, "total_s": self.total,
                "self_s": self.total - self.child,
                "children": [c.to_json() for c in self.children.values()]}


def _orbit_steps(res, budget):
    """Map applications made by one `orbit` call, read from its result."""
    if res.outcome == "zero":
        return max(res.steps, 1)
    if res.outcome == "cycle":
        return res.preperiod + len(res.cycle)
    return budget


class Tracer:
    def __init__(self):
        self.root = Node("root")
        self.stack = [[self.root, 0.0, None]]  # [node, child time, span id]
        self.spans = []  # (id, name, start, end, parent id)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.cycles = set()
        self._restore = []

    # -- spans -------------------------------------------------------------

    def call(self, label, fn, args, kwargs, keep_span=True):
        parent = self.stack[-1]
        node = parent[0].children.get(label)
        if node is None:
            node = parent[0].children[label] = Node(label)
        span = None
        if keep_span:
            span = len(self.spans)
            self.spans.append(None)
        frame = [node, 0.0, span]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            node.calls += 1
            node.total += end - start
            node.child += frame[1]
            parent[1] += end - start
            if span is not None:
                self.spans[span] = (span, label, start, end, parent[2])

    def operation(self, name, fn, *args):
        """Run one benchmark operation as a root span."""
        return self.call(f"op:{name}", fn, args, {})

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, label, fn):
        observe = OBSERVERS.get(label)
        keep = label not in HOT
        tracer = self

        def wrapper(*args, **kwargs):
            res = tracer.call(label, fn, args, kwargs, keep)
            if observe is not None:
                observe(tracer, args, kwargs, res)
            return res
        return wrapper

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "gsrs" or name.startswith("gsrs."))]
        try:
            for label, owner, attr in TRACED:
                if isinstance(owner, type):
                    self._install_attribute(label, owner, attr)
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(label, original)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, name, original))
                            setattr(m, name, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _install_attribute(self, label, cls, attr):
        original = cls.__dict__[attr]
        if isinstance(original, property):
            new = property(self._wrap(label, original.fget), doc=original.__doc__)
        elif isinstance(original, staticmethod):
            new = staticmethod(self._wrap(label, original.__func__))
        else:
            new = self._wrap(label, original)
        self._restore.append((cls, attr, original))
        setattr(cls, attr, new)

    def uninstall(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    def per_label(self):
        """label -> [calls, self time], summed over every call path."""
        out = defaultdict(lambda: [0, 0.0])
        stack = [self.root]
        while stack:
            node = stack.pop()
            for child in node.children.values():
                acc = out[child.label]
                acc[0] += child.calls
                acc[1] += child.total - child.child
                stack.append(child)
        return out

    def metrics(self):
        per = self.per_label()
        out = {}
        for label in LABELS:
            calls, self_s = per.get(label, (0, 0.0))
            out[f"{label}.calls"] = (calls, "count")
            out[f"{label}.self_s"] = (self_s, "s")
        counts = dict(self.counts)
        counts["cutout.cycle_polygon.distinct"] = len(self.cycles)
        for name in COUNTS:
            out[name] = (counts[name], "count")
        return out


# -- observers: outcome counts read from arguments and results -----------

def _obs_orbit(t, args, kwargs, res):
    budget = args[2] if len(args) > 2 else kwargs.get("budget", dynamics.ORBIT_BUDGET_DEFAULT)
    t.counts["dynamics.orbit.steps"] += _orbit_steps(res, budget)


def _obs_witnesses(t, args, kwargs, res):
    t.counts["dynamics.witnesses.total"] += len(res)
    t.counts["dynamics.witnesses.max"] = max(t.counts["dynamics.witnesses.max"], len(res))


def _obs_cycle_polygon(t, args, kwargs, res):
    t.cycles.add(args[0])


def _obs_witness_polyhedron(t, args, kwargs, res):
    # sixteen constraints per witness; the zero witness contributes none
    t.counts["cutout.witness_polyhedron.halfplanes"] += 16 * sum(
        1 for v in args[0].vertices if not v.is_zero())


def _obs_intersect(t, args, kwargs, res):
    hs = args[0] if args else kwargs["hs"]
    t.counts["geometry.intersect_halfplanes.halfplanes"] += len(hs)


def _obs_subtract(t, args, kwargs, res):
    t.counts["geometry.subtract_cover.pieces"] += len(res)


def _obs_closures(t, args, kwargs, res):
    t.counts["geometry.closures_intersect.hits"] += bool(res)


def _obs_selection(t, args, kwargs, res):
    t.counts["families.selection.instances"] += len(res)


def _obs_chain(t, args, kwargs, res):
    t.counts["region.boundary_chain.vertices"] += len(res)


def _obs_pikes(t, args, kwargs, res):
    t.counts["region.pikes"] += args[0] if args else kwargs["n_pikes"]


def _obs_tiles(t, args, kwargs, res):
    t.counts["verify.tiles"] += len(res.tiles)


def _obs_coverage(t, args, kwargs, res):
    for _cell, rel in res.residuals:
        t.counts[f"verify.residuals.{rel}"] += 1


OBSERVERS = {
    "dynamics.orbit": _obs_orbit,
    "dynamics.brunotte_witnesses": _obs_witnesses,
    "cutout.cycle_polygon": _obs_cycle_polygon,
    "cutout.witness_polyhedron": _obs_witness_polyhedron,
    "geometry.intersect_halfplanes": _obs_intersect,
    "geometry.subtract_cover": _obs_subtract,
    "geometry.closures_intersect": _obs_closures,
    "families.selection": _obs_selection,
    "region.boundary_chain": _obs_chain,
    "region.perimeter_estimate": _obs_pikes,
    "region.area_estimate": _obs_pikes,
    "verify.flood_fill_tiles": _obs_tiles,
    "verify.verify_sector": _obs_coverage,
    "verify.verify_prefix": _obs_coverage,
}
