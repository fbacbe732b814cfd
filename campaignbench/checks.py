"""Correctness checks on the outputs of one round.

Each check returns a list of problems (empty when the outputs are right).
The checks compare against independent paths or required properties, never
against stored output: cell membership is evaluated from the JSON
constraints, region membership from the window's cell decomposition, cycles
by applying the map, and brackets against the published constants.  They
run after the timed part, with tracing off.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

from gsrs import cutout, dynamics, families, region
from gsrs.exact import QComplex

import workloads as wl

# published values, cut to 13 decimals, and the tolerance that cut allows
PERIMETER = Fraction(70317015814551, 10**13)
AREA = Fraction(11616244963841, 10**13)
PUBLISHED_TOLERANCE = Fraction(1, 10**13)


def json_cell_contains(cell: dict, p: QComplex) -> bool:
    """Membership of p in a cell given as `Cell.to_json()`, evaluated from
    its constraint list alone."""
    if not cell["vertices"]:
        return False
    for h in cell["constraints"]:
        v = Fraction(h["a"]) * p.re + Fraction(h["b"]) * p.im + Fraction(h["c"])
        if v < 0 or (v == 0 and h["strict"]):
            return False
    return True


def _point(pair) -> QComplex:
    return QComplex(Fraction(pair[0]), Fraction(pair[1]))


def _interior_point(vertices):
    """Centroid of the closure vertices: a point of the cell, as
    `Cell.interior_point` defines it."""
    pts = [_point(v) for v in vertices]
    n = len(pts)
    return QComplex(sum((p.re for p in pts), Fraction(0)) / n,
                    sum((p.im for p in pts), Fraction(0)) / n)


# ---------------------------------------------------------------------------
# exterior
# ---------------------------------------------------------------------------

def covered_report_problems(name: str, rep: dict) -> list:
    """A covered report: every residual lies strictly outside the closed
    unit disk, member vertices and interior point included."""
    problems = []
    if rep["verdict"] != "covered":
        problems.append(f"{name}: verdict {rep['verdict']}")
    for k, res in enumerate(rep["residuals"]):
        cell = res["cell"]
        if res["disk"] != "outside":
            problems.append(f"{name}: residual {k} is {res['disk']} the disk")
        pts = [_point(v) for v, mem in zip(cell["vertices"], cell["vertex_member"]) if mem]
        pts.append(_interior_point(cell["vertices"]))
        if any(p.norm2() <= 1 for p in pts):
            problems.append(f"{name}: residual {k} has a point in the closed disk")
    return problems


def negative_control_problems(rep: dict) -> list:
    failed = [r for r in rep["residuals"] if r["disk"] != "outside"]
    if rep["verdict"] != "failed" or not failed:
        return [f"negative control: verdict {rep['verdict']} with {len(failed)} failed cells"]
    return []


def outside_points_problems(candidates: dict, per_window: int) -> list:
    """The first `per_window` candidates of each window that lie outside
    the region decide "infinite"."""
    problems = []
    for window, points in candidates.items():
        outside = list(itertools.islice((p for p in points if not region.region_contains(p)), per_window))
        if not outside:
            problems.append(f"{window}: no candidate point outside the region")
        for p in outside:
            verdict = dynamics.decide_finiteness(p).verdict
            if verdict != "infinite":
                problems.append(f"{window}: {wl.qarg(p)} outside the region decides {verdict}")
    return problems


# the explicit cycles C_0(1..14) are printed; C_0(15..26) were recomputed to
# close gaps and have no closed-form cutout to compare with
PRINTED_C0 = 14


def exterior_instances():
    """Every catalog instance the exterior campaign uses that has a printed
    closed-form cutout."""
    used = set(families.PREFIX_INSTANCES) | set(families.all_selection_instances(1, 12))
    for n in wl.EXTERIOR_SECTORS:
        used.update(families.selection(n))
    used.update(i for i in families.selection(wl.NEGATIVE_CONTROL_N)
                if i.family in wl.NEGATIVE_CONTROL_FAMILIES)
    return sorted((i for i in used if i.family != 0 or i.n <= PRINTED_C0),
                  key=lambda i: (i.family, i.n, i.m))


def instance_problems(instances) -> list:
    return [f"cutout of {i} differs from the catalog" for i in instances
            if cutout.cycle_polygon(families.instance_cycle(i)) != families.expected_cutout(i)]


def check_exterior(w, results) -> list:
    problems = []
    for op, text in results:
        data = json.loads(text)
        if op.name.startswith("negative-control"):
            problems += negative_control_problems(data["reports"][0])
        elif op.name == "verify-prefix":
            problems += covered_report_problems(op.name, data)
        else:
            for rep in data["reports"]:
                problems += covered_report_problems(f"sector {rep['sector']}", rep)
    problems += outside_points_problems(w.inputs["candidates"], wl.EXTERIOR_CHECK_POINTS)
    rng = random.Random(w.inputs["instance_seed"])
    problems += instance_problems(rng.sample(exterior_instances(), wl.EXTERIOR_CHECK_INSTANCES))
    return problems


# ---------------------------------------------------------------------------
# finiteness
# ---------------------------------------------------------------------------

def in_square(p: QComplex, radius: Fraction) -> bool:
    return 0 <= p.re <= radius and -radius <= p.im <= radius


def parameter_problems(p: QComplex, decide: dict, witnesses: dict, contains: dict,
                       radius: Fraction) -> list:
    name = wl.qarg(p)
    problems = []
    if not json_cell_contains(witnesses["cell"], p):
        problems.append(f"{name}: witness cell misses its parameter")
    verdict = decide["verdict"]
    if verdict == "infinite":
        cycle = dynamics.Cycle.from_json(decide.get("cycle", [[0, 0]]))
        if cycle.is_trivial() or not cycle.verify(p):
            problems.append(f"{name}: infinite without a cycle realized at the parameter")
    if not contains["contains"] and verdict != "infinite":
        problems.append(f"{name}: outside the region but decides {verdict}")
    if contains["contains"] and in_square(p, radius) and verdict != "finite":
        problems.append(f"{name}: in the flood-filled core but decides {verdict}")
    if verdict not in ("finite", "infinite"):
        problems.append(f"{name}: undecided ({verdict})")
    return problems


def tile_problems(report: dict, probes) -> list:
    problems = []
    if report["verdict"] != "covered" or report["uncovered"]:
        problems.append(f"flood fill: verdict {report['verdict']}")
    if not all(t["finite"] for t in report["tiles"]):
        problems.append("flood fill: an infinite tile")
    for p in probes:
        hits = sum(json_cell_contains(t["cell"], p) for t in report["tiles"])
        if hits != 1:
            problems.append(f"flood fill: {wl.qarg(p)} lies in {hits} tiles")
    return problems


def check_finiteness(w, results) -> list:
    problems = []
    params = dict((wl.qarg(p), p) for _kind, p in w.inputs["parameters"])
    for op, out in results:
        if op.name.startswith("verify-tiles"):
            problems += tile_problems(json.loads(out), w.inputs["square_probes"])
        else:
            p = params[op.name.split()[-1]]
            problems += parameter_problems(p, *map(json.loads, out), w.inputs["radius"])
    return problems


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

class WindowCells:
    """The cell decomposition of region ∩ window for the window holding a
    point, built on first use."""

    def __init__(self):
        self.cache = {}

    def holding(self, p: QComplex):
        if p.re <= 0 or p.im <= 0:
            raise ValueError(f"{wl.qarg(p)} lies in no window")
        if 7 * p.im > p.re:
            key = "prefix"
        else:
            key = int(p.re / p.im) + 1  # 1/n < y/x <= 1/(n-1)
        if key not in self.cache:
            self.cache[key] = region.prefix_gc_cells() if key == "prefix" else region.local_gc_cells(key)
        return self.cache[key]


def classified_problems(p: QComplex, hits: int, expected: bool, in_region: bool,
                        reference_in_region: bool) -> list:
    name = wl.qarg(p)
    problems = []
    if hits > 1:
        problems.append(f"{name}: in {hits} residual cells")
    elif (hits == 1) != expected:
        problems.append(f"{name}: in {hits} residual cells, expected {int(expected)}")
    if in_region != reference_in_region:
        problems.append(f"{name}: region_contains says {in_region}, the window's cells {reference_in_region}")
    return problems


def check_probe(w, results) -> list:
    problems = []
    cells = WindowCells()
    windows = {name: (window(), gc()) for name, window, gc, _slopes in wl.probe_windows()}
    for op, out in results:
        if op.name.startswith("residuals"):
            continue
        window_name, p = w.inputs["probes"][op.name]
        if window_name is None:
            hits, text, expected = 0, out, False
        else:
            hits, text = out
            window, subtracted = windows[window_name]
            expected = window.contains(p) and not any(c.contains(p) for c in subtracted)
        reference = any(c.contains(p) for c in cells.holding(p))
        problems += classified_problems(p, hits, expected, json.loads(text)["contains"], reference)
    return problems


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

def bracket_problems(brackets) -> list:
    """`brackets` holds (pikes, (perimeter low, high), (area low, high)) in
    the order measured."""
    problems = []
    for key, c, idx in (("perimeter", PERIMETER, 1), ("area", AREA, 2)):
        pairs = [b[idx] for b in brackets]
        for (lo, hi), b in zip(pairs, brackets):
            if not lo < hi:
                problems.append(f"{key} at {b[0]} pikes: low >= high")
            if lo > c + PUBLISHED_TOLERANCE or hi < c - PUBLISHED_TOLERANCE:
                problems.append(f"{key} at {b[0]} pikes misses the published value")
        if max(lo for lo, _ in pairs) > min(hi for _, hi in pairs):
            problems.append(f"{key}: the brackets have no common point")
    lows = [b[1][0] for b in brackets]
    if any(b < a for a, b in zip(lows, lows[1:])):
        problems.append("perimeter: the low bound falls as the pikes double")
    (plo, phi), (alo, ahi) = brackets[-1][1], brackets[-1][2]
    if phi - plo > wl.PERIMETER_WIDTH or ahi - alo > wl.AREA_WIDTH:
        problems.append("the final brackets are wider than the targets")
    return problems


def check_measure(w, results) -> list:
    brackets = []
    for _op, text in results:
        data = json.loads(text)
        brackets.append((data["n_pikes"],
                         (Fraction(data["perimeter"]["low"]), Fraction(data["perimeter"]["high"])),
                         (Fraction(data["area"]["low"]), Fraction(data["area"]["high"]))))
    return bracket_problems(brackets) if brackets else ["no bracket measured"]


CHECKS = {"exterior": check_exterior, "finiteness": check_finiteness,
          "probe": check_probe, "measure": check_measure}


def check(w, results) -> list:
    """Problems with the outputs of the operations that did not fail."""
    return CHECKS[w.name](w, results)
