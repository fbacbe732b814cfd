"""The four workloads: seeded inputs and the operations of one round.

A round is a fixed sequence of operations, run back to back by one caller.
Each operation drives a `gsrs` subcommand through `gsrs.cli.main` in-process
where one exists, so JSON emission is part of its time; the read side of
`geometry` has no subcommand and is called directly.  An operation returns
its raw output; `render` turns it into the text whose digest is recorded,
and the checks in `checks.py` parse it.

Every call into `gsrs` goes through a module attribute (`geometry.x`, not a
name imported from it), so that the tracer's rebinding sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

import gsrs.cli as cli
from gsrs import geometry, region
from gsrs.exact import QComplex


class OpFailed(Exception):
    """An operation ended with an unexpected exit code or no output."""


@dataclass
class Op:
    """One operation: `fn(ctx)` does the timed work and returns its output;
    `render(output)` gives the text whose digest is recorded."""

    name: str
    fn: Callable
    render: Callable = str


@dataclass
class Workload:
    name: str
    ops: Callable[[dict], Iterator[Op]]  # generator over one round's operations
    inputs: dict = field(default_factory=dict)  # what the checks need besides outputs


def run_cli(argv, expect: int = 0) -> str:
    """Run one subcommand in-process and return its standard output."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        raise OpFailed(f"{argv}: exit {exc.code}") from None
    if rc != expect:
        raise OpFailed(f"{argv}: exit {rc}, expected {expect}")
    text = buf.getvalue()
    if not text:
        raise OpFailed(f"{argv}: no output")
    return text


def cli_op(name: str, argv, expect: int = 0) -> Op:
    return Op(name, lambda ctx: run_cli(argv, expect))


def qarg(p: QComplex) -> str:
    return f"{p.re},{p.im}"


def _rat(v: float, den: int) -> Fraction:
    return Fraction(round(v * den), den)


# ---------------------------------------------------------------------------
# exterior: sector and head coverage
# ---------------------------------------------------------------------------

EXTERIOR_SECTORS = (7, 8)
NEGATIVE_CONTROL_N = 20
NEGATIVE_CONTROL_FAMILIES = tuple(range(1, 19))  # family 19 left out
EXTERIOR_CHECK_POINTS = 2  # per window
EXTERIOR_CHECK_RADII = (Fraction(97, 100), Fraction(99, 100))
EXTERIOR_CHECK_INSTANCES = 4


def exterior(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = [cli_op(f"verify-sector {n}", ["verify-sector", f"--n-lo={n}", f"--n-hi={n}"])
           for n in EXTERIOR_SECTORS]
    ops.append(cli_op("verify-prefix", ["verify-prefix"]))
    ops.append(cli_op(
        f"negative-control {NEGATIVE_CONTROL_N}",
        ["verify-sector", f"--n-lo={NEGATIVE_CONTROL_N}", f"--n-hi={NEGATIVE_CONTROL_N}",
         "--families", *map(str, NEGATIVE_CONTROL_FAMILIES)],
        expect=1,
    ))
    # candidate points for the "outside the region decides infinite" check;
    # which of them lie outside the region is decided by the check itself
    windows = [("prefix", Fraction(1, 7), Fraction(7))]
    windows += [(f"sector {n}", Fraction(1, n), Fraction(1, n - 1)) for n in EXTERIOR_SECTORS]
    candidates = {
        w: [wedge_point(rng, lo, hi, *EXTERIOR_CHECK_RADII) for _ in range(128)]
        for w, lo, hi in windows
    }
    return Workload("exterior", lambda ctx: iter(ops), {
        "candidates": candidates,
        "instance_seed": rng.randrange(2**32),
    })


def wedge_point(rng, lo: Fraction, hi: Fraction, r_lo: Fraction, r_hi: Fraction) -> QComplex:
    """A rational point with slope in (lo, hi] and modulus in [r_lo, r_hi];
    x is rounded to a random denominator, so the modulus is checked exactly
    and the draw repeated until it holds."""
    while True:
        s = lo + (hi - lo) * Fraction(rng.randrange(1, 1025), 1024)
        rho = rng.uniform(float(r_lo), float(r_hi))
        x = _rat(rho / math.sqrt(1 + float(s) ** 2), rng.randrange(64, 256))
        p = QComplex(x, x * s)
        if x > 0 and r_lo ** 2 <= p.norm2() <= r_hi ** 2:
            return p


# ---------------------------------------------------------------------------
# finiteness: decisions, witness cells and the core flood fill
# ---------------------------------------------------------------------------

SPREAD_POINTS = 14
SPREAD_RADIUS = Fraction(19, 20)
CORE_POINTS = 2
ANCHOR_RADIUS = 0.97
ANCHOR_ANGLES_DEG = (15, 75, 135, 195, 255, 315)  # 15 degrees off every axis
ANCHOR_JITTER = Fraction(1, 20000)
TILE_RADII = (Fraction(1, 4), Fraction(5, 16), Fraction(3, 8), Fraction(7, 16))
TILE_PROBES = 64


def finiteness_parameters(rng, radius: Fraction) -> list:
    """(kind, parameter) pairs: spread points, area-stratified over
    |r| <= 19/20 with denominators up to 64; core points in the right half of
    the flood-filled square; and annulus points, fixed anchors at |r| = 0.97
    moved by a seeded offset of at most 1/20000 per coordinate, which keeps
    each anchor's witness-set size whatever the seed."""
    params = []
    for k in range(SPREAD_POINTS):
        while True:
            rho = float(SPREAD_RADIUS) * math.sqrt((k + rng.random()) / SPREAD_POINTS)
            ang = rng.uniform(-math.pi, math.pi)
            den = rng.randrange(1, 65)
            p = QComplex(_rat(rho * math.cos(ang), den), _rat(rho * math.sin(ang), den))
            if p.norm2() <= SPREAD_RADIUS ** 2:
                params.append(("spread", p))
                break
    for _ in range(CORE_POINTS):
        params.append(("core", square_point(rng, radius, 8, 65)))
    for deg in ANCHOR_ANGLES_DEG:
        ang = math.radians(deg)
        den = rng.randrange(4096, 8192)
        step = ANCHOR_JITTER / den
        params.append(("annulus", QComplex(
            _rat(ANCHOR_RADIUS * math.cos(ang), 1024) + step * rng.randrange(-den, den + 1),
            _rat(ANCHOR_RADIUS * math.sin(ang), 1024) + step * rng.randrange(-den, den + 1),
        )))
    return params


def square_point(rng, radius: Fraction, den_lo: int, den_hi: int) -> QComplex:
    """A rational point of the closed square [0, radius] x [-radius, radius]."""
    den = rng.randrange(den_lo, den_hi)
    lim = int(radius * den)
    return QComplex(Fraction(rng.randrange(0, lim + 1), den),
                    Fraction(rng.randrange(-lim, lim + 1), den))


def finiteness(seed: int) -> Workload:
    rng = random.Random(seed)
    radius = rng.choice(TILE_RADII)
    params = finiteness_parameters(rng, radius)
    ops = [Op(f"parameter {kind} {qarg(p)}", _parameter_op(p), _render_texts)
           for kind, p in params]
    ops.append(cli_op(f"verify-tiles {radius}", ["verify-tiles", f"--radius={radius}"]))
    square_probes = [square_point(rng, radius, 16, 128) for _ in range(TILE_PROBES)]
    return Workload("finiteness", lambda ctx: iter(ops), {
        "parameters": params,
        "radius": radius,
        "square_probes": square_probes,
    })


def _parameter_op(p: QComplex):
    arg = qarg(p)

    def fn(ctx):
        return (run_cli(["decide", f"--r={arg}"]),
                run_cli(["witnesses", f"--r={arg}"]),
                run_cli(["region-contains", f"--p={arg}"]))
    return fn


def _render_texts(out) -> str:
    return "".join(out)


# ---------------------------------------------------------------------------
# probe: residual cells and point classification
# ---------------------------------------------------------------------------

PROBE_SECTOR = 9
WINDOW_PROBES = 48  # per residual window
SMALL_SLOPE_PROBES = 6
SMALL_SLOPE_SECTORS = (960, 1000)  # the small-slope window's n is drawn from this range


def probe_windows():
    """(name, window, subtracted cells, probe slope range) for the two
    residual windows; the calls are late-bound, so that the tracer's
    rebinding applies to them."""
    return [
        ("prefix", lambda: region.prefix_window(), lambda: region.prefix_gc_cells(),
         (Fraction(1, 7), None)),
        (f"sector {PROBE_SECTOR}", lambda: region.sector_window(PROBE_SECTOR),
         lambda: region.local_gc_cells(PROBE_SECTOR),
         (Fraction(1, PROBE_SECTOR), Fraction(1, PROBE_SECTOR - 1))),
    ]


def probe(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    probes = {}  # operation name -> (residual window or None, point)
    windows = probe_windows()
    for name, window, cells, _slopes in windows:
        ops.append(Op(f"residuals {name}", _residual_op(name, window, cells), _render_cells))
    for name, _window, _cells, (lo, hi) in windows:
        for _ in range(WINDOW_PROBES):
            p = box_point(rng, lo, hi)
            op = Op(f"probe {name} {qarg(p)}", _classify_op(name, p), _render_classified)
            probes[op.name] = (name, p)
            ops.append(op)
    n_small = rng.randrange(*SMALL_SLOPE_SECTORS)
    for _ in range(SMALL_SLOPE_PROBES):
        den = rng.randrange(4096, 8192)
        x = Fraction(rng.randrange(int(0.97 * den), int(1.01 * den)), den)
        t = Fraction(rng.randrange(1, 1024), 1024)
        s = Fraction(1, n_small) + (Fraction(1, n_small - 1) - Fraction(1, n_small)) * t
        p = QComplex(x, x * s)
        op = cli_op(f"probe slope {qarg(p)}", ["region-contains", f"--p={qarg(p)}"])
        probes[op.name] = (None, p)
        ops.append(op)
    return Workload("probe", lambda ctx: iter(ops), {"probes": probes})


def box_point(rng, lo: Fraction, hi) -> QComplex:
    """A rational point of the box (0, 2] x (0, 2] with slope in [lo, hi]
    (no upper bound when hi is None) and a small random denominator, as in
    the subtraction audits, so that probes land on cell edges and vertices
    too."""
    while True:
        den = rng.randrange(1, 48)
        x = Fraction(rng.randrange(1, 2 * den + 1), den)
        y = Fraction(rng.randrange(1, 2 * den + 1), den)
        if lo * x <= y and (hi is None or y <= hi * x):
            return QComplex(x, y)


def _residual_op(name, window, cells):
    def fn(ctx):
        ctx[name] = geometry.subtract_cover(window(), cells())
        return ctx[name]
    return fn


def _classify_op(name, p):
    arg = qarg(p)

    def fn(ctx):
        hits = sum(1 for c in ctx[name] if c.contains(p))
        return hits, run_cli(["region-contains", f"--p={arg}"])
    return fn


def _render_cells(cells) -> str:
    return json.dumps([[[v.as_strings() for v in c.vertices], c.edge_solid, c.vertex_member]
                       for c in cells])


def _render_classified(out) -> str:
    hits, text = out
    return f"{hits}\n{text}"


# ---------------------------------------------------------------------------
# measure: brackets to a stated accuracy
# ---------------------------------------------------------------------------

PERIMETER_WIDTH = Fraction(1, 100)
AREA_WIDTH = Fraction(1, 10**10)
PIKES_START = (1010, 1050)  # the first pike count is drawn from this range
MAX_DOUBLINGS = 5


def bracket_widths(text: str):
    out = json.loads(text)
    return tuple(Fraction(out[k]["high"]) - Fraction(out[k]["low"]) for k in ("perimeter", "area"))


def measure(seed: int) -> Workload:
    rng = random.Random(seed)
    start = rng.randrange(*PIKES_START)

    def ops(ctx):
        pikes = start
        for _ in range(MAX_DOUBLINGS + 1):
            yield cli_op(f"measure {pikes}", ["measure", f"--pikes={pikes}"])
            if ctx["last"] is None:  # the operation failed: nothing to decide on
                return
            pw, aw = bracket_widths(ctx["last"])
            if pw <= PERIMETER_WIDTH and aw <= AREA_WIDTH:
                return
            pikes *= 2
    return Workload("measure", ops, {"start": start})


BUILDERS = {"exterior": exterior, "finiteness": finiteness, "probe": probe, "measure": measure}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
