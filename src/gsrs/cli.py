"""Command-line interface.

Exit codes: 0 on success, 1 when a verification subcommand reports a
failure, 2 on usage errors (argparse's convention), on bad input and on an
exceeded budget.  All JSON output is emitted with sorted keys so identical
invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .cutout import cycle_polygon, witness_polyhedron
from .dynamics import (
    ORBIT_BUDGET_DEFAULT,
    WITNESS_BUDGET_DEFAULT,
    BudgetExceeded,
    decide_finiteness,
    orbit,
    witness_graph,
    witness_order,
)
from .exact import GaussianInt, QComplex
from .families import (
    FamilyInstance,
    all_selection_instances,
    expected_cutout,
    instance_cycle,
)
from .region import boundary_svg, measure_json, region_contains
from .verify import (
    TILE_BUDGET_DEFAULT,
    boundary_set,
    critical_orbit_check,
    flood_fill_tiles,
    rotation_cycle_check,
    step_displacement,
    step_rule_check,
    verify_prefix,
    verify_sector,
)


def _parse_qc(s: str) -> QComplex:
    try:
        return QComplex.parse(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational pair {s!r}: {exc}")


def _parse_gi(s: str) -> GaussianInt:
    try:
        a, b = (int(t) for t in s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad Gaussian integer {s!r} (want a,b)")
    return GaussianInt(a, b)


def _parse_fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {s!r}: {exc}")


def _emit(data) -> None:
    json.dump(data, sys.stdout, sort_keys=True, separators=(",", ": "), indent=1)
    sys.stdout.write("\n")


def _write_text(path, text) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_orbit(args) -> int:
    res = orbit(args.r, args.a, args.budget)
    out = {"outcome": res.outcome}
    if res.outcome == "zero":
        out["steps"] = res.steps
    if res.outcome == "cycle":
        out["cycle"] = res.cycle.to_json()
        out["preperiod"] = res.preperiod
    _emit(out)
    return 0


def _cmd_decide(args) -> int:
    res = decide_finiteness(args.r, args.witness_budget, args.orbit_budget)
    out = {"verdict": res.verdict, "finite": res.verdict == "finite"}
    if res.witness_cycle is not None:
        out["cycle"] = res.witness_cycle.to_json()
    _emit(out)
    return 0


def _cmd_witnesses(args) -> int:
    g = witness_graph(args.r, args.witness_budget)
    _emit(
        {
            "parameter": args.r.as_strings(),
            "vertices": [[a.re, a.im] for a in witness_order(g.vertices)],
            "cell": witness_polyhedron(g).to_json(),
        }
    )
    return 0


def _instance(args) -> FamilyInstance:
    return FamilyInstance(args.family, args.n, getattr(args, "m", 0) or 0)


def _cmd_cutout(args) -> int:
    inst = _instance(args)
    cyc = instance_cycle(inst)
    _emit(
        {
            "instance": str(inst),
            "cycle": cyc.to_json(),
            "polygon": cycle_polygon(cyc).to_json(),
        }
    )
    return 0


def _cmd_family_check(args) -> int:
    checked = 0
    mismatches = []
    for inst in all_selection_instances(1, args.n_max):
        if args.family is not None and inst.family != args.family:
            continue
        expected = expected_cutout(inst)
        got = cycle_polygon(instance_cycle(inst))
        checked += 1
        if expected.to_json() != got.to_json():
            mismatches.append(str(inst))
    _emit({"checked": checked, "mismatches": mismatches})
    return 0 if not mismatches else 1


def _cmd_region_contains(args) -> int:
    inside = region_contains(args.p)
    _emit({"point": args.p.as_strings(), "contains": inside})
    return 0


def _cmd_boundary_svg(args) -> int:
    window = None
    if args.window:
        try:
            parts = [Fraction(t) for t in args.window.split(",")]
        except ZeroDivisionError as exc:
            raise ValueError(f"bad window {args.window!r}: {exc}") from None
        if len(parts) != 4:
            raise ValueError(f"window wants x0,y0,x1,y1, got {args.window!r}")
        x0, y0, x1, y1 = parts
        if x1 <= x0 or y1 <= y0:
            raise ValueError(f"window {args.window!r} needs x0 < x1 and y0 < y1")
        window = tuple(parts)
    svg = boundary_svg(args.pikes, width=args.width, mirror=args.mirror, window=window)
    _write_text(args.out, svg)
    return 0


def _cmd_measure(args) -> int:
    _emit(measure_json(args.pikes, args.bits))
    return 0


def _cmd_verify_sector(args) -> int:
    status = 0
    reports = []
    families = set(args.families) if args.families else None
    for n in range(args.n_lo, args.n_hi + 1):
        rep = verify_sector(n, families=families)
        reports.append(rep.to_json())
        if rep.verdict != "covered":
            status = 1
    _emit({"reports": reports})
    return status


def _cmd_verify_prefix(args) -> int:
    rep = verify_prefix()
    _emit(rep.to_json())
    return 0 if rep.verdict == "covered" else 1


def _cmd_verify_tiles(args) -> int:
    rep = flood_fill_tiles(args.radius, args.budget, args.witness_budget, args.orbit_budget)
    _emit(rep.to_json())
    return 0 if rep.verdict == "covered" else 1


def _cmd_critical_check(args) -> int:
    out = {"orbit": [], "steps": [], "rotation": []}
    ok = True
    for r in args.r:
        good = critical_orbit_check(args.n, r)
        out["orbit"].append({"r": r.as_strings(), "ok": good})
        ok = ok and good
        if r.norm2() == 1:
            for z in boundary_set(args.n):
                if z.is_zero() or max(abs(z.re), abs(z.im)) >= args.n:
                    continue
                if step_displacement(z) is None:
                    continue
                good = step_rule_check(args.n, r, z)
                out["steps"].append({"r": r.as_strings(), "z": [z.re, z.im], "ok": good})
                ok = ok and good
    for a in args.rotate or []:
        good = rotation_cycle_check(a)
        out["rotation"].append({"a": [a.re, a.im], "ok": good})
        ok = ok and good
    _emit(out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gsrs", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("orbit", _cmd_orbit, help="iterate the map from a start state")
    sp.add_argument("--r", type=_parse_qc, required=True, help="parameter p/q,p/q")
    sp.add_argument("--a", type=_parse_gi, required=True, help="start state a,b")
    sp.add_argument("--budget", type=int, default=ORBIT_BUDGET_DEFAULT)

    sp = add("decide", _cmd_decide, help="decide the finiteness property at r")
    sp.add_argument("--r", type=_parse_qc, required=True)
    sp.add_argument("--witness-budget", type=int, default=WITNESS_BUDGET_DEFAULT)
    sp.add_argument("--orbit-budget", type=int, default=ORBIT_BUDGET_DEFAULT)

    sp = add("witnesses", _cmd_witnesses, help="witness graph and its parameter cell")
    sp.add_argument("--r", type=_parse_qc, required=True)
    sp.add_argument("--witness-budget", type=int, default=WITNESS_BUDGET_DEFAULT)

    sp = add("cutout", _cmd_cutout, help="cutout polygon of a catalog instance")
    sp.add_argument("--family", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, default=0)

    sp = add("family-check", _cmd_family_check, help="cross-check expansions against the printed catalog")
    sp.add_argument("--family", type=int, default=None)
    sp.add_argument("--n-max", type=int, default=30)

    sp = add("region-contains", _cmd_region_contains, help="membership in the conjectured region")
    sp.add_argument("--p", type=_parse_qc, required=True)

    sp = add("boundary-svg", _cmd_boundary_svg, help="render the boundary chain as SVG")
    sp.add_argument("--pikes", type=int, default=30)
    sp.add_argument("--width", type=int, default=800)
    sp.add_argument("--mirror", action="store_true")
    sp.add_argument("--window", type=str, default=None, help="x0,y0,x1,y1 zoom box")
    sp.add_argument("--out", type=str, default=None)

    sp = add("measure", _cmd_measure, help="perimeter/area brackets")
    sp.add_argument("--pikes", type=int, default=10000)
    sp.add_argument("--bits", type=int, default=256)

    sp = add("verify-sector", _cmd_verify_sector, help="exterior coverage of regular sectors")
    sp.add_argument("--n-lo", type=int, default=7)
    sp.add_argument("--n-hi", type=int, default=30)
    sp.add_argument("--families", type=int, nargs="*", default=None)

    add("verify-prefix", _cmd_verify_prefix, help="exterior coverage of the irregular head")

    sp = add("verify-tiles", _cmd_verify_tiles, help="witness-tile flood fill of the core")
    sp.add_argument("--radius", type=_parse_fraction, default=Fraction(1, 4))
    sp.add_argument("--budget", type=int, default=TILE_BUDGET_DEFAULT)
    sp.add_argument("--witness-budget", type=int, default=WITNESS_BUDGET_DEFAULT)
    sp.add_argument("--orbit-budget", type=int, default=ORBIT_BUDGET_DEFAULT)

    sp = add("critical-check", _cmd_critical_check, help="shrinking-orbit, step-rule and rotation checks")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=_parse_qc, nargs="+", required=True)
    sp.add_argument("--rotate", type=_parse_gi, nargs="*", default=None)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
