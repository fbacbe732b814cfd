"""Run one benchmark workload and print its metrics.

    python3 campaignbench/run.py --workload exterior --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: it imports `gsrs` from `src/` there.  One
process, one thread, one caller: the workload's round of operations is
repeated back to back until `--seconds` have passed (at least one whole
round).  With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it then runs one more round under the tracer and reports the
per-layer metrics.  The last line of standard output is the result as JSON;
a record of the run (per-operation times and digests, problems found) is
written under `campaignbench/results/`, and a traced run also writes its
spans there.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, the harness's first statement

import argparse
import hashlib
import json
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORKLOADS = ("exterior", "finiteness", "probe", "measure")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_gsrs():
    """Import `gsrs` from this checkout's `src/`, and nowhere else."""
    src = ROOT / "src"
    if not (src / "gsrs" / "__init__.py").is_file():
        raise SystemExit(f"error: no gsrs package under {src}")
    sys.path.insert(0, str(src))
    import gsrs
    if Path(gsrs.__file__).resolve().parent != src / "gsrs":
        raise SystemExit(f"error: imported gsrs from {gsrs.__file__}, not from {src}")


class Failed:
    """Marks an operation that raised; `failed` counts these."""

    def __init__(self, exc):
        self.exc = exc


def run_round(workload, call=None):
    """One round: returns (wall time, [(op, seconds, output)])."""
    ctx = {}
    done = []
    start = time.perf_counter()
    for op in workload.ops(ctx):
        t = time.perf_counter()
        try:
            out = op.fn(ctx) if call is None else call(op.name, op.fn, ctx)
        except Exception as exc:  # an operation's failure is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            out = Failed(exc)
        done.append((op, time.perf_counter() - t, out))
        ctx["last"] = None if isinstance(out, Failed) else out
    return time.perf_counter() - start, done


def digests(done):
    return [None if isinstance(out, Failed) else hashlib.sha256(op.render(out).encode()).hexdigest()
            for op, _t, out in done]


def output_stats(done):
    """(CLI output bytes, largest numerator or denominator bit length among
    output vertices and parameters) of one round."""
    nbytes = 0
    bits = 0

    def rational_bits(s):
        q = Fraction(s)
        return max(q.numerator.bit_length(), q.denominator.bit_length())

    def walk(node, key=None):
        nonlocal bits
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, k)
        elif isinstance(node, list):
            if key in ("vertices", "parameter", "point") and node and isinstance(node[0], str):
                bits = max(bits, *map(rational_bits, node))
            else:
                for v in node:
                    walk(v, key)

    for _op, _t, out in done:
        if isinstance(out, list):  # residual cells
            walk([{"vertices": [v.as_strings() for v in c.vertices]} for c in out])
            continue
        texts = [out] if isinstance(out, str) else out if isinstance(out, tuple) else ()
        for text in texts:
            if isinstance(text, str):
                nbytes += len(text.encode())
                walk(json.loads(text))
    return nbytes, bits


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    import_gsrs()
    import checks
    import workloads

    wl = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - T0

    rounds = []  # (wall time, per-op times, digests)
    first = None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        wall, done = run_round(wl)
        rounds.append((wall, [t for _op, t, _out in done], digests(done)))
        if first is None:
            first = done
    rusage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + \
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mib = rusage / 1024  # ru_maxrss is in KiB on Linux

    problems = []
    attempted = sum(len(r[1]) for r in rounds)
    failed = sum(d is None for r in rounds for d in r[2])
    for k, (_wall, _times, dig) in enumerate(rounds[1:], 1):
        if dig != rounds[0][2]:
            problems.append(f"round {k} output differs from round 0")
    campaign_s = statistics.median(r[0] for r in rounds)
    per_op = [statistics.median(r[1][i] for r in rounds) for i in range(len(rounds[0][1]))]

    traced = None
    if args.trace:
        import tracer
        tr = tracer.Tracer()
        tr.install()
        try:
            wall, done = run_round(wl, call=tr.operation)
        finally:
            tr.uninstall()
        traced = (wall, tr, done)
        attempted += len(done)
        failed += sum(isinstance(out, Failed) for _op, _t, out in done)
        if digests(done) != rounds[0][2]:
            problems.append("traced output differs from untraced output")

    try:
        problems += checks.check(wl, [(op, out) for op, _t, out in first if not isinstance(out, Failed)])
    except Exception as exc:  # output a check cannot read is a wrong output, reported as such
        traceback.print_exc(file=sys.stderr)
        problems.append(f"check raised {exc!r}")

    if args.trace:
        wall, tr, done = traced
        nbytes, bits = output_stats(done)
        metrics = tr.metrics()
        metrics["cli.output_bytes"] = (nbytes, "count")
        metrics["exact.max_bits"] = (bits, "count")
        metrics["trace.overhead_s"] = (wall - campaign_s, "s")
    else:
        metrics = {
            "campaign_s": (campaign_s, "s"),
            "slowest_op_s": (max(per_op), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
            "setup_s": (setup_s, "s"),
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "operations": [op.name for op, _t, _out in first],
        "rounds": [{"wall_s": w, "op_s": t, "digests": d} for w, t, d in rounds],
        "digest": hashlib.sha256("".join(str(d) for d in rounds[0][2]).encode()).hexdigest(),
        "problems": problems,
        "failures": [f"{op.name}: {out.exc!r}" for op, _t, out in first if isinstance(out, Failed)],
        "metrics": {k: v for k, (v, _u) in metrics.items()},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced is not None:
        tr = traced[1]
        (RESULTS_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "spans": [dict(zip(("id", "name", "start", "end", "parent"), s)) for s in tr.spans],
            "call_paths": tr.root.to_json(),
        }) + "\n")

    for p in problems:
        print(f"problem: {p}")
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed, digest {record['digest'][:16]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
