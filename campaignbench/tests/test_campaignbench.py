"""Tests of the benchmark itself.

    python3 -m pytest campaignbench/tests

They run every workload once under the tracer, so they take about a minute.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from gsrs.exact import QComplex  # noqa: E402

WORKLOADS = run.WORKLOADS


def _subset(workload, names):
    """The workload cut down to the operations whose names start with one
    of `names`, in their original order."""
    ops = [op for op in workload.ops({"last": None}) if op.name.startswith(names)]
    return wl.Workload(workload.name, lambda ctx: iter(ops), workload.inputs)


def _traced_round(workload):
    tr = tracer.Tracer()
    tr.install()
    try:
        _wall, done = run.run_round(workload, call=tr.operation)
    finally:
        tr.uninstall()
    return tr, done


def _exercised_by_readme():
    """workload -> functions the README's table marks as exercised."""
    text = (BENCH_DIR / "README.md").read_text()
    table = text.split("<!-- exercised -->")[1].strip().split("\n\n")[0]
    header, out = None, {}
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if set(line) <= set("|-: "):
            continue
        if header is None:
            header = cells
            continue
        for name, mark in zip(header[1:], cells[1:]):
            if mark:
                out.setdefault(name, set()).add(cells[0].strip("`"))
    return out


# -- traced and untraced runs agree ----------------------------------------

@pytest.mark.parametrize("name, ops", [
    ("finiteness", ("parameter spread", "parameter core", "verify-tiles")),
    ("probe", ("residuals sector", "probe sector", "probe slope")),
    ("measure", ("measure",)),
])
def test_traced_output_is_byte_identical(name, ops):
    workload = _subset(wl.build(name, 5), ops)
    _wall, plain = run.run_round(workload)
    _tr, traced = _traced_round(workload)
    assert [op.name for op, _t, _o in plain] == [op.name for op, _t, _o in traced]
    for (op, _t, a), (_op, _t2, b) in zip(plain, traced):
        assert op.render(a) == op.render(b), op.name


def test_tracer_restores_every_binding():
    import gsrs.cli
    import gsrs.geometry
    import gsrs.verify
    before = (gsrs.verify.subtract_cover, gsrs.geometry.Cell.__dict__["constraints"],
              gsrs.geometry.Cell.__dict__["from_closure"], gsrs.cli.main)
    tr = tracer.Tracer()
    tr.install()
    assert gsrs.verify.subtract_cover is gsrs.geometry.subtract_cover is not before[0]
    tr.uninstall()
    after = (gsrs.verify.subtract_cover, gsrs.geometry.Cell.__dict__["constraints"],
             gsrs.geometry.Cell.__dict__["from_closure"], gsrs.cli.main)
    assert after == before


# -- every function the README names is exercised --------------------------

@pytest.fixture(scope="module")
def traced_rounds():
    return {name: _traced_round(wl.build(name, 1)) for name in WORKLOADS}


@pytest.mark.parametrize("name", WORKLOADS)
def test_readme_functions_are_exercised(traced_rounds, name):
    exercised = _exercised_by_readme()[name]
    assert exercised <= set(tracer.LABELS)
    tr, done = traced_rounds[name]
    assert not any(isinstance(out, run.Failed) for _op, _t, out in done)
    metrics = tr.metrics()
    missing = [label for label in sorted(exercised) if metrics[f"{label}.calls"][0] == 0]
    assert not missing


def test_readme_table_names_every_traced_function():
    marked = set().union(*_exercised_by_readme().values())
    assert marked == set(tracer.LABELS)


# -- every check rejects a corrupted output ---------------------------------

def _cell(points, members):
    n = len(points)
    return {"vertices": [[str(x), str(y)] for x, y in points],
            "vertex_member": members, "edge_solid": [True] * n, "constraints": []}


def test_residual_check_rejects_a_point_inside_the_disk():
    square = [(Fraction(3, 2), 0), (2, 0), (2, 1), (Fraction(3, 2), 1)]
    good = {"verdict": "covered", "residuals": [{"disk": "outside", "cell": _cell(square, [True] * 4)}]}
    assert checks.covered_report_problems("s", good) == []
    bad_vertex = [(Fraction(1, 2), 0)] + square[1:]
    bad = {"verdict": "covered", "residuals": [{"disk": "outside", "cell": _cell(bad_vertex, [True] * 4)}]}
    assert checks.covered_report_problems("s", bad)


def test_cycle_check_rejects_a_cycle_not_realized():
    p = QComplex(Fraction(-1, 2), Fraction(1, 2))  # outside the region
    texts = [wl.run_cli([cmd, f"--{flag}={wl.qarg(p)}"])
             for cmd, flag in (("decide", "r"), ("witnesses", "r"), ("region-contains", "p"))]
    decide, witnesses, contains = map(json.loads, texts)
    assert decide["verdict"] == "infinite"
    assert checks.parameter_problems(p, decide, witnesses, contains, Fraction(1, 4)) == []
    decide["cycle"] = [[a + 1, b] for a, b in decide["cycle"]]
    assert checks.parameter_problems(p, decide, witnesses, contains, Fraction(1, 4))


def test_bracket_check_rejects_a_shifted_bracket():
    data = json.loads(wl.run_cli(["measure", "--pikes=8080"]))
    pair = [Fraction(data[k][s]) for k in ("perimeter", "area") for s in ("low", "high")]
    good = [(8080, (pair[0], pair[1]), (pair[2], pair[3]))]
    assert checks.bracket_problems(good) == []
    shift = checks.AREA - pair[2] + Fraction(2, 10**13)  # low bound past the constant
    bad = [(8080, (pair[0], pair[1]), (pair[2] + shift, pair[3] + shift))]
    assert checks.bracket_problems(bad)


def test_probe_check_rejects_a_probe_in_two_cells():
    p = QComplex(Fraction(1, 2), Fraction(1, 3))
    assert checks.classified_problems(p, 1, True, True, True) == []
    assert checks.classified_problems(p, 2, True, True, True)
    assert checks.classified_problems(p, 0, True, True, True)
    assert checks.classified_problems(p, 1, True, False, True)


# -- determinism -----------------------------------------------------------

@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_inputs(name):
    a, b = wl.build(name, 9), wl.build(name, 9)
    assert [op.name for op in a.ops({"last": None})] == [op.name for op in b.ops({"last": None})]
    assert repr(a.inputs) == repr(b.inputs)
    assert repr(wl.build(name, 10).inputs) != repr(a.inputs)


def test_two_runs_give_identical_digests():
    record = BENCH_DIR / "results" / "measure-seed4-trace0.json"
    digests = []
    for _ in range(2):
        out = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", "measure",
                              "--seed", "4", "--seconds", "1", "--trace", "0"],
                             cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {"campaign_s", "slowest_op_s", "peak_rss_mib", "setup_s"}
        digests.append(json.loads(record.read_text())["digest"])
    assert digests[0] == digests[1]


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "campaignbench"
    bench.mkdir()
    for f in BENCH_DIR.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    out = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "measure",
                          "--seed", "1", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
