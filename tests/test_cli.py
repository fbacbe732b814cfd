"""Command-line interface."""

import hashlib
import json

import pytest

from gsrs.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_orbit(capsys):
    code, data = run_json(capsys, "orbit", "--r", "1/2,1/2", "--a", "1,0")
    assert code == 0
    assert data["outcome"] == "zero"
    assert data["steps"] == 1


def test_orbit_cycle(capsys):
    code, data = run_json(capsys, "orbit", "--r", "2/3,2/3", "--a=-2,0")
    assert code == 0
    assert data["outcome"] == "cycle"
    assert [-2, 0] in data["cycle"]


def test_decide(capsys):
    code, data = run_json(capsys, "decide", "--r", "1/2,1/2")
    assert code == 0
    assert data == {"finite": True, "verdict": "finite"}


def test_decide_infinite_reports_cycle(capsys):
    code, data = run_json(capsys, "decide", "--r", "2/3,2/3")
    assert code == 0
    assert data["finite"] is False
    assert data["cycle"]


def test_witnesses(capsys):
    code, data = run_json(capsys, "witnesses", "--r", "1/3,1/4")
    assert code == 0
    assert [1, 0] in data["vertices"]
    assert data["cell"]["vertices"]


def test_cutout_closed_point(capsys):
    code, data = run_json(capsys, "cutout", "--family", "0", "--n", "1")
    assert code == 0
    assert data["polygon"]["vertices"] == [["2/3", "2/3"]]
    assert data["polygon"]["vertex_member"] == [True]


def test_family_check(capsys):
    code, data = run_json(capsys, "family-check", "--family", "17", "--n-max", "12")
    assert code == 0
    assert data["mismatches"] == []
    assert data["checked"] > 0


def test_region_contains(capsys):
    code, data = run_json(capsys, "region-contains", "--p", "1/2,1/2")
    assert code == 0 and data["contains"] is True
    code, data = run_json(capsys, "region-contains", "--p", "1,0")
    assert code == 0 and data["contains"] is False


def test_boundary_svg_stdout_and_file(capsys, tmp_path):
    code, out = run(capsys, "boundary-svg", "--pikes", "9", "--width", "300")
    assert code == 0 and out.startswith("<svg")
    target = tmp_path / "chain.svg"
    code, out = run(capsys, "boundary-svg", "--pikes", "9", "--out", str(target))
    assert code == 0
    assert target.read_text().startswith("<svg")


def test_measure(capsys):
    code, data = run_json(capsys, "measure", "--pikes", "50", "--bits", "64")
    assert code == 0
    assert set(data) == {"n_pikes", "perimeter", "area"}


def test_verify_tiles(capsys):
    code, data = run_json(capsys, "verify-tiles", "--radius", "1/8")
    assert code == 0
    assert data["verdict"] == "covered"


def test_critical_check(capsys):
    code, data = run_json(
        capsys, "critical-check", "--n", "2", "--r", "1/2,0", "--rotate", "1,2"
    )
    assert code == 0
    assert all(entry["ok"] for entry in data["orbit"] + data["rotation"])


def test_critical_check_circle_sweep(capsys):
    code, data = run_json(capsys, "critical-check", "--n", "5", "--r", "40/41,9/41")
    assert code == 0
    assert data["steps"] and all(entry["ok"] for entry in data["steps"])


# Exit code and SHA-256 of stdout for fixed invocations.  A change that
# alters any output byte of these campaigns has to update a digest here.
GOLDEN = [
    (("verify-sector", "--n-lo", "7", "--n-hi", "7"), 0,
     "400b4395022c0d7f305d7c5aae05929ce929efefd9e204e074282af5882bdf56"),
    (("verify-tiles", "--radius", "1/8"), 0,
     "2b34e504897959aa353e3498f4db66a4b1176147fcb4e2d27577ffb76d070d78"),
    (("family-check", "--n-max", "8"), 0,
     "02ce02d0ddc92430db22960eacba9a97c0b623ebc08325499ec9bf353625d427"),
    (("cutout", "--family", "19", "--n", "10", "--m", "1"), 0,
     "b9a712ca8cb4d856277a5bd4482e316308ba742e7e76cb3eb4ef033573ec90ca"),
    (("witnesses", "--r", "1/3,1/5"), 0,
     "da21b88be4ffa92b2125523aef8bf3fc65c0f078a0f4a41345cd2f35625bcda3"),
    (("measure", "--pikes", "50", "--bits", "64"), 0,
     "9dcfa866ee0ddc260f2cf54cc8382a80cbd79bb0add41328643d0a1e2f3ee5db"),
    (("decide", "--r", "2/3,2/3"), 0,
     "a4360b0c4de55eb8c79cf2775749bbb518326bc7e13992c03b1649b6470dc106"),
    (("decide", "--r", "1/2,1/2"), 0,
     "4f1b6d555062e9641802197aaaf5ceeb1f2d8f63aae66d3ec7f805c6f5f4a00f"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[argv[0] for argv, _, _ in GOLDEN])
def test_golden_output(capsys, argv, code, digest):
    got_code, out = run(capsys, *argv)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def test_byte_identical_output(capsys):
    _, out1 = run(capsys, "witnesses", "--r", "2/5,1/5")
    _, out2 = run(capsys, "witnesses", "--r", "2/5,1/5")
    assert out1 == out2


def test_usage_error_exits_2(capsys):
    for argv in (
        ["orbit", "--r", "bogus", "--a", "1,0"],
        ["no-such-command"],
        # finiteness is read off the witness graph; there is no orbit budget
        ["decide", "--r", "1/2,1/2", "--orbit-budget", "5"],
        ["verify-tiles", "--orbit-budget", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_domain_error_exits_2(capsys):
    code = main(["verify-sector", "--n-lo", "6", "--n-hi", "6"])
    assert code == 2
    assert "error" in capsys.readouterr().err
    for window in ("1,2,3", "0,0,0,0", "1/0,0,1,1"):
        code = main(["boundary-svg", "--pikes", "9", "--window", window])
        assert code == 2, window
        assert "error" in capsys.readouterr().err
    # an exceeded witness budget is a usage problem, not a failed verification
    for argv in (
        ["witnesses", "--r", "9/10,2/5", "--witness-budget", "10"],
        ["verify-tiles", "--radius", "1/8", "--witness-budget", "3"],
    ):
        assert main(argv) == 2, argv
        assert "error" in capsys.readouterr().err


def test_verification_failure_exits_1(capsys):
    code, data = run_json(
        capsys, "verify-sector", "--n-lo", "12", "--n-hi", "12", "--families", "1"
    )
    assert code == 1
    assert data["reports"][0]["verdict"] == "failed"
