import json
import tracemalloc

import pytest

from altrings.cli import main
from altrings.errors import InputError
from altrings.jsonio import algebra_from_dict, load_algebra, load_mapspec, save_mapspec
from altrings.liederiv import MapSpec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def zorn_file(tmp_path, capsys):
    path = tmp_path / "zorn.json"
    code, _, _ = run(capsys, "make", "zorn", "-o", str(path))
    assert code == 0
    return path


@pytest.fixture
def m2_file(tmp_path, capsys):
    path = tmp_path / "m2.json"
    code, _, _ = run(capsys, "make", "matrix", "--n", "2", "-o", str(path))
    assert code == 0
    return path


def test_make_zorn(zorn_file, capsys):
    algebra = load_algebra(zorn_file)
    assert algebra.dim == 8


def test_make_cayley_dickson(tmp_path, capsys):
    path = tmp_path / "oct.json"
    code, out, _ = run(capsys, "make", "cayley-dickson", "--mus", "-1,-1,-1",
                       "-o", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 8
    assert report["identities"]["alternative"] is True
    assert report["identities"]["associative"] is False


def test_make_records_provenance(zorn_file):
    data = json.loads(zorn_file.read_text())
    assert data["provenance"] == "zorn"


def test_make_bad_recipe_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "make", "bogus", "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert "recipe" in err


def test_analyze_zorn(zorn_file, capsys):
    code, out, _ = run(capsys, "analyze", str(zorn_file), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["nucleus_dim"] == 1
    assert report["center_dim"] == 1
    assert report["derivation_dim"] == 14


def test_analyze_m2(m2_file, capsys):
    code, out, _ = run(capsys, "analyze", str(m2_file), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["nucleus_dim"] == 4
    assert report["center_dim"] == 1
    assert report["derivation_dim"] == 3


def test_analyze_scalars(tmp_path, capsys):
    path = tmp_path / "q.json"
    assert run(capsys, "make", "matrix:1", "-o", str(path))[0] == 0
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["nucleus_dim"] == 1 and report["derivation_dim"] == 0


def test_analyze_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "JSON" in err


@pytest.mark.parametrize("text, message", [
    ('{"dim": 200}', "must declare its unit"),
    ('{"dim": 200, "unit": ["1"]}', "vector length 1 != expected 200"),
])
def test_unit_checked_before_constants_grid(text, message):
    """A missing or short unit is rejected before the dim x dim grid is built:
    at dim 200 that grid of zero rows alone took 66 MB."""
    data = json.loads(text)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=message):
            algebra_from_dict(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_analyze_unit_failure_exits_1(tmp_path, capsys):
    # Q x Q with the first projection declared as unit: e0 * e1 = 0 != e1
    bad = tmp_path / "badunit.json"
    bad.write_text(json.dumps({
        "dim": 2,
        "unit": ["1", "0"],
        "constants": [
            {"i": 0, "j": 0, "value": ["1", "0"]},
            {"i": 1, "j": 1, "value": ["0", "1"]},
        ],
    }))
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "unit" in err


def test_peirce_zorn(zorn_file, capsys):
    code, out, _ = run(capsys, "peirce", str(zorn_file),
                       "--idempotent", "1,0,0,0,0,0,0,0", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["dims"] == [1, 3, 3, 1]
    assert report["ok"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"condition-1", "condition-2", "condition-3", "condition-4",
            "prop-spade", "prop-club", "offdiag-centralizer"} <= names


def test_peirce_m2(m2_file, capsys):
    code, out, _ = run(capsys, "peirce", str(m2_file), "--idempotent", "1,0,0,0", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["dims"] == [1, 1, 1, 1]
    assert report["ok"] is True


def test_peirce_condition_failure_reported(tmp_path, capsys):
    path = tmp_path / "m2m2.json"
    assert run(capsys, "make", "m2m2", "-o", str(path))[0] == 0
    code, out, _ = run(capsys, "peirce", str(path),
                       "--idempotent", "1,0,0,1,0,0,0,0", "--json")
    assert code == 0  # a failed condition is a report, not an error
    report = json.loads(out)
    c2 = next(c for c in report["checks"] if c["name"] == "condition-2")
    assert c2["ok"] is False
    assert c2.get("witness")
    assert report["ok"] is False


def test_peirce_rejects_trivial_idempotent(m2_file, capsys):
    code, _, err = run(capsys, "peirce", str(m2_file), "--idempotent", "1,0,0,1")
    assert code == 1
    assert "idempotent" in err


def test_peirce_rejects_non_idempotent(m2_file, capsys):
    code, _, err = run(capsys, "peirce", str(m2_file), "--idempotent", "0,1,0,0")
    assert code == 1


def test_peirce_idempotent_from_file(m2_file, tmp_path, capsys):
    vec = tmp_path / "e.json"
    vec.write_text(json.dumps(["1", "0", "0", "0"]))
    code, out, _ = run(capsys, "peirce", str(m2_file),
                       "--idempotent", f"@{vec}", "--json")
    assert code == 0


def test_decompose_derivation_only(m2_file, tmp_path, capsys):
    algebra = load_algebra(m2_file)
    ad = algebra.left_mult_matrix(algebra.basis_vec(1)) - algebra.right_mult_matrix(
        algebra.basis_vec(1)
    )
    map_path = tmp_path / "ad.json"
    save_mapspec(MapSpec(algebra, ad), map_path)
    out_prefix = tmp_path / "result"
    code, out, _ = run(capsys, "decompose", str(m2_file), "--idempotent", "1,0,0,0",
                       "--map", str(map_path), "--seed", "5", "--samples", "10",
                       "-o", str(out_prefix), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["tau_identically_zero"] is True
    delta = load_mapspec(tmp_path / "result.delta.json", algebra)
    tau = load_mapspec(tmp_path / "result.tau.json", algebra)
    # the two output files reassemble the input exactly
    for k in range(4):
        b = algebra.basis_vec(k)
        lhs = ad.apply(b)
        rhs = tuple(x + y for x, y in zip(delta.eval_vec(b), tau.eval_vec(b)))
        assert lhs == rhs


def test_decompose_derivation_plus_cubic_trace(zorn_file, tmp_path, capsys):
    from fractions import Fraction as F

    from altrings.liederiv import CentralTerm, compose
    from altrings.structure import derivation_algebra

    algebra = load_algebra(zorn_file)
    functional = tuple(F(x) for x in (1, 0, 0, 0, 0, 0, 0, 1))
    term = CentralTerm(functional, (F(0), F(0), F(0), F(1)), algebra.unit)
    ders = derivation_algebra(algebra)
    spec = compose(algebra, ders[0] + ders[5], (term,))
    map_path = tmp_path / "cubic.json"
    save_mapspec(spec, map_path)
    code, out, _ = run(capsys, "decompose", str(zorn_file),
                       "--idempotent", "1,0,0,0,0,0,0,0", "--map", str(map_path),
                       "--seed", "3", "--samples", "15", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["tau_identically_zero"] is False
    kills = next(c for c in report["checks"] if c["name"] == "tau-kills-commutators")
    assert kills["ok"] is True


def test_decompose_lie_law_violation_named(m2_file, tmp_path, capsys):
    algebra = load_algebra(m2_file)
    map_path = tmp_path / "bad.json"
    save_mapspec(MapSpec(algebra, algebra.left_mult_matrix(algebra.basis_vec(1))), map_path)
    code, _, err = run(capsys, "decompose", str(m2_file), "--idempotent", "1,0,0,0",
                       "--map", str(map_path))
    assert code == 1
    assert "LieLawViolated" in err


def test_decompose_conditions_failure_named(tmp_path, capsys):
    path = tmp_path / "m2m2.json"
    assert run(capsys, "make", "m2m2", "-o", str(path))[0] == 0
    algebra = load_algebra(path)
    map_path = tmp_path / "zero.json"
    from altrings.linalg import Matrix

    save_mapspec(MapSpec(algebra, Matrix.zeros(8, 8)), map_path)
    code, _, err = run(capsys, "decompose", str(path),
                       "--idempotent", "1,0,0,1,0,0,0,0", "--map", str(map_path))
    assert code == 1
    assert "ConditionsFailed" in err


def test_decompose_hypothesis_failure_named(tmp_path, capsys, monkeypatch):
    # the ordered-check contract: when the corner hypothesis is the first
    # failing precondition, the exit names it.  JSON-expressible maps that
    # break hypothesis a) also break the Lie law, which is checked earlier,
    # so the earlier check is stubbed to reach the hypothesis stage.
    import altrings.cli as cli
    from altrings.linalg import Matrix
    from altrings.report import Check

    m3_path = tmp_path / "m3.json"
    assert run(capsys, "make", "matrix", "--n", "3", "-o", str(m3_path))[0] == 0
    algebra = load_algebra(m3_path)
    rows = [[0] * 9 for _ in range(9)]
    rows[5][0] = 1  # E11 -> E23: a non-central (2,2)-corner element
    map_path = tmp_path / "hyp.json"
    save_mapspec(MapSpec(algebra, Matrix.from_rows(rows)), map_path)
    monkeypatch.setattr(cli, "check_lie_law", lambda d, b: Check("lie-law", True, "sampled"))
    code, _, err = run(capsys, "decompose", str(m3_path),
                       "--idempotent", "1,0,0,0,0,0,0,0,0", "--map", str(map_path))
    assert code == 1
    assert "HypothesisAFailed" in err


def test_fuzz_zorn(capsys):
    code, out, _ = run(capsys, "fuzz", "zorn", "--trials", "3", "--seed", "7", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert len(report["results"]) == 3
    assert all(r["ok"] for r in report["results"])


def test_fuzz_matrix(capsys):
    code, out, _ = run(capsys, "fuzz", "matrix:2", "--trials", "3", "--seed", "7", "--json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_fuzz_m2m2_refuses(capsys):
    code, _, err = run(capsys, "fuzz", "m2m2", "--trials", "2", "--seed", "7")
    assert code == 1
    assert "ConditionsFailed" in err


def test_fuzz_determinism_small(capsys):
    args = ("fuzz", "zorn", "--trials", "2", "--seed", "11", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_console_entrypoint():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "altrings", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "decompose" in proc.stdout
