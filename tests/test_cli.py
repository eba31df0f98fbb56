import copy
import json
import re
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altrings.cli import main
from altrings.errors import AltRingsError, InputError, UnitValidationError
from altrings.jsonio import (algebra_from_dict, algebra_to_dict, load_algebra, load_mapspec,
                             mapspec_from_dict, mapspec_to_dict, save_mapspec)
from altrings.liederiv import CentralTerm, MapSpec
from altrings.linalg import Matrix

GOLDEN = Path(__file__).parent / "golden"


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
    code, _, _ = run(capsys, "make", "matrix:2", "-o", str(path))
    assert code == 0
    return path


def test_make_zorn(zorn_file, capsys):
    algebra = load_algebra(zorn_file)
    assert algebra.dim == 8


def test_make_cayley_dickson(tmp_path, capsys):
    path = tmp_path / "oct.json"
    code, out, _ = run(capsys, "make", "cayley-dickson:-1,-1,-1", "-o", str(path), "--json")
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
    """A missing or short unit is rejected before the algebra is built, in
    memory bounded by the size of the file."""
    data = json.loads(text)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=message):
            algebra_from_dict(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_unit_only_file_rejected_in_bounded_memory():
    """A dim-100 file with a unit of the right length and no constants fails
    the unit check without building a dim x dim grid of rows (8.75 MB when
    the algebra kept one)."""
    data = {"dim": 100, "unit": ["1"] + ["0"] * 99}
    tracemalloc.start()
    try:
        with pytest.raises(UnitValidationError, match="claimed unit fails"):
            algebra_from_dict(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_unit_only_table_costs_what_the_file_costs():
    """At dim 2000 a unit-only file fails the unit check without a row per left
    factor (61 MB when every row was built, before the unit was checked)."""
    data = {"dim": 2000, "unit": ["1"] + ["0"] * 1999}
    tracemalloc.start()
    try:
        with pytest.raises(UnitValidationError, match="claimed unit fails on basis element b0"):
            algebra_from_dict(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20


QXQ = [{"i": 0, "j": 0, "value": ["1", "0"]}, {"i": 1, "j": 1, "value": ["0", "1"]}]


@pytest.mark.parametrize("data, message", [
    ({"dim": True, "unit": ["1"], "constants": [{"i": 0, "j": 0, "value": ["1"]}]},
     "'dim' must be a positive integer"),
    ({"dim": 2, "unit": ["1", "1"], "constants": [QXQ[0], {**QXQ[1], "i": True}]},
     "index (True,1)"),
    ({"dim": 2, "unit": ["1", "1"], "constants": [QXQ[0], {**QXQ[1], "j": True}]},
     "index (1,True)"),
], ids=["dim", "i", "j"])
def test_json_true_is_not_an_integer(data, message, tmp_path, capsys):
    """`json` reads `true` as a bool, an int equal to 1; where an integer is
    required it is bad input.  The same file with 1 in its place is valid."""
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    path.write_text(json.dumps(data).replace("true", "1"))
    assert run(capsys, "analyze", str(path))[0] == 0


def test_labels_must_be_strings(tmp_path, capsys):
    """Labels name basis elements in reports: a number or null is bad input,
    not a label printed as '1' or 'None'."""
    path = tmp_path / "labels.json"
    data = {"dim": 2, "unit": ["1", "1"], "constants": QXQ, "labels": [1, None]}
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "analyze", "--json", str(path))
    assert code == 2 and out == ""
    assert err == "error: labels must be strings\n"
    path.write_text(json.dumps({**data, "labels": ["1", "None"]}))
    assert run(capsys, "analyze", "--json", str(path))[0] == 0


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12)

ALGEBRA_FIELDS = [("dim",), ("unit",), ("constants",), ("labels",), ("provenance",),
                  ("unit", 0), ("labels", 0), ("constants", 0), ("constants", 0, "i"),
                  ("constants", 0, "j"), ("constants", 0, "value"), ("constants", 0, "value", 0)]
MAP_FIELDS = [("linear",), ("central_terms",), ("linear", 0), ("linear", 0, 0),
              ("central_terms", 0), ("central_terms", 0, "functional"),
              ("central_terms", 0, "poly"), ("central_terms", 0, "poly", 0),
              ("central_terms", 0, "central")]


@settings(max_examples=300)
@given(st.data())
def test_loaders_raise_only_library_errors(m2, data):
    """Any field of a valid algebra file or map file, replaced by any bounded
    JSON value, either loads or raises an `AltRingsError`, never another
    exception (which the CLI would print as a traceback)."""
    docs = {"algebra": algebra_to_dict(m2, "matrix:2"),
            "map": mapspec_to_dict(MapSpec(m2, Matrix.zeros(4, 4), (CentralTerm(
                m2.unit, (F(0), F(1), F(2)), m2.unit),)))}
    kind, path = data.draw(st.sampled_from([("algebra", p) for p in ALGEBRA_FIELDS]
                                           + [("map", p) for p in MAP_FIELDS]))
    doc = copy.deepcopy(docs[kind])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(_json_values)
    try:
        if kind == "algebra":
            algebra_from_dict(doc)
        else:
            mapspec_from_dict(doc, m2)
    except AltRingsError:
        pass


@pytest.mark.parametrize("poly", [5, "012"], ids=["number", "string"])
def test_central_term_poly_must_be_a_list(poly, m2_file, tmp_path, capsys):
    """A poly that is not a list is bad input: neither a traceback for a
    number nor a string read one character per coefficient.  The same map
    with the list ["0", "1", "2"] (trace times s + 2s^2) is valid."""
    trace = ["1", "0", "0", "1"]
    data = {"linear": [["0"] * 4] * 4,
            "central_terms": [{"functional": trace, "poly": poly, "central": trace}]}
    map_path = tmp_path / "poly.json"
    map_path.write_text(json.dumps(data))
    argv = ("decompose", str(m2_file), "--idempotent", "1,0,0,0", "--map", str(map_path),
            "--seed", "1", "--samples", "5")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: central-term poly must be a JSON list\n"
    data["central_terms"][0]["poly"] = ["0", "1", "2"]
    map_path.write_text(json.dumps(data))
    assert run(capsys, *argv)[0] == 0


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


def test_peirce_decides_each_corner_fact_once(zorn_file, capsys, monkeypatch):
    # conditions (1)-(3) take two annihilator systems each, evaluated once per
    # context; the only matrix product is R_e1 L_e1, from which the four
    # corner projections are formed by sums, and L_e1 and R_e1 are the only
    # multiplication matrices: every annihilator is read off the structure
    # table, with no dense operator restricted, stacked or ranked; the
    # centralizers of R_12 and R_21 are built once each
    import altrings.linalg as linalg
    import altrings.liederiv as liederiv
    import altrings.peirce as peirce
    import altrings.structure as structure
    from altrings.algebra import Algebra
    from altrings.linalg import Matrix

    calls = {"annihilator": 0, "matmul": 0, "centralizer": 0, "mult_matrix": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def forbidden(*args, **kwargs):
        raise AssertionError("a dense operator system was built")

    monkeypatch.setattr(peirce, "_annihilator_in", counted("annihilator", peirce._annihilator_in))
    monkeypatch.setattr(Matrix, "__mul__", counted("matmul", Matrix.__mul__))
    monkeypatch.setattr(peirce, "centralizer", counted("centralizer", peirce.centralizer))
    for name in ("left_mult_matrix", "right_mult_matrix"):
        monkeypatch.setattr(Algebra, name, counted("mult_matrix", getattr(Algebra, name)))
    for module in (linalg, structure, peirce, liederiv):
        for name in ("restrict_map", "stack", "rank"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    # spade and club are annihilators in R_11 + R_22, not centralizers met with it
    monkeypatch.setattr(linalg.Subspace, "__and__", forbidden)
    code, _, _ = run(capsys, "peirce", str(zorn_file), "--idempotent", "1,0,0,0,0,0,0,0")
    assert code == 0
    assert calls == {"annihilator": 6, "matmul": 1, "centralizer": 2, "mult_matrix": 2}


def test_decompose_builds_no_operator_algebra(zorn_file, tmp_path, capsys, monkeypatch):
    # delta' is read off the corner components of the basis vectors and the
    # inner correction off products, so the only multiplication matrices are
    # L_e1 and R_e1 and the only matrix product R_e1 L_e1, from make_context;
    # no matrix is inverted
    import altrings.liederiv as liederiv
    import altrings.linalg as linalg
    import altrings.peirce as peirce
    import altrings.structure as structure
    from altrings.algebra import Algebra
    from altrings.catalog import random_lie_derivation
    from altrings.liederiv import SampleBudget

    algebra = load_algebra(zorn_file)
    map_path = tmp_path / "map.json"
    save_mapspec(random_lie_derivation(algebra, SampleBudget(seed=1)), map_path)
    calls = {"matmul": 0, "mult_matrix": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def forbidden(*args, **kwargs):
        raise AssertionError("a matrix was inverted")

    monkeypatch.setattr(Matrix, "__mul__", counted("matmul", Matrix.__mul__))
    for name in ("left_mult_matrix", "right_mult_matrix"):
        monkeypatch.setattr(Algebra, name, counted("mult_matrix", getattr(Algebra, name)))
    for module in (linalg, structure, peirce, liederiv):
        if hasattr(module, "invert"):
            monkeypatch.setattr(module, "invert", forbidden)
    code, _, _ = run(capsys, "decompose", str(zorn_file), "--idempotent", "1,0,0,0,0,0,0,0",
                     "--map", str(map_path), "-o", str(tmp_path / "zorn"))
    assert code == 0
    assert calls == {"matmul": 1, "mult_matrix": 2}


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
    import altrings.liederiv as liederiv
    from altrings.linalg import Matrix
    from altrings.peirce import Check

    m3_path = tmp_path / "m3.json"
    assert run(capsys, "make", "matrix:3", "-o", str(m3_path))[0] == 0
    algebra = load_algebra(m3_path)
    rows = [[0] * 9 for _ in range(9)]
    rows[5][0] = 1  # E11 -> E23: a non-central (2,2)-corner element
    map_path = tmp_path / "hyp.json"
    save_mapspec(MapSpec(algebra, Matrix.from_rows(rows)), map_path)
    monkeypatch.setattr(liederiv, "check_lie_law", lambda d, b: Check("lie-law", True, "sampled"))
    code, _, err = run(capsys, "decompose", str(m3_path),
                       "--idempotent", "1,0,0,0,0,0,0,0,0", "--map", str(map_path))
    assert code == 1
    assert "HypothesisAFailed" in err


def test_decompose_accepts_zero_target_term(tmp_path, capsys, monkeypatch):
    # a term with a zero target is inert even though its functional (E12) does
    # not vanish on the commutator span: decompose and compose both accept it
    from altrings.liederiv import compose

    monkeypatch.chdir(tmp_path)
    assert run(capsys, "make", "matrix:3", "-o", "m3.json")[0] == 0
    data = json.loads((GOLDEN / "decompose" / "matrix-3.map.json").read_text())
    data["central_terms"].append({"functional": ["0", "1"] + ["0"] * 7, "poly": ["0", "1"],
                                  "central": ["0"] * 9})
    Path("inert.json").write_text(json.dumps(data))
    code, out, err = run(capsys, "decompose", "m3.json", "--idempotent", "1,0,0,0,0,0,0,0,0",
                         "--map", "inert.json", "--json")
    assert (code, err) == (0, "")
    kills = next(c for c in json.loads(out)["checks"] if c["name"] == "tau-kills-commutators")
    assert (kills["ok"], kills["mode"]) == (True, "exact")
    spec = load_mapspec("inert.json", load_algebra("m3.json"))
    assert compose(spec.algebra, spec.linear, spec.terms) == spec


def test_lie_law_is_decided_once_per_map(zorn_inputs, capsys, monkeypatch):
    """`MapSpec.lie_law` keeps the answer of `lie_defect`: `decompose` on the zorn
    golden map decides the Lie law once (its check_lie_law verdict and the split
    share it), and `fuzz zorn --trials 4` once per trial (compose builds each
    map, and decompose reads the same answer)."""
    import altrings.liederiv as liederiv

    calls, real = [], liederiv.lie_defect
    monkeypatch.setattr(liederiv, "lie_defect", lambda d: calls.append(d) or real(d))
    assert run(capsys, "decompose", str(zorn_inputs / "zorn.json"), "--idempotent", E1,
               "--map", str(GOLDEN / "decompose" / "zorn.map.json"), "--json")[0] == 0
    assert len(calls) == 1
    calls.clear()
    assert run(capsys, "fuzz", "zorn", "--trials", "4", "--json")[0] == 0
    assert len(calls) == 4


def assert_human_report(out: str) -> list[str]:
    """The lines of a human-readable report, which ends with its elapsed time."""
    lines = out.splitlines()
    assert re.fullmatch(r"elapsed: \d+\.\d\ds", lines[-1]), lines[-1]
    return lines


def test_decompose_failed_self_check_exits_3(m2_file, tmp_path, capsys, monkeypatch):
    # with the Lie-law decision patched out, D(a) = a11 1 passes every precondition,
    # and tau fails to kill E11 - E22: the report says so on stdout, in JSON or
    # human lines, then one stderr line
    import altrings.liederiv as liederiv

    algebra = load_algebra(m2_file)
    map_path = tmp_path / "a11.json"
    save_mapspec(MapSpec(algebra, Matrix.from_rows([[1, 0, 0, 0], [0] * 4, [0] * 4,
                                                    [1, 0, 0, 0]])), map_path)
    monkeypatch.setattr(liederiv, "lie_defect", lambda d: (d.linear, None))
    witness = "commutator-span vector E11 + (-1)*E22"
    for flags in (["--json"], []):
        code, out, err = run(capsys, "decompose", str(m2_file), "--idempotent", "1,0,0,0",
                             "--map", str(map_path), *flags)
        assert code == 3
        assert err == f"decompose check tau-kills-commutators failed (witness {witness})\n"
        if flags:
            report = json.loads(out)
            assert report["ok"] is False
            assert [c["name"] for c in report["checks"] if not c["ok"]] == [
                "tau-kills-commutators"]
        else:
            lines = assert_human_report(out)
            assert "ok: False" in lines
            assert [line for line in lines if "FAIL" in line] == [
                f"  - tau-kills-commutators: FAIL [exact] witness: {witness}"]


def test_fuzz_failing_trial_prints_replay_map(capsys, monkeypatch):
    # trial 1 fails a self-check in one run and raises a precondition error in
    # the other; either way it carries its replay map, and fuzz exits 3 after
    # printing its report, human or JSON
    import altrings.liederiv as liederiv
    from altrings.errors import PreconditionError
    from altrings.peirce import PeirceContext

    real = liederiv.decompose

    def non_central_in_trial_1(ctx, spec, budget):
        with monkeypatch.context() as m:
            if budget.seed == 1:  # u1 is not central in zorn
                m.setattr(PeirceContext, "central_part", lambda self, i, v: ctx.algebra.basis_vec(1))
            return real(ctx, spec, budget)

    def raise_in_trial_1(ctx, spec, budget):
        if budget.seed == 1:
            raise PreconditionError("planted failure")
        return real(ctx, spec, budget)

    for planted in (non_central_in_trial_1, raise_in_trial_1):
        monkeypatch.setattr(liederiv, "decompose", planted)
        code, out, err = run(capsys, "fuzz", "zorn", "--trials", "2")
        assert (code, err) == (3, "fuzz trial 1 (seed 1) failed; replay map embedded in report\n")
        assert "ok: False" in assert_human_report(out)
        code, out, err = run(capsys, "fuzz", "zorn", "--trials", "2", "--json")
        assert code == 3
        report = json.loads(out)
        assert report["ok"] is False
        good, bad = report["results"]
        assert (good["ok"], good["failed_checks"], "replay_map" in good) == (True, [], False)
        assert bad["ok"] is False
        assert set(bad["replay_map"]) == {"linear", "central_terms"}
        assert err == "fuzz trial 1 (seed 1) failed; replay map embedded in report\n"
        if planted is raise_in_trial_1:
            assert bad["error"] == "PreconditionError: planted failure"
        else:
            assert {"name": "tau-central", "ok": False, "mode": "exact",
                    "witness": "tau(e1) off the center"} in bad["failed_checks"]


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


@pytest.mark.parametrize("case", ["analyze-directory", "analyze-not-utf8",
                                  "analyze-deeply-nested", "make-missing-dir",
                                  "decompose-missing-dir", "analyze-constants-number",
                                  "analyze-constants-null", "analyze-repeated-cell",
                                  "decompose-central-terms-number",
                                  "decompose-central-terms-null", "analyze-5000-digit-unit",
                                  "analyze-exponent-string", "make-cd-exponent",
                                  "make-deeply-nested-recipe", "fuzz-deeply-nested-recipe",
                                  "decompose-prefix-dot", "decompose-prefix-root",
                                  "decompose-prefix-dotdot", "decompose-prefix-slash"])
def test_bad_paths_exit_2_with_one_line(case, m2_file, tmp_path):
    """A path that cannot be read or written, a file or recipe nested too
    deeply to parse, a list field holding a number or null, a product given
    twice, a JSON integer past the interpreter's digit limit, a rational
    written with an exponent, or a `decompose -o` prefix with no file name is
    bad input: exit 2 and one line on stderr, from a fresh process (working in
    tmp_path) so that a traceback would show, and no split is written."""
    import os
    import subprocess
    import sys

    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes('{"dim": 1, "labels": ["é"]}'.encode("latin-1"))
    nested = tmp_path / "nested.json"  # deep enough for a RecursionError in `json`
    nested.write_text("[" * 200_000 + "]" * 200_000)
    algebra = load_algebra(m2_file)
    ad = algebra.left_mult_matrix(algebra.basis_vec(1)) - algebra.right_mult_matrix(
        algebra.basis_vec(1)
    )
    map_path = tmp_path / "ad.json"
    save_mapspec(MapSpec(algebra, ad), map_path)
    missing = tmp_path / "missing" / "out"
    for field, value in (("constants", 5), ("constants", None), ("central_terms", 5),
                         ("central_terms", None)):
        source = map_path if field == "central_terms" else m2_file
        data = {**json.loads(source.read_text()), field: value}
        (tmp_path / f"{field}-{value}.json").write_text(json.dumps(data))
    # b1 b1 = 0, then b1 b1 = b0: keeping the last would load Q[x]/(x^2 - 1)
    repeated = tmp_path / "repeated.json"
    repeated.write_text(json.dumps({"dim": 2, "unit": ["1", "0"], "constants": [
        {"i": 0, "j": 0, "value": ["1", "0"]}, {"i": 0, "j": 1, "value": ["0", "1"]},
        {"i": 1, "j": 0, "value": ["0", "1"]}, {"i": 1, "j": 1, "value": ["0", "0"]},
        {"i": 1, "j": 1, "value": ["1", "0"]}]}))
    long_unit = tmp_path / "long-unit.json"  # json refuses to read the integer back
    long_unit.write_text('{"dim": 1, "unit": [' + "1" * 5000 + "]}")
    exponent = tmp_path / "exponent.json"  # 1e1000000 would build 10**1000000
    exponent.write_text(json.dumps({"dim": 2, "unit": ["1", "0"], "constants": [
        {"i": 0, "j": 0, "value": ["1", "0"]}, {"i": 0, "j": 1, "value": ["0", "1"]},
        {"i": 1, "j": 0, "value": ["0", "1"]}, {"i": 1, "j": 1, "value": ["1e1000000", "0"]}]}))
    deep_recipe = "sum(" * 1200 + "zorn" + "|zorn)" * 1200  # a RecursionError in the parser
    decompose = ["decompose", str(m2_file), "--idempotent", "1,0,0,0", "--map"]
    argv = {
        "analyze-directory": ["analyze", str(tmp_path)],
        "analyze-not-utf8": ["analyze", str(not_utf8)],
        "analyze-deeply-nested": ["analyze", str(nested)],
        "make-missing-dir": ["make", "zorn", "-o", str(missing)],
        "decompose-missing-dir": [*decompose, str(map_path), "-o", str(missing)],
        "analyze-constants-number": ["analyze", str(tmp_path / "constants-5.json")],
        "analyze-constants-null": ["analyze", str(tmp_path / "constants-None.json")],
        "analyze-repeated-cell": ["analyze", str(repeated)],
        "decompose-central-terms-number": [*decompose, str(tmp_path / "central_terms-5.json")],
        "decompose-central-terms-null": [*decompose, str(tmp_path / "central_terms-None.json")],
        "analyze-5000-digit-unit": ["analyze", str(long_unit)],
        "analyze-exponent-string": ["analyze", str(exponent)],
        "make-cd-exponent": ["make", "cd:1e300000,-1", "-o", str(tmp_path / "cd.json")],
        "make-deeply-nested-recipe": ["make", deep_recipe, "-o", str(tmp_path / "deep.json")],
        "fuzz-deeply-nested-recipe": ["fuzz", deep_recipe],
        "decompose-prefix-dot": [*decompose, str(map_path), "-o", "."],
        "decompose-prefix-root": [*decompose, str(map_path), "-o", "/"],
        "decompose-prefix-dotdot": [*decompose, str(map_path), "-o", ".."],
        "decompose-prefix-slash": [*decompose, str(map_path), "-o", "x/"],
    }[case]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "altrings", *argv], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")
    assert proc.stdout == ""
    assert not list(tmp_path.rglob("*.delta.json"))



@pytest.mark.parametrize("command", ["make", "decompose"])
def test_missing_output_dir_is_refused_before_any_work(command, zorn_file, tmp_path,
                                                      monkeypatch, capsys):
    """`make -o` and `decompose -o` into a missing directory exit 2 with the
    message of a failed write, before building or loading an algebra."""
    from altrings import catalog, jsonio

    calls = []
    for module, name in ((catalog, "build"), (jsonio, "load_algebra")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    missing = str(tmp_path / "missing" / "out")
    argv, written = {
        "make": (["make", "matrix:3", "-o", missing], missing),
        "decompose": (["decompose", str(zorn_file), "--idempotent", "1,0,0,0,0,0,0,0", "--map",
                       str(GOLDEN / "decompose" / "zorn.map.json"), "-o", missing],
                      missing + ".delta.json"),
    }[command]
    err = f"error: cannot write {written}: No such file or directory\n"
    assert run(capsys, *argv) == (2, "", err)
    assert calls == []

_IDEMPOTENT_TOKENS = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=3).map(str),
    st.sampled_from(["0", "1", "", "1/0", "1e0", "-", " 1 ", "9" * 5000]))
_RATIONAL_VECTORS = st.lists(st.sampled_from(["0", "1", "-1", "1/2"]), min_size=8, max_size=8)
_IDEMPOTENT_SPECS = st.one_of(
    st.just(("inline", "1,0,0,0,0,0,0,0")),
    st.tuples(st.just("inline"), _RATIONAL_VECTORS.map(",".join)),
    st.tuples(st.just("inline"), st.lists(_IDEMPOTENT_TOKENS, max_size=10).map(",".join)),
    st.tuples(st.just("file"), st.one_of(
        _json_values, _RATIONAL_VECTORS,
        st.lists(_IDEMPOTENT_TOKENS, min_size=7, max_size=9),
        st.lists(_json_values | _IDEMPOTENT_TOKENS, min_size=8, max_size=8),
        st.lists(st.lists(_IDEMPOTENT_TOKENS, max_size=2), min_size=8, max_size=8))))


@pytest.fixture(scope="module")
def zorn_inputs(tmp_path_factory):
    """zorn.json and a Lie derivation of it, written once for the module."""
    from altrings.catalog import random_lie_derivation, zorn
    from altrings.jsonio import save_algebra
    from altrings.liederiv import SampleBudget

    root = tmp_path_factory.mktemp("idempotent")
    algebra = zorn()
    save_algebra(algebra, root / "zorn.json")
    save_mapspec(random_lie_derivation(algebra, SampleBudget(seed=1)), root / "map.json")
    return root


@settings(max_examples=60)
@given(_IDEMPOTENT_SPECS)
def test_idempotent_option_exits_cleanly(zorn_inputs, spec):
    """Any inline or @file value of --idempotent makes peirce and decompose on
    zorn exit 0, 1 or 2, never with a traceback, and with one stderr line on 2."""
    import contextlib
    import io

    kind, value = spec
    if kind == "file":
        path = zorn_inputs / "idempotent.json"
        path.write_text(json.dumps(value))
        value = f"@{path}"
    algebra, map_path = str(zorn_inputs / "zorn.json"), str(zorn_inputs / "map.json")
    for argv in (["peirce", algebra], ["decompose", algebra, "--map", map_path]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, f"--idempotent={value}"])
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")


@pytest.mark.parametrize("case", ["analyze-zorn", "decompose-left-u1", "analyze-missing-file",
                                  "analyze-bad-argument", "fuzz-trials-not-integer",
                                  "no-command", "help"])
def test_program_run_matches_library_call(case, zorn_file, tmp_path, capsys):
    """`python -m altrings`, which runs with the collector off and leaves by
    `os._exit`, writes the bytes and returns the exit code of an in-process
    `main(argv)`, and the library call leaves the collector on and unfrozen."""
    import gc
    import subprocess
    import sys

    algebra = load_algebra(zorn_file)
    map_path = tmp_path / "left-u1.json"
    save_mapspec(MapSpec(algebra, algebra.left_mult_matrix(algebra.basis_vec(1))), map_path)
    argv, expected = {
        "analyze-zorn": (["analyze", "--json", str(zorn_file)], 0),
        "decompose-left-u1": (["decompose", str(zorn_file), "--idempotent", "1,0,0,0,0,0,0,0",
                               "--map", str(map_path)], 1),
        "analyze-missing-file": (["analyze", str(tmp_path / "missing.json")], 2),
        "analyze-bad-argument": (["analyze", "--bogus", str(zorn_file)], 2),
        "fuzz-trials-not-integer": (["fuzz", "zorn", "--trials", "x"], 2),
        "no-command": ([], 2),
        "help": (["--help"], 0),
    }[case]
    code, out, err = run(capsys, *argv)
    assert code == expected and gc.isenabled() and gc.get_freeze_count() == 0
    proc = subprocess.run([sys.executable, "-m", "altrings", *argv], capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
    if case == "decompose-left-u1":
        assert err == "error: LieLawViolated: witness x=e1, y=u2\n"
    if case == "analyze-bad-argument":
        assert err == "error: analyze: unknown option --bogus\n"


@pytest.mark.parametrize("argv, expected", [(["analyze", "--json", "{zorn}"], 0),
                                            (["peirce", "{zorn}", "--idempotent", "{unit}"], 1),
                                            (["analyze", "{missing}"], 2),
                                            (["analyze", "--no-such-option"], 2),
                                            (["peirce", "--help"], 0)],
                         ids=["analyze-zorn", "peirce-trivial-idempotent", "analyze-missing-file",
                              "bad-argument", "help"])
def test_program_main_exits_with_its_code(argv, expected, zorn_file, tmp_path):
    """A `main()` that reads `sys.argv` ends the process with main's exit code,
    after flushing what it wrote, before any later statement runs; checked in a
    fresh interpreter whose stdout is a pipe, so unflushed output would be lost."""
    import subprocess
    import sys

    argv = [a.format(zorn=zorn_file, missing=tmp_path / "missing.json",
                     unit="1,0,0,0,0,0,0,1") for a in argv]
    script = ("import sys\n"
              "from altrings.cli import main\n"
              "sys.argv = ['altrings', *sys.argv[1:]]\n"
              "main()\n"
              "print('after main')\n")
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
    assert proc.returncode == expected, proc.stderr
    assert "after main" not in proc.stdout and "Traceback" not in proc.stderr
    if expected == 0:
        assert proc.stdout.startswith("usage: altrings") or json.loads(proc.stdout)["dim"] == 8
    else:
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "human"])
def test_closed_stdout_pipe_exits_141_without_a_traceback(flags, zorn_file):
    """The program's stdout is a pipe whose reader has already gone: it exits
    141 (128 + SIGPIPE), as a shell reports a process that SIGPIPE ended, and
    writes nothing on stderr."""
    import os
    import subprocess
    import sys

    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "altrings", "analyze", *flags, str(zorn_file)],
                              stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.parametrize("redirect, argv, expected", [
    (">&-", ["analyze", "--json", "{zorn}"], 0),
    ("2>&-", ["analyze", "{missing}"], 2),
    ("1<{zorn}", ["analyze", "--json", "{zorn}"], 0),
    ("2<{zorn}", ["analyze", "{missing}"], 2),
], ids=["stdout-closed", "stderr-closed", "stdout-read-only", "stderr-read-only"])
def test_closed_stream_takes_nothing(redirect, argv, expected, zorn_file, tmp_path):
    """The program starts with stdout or stderr closed (`>&-`, `2>&-`), so Python
    sets that stream to None, or open read-only (`1<file`, `2<file`), so a write
    fails with EBADF: it exits with the command's code, writes nothing on the
    open stream, and never sends the `error:` line to stdout."""
    import shlex
    import subprocess
    import sys

    names = {"zorn": zorn_file, "missing": tmp_path / "missing.json"}
    args = [a.format(**names) for a in argv]
    command = shlex.join([sys.executable, "-m", "altrings", *args])
    redirect = redirect.format(zorn=shlex.quote(str(zorn_file)))
    proc = subprocess.run(f"{command} {redirect}", shell=True, capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (expected, b"", b"")


E1 = "1,0,0,0,0,0,0,0"
BAD_ARGUMENTS = {  # case -> (argv, the one stderr line); {zorn} and {map} name input files
    "no-command": ([], "no command given; choose one of make, analyze, peirce, decompose, fuzz"),
    "unknown-command": (["analyse", "{zorn}"], "unknown command 'analyse'; choose one of make, "
                        "analyze, peirce, decompose, fuzz"),
    "make-missing-output": (["make", "zorn"], "make: missing --output"),
    "make-missing-recipe": (["make", "-o", "x.json"], "make: missing RECIPE"),
    "make-unknown-option": (["make", "zorn", "-o", "x.json", "--size", "2"],
                            "make: unknown option --size"),
    "make-n-option": (["make", "matrix", "--n", "3", "-o", "x.json"], "make: unknown option --n"),
    "make-stray-positional": (["make", "zorn", "matrix", "-o", "x.json"],
                              "make: unexpected argument 'matrix'"),
    "make-output-without-value": (["make", "zorn", "-o"], "make: --output needs a value"),
    "analyze-missing-algebra": (["analyze", "--json"], "analyze: missing ALGEBRA"),
    "analyze-unknown-option": (["analyze", "{zorn}", "--bogus"], "analyze: unknown option --bogus"),
    "analyze-output-option": (["analyze", "{zorn}", "-o", "x"], "analyze: unknown option -o"),
    "analyze-stray-positional": (["analyze", "{zorn}", "{zorn}"],
                                 "analyze: unexpected argument '{zorn}'"),
    "analyze-json-with-value": (["analyze", "{zorn}", "--json=yes"],
                                "analyze: unknown option --json=yes"),
    "peirce-missing-idempotent": (["peirce", "{zorn}", "--seed", "1"],
                                  "peirce: missing --idempotent"),
    "peirce-unknown-option": (["peirce", "{zorn}", "--idempotent", E1, "--map", "{map}"],
                              "peirce: unknown option --map"),
    "peirce-seed-not-integer": (["peirce", "{zorn}", "--idempotent", E1, "--seed", "1.5"],
                                "peirce: --seed must be an integer (got '1.5')"),
    "peirce-samples-not-integer": (["peirce", "{zorn}", "--idempotent", E1, "--samples=x"],
                                   "peirce: --samples must be an integer of at least 1 (got 'x')"),
    "peirce-samples-zero": (["peirce", "{zorn}", "--idempotent", E1, "--samples", "0"],
                            "peirce: --samples must be an integer of at least 1 (got '0')"),
    "peirce-abbreviated-option": (["peirce", "{zorn}", "--idempotent", E1, "--sam", "3"],
                                  "peirce: unknown option --sam"),
    "peirce-stray-positional": (["peirce", "{zorn}", E1], f"peirce: unexpected argument '{E1}'"),
    "peirce-idempotent-short": (["peirce", "{zorn}", "--idempotent", "1,0,0"],
                                "vector length 3 != expected 8"),
    "decompose-missing-map": (["decompose", "{zorn}", "--idempotent", E1],
                              "decompose: missing --map"),
    "decompose-missing-idempotent": (["decompose", "{zorn}", "--map", "{map}"],
                                     "decompose: missing --idempotent"),
    "decompose-unknown-option": (["decompose", "{zorn}", "--idempotent", E1, "--map", "{map}",
                                  "--trials", "2"], "decompose: unknown option --trials"),
    "decompose-seed-not-integer": (["decompose", "{zorn}", "--idempotent", E1, "--map", "{map}",
                                    "--seed=-"], "decompose: --seed must be an integer (got '-')"),
    "decompose-stray-positional": (["decompose", "{zorn}", "--idempotent", E1, "--map", "{map}",
                                    "extra"], "decompose: unexpected argument 'extra'"),
    "decompose-map-without-value": (["decompose", "{zorn}", "--idempotent", E1, "--map"],
                                    "decompose: --map needs a value"),
    "fuzz-missing-recipe": (["fuzz", "--trials", "1"], "fuzz: missing RECIPE"),
    "fuzz-unknown-option": (["fuzz", "zorn", "--idempotent", E1],
                            "fuzz: unknown option --idempotent"),
    "fuzz-trials-not-integer": (["fuzz", "zorn", "--trials", "1e3"],
                                "fuzz: --trials must be an integer of at least 1 (got '1e3')"),
    "fuzz-seed-not-integer": (["fuzz", "zorn", "--seed", ""],
                              "fuzz: --seed must be an integer (got '')"),
    "fuzz-stray-positional": (["fuzz", "zorn", "matrix:2"], "fuzz: unexpected argument 'matrix:2'"),
}


@pytest.mark.parametrize("case", BAD_ARGUMENTS)
def test_bad_argument_exits_2_with_one_line(case, zorn_inputs, tmp_path, capsys, monkeypatch):
    """Every bad argument is bad input: exit 2, one `error:` line naming it,
    nothing on stdout, and no file written."""
    monkeypatch.chdir(tmp_path)
    names = {"zorn": zorn_inputs / "zorn.json", "map": zorn_inputs / "map.json"}
    argv, message = BAD_ARGUMENTS[case]
    code, out, err = run(capsys, *(a.format(**names) for a in argv))
    assert (code, out, err) == (2, "", f"error: {message.format(**names)}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["make", "-h"], ["analyze", "--help"],
                                  ["peirce", "{zorn}", "--idempotent", E1, "-h"],
                                  ["decompose", "--help", "--seed", "x"], ["fuzz", "zorn", "-h"]])
def test_help_prints_usage_and_exits_0(argv, zorn_inputs, capsys):
    code, out, err = run(capsys, *(a.format(zorn=zorn_inputs / "zorn.json") for a in argv))
    assert (code, err) == (0, "")
    assert out.startswith("usage: altrings make RECIPE -o FILE")
    assert all(f"altrings {name} " in out for name in ("analyze", "peirce", "decompose", "fuzz"))


def test_usage_names_the_options_of_each_command():
    """Each usage line names its command's positional and exactly the options of
    its COMMANDS entry (-o stands for --output), an option in brackets exactly
    when it has a default."""
    from altrings.cli import COMMANDS, REQUIRED, USAGE

    usage = {m[1]: (m[2], {("--output" if opt == "-o" else opt): bool(bracket)
                           for bracket, opt in re.findall(r"(\[?)(-o|--[a-z]+)", m[3])})
             for m in re.finditer(r"^(?:usage: | +)altrings (\w+) ([A-Z]+)(.*)$", USAGE, re.M)}
    assert usage == {name: (positional.upper(),
                            {opt: default is not REQUIRED for opt, (_, default) in options.items()})
                     for name, (_, positional, options) in COMMANDS.items()}


HUMAN_ARGS = {  # command -> its arguments; {zorn} names zorn.json, {out} a fresh output file
    "make": ["zorn", "-o", "{out}"],
    "analyze": ["{zorn}"],
    "peirce": ["{zorn}", "--idempotent", E1],
    "decompose": ["{zorn}", "--idempotent", E1, "--map",
                  str(GOLDEN / "decompose" / "zorn.map.json")],
    "fuzz": ["zorn", "--trials", "2"],
}


@pytest.mark.parametrize("command", HUMAN_ARGS)
def test_human_report_lists_the_json_report(command, zorn_inputs, tmp_path, capsys):
    """Without --json a command prints each top-level key of its JSON report as a
    `key:` line at indent 0, in sorted order, each check as `  - NAME: pass
    [MODE]`, and last its elapsed time."""
    outs = []
    for flags in (["--json"], []):
        args = [a.format(zorn=zorn_inputs / "zorn.json", out=tmp_path / f"{len(outs)}.json")
                for a in HUMAN_ARGS[command]]
        code, out, err = run(capsys, command, *args, *flags)
        assert (code, err) == (0, "")
        outs.append(out)
    report, lines = json.loads(outs[0]), assert_human_report(outs[1])
    keys = [line.partition(":")[0] for line in lines[:-1] if not line.startswith(" ")]
    assert keys == sorted(report)
    if command in ("peirce", "decompose"):
        start = lines.index("checks:") + 1
        assert lines[start:start + len(report["checks"])] == [
            f"  - {c['name']}: pass [{c['mode']}]" for c in report["checks"]]


def test_options_in_any_order_and_either_form(zorn_inputs, tmp_path, capsys):
    """`--opt value` and `--opt=value` read the same, before or after the
    positional, and a value may begin with `-`: each pair of argument lists
    gives the same report apart from the echoed command, and the same files."""
    zorn, map_path = str(zorn_inputs / "zorn.json"), str(zorn_inputs / "map.json")
    pairs = [
        (["make", "cd:-1,-1,-1", "-o", str(tmp_path / "a.json"), "--json"],
         ["make", "--json", f"--output={tmp_path / 'b.json'}", "cd:-1,-1,-1"]),
        (["analyze", zorn, "--json"], ["analyze", "--json", zorn]),
        (["peirce", zorn, "--idempotent", E1, "--seed", "-3", "--samples", "5", "--json"],
         ["peirce", "--samples=5", "--json", "--seed=-3", f"--idempotent={E1}", zorn]),
        (["decompose", zorn, "--idempotent", E1, "--map", map_path, "-o", str(tmp_path / "a"),
          "--json"],
         ["decompose", "--json", f"--output={tmp_path / 'b'}", f"--map={map_path}",
          "--idempotent", E1, zorn]),
        (["fuzz", "zorn", "--trials", "2", "--seed", "-1", "--json"],
         ["fuzz", "--json", "--seed", "-1", "--trials=2", "zorn"]),
    ]
    for first, second in pairs:
        reports = []
        for argv in (first, second):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            report = json.loads(out)
            reports.append({**report, "command": None, "output": None, "outputs": None})
        assert reports[0] == reports[1], first
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert json.loads((tmp_path / "a.json").read_text())["provenance"] == "cayley-dickson:-1,-1,-1"
    for suffix in (".delta.json", ".tau.json"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


def test_command_garbage_does_not_grow_with_the_input(zorn_inputs, tmp_path, capsys):
    """The program runs its command with the garbage collector off, which is
    safe only while the cyclic garbage a command leaves does not grow with its
    input: run cold (structure caches cleared) with the collector off, a fuzz
    of 8 trials leaves as much as one of 1, and an analyze of the sedenions
    (dim 16) as much as one of zorn (dim 8)."""
    import gc

    import altrings.structure as structure

    sedenions = tmp_path / "sedenions.json"
    assert run(capsys, "make", "cd:-1,-1,-1,-1", "-o", str(sedenions))[0] == 0
    commands = [["fuzz", "zorn", "--trials", "1"], ["fuzz", "zorn", "--trials", "8"],
                ["analyze", str(zorn_inputs / "zorn.json")], ["analyze", str(sedenions)]]
    found = []
    gc.disable()
    try:
        for argv in commands * 2:  # the first round runs every module a command needs
            for cached in vars(structure).values():
                getattr(cached, "cache_clear", lambda: None)()
            gc.collect()
            assert run(capsys, *argv)[0] == 0
            found.append(gc.collect())
    finally:
        gc.enable()
    fuzz_1, fuzz_8, zorn, sedenions = found[len(commands):]
    assert fuzz_1 == fuzz_8 < 50 and zorn == sedenions < 50, found
