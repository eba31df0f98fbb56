"""Byte-for-byte pins of the CLI reports and of the derivation bases.

The `analyze` files under tests/golden/ were written by the implementation
that eliminated on `Fraction` rows; the integer core must reproduce them
exactly.  The `peirce`, `decompose` and `fuzz` files pin the Lie-split
commands, so every `Check` they report is compared byte for byte.  Each
algebra is made with `make` and every command runs from the working
directory, so the echoed command line is the same on every machine.  The
files `make -o` writes are pinned by their sha256 digests in
`make_sha256.json`.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from altrings.catalog import canonical_idempotent, parse_recipe, random_lie_derivation
from altrings.cli import main
from altrings.jsonio import load_algebra, save_mapspec, vector_to_json
from altrings.liederiv import CentralTerm, MapSpec, SampleBudget
from altrings.linalg import Matrix
from altrings.structure import derivation_algebra

GOLDEN = Path(__file__).parent / "golden"

MAKE_RECIPES = {
    "zorn": "zorn",
    "matrix-3": "matrix:3",
    "matrix-4": "matrix:4",
    "sedenions": "cd:-1,-1,-1,-1",
    "zorn+zorn": "sum(zorn|zorn)",
}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _make_digest(stem: str) -> str:
    return json.loads((GOLDEN / "make_sha256.json").read_text())[stem]


@pytest.mark.parametrize("stem", sorted(MAKE_RECIPES))
def test_analyze_matches_golden_bytes(stem, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    name = f"{stem}.json"
    assert main(["make", MAKE_RECIPES[stem], "-o", name]) == 0
    capsys.readouterr()
    assert _sha256(name) == _make_digest(stem)
    assert main(["analyze", "--json", name]) == 0
    assert capsys.readouterr().out == (GOLDEN / "analyze" / name).read_text(encoding="utf-8")
    digest = hashlib.sha256(repr(derivation_algebra(load_algebra(name))).encode()).hexdigest()
    assert digest == json.loads((GOLDEN / "derivation_sha256.json").read_text())[stem]


# stems whose Lie-split reports are pinned: their recipe. The split octonions
# cd:-1,1,1 are taken at their canonical idempotent (e0 + e2)/2, whose corners
# (dims [1, 3, 3, 1], R12 spanned by vectors such as e1 - e3) are not spanned by
# basis vectors.
LIE_SPLIT = {"zorn": "zorn", "matrix-3": "matrix:3", "split-octonions": "cd:-1,1,1"}


def _stdout(argv: list[str]) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    return out.getvalue()


def lie_split_outputs(stem: str) -> dict[str, str]:
    """Run peirce, decompose -o and fuzz on one algebra in the working
    directory: the text of each pinned output, by its path under tests/golden/."""
    name = f"{stem}.json"
    recipe = LIE_SPLIT[stem]
    _stdout(["make", recipe, "-o", name])
    algebra = load_algebra(name)
    e1 = canonical_idempotent(parse_recipe(recipe), algebra)
    idempotent = ",".join(vector_to_json(e1.coeffs))
    save_mapspec(random_lie_derivation(algebra, SampleBudget(seed=1)), f"{stem}.map.json")
    out = {
        f"peirce/{name}": _stdout(["peirce", "--json", name, "--idempotent", idempotent]),
        f"decompose/{name}": _stdout(["decompose", "--json", name, "--idempotent", idempotent,
                                      "--map", f"{stem}.map.json", "-o", stem]),
        f"fuzz/{name}": _stdout(["fuzz", recipe, "--trials", "2", "--json"]),
    }
    for suffix in ("map", "delta", "tau"):
        out[f"decompose/{stem}.{suffix}.json"] = Path(f"{stem}.{suffix}.json").read_text(
            encoding="utf-8")
    return out


@pytest.mark.parametrize("stem", sorted(LIE_SPLIT))
def test_lie_split_matches_golden_bytes(stem, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for rel, text in lie_split_outputs(stem).items():
        assert text == (GOLDEN / rel).read_text(encoding="utf-8"), rel


def test_trace_square_decompose_matches_golden_bytes(tmp_path, monkeypatch):
    """D(a) = (a11^2 - a22^2) 1 on matrix:2 at E11 splits as delta = 0, tau = D.
    Its term functionals E11 and E22 do not vanish on the commutator span, but
    the degree-2 parts cancel on it."""
    monkeypatch.chdir(tmp_path)
    _stdout(["make", "matrix:2", "-o", "matrix-2.json"])
    m2 = load_algebra("matrix-2.json")
    square = (Fraction(0), Fraction(0), Fraction(1))
    save_mapspec(MapSpec(m2, Matrix.zeros(4, 4),
                         (CentralTerm(m2.basis_vec(0), square, m2.unit),
                          CentralTerm(m2.basis_vec(3), square, tuple(-x for x in m2.unit)))),
                 "trace-square.map.json")
    out = _stdout(["decompose", "--json", "matrix-2.json", "--idempotent", "1,0,0,0",
                   "--map", "trace-square.map.json", "-o", "trace-square"])
    assert out == (GOLDEN / "decompose" / "trace-square.json").read_text(encoding="utf-8")
    for suffix in ("map", "delta", "tau"):
        rel = f"decompose/trace-square.{suffix}.json"
        assert Path(f"trace-square.{suffix}.json").read_text(encoding="utf-8") == \
            (GOLDEN / rel).read_text(encoding="utf-8"), rel


# peirce reports whose corner conditions fail, so the annihilator witnesses are
# pinned: m2m2 at the unit of its first summand (conditions 2, 3 and 4 fail), and
# sum(zorn|zorn) at the first summand's e1 (dims [1, 3, 3, 9]; condition 3 fails
# with R.e1 and condition 4 on the center's basis)
PEIRCE_WITNESSES = {
    "m2m2": ("m2m2", "1,0,0,1,0,0,0,0"),
    "zorn+zorn": (MAKE_RECIPES["zorn+zorn"], ",".join(["1"] + ["0"] * 15)),
}


@pytest.mark.parametrize("stem", sorted(PEIRCE_WITNESSES))
def test_peirce_witnesses_match_golden_bytes(stem, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recipe, idempotent = PEIRCE_WITNESSES[stem]
    name = f"{stem}.json"
    _stdout(["make", recipe, "-o", name])
    out = _stdout(["peirce", "--json", name, "--idempotent", idempotent])
    assert out == (GOLDEN / "peirce" / name).read_text(encoding="utf-8")


def test_make_matches_golden_digest_with_rational_constants(tmp_path, monkeypatch):
    """A doubled algebra whose constants include halves and three-halves."""
    monkeypatch.chdir(tmp_path)
    _stdout(["make", "cd:-1,1/2,-3", "-o", "cd-rational.json"])
    assert _sha256("cd-rational.json") == _make_digest("cd-rational")


# doubled algebras pinned by their `make -o` digests alone: the split octonions
# from either sign pattern, and a fifth doubling of dimension 32
DOUBLINGS = {
    "split-octonions": "-1,1,1",
    "cd-positive": "1,1,1",
    "cd-dim32": "-1,-1,-1,-1,-1",
}


@pytest.mark.parametrize("stem", sorted(DOUBLINGS))
def test_make_doubling_matches_golden_digest(stem, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _stdout(["make", f"cd:{DOUBLINGS[stem]}", "-o", f"{stem}.json"])
    assert _sha256(f"{stem}.json") == _make_digest(stem)


def test_structure_survey_matches_golden_table():
    """`scripts/structure_survey.py`, run as a script, prints the pinned table."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(root / "scripts" / "structure_survey.py")],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "structure_survey.txt").read_text(encoding="utf-8")
