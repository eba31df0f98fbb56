"""Byte-for-byte pins of `analyze --json` and of the derivation bases.

The files under tests/golden/ were written by the implementation that
eliminated on `Fraction` rows; the integer core must reproduce them exactly.
Each algebra is made with `make` and analyzed from the working directory, so
the echoed command line is the same on every machine.
"""

import hashlib
import json
from pathlib import Path

import pytest

from altrings.cli import main
from altrings.jsonio import load_algebra
from altrings.structure import derivation_algebra

GOLDEN = Path(__file__).parent / "golden"

MAKE_ARGS = {
    "zorn": ["zorn"],
    "matrix-3": ["matrix", "--n", "3"],
    "matrix-4": ["matrix", "--n", "4"],
    "sedenions": ["cd", "--mus", "-1,-1,-1,-1"],
    "zorn+zorn": ["sum(zorn|zorn)"],
}


@pytest.mark.parametrize("stem", sorted(MAKE_ARGS))
def test_analyze_matches_golden_bytes(stem, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    name = f"{stem}.json"
    assert main(["make", *MAKE_ARGS[stem], "-o", name]) == 0
    capsys.readouterr()
    assert main(["analyze", "--json", name]) == 0
    assert capsys.readouterr().out == (GOLDEN / "analyze" / name).read_text(encoding="utf-8")
    digest = hashlib.sha256(repr(derivation_algebra(load_algebra(name))).encode()).hexdigest()
    assert digest == json.loads((GOLDEN / "derivation_sha256.json").read_text())[stem]
