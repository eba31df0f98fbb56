"""JSON wire formats.

Algebra files: {"dim", "labels"?, "unit", "constants": [{"i","j","value"}...],
"provenance"?} where omitted (i, j) pairs mean the zero product.  Map files:
{"linear": [[...]], "central_terms": [{"functional","poly","central"}...]}.
Rationals travel as canonical strings ("-3/2", "0", "7").
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .algebra import Algebra
from .errors import InputError, NotCentralError
from .liederiv import CentralTerm, MapSpec
from .linalg import Matrix, Vec, zero_vec


def format_rational(q: Fraction) -> str:
    return str(q)


def parse_rational(s) -> Fraction:
    if isinstance(s, bool) or isinstance(s, float):
        raise InputError(f"rationals must be strings or integers, got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError, TypeError):
        raise InputError(f"bad rational {s!r}")


def vector_to_json(v) -> list[str]:
    return [format_rational(Fraction(x)) for x in v]


def vector_from_json(data, expected_len: Optional[int] = None,
                     memo: Optional[dict[str, Fraction]] = None) -> Vec:
    """Parse a list of rationals; `memo` holds the strings already parsed in
    this load, so each distinct string is parsed once."""
    if not isinstance(data, list):
        raise InputError("vector must be a JSON list")
    if memo is None:
        memo = {}
    v = []
    for x in data:
        if type(x) is str:
            q = memo.get(x)
            if q is None:
                q = memo[x] = parse_rational(x)
        else:
            q = parse_rational(x)
        v.append(q)
    if expected_len is not None and len(v) != expected_len:
        raise InputError(f"vector length {len(v)} != expected {expected_len}")
    return tuple(v)


def algebra_to_dict(a: Algebra, provenance: Optional[str] = None) -> dict:
    entries = []
    for i in range(a.dim):
        for j in range(a.dim):
            row = a.constants[i][j]
            if any(row):
                entries.append({"i": i, "j": j, "value": vector_to_json(row)})
    out = {"dim": a.dim, "unit": vector_to_json(a.unit), "constants": entries}
    if a.labels:
        out["labels"] = list(a.labels)
    if provenance:
        out["provenance"] = provenance
    return out


def algebra_from_dict(data: dict) -> Algebra:
    if not isinstance(data, dict) or "dim" not in data:
        raise InputError("algebra JSON must be an object with a 'dim' field")
    dim = data["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise InputError("'dim' must be a positive integer")
    memo: dict[str, Fraction] = {}
    cells = {}
    for entry in data.get("constants", []):
        if not isinstance(entry, dict) or not {"i", "j", "value"} <= set(entry):
            raise InputError("constants entries need fields i, j, value")
        i, j = entry["i"], entry["j"]
        if not (isinstance(i, int) and isinstance(j, int) and 0 <= i < dim and 0 <= j < dim):
            raise InputError(f"constants entry index ({i},{j}) out of range")
        cells[i, j] = vector_from_json(entry["value"], dim, memo)
    if "unit" not in data:
        raise InputError("algebra JSON must declare its unit")
    unit = vector_from_json(data["unit"], dim, memo)
    labels = data.get("labels")
    if labels is not None and (not isinstance(labels, list) or len(labels) != dim):
        raise InputError("labels must be a list of length dim")
    # the grid is built only now that the unit has length dim: missing cells
    # share one zero row, so its size is bounded by that of the input
    zero = zero_vec(dim)
    constants = [[cells.get((i, j), zero) for j in range(dim)] for i in range(dim)]
    return Algebra(constants, unit, labels)


def matrix_to_json(m: Matrix) -> list[list[str]]:
    return [vector_to_json(r) for r in m.rows]


def matrix_from_json(data, n: int) -> Matrix:
    if not isinstance(data, list) or len(data) != n:
        raise InputError(f"matrix must be a list of {n} rows")
    return Matrix(tuple(vector_from_json(r, n) for r in data), n)


def mapspec_to_dict(d: MapSpec) -> dict:
    return {
        "linear": matrix_to_json(d.linear),
        "central_terms": [
            {
                "functional": vector_to_json(t.functional),
                "poly": [format_rational(c) for c in t.poly],
                "central": vector_to_json(t.central),
            }
            for t in d.terms
        ],
    }


def mapspec_from_dict(data: dict, algebra: Algebra) -> MapSpec:
    if not isinstance(data, dict) or "linear" not in data:
        raise InputError("map JSON must be an object with a 'linear' field")
    n = algebra.dim
    linear = matrix_from_json(data["linear"], n)
    terms = []
    for entry in data.get("central_terms", []):
        if not isinstance(entry, dict) or not {"functional", "poly", "central"} <= set(entry):
            raise InputError("central_terms entries need functional, poly, central")
        poly = tuple(parse_rational(c) for c in entry["poly"])
        if poly and poly[0] != 0:
            raise InputError("central-term polynomial must serialize constant term as \"0\"")
        terms.append(CentralTerm(
            vector_from_json(entry["functional"], n),
            poly,
            vector_from_json(entry["central"], n),
        ))
    try:
        return MapSpec(algebra, linear, tuple(terms))
    except NotCentralError as exc:
        raise InputError(f"map file is invalid: {exc}")
    except ValueError as exc:
        raise InputError(f"map file is invalid: {exc}")


def _load_json(path: Union[str, Path]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}")


def save_algebra(a: Algebra, path: Union[str, Path], provenance: Optional[str] = None):
    Path(path).write_text(
        json.dumps(algebra_to_dict(a, provenance), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_algebra(path: Union[str, Path]) -> Algebra:
    return algebra_from_dict(_load_json(path))


def save_mapspec(d: MapSpec, path: Union[str, Path]):
    Path(path).write_text(
        json.dumps(mapspec_to_dict(d), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_mapspec(path: Union[str, Path], algebra: Algebra) -> MapSpec:
    return mapspec_from_dict(_load_json(path), algebra)
