"""JSON wire formats.

Algebra files: {"dim", "labels"?, "unit", "constants": [{"i","j","value"}...],
"provenance"?} where omitted (i, j) pairs mean the zero product.  Map files:
{"linear": [[...]], "central_terms": [{"functional","poly","central"}...]}.
Rationals travel as canonical strings ("-3/2", "0", "7").
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from os import PathLike

from . import liederiv
from .algebra import Algebra
from .errors import InputError, NotCentralError
from .linalg import Matrix, Vec


def format_rational(q: Fraction) -> str:
    return str(q)


def parse_rational(s) -> Fraction:
    """A JSON integer, or a string "[-]digits" or "[-]digits/digits" as the writer
    emits; no exponent string, so parsing costs what the text's length costs."""
    if type(s) is not int and type(s) is not str:  # a JSON true is a bool
        raise InputError(f"rationals must be strings or integers, got {s!r}")
    if type(s) is str and not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", s):
        raise InputError(f"bad rational {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):  # digits past int_max_str_digits, or "1/0"
        raise InputError(f"bad rational {s!r}")


def vector_to_json(v) -> list[str]:
    return [format_rational(Fraction(x)) for x in v]


def vector_from_json(data, expected_len: int, memo: dict[str, Fraction] | None = None) -> Vec:
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
    if len(v) != expected_len:
        raise InputError(f"vector length {len(v)} != expected {expected_len}")
    return tuple(v)


def _json_list(data: dict, field: str) -> list:
    """The list under an optional field; absent means empty."""
    items = data.get(field, [])
    if not isinstance(items, list):
        raise InputError(f"'{field}' must be a JSON list")
    return items


def algebra_to_dict(a: Algebra, provenance: str | None = None) -> dict:
    entries = [{"i": i, "j": j, "value": vector_to_json(v)}
               for (i, j), v in a.products().items()]
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
    if type(dim) is not int or dim < 1:  # a JSON true is a bool, not the integer 1
        raise InputError("'dim' must be a positive integer")
    memo: dict[str, Fraction] = {}
    cells = {}
    for entry in _json_list(data, "constants"):
        if not isinstance(entry, dict) or not {"i", "j", "value"} <= set(entry):
            raise InputError("constants entries need fields i, j, value")
        i, j = entry["i"], entry["j"]
        if not (type(i) is int and type(j) is int and 0 <= i < dim and 0 <= j < dim):
            raise InputError(f"constants entry index ({i},{j}) is not an integer in [0, dim)")
        if (i, j) in cells:
            raise InputError(f"constants entry ({i},{j}) appears twice")
        cells[i, j] = vector_from_json(entry["value"], dim, memo)
    if "unit" not in data:
        raise InputError("algebra JSON must declare its unit")
    unit = vector_from_json(data["unit"], dim, memo)
    labels = data.get("labels")
    if labels is not None and (not isinstance(labels, list) or len(labels) != dim):
        raise InputError("labels must be a list of length dim")
    if labels is not None and not all(type(s) is str for s in labels):
        raise InputError("labels must be strings")
    return Algebra(cells, unit, labels)


def matrix_to_json(m: Matrix) -> list[list[str]]:
    return [vector_to_json(r) for r in m.rows]


def matrix_from_json(data, n: int) -> Matrix:
    if not isinstance(data, list) or len(data) != n:
        raise InputError(f"matrix must be a list of {n} rows")
    return Matrix(tuple(vector_from_json(r, n) for r in data), n)


def mapspec_to_dict(d: liederiv.MapSpec) -> dict:
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


def mapspec_from_dict(data: dict, algebra: Algebra) -> liederiv.MapSpec:
    if not isinstance(data, dict) or "linear" not in data:
        raise InputError("map JSON must be an object with a 'linear' field")
    n = algebra.dim
    linear = matrix_from_json(data["linear"], n)
    terms = []
    for entry in _json_list(data, "central_terms"):
        if not isinstance(entry, dict) or not {"functional", "poly", "central"} <= set(entry):
            raise InputError("central_terms entries need functional, poly, central")
        if not isinstance(entry["poly"], list):
            raise InputError("central-term poly must be a JSON list")
        poly = tuple(parse_rational(c) for c in entry["poly"])
        terms.append(liederiv.CentralTerm(
            vector_from_json(entry["functional"], n),
            poly,
            vector_from_json(entry["central"], n),
        ))
    try:
        return liederiv.MapSpec(algebra, linear, tuple(terms))
    except (NotCentralError, ValueError) as exc:
        raise InputError(f"map file is invalid: {exc}")


def _load_json(path: str | PathLike) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}")
    except ValueError as exc:  # a JSONDecodeError, or an integer past int_max_str_digits
        raise InputError(f"invalid JSON in {path}: {exc}")
    except RecursionError:
        raise InputError(f"invalid JSON in {path}: nested too deeply")


def _save_json(data: dict, path: str | PathLike):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}")


def save_algebra(a: Algebra, path: str | PathLike, provenance: str | None = None):
    _save_json(algebra_to_dict(a, provenance), path)


def load_algebra(path: str | PathLike) -> Algebra:
    return algebra_from_dict(_load_json(path))


def save_mapspec(d: liederiv.MapSpec, path: str | PathLike):
    _save_json(mapspec_to_dict(d), path)


def load_mapspec(path: str | PathLike, algebra: Algebra) -> liederiv.MapSpec:
    return mapspec_from_dict(_load_json(path), algebra)
