"""Global structural invariants: nucleus, center, derivations, primality.

All subspace answers come from exact kernel computations. The only
probabilistic verdict in this module is `check_prime` without a witness: the
annihilator search quantifies over an infinite ring, so absence of a witness
is reported as ProbablyPrime over the seeded sample, never as a theorem.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .algebra import (
    Algebra,
    Element,
    check_alternative,
    check_associative,
    check_flexible,
)
from .errors import NotAlternativeError
from .linalg import Matrix, SparseMatrix, Subspace, int_vec, is_zero_vec, kernel, stack
from .sampling import random_nonzero_vector, rng_for


@lru_cache(maxsize=None)
def nucleus(a: Algebra) -> Subspace:
    """Elements r with (x,y,r) = (x,r,y) = (r,x,y) = 0 for all x, y.

    Associators are linear in r: component k of (b_i, b_j, b_m) is the
    coefficient of r_m in row (i, j, k) of (b_i, b_j, r), row (i, m, k) of
    (b_i, r, b_m) and row (j, m, k) of (r, b_j, b_m). The rows are integer,
    read off the scaled `Algebra.associator_table`."""
    rows = {}
    for (i, j, m), v in a.associator_table().items():
        for k, x in v.items():
            rows.setdefault((0, i, j, k), {})[m] = x
            rows.setdefault((1, i, m, k), {})[j] = x
            rows.setdefault((2, j, m, k), {})[i] = x
    return kernel(SparseMatrix(tuple(rows.values()), a.dim))


@lru_cache(maxsize=None)
def center(a: Algebra) -> Subspace:
    """Nuclear elements commuting with everything."""
    n, table = a.dim, a._int_table
    # row (i, k) of x -> x b_i - b_i x: the coefficient of x_m is [b_m, b_i]_k
    rows = []
    for i in range(n):
        block = [{} for _ in range(n)]
        for m in range(n):
            for k, c in table[m][i]:
                block[k][m] = block[k].get(m, 0) + c
            for k, c in table[i][m]:
                block[k][m] = block[k].get(m, 0) - c
        rows += ({m: x for m, x in r.items() if x} for r in block)
    return nucleus(a) & kernel(SparseMatrix(tuple(rows), n))


def centralizer(a: Algebra, s: Subspace) -> Subspace:
    """Elements of the whole algebra commuting with every element of s."""
    if s.ambient_dim != a.dim:
        raise ValueError("subspace does not live in this algebra")
    if s.dim == 0:
        return Subspace.full(a.dim)
    blocks = [a.right_mult_matrix(v) - a.left_mult_matrix(v) for v in s.basis]
    return kernel(stack(blocks, a.dim))


@lru_cache(maxsize=None)
def commutator_subspace(a: Algebra) -> Subspace:
    """Span of all commutators [x, y], computed from basis pairs."""
    n = a.dim
    vectors = []
    for i in range(n):
        for j in range(i + 1, n):
            c = tuple(x - y for x, y in zip(a.constants[i][j], a.constants[j][i]))
            if any(c):
                vectors.append(c)
    return Subspace.span(n, vectors)


def _leibniz_rows(a: Algebra) -> list[dict[int, int]]:
    """Linear system on vec(d), d an n x n matrix with unknowns d[r][c] at r*n+c:
    d(b_i b_j) - d(b_i) b_j - b_i d(b_j) = 0 for all basis pairs, one row per
    output component k, read off the integer structure table (`Algebra._int_table`,
    so each row is the rational one times the common denominator)."""
    n, table = a.dim, a._int_table
    rows = []
    for i in range(n):
        for j in range(n):
            block = [{} for _ in range(n)]
            for m, c in table[i][j]:
                for k in range(n):
                    block[k][k * n + m] = c
            for m in range(n):
                for k, c in table[m][j]:
                    block[k][m * n + i] = block[k].get(m * n + i, 0) - c
                for k, c in table[i][m]:
                    block[k][m * n + j] = block[k].get(m * n + j, 0) - c
            rows += [r for r in ({col: x for col, x in r.items() if x} for r in block) if r]
    return rows


@lru_cache(maxsize=None)
def derivation_algebra(a: Algebra) -> tuple[Matrix, ...]:
    """Basis of all matrices satisfying the Leibniz rule on every basis pair."""
    n = a.dim
    sols = kernel(SparseMatrix(tuple(_leibniz_rows(a)), n * n))
    return tuple(
        Matrix(tuple(tuple(v[r * n + c] for c in range(n)) for r in range(n)), n)
        for v in sols.basis
    )


@lru_cache(maxsize=None)
def derivation_span(a: Algebra) -> Subspace:
    """Derivation algebra as a subspace of vectorized matrices (for membership)."""
    n = a.dim
    return Subspace.span(
        n * n, [tuple(x for row in d.rows for x in row) for d in derivation_algebra(a)]
    )


@lru_cache(maxsize=None)
def _leibniz_int_rows(a: Algebra) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The Leibniz system with integer entries, as (column, value) pairs."""
    return tuple(tuple(r.items()) for r in _leibniz_rows(a))


def is_derivation(a: Algebra, d: Matrix) -> bool:
    """Exact Leibniz check of one matrix on all basis pairs: vec(d), scaled to
    integers, must be orthogonal to every row of the Leibniz system."""
    n = a.dim
    if d.nrows != n or d.cols != n:
        raise ValueError("a derivation of the algebra is a dim x dim matrix")
    vd = [0] * (n * n)
    for col, x in int_vec(x for row in d.rows for x in row)[0]:
        vd[col] = x
    return not any(sum(x * vd[col] for col, x in row) for row in _leibniz_int_rows(a))


class IdempotentKind(enum.Enum):
    NOT_IDEMPOTENT = "not-idempotent"
    TRIVIAL = "trivial"
    NONTRIVIAL = "nontrivial"


def verify_idempotent(a: Algebra, e: Element) -> IdempotentKind:
    """e*e = e decides idempotency; 0 and the unit count as trivial."""
    v = e.coeffs
    if a.mul_vec(v, v) != v:
        return IdempotentKind.NOT_IDEMPOTENT
    if is_zero_vec(v) or v == a.unit:
        return IdempotentKind.TRIVIAL
    return IdempotentKind.NONTRIVIAL


@dataclass(frozen=True)
class PrimalityResult:
    """Outcome of the annihilator search; witness None means ProbablyPrime."""

    witness: Optional[tuple[Element, Element]]
    candidates_tried: int
    seed: int

    @property
    def probably_prime(self) -> bool:
        return self.witness is None


def check_prime(a: Algebra, trials: int, seed: int) -> PrimalityResult:
    """Search for nonzero a0, b with (a0 x) b = 0 for every basis x.

    Candidates a0 are the basis vectors plus `trials` seeded random nonzero
    vectors.  Any hit is returned as an exact, substitution-verified witness;
    exhaustion means ProbablyPrime.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not check_alternative(a):
        raise NotAlternativeError("primality criterion applies to alternative rings")
    n = a.dim
    rng = rng_for(seed)
    candidates = [a.basis_vec(i) for i in range(n)]
    candidates += [random_nonzero_vector(rng, n) for _ in range(trials)]
    for cand in candidates:
        prods = [a.mul_vec(cand, a.basis_vec(k)) for k in range(n)]
        blocks = [a.left_mult_matrix(p) for p in prods]
        ker = kernel(stack(blocks, n))
        if ker.dim > 0:
            b = ker.basis[0]
            for p in prods:
                if not is_zero_vec(a.mul_vec(p, b)):
                    raise AssertionError("witness failed substitution check")
            return PrimalityResult((Element(a, cand), Element(a, b)), len(candidates), seed)
    return PrimalityResult(None, len(candidates), seed)


@dataclass(frozen=True)
class StructureReport:
    nucleus: Subspace
    center: Subspace
    derivation_dim: int
    is_alternative: bool
    is_flexible: bool
    is_associative: bool


def analyze(a: Algebra) -> StructureReport:
    nuc = nucleus(a)
    cen = center(a)
    assert nuc.contains(cen), "center must sit inside the nucleus"
    rep = StructureReport(
        nucleus=nuc,
        center=cen,
        derivation_dim=len(derivation_algebra(a)),
        is_alternative=check_alternative(a),
        is_flexible=check_flexible(a),
        is_associative=check_associative(a),
    )
    if rep.is_associative:
        assert nuc.dim == a.dim, "associative algebra must have full nucleus"
    return rep
