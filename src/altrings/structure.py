"""Global structural invariants: nucleus, center, derivations, primality.

All subspace answers come from exact kernel computations. The only
probabilistic verdict in this module is `check_prime` without a witness: the
annihilator search quantifies over an infinite ring, so absence of a witness
is reported as ProbablyPrime over the seeded sample, never as a theorem.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from math import gcd

from . import sampling  # lazy: runs on first use, which only check_prime makes
from .algebra import (
    Algebra,
    Element,
    check_alternative,
    check_associative,
    check_flexible,
)
from .errors import NotAlternativeError
from .linalg import Matrix, Record, SparseMatrix, Subspace, combine, int_vec, is_zero_vec, kernel

CACHE_SIZE = 8  # algebras (or tables) each fact below is kept for: the latest few, not all


@lru_cache(maxsize=CACHE_SIZE)
def nucleus(a: Algebra) -> Subspace:
    """Elements r with (x,y,r) = (x,r,y) = (r,x,y) = 0 for all x, y.

    Associators are linear in r: component k of (b_i, b_j, b_m) is the
    coefficient of r_m in row (i, j, k) of (b_i, b_j, r), row (i, m, k) of
    (b_i, r, b_m) and row (j, m, k) of (r, b_j, b_m). The rows are integer,
    read off the scaled `Algebra.associator_table`. When the (x, y, r) rows
    alone leave a line, it is the nucleus: the validated unit is nuclear. An
    associative algebra has no rows at all and is its own nucleus. Otherwise
    the nucleus is the kernel of all three slots' rows, taken as one system."""
    ass, rows = a.associator_table(), {}
    for (i, j, m), v in ass.items():
        for k, x in v.items():
            rows.setdefault((0, i, j, k), {})[m] = x
    nuc = kernel(SparseMatrix(tuple(rows.values()), a.dim))
    if nuc.dim == 1 or not ass:
        return nuc
    for (i, j, m), v in ass.items():
        for k, x in v.items():
            rows.setdefault((1, i, m, k), {})[j] = x
            rows.setdefault((2, j, m, k), {})[i] = x
    return kernel(SparseMatrix(tuple(rows.values()), a.dim))


def _annihilator(table, domain: Subspace, multipliers, side: str = "right") -> Subspace:
    """The x in `domain` with x r = 0 (r x = 0 for side "left") for all r in `multipliers`:
    the kernel, over `domain.basis` d_t, of rows (r, k) holding (d_t r)_k under an integer
    table (`_int_table`, or `commutator_table` for [x, r]), the d_t over one denominator."""
    n, rows = len(table), []
    dom = int_vec(x for v in domain.basis for x in v)[0]  # (t*n + i, d_t[i]) pairs
    for r in multipliers:
        block = [{} for _ in range(n)]
        for m, c in int_vec(r)[0]:
            for flat, y in dom:
                t, i = divmod(flat, n)
                for k, x in table[i][m] if side == "right" else table[m][i]:
                    block[k][t] = block[k].get(t, 0) + c * x * y
        rows += filter(None, ({t: x for t, x in row.items() if x} for row in block))
    return kernel(SparseMatrix(tuple(rows), domain.dim))


@lru_cache(maxsize=CACHE_SIZE)
def center(a: Algebra) -> Subspace:
    """Nuclear elements that every basis vector annihilates under [ , ]; a line
    nucleus is the central unit line."""
    nuc = nucleus(a)
    if nuc.dim == 1:
        return nuc
    ker = _annihilator(a.commutator_table(), nuc, Subspace.full(a.dim).basis)
    return Subspace.span(a.dim, [combine(c, nuc.basis, a.dim) for c in ker.basis])


def centralizer(a: Algebra, s: Subspace) -> Subspace:
    """Elements of the whole algebra commuting with every element of s: the
    annihilator of s's basis under [ , ], read off `commutator_table`."""
    if s.ambient_dim != a.dim:
        raise ValueError("subspace does not live in this algebra")
    return _annihilator(a.commutator_table(), Subspace.full(a.dim), s.basis)


@lru_cache(maxsize=CACHE_SIZE)
def commutator_subspace(a: Algebra) -> Subspace:
    """Span of all commutators [x, y]: of the [b_i, b_j], i < j, read off
    `Algebra.commutator_table` (its common scale leaves the span unchanged)."""
    comm = a.commutator_table()
    return Subspace._from_sparse(a.dim, [dict(c) for i, row in enumerate(comm)
                                         for c in row[i + 1:] if c])


def commutator_annihilator(a: Algebra) -> Subspace:
    """Covectors that vanish on every commutator: ann([A, A]) in the dual."""
    return kernel(Matrix(commutator_subspace(a).basis, a.dim))


@lru_cache(maxsize=CACHE_SIZE)
def _leibniz_rows(table) -> tuple[tuple[tuple[int, int], dict[int, int]], ...]:
    """Linear system on vec(d), d an n x n matrix with unknowns d[r][c] at r*n+c:
    d(b_i b_j) - d(b_i) b_j - b_i d(b_j) = 0 for all basis pairs, one row per
    output component k, read off an integer structure table such as
    `Algebra._int_table` or `Algebra.commutator_table`, as ((i, j), row) in
    row-major order of the pairs; cached per table, and callers must not
    mutate it. An unknown that a one-entry row forces to zero is emitted once, as
    a unit row, and dropped from later rows; a row equal up to scale to one already
    emitted is skipped. A matrix that satisfies every earlier row is zero at each
    dropped unknown, so the first row it fails belongs to the first pair it fails."""
    n = len(table)
    # the nonzero c[m][j][k] and c[i][m][k] as (m*n, k, c), per j and per i
    right = [[(m * n, k, c) for m in range(n) for k, c in table[m][j]] for j in range(n)]
    left = [[(m * n, k, c) for m in range(n) for k, c in table[i][m]] for i in range(n)]
    zero, seen, rows = set(), set(), []
    for i in range(n):
        for j in range(n):
            block = [{} for _ in range(n)]
            for m, c in table[i][j]:
                for k in range(n):
                    block[k][k * n + m] = c
            for mn, k, c in right[j]:
                block[k][mn + i] = block[k].get(mn + i, 0) - c
            for mn, k, c in left[i]:
                block[k][mn + j] = block[k].get(mn + j, 0) - c
            for row in block:
                if not (zero.isdisjoint(row) and all(row.values())):
                    row = {col: x for col, x in row.items() if x and col not in zero}
                if len(row) == 1:
                    zero.update(row)
                    rows.append(((i, j), dict.fromkeys(row, 1)))
                elif row:
                    g = gcd(*row.values()) if row[min(row)] > 0 else -gcd(*row.values())
                    key = frozenset(row.items() if g == 1 else
                                    ((c, x // g) for c, x in row.items()))
                    if key not in seen:
                        seen.add(key)
                        rows.append(((i, j), row))
    return tuple(rows)


@lru_cache(maxsize=CACHE_SIZE)
def derivation_span(a: Algebra) -> Subspace:
    """Derivation algebra as a subspace of vectorized matrices: the kernel of the Leibniz rows."""
    return kernel(SparseMatrix(tuple(row for _, row in _leibniz_rows(a._int_table)), a.dim ** 2))


@lru_cache(maxsize=CACHE_SIZE)
def derivation_algebra(a: Algebra) -> tuple[Matrix, ...]:
    """Basis of all matrices satisfying the Leibniz rule on every basis pair."""
    n = a.dim
    return tuple(Matrix(tuple(v[r * n:(r + 1) * n] for r in range(n)), n)
                 for v in derivation_span(a).basis)


def lie_derivation_split(a: Algebra) -> tuple[Subspace, Subspace]:
    """(LieDer, Der + T) as subspaces of the dim x dim matrices, entry (r, c)
    at coordinate r*dim + c. LieDer is the kernel of the Leibniz rows over the
    commutator table; T is spanned by the maps x -> f(x) z, z central and f in
    `commutator_annihilator`."""
    n = a.dim
    lie = kernel(SparseMatrix(tuple(row for _, row in _leibniz_rows(a.commutator_table())),
                              n * n))
    t = [tuple(z[r] * f[c] for r in range(n) for c in range(n))
         for z in center(a).basis for f in commutator_annihilator(a).basis]
    return lie, derivation_span(a) + Subspace.span(n * n, t)


def _leibniz_failure(table, d: Matrix) -> tuple[int, int] | None:
    """The first basis pair (i, j), row-major, on which d breaks the Leibniz rule
    of the product of `table`, or None: vec(d) on `_leibniz_rows(table)`."""
    n = len(table)
    if d.nrows != n or d.cols != n:
        raise ValueError("a derivation of the algebra is a dim x dim matrix")
    vd = [0] * (n * n)
    for col, x in int_vec(x for row in d.rows for x in row)[0]:
        vd[col] = x
    return next((ij for ij, row in _leibniz_rows(table)
                 if sum(x * vd[c] for c, x in row.items())), None)


def is_derivation(a: Algebra, d: Matrix) -> bool:
    """Exact Leibniz check of one matrix on all basis pairs, on integer rows."""
    return _leibniz_failure(a._int_table, d) is None


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


class PrimalityResult(Record):
    """Outcome of the annihilator search; witness None means ProbablyPrime."""

    witness: tuple[Element, Element] | None
    candidates_tried: int
    seed: int

    @property
    def probably_prime(self) -> bool:
        return self.witness is None


def check_prime(a: Algebra, trials: int, seed: int) -> PrimalityResult:
    """Search for nonzero a0, b with (a0 x) b = 0 for every basis x.

    Candidates a0 are the basis vectors plus `trials` seeded random nonzero
    vectors; b is read off the annihilator of the products a0 x on the left.  Any
    hit is returned as an exact, substitution-verified witness; exhaustion means
    ProbablyPrime.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not check_alternative(a):
        raise NotAlternativeError("primality criterion applies to alternative rings")
    n = a.dim
    rng = sampling.rng_for(seed)
    candidates = [a.basis_vec(i) for i in range(n)]
    candidates += [sampling.random_nonzero_vector(rng, n) for _ in range(trials)]
    for cand in candidates:
        prods = [a.mul_vec(cand, a.basis_vec(k)) for k in range(n)]
        ker = _annihilator(a._int_table, Subspace.full(n), prods, side="left")
        if ker.dim > 0:
            b = ker.basis[0]
            for p in prods:
                if not is_zero_vec(a.mul_vec(p, b)):
                    raise AssertionError("witness failed substitution check")
            return PrimalityResult((Element(a, cand), Element(a, b)), len(candidates), seed)
    return PrimalityResult(None, len(candidates), seed)


class StructureReport(Record):
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
