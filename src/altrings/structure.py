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

CACHE_SIZE = 8  # algebras (per product) each fact below is kept for: the latest few, not all


@lru_cache(maxsize=CACHE_SIZE)
def nucleus(a: Algebra) -> Subspace:
    """Elements r with (x,y,r) = (x,r,y) = (r,x,y) = 0 for all x, y.

    Associators are linear in r: component k of (b_i, b_j, b_m) is the
    coefficient of r_m in row (i, j, k) of (b_i, b_j, r), row (i, m, k) of
    (b_i, r, b_m) and row (j, m, k) of (r, b_j, b_m). The rows are integer,
    read off the scaled `Algebra.associator_table`. The (x, y, r) rows alone
    leave the nucleus when they leave a line (the validated unit is nuclear) or
    A is alternative, associative included: (x, r, y) = -(x, y, r) = -(r, x, y).
    Otherwise it is the kernel of all three slots' rows, taken as one system."""
    ass, rows = a.associator_table(), {}
    for (i, j, m), v in ass.items():
        for k, x in v.items():
            rows.setdefault((0, i, j, k), {})[m] = x
    nuc = kernel(SparseMatrix(tuple(rows.values()), a.dim))
    if nuc.dim == 1 or check_alternative(a):
        return nuc
    for (i, j, m), v in ass.items():
        for k, x in v.items():
            rows.setdefault((1, i, m, k), {})[j] = x
            rows.setdefault((2, j, m, k), {})[i] = x
    return kernel(SparseMatrix(tuple(rows.values()), a.dim))


def _annihilator(a: Algebra, domain: Subspace, multipliers, side: str) -> Subspace:
    """The x in `domain` with x r = 0 (side "right"), r x = 0 ("left") or [x, r] = 0
    ("commute") for all r in `multipliers`, as a subspace of A: the kernel of rows (r, k)
    holding (d_t r)_k, (r d_t)_k or [d_t, r]_k over `domain.basis` d_t. Each d_t is 1 at
    its pivot and 0 before it and at every other d_u's pivot, so the kernel's reduced
    basis, mapped through the d_t, is the reduced basis of the answer, unchanged."""
    n, rows = a.dim, []
    table = a.commutator_table() if side == "commute" else a._int_table
    dom = int_vec(x for v in domain.basis for x in v)[0]  # (t*n + i, d_t[i]) pairs
    for r in multipliers:
        block = [{} for _ in range(n)]
        for m, c in int_vec(r)[0]:
            for flat, y in dom:
                t, i = divmod(flat, n)
                for k, x in table[m][i] if side == "left" else table[i][m]:
                    block[k][t] = block[k].get(t, 0) + c * x * y
        rows += filter(None, ({t: x for t, x in row.items() if x} for row in block))
    ker = kernel(SparseMatrix(tuple(rows), domain.dim))
    return Subspace(n, tuple(combine(c, domain.basis, n) for c in ker.basis))


@lru_cache(maxsize=CACHE_SIZE)
def center(a: Algebra) -> Subspace:
    """Nuclear elements that commute with every basis vector; a line nucleus is
    the central unit line."""
    nuc = nucleus(a)
    if nuc.dim == 1:
        return nuc
    return _annihilator(a, nuc, Subspace.full(a.dim).basis, "commute")


def centralizer(a: Algebra, s: Subspace) -> Subspace:
    """Elements of the whole algebra commuting with every element of s."""
    if s.ambient_dim != a.dim:
        raise ValueError("subspace does not live in this algebra")
    return _annihilator(a, Subspace.full(a.dim), s.basis, "commute")


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
def _leibniz_rows(a: Algebra,
                  product="product") -> tuple[tuple[tuple[int, int], dict[int, int]], ...]:
    """Linear system on vec(d), d an n x n matrix with unknowns d[r][c] at r*n+c:
    d(b_i b_j) - d(b_i) b_j - b_i d(b_j) = 0 for all basis pairs, one row per
    output component k, of the "product" (`Algebra._int_table`) or the
    "commutator" (`Algebra.commutator_table`), as ((i, j), row) in row-major
    order of the pairs; cached per algebra and product, and callers must not
    mutate it. An unknown that a one-entry row forces to zero is emitted once, as
    a unit row, and dropped from later rows; a row equal up to scale to one already
    emitted is skipped. A matrix that satisfies every earlier row is zero at each
    dropped unknown, so the first row it fails belongs to the first pair it fails."""
    n, table = a.dim, a.commutator_table() if product == "commutator" else a._int_table
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
def derivation_span(a: Algebra, product="product") -> Subspace:
    """Derivations of the product (or "commutator") as vectorized matrices: the Leibniz kernel."""
    return kernel(SparseMatrix(tuple(row for _, row in _leibniz_rows(a, product)), a.dim ** 2))


@lru_cache(maxsize=CACHE_SIZE)
def derivation_algebra(a: Algebra) -> tuple[Matrix, ...]:
    """Basis of all matrices satisfying the Leibniz rule on every basis pair."""
    n = a.dim
    return tuple(Matrix(tuple(v[r * n:(r + 1) * n] for r in range(n)), n)
                 for v in derivation_span(a).basis)


def lie_derivation_split(a: Algebra) -> tuple[Subspace, Subspace]:
    """(LieDer, Der + T) as subspaces of the dim x dim matrices, entry (r, c)
    at coordinate r*dim + c. LieDer is the derivation span of the commutator; T
    is spanned by the maps x -> f(x) z, z central and f in `commutator_annihilator`."""
    n = a.dim
    t = [tuple(z[r] * f[c] for r in range(n) for c in range(n))
         for z in center(a).basis for f in commutator_annihilator(a).basis]
    return derivation_span(a, "commutator"), derivation_span(a) + Subspace.span(n * n, t)


def _leibniz_failure(a: Algebra, d: Matrix, product="product") -> tuple[int, int] | None:
    """The first basis pair (i, j), row-major, on which d breaks the Leibniz rule
    of the product (or of the "commutator"), or None: vec(d) on `_leibniz_rows`."""
    n = a.dim
    if d.nrows != n or d.cols != n:
        raise ValueError("a derivation of the algebra is a dim x dim matrix")
    vd = [0] * (n * n)
    for col, x in int_vec(x for row in d.rows for x in row)[0]:
        vd[col] = x
    return next((ij for ij, row in _leibniz_rows(a, product)
                 if sum(x * vd[c] for c, x in row.items())), None)


def is_derivation(a: Algebra, d: Matrix) -> bool:
    """Exact Leibniz check of one matrix on all basis pairs, on integer rows."""
    return _leibniz_failure(a, d) is None


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
        ker = _annihilator(a, Subspace.full(n), prods, "left")
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
