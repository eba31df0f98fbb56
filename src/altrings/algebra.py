"""Structure-constant algebras over the rationals and their element calculus.

An algebra is given by its products b_i b_j = sum_k c[i][j][k] b_k and a
verified two-sided unit. It stores the constants once, sparse: the nonzero
c[i][j][k] as integer numerators over one common denominator.
`Algebra.products()` gives them back as `Fraction` vectors. `mul_vec` takes
`Fraction` vectors, runs its triple loop on those integers (see
`linalg.int_vec`), and returns `Fraction`s again, so its values are exactly
those of the rational product.
Identity checking (alternative / flexible / associative) works on basis
triples, read off one integer associator table built from those integer
constants: the linearized identities are multilinear, so basis enumeration
decides them over characteristic zero.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import lcm

from .errors import AlgebraMismatchError, UnitValidationError
from .linalg import (
    Matrix,
    Record,
    Vec,
    frac_vec,
    fvec,
    int_vec,
    is_zero_vec,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vec,
)

_ZERO = Fraction(0)


class Algebra:
    """Immutable finite-dimensional unital algebra given by structure constants."""

    __slots__ = ("dim", "unit", "labels", "_int_table", "_den", "_hash", "_assoc", "_comm")

    def __init__(self, products: Mapping[tuple[int, int], Sequence], unit: Sequence,
                 labels: Sequence[str] | None = None):
        """`products[i, j]` is the coordinate vector of b_i b_j; omitted pairs
        multiply to zero. The dimension is the length of `unit`."""
        self.dim = dim = len(unit)
        if dim < 1:
            raise ValueError("algebra dimension must be at least 1")
        self.unit = fvec(unit)
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != dim:
                raise ValueError("labels length must equal dim")
        self.labels = labels
        cells = {}
        for (i, j), v in products.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"product index ({i},{j}) is not in [0, dim)")
            v = fvec(v)
            if len(v) != dim:
                raise ValueError("structure tensor is not dim x dim x dim")
            cells[i, j] = int_vec(v)
        # the nonzero constants over one denominator: c[i][j][k] == num / _den
        # for each pair (k, num) of _int_table[i][j]
        self._den = den = lcm(*(d for _, d in cells.values()))
        # a row only per left factor that occurs, and the unit checked before the
        # table is hashed, so a load costs what its input costs
        rows = {}
        for (i, j), (nums, d) in cells.items():
            rows.setdefault(i, [()] * dim)[j] = tuple((k, x * (den // d)) for k, x in nums)
        empty = ((),) * dim
        self._int_table = tuple(tuple(rows[i]) if i in rows else empty for i in range(dim))
        self._assoc = self._comm = None
        self._validate_unit()
        self._hash = hash(self._key())

    def _key(self):
        # equal constants give equal integer tables, and ints hash fast
        return (self.dim, self._den, self._int_table, self.unit)

    def _validate_unit(self):
        for i in range(self.dim):
            b = self.basis_vec(i)
            if self.mul_vec(self.unit, b) != b or self.mul_vec(b, self.unit) != b:
                raise UnitValidationError(
                    f"claimed unit fails on basis element {self.label(i)}"
                )

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Algebra):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Algebra(dim={self.dim})"

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else f"b{i}"

    def products(self) -> dict[tuple[int, int], Vec]:
        """The nonzero products b_i b_j as `Fraction` vectors, keyed by (i, j)
        in row-major order."""
        out = {}
        for i, plane in enumerate(self._int_table):
            for j, cell in enumerate(plane):
                if cell:
                    nums = dict(cell)
                    out[i, j] = frac_vec([nums.get(k, 0) for k in range(self.dim)], self._den)
        return out

    def basis_vec(self, i: int) -> Vec:
        return tuple(Fraction(1) if k == i else _ZERO for k in range(self.dim))

    # -- raw vector arithmetic (hot paths work on tuples, not Elements) --

    def mul_vec(self, a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
        pa, da = int_vec(a)
        pb, db = int_vec(b)
        out = [0] * self.dim
        table = self._int_table
        for i, ai in pa:
            row = table[i]
            for j, bj in pb:
                p = ai * bj
                for k, c in row[j]:
                    out[k] += p * c
        return frac_vec(out, da * db * self._den)

    def associator_table(self) -> dict[tuple[int, int, int], dict[int, int]]:
        """Nonzero basis associators (b_i b_j) b_k - b_i (b_j b_k), scaled by
        `_den**2` to integers, as sparse {k: c} vectors keyed by (i, j, k) in
        lexicographic order, built once from `_int_table`. The scale is the
        same for every entry, so kernels and comparisons such as u == -v read
        it as they would the rational associators. Callers must not mutate it."""
        if self._assoc is None:
            n, table, out = self.dim, self._int_table, {}
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        v = {}
                        for m, c in table[i][j]:
                            for p, x in table[m][k]:
                                v[p] = v.get(p, 0) + c * x
                        for m, c in table[j][k]:
                            for p, x in table[i][m]:
                                v[p] = v.get(p, 0) - c * x
                        if any(v.values()):
                            out[(i, j, k)] = {p: x for p, x in v.items() if x}
            self._assoc = out
        return self._assoc

    def commutator_table(self) -> tuple:
        """`_int_table` of the product [b_i, b_j] = b_i b_j - b_j b_i, over `_den`
        and built once. Callers must not mutate it."""
        if self._comm is None:
            r, c = range(self.dim), [[dict(cell) for cell in row] for row in self._int_table]
            self._comm = tuple(tuple(tuple((k, x) for k in sorted(c[i][j].keys() | c[j][i].keys())
                                           if (x := c[i][j].get(k, 0) - c[j][i].get(k, 0)))
                                     for j in r) for i in r)
        return self._comm

    def left_mult_matrix(self, y: Sequence[Fraction]) -> Matrix:
        """Matrix of x -> y x in the algebra basis."""
        n = self.dim
        return Matrix.from_cols([self.mul_vec(y, self.basis_vec(j)) for j in range(n)], n)

    def right_mult_matrix(self, y: Sequence[Fraction]) -> Matrix:
        """Matrix of x -> x y in the algebra basis."""
        n = self.dim
        return Matrix.from_cols([self.mul_vec(self.basis_vec(j), y) for j in range(n)], n)

    # -- element constructors --

    def element(self, coeffs: Iterable) -> "Element":
        v = fvec(coeffs)
        if len(v) != self.dim:
            raise AlgebraMismatchError("coefficient vector has wrong length")
        return Element(self, v)

    def basis_element(self, i: int) -> "Element":
        return Element(self, self.basis_vec(i))

    def zero(self) -> "Element":
        return Element(self, zero_vec(self.dim))

    def one(self) -> "Element":
        return Element(self, self.unit)


class Element(Record):
    """Coefficient vector tied to its algebra; supports +, -, * (ring product)."""

    algebra: Algebra
    coeffs: Vec

    def _check(self, other: "Element"):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatchError("elements belong to different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, vec_add(self.coeffs, other.coeffs))

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, vec_sub(self.coeffs, other.coeffs))

    def __neg__(self) -> "Element":
        return Element(self.algebra, tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            return Element(self.algebra, self.algebra.mul_vec(self.coeffs, other.coeffs))
        if isinstance(other, (int, Fraction)):
            return Element(self.algebra, vec_scale(Fraction(other), self.coeffs))
        return NotImplemented

    __rmul__ = __mul__  # c * x for a scalar c

    def is_zero(self) -> bool:
        return is_zero_vec(self.coeffs)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                name = self.algebra.label(i)
                terms.append(name if c == 1 else f"({c})*{name}")
        return " + ".join(terms) if terms else "0"


def commutator(x: Element, y: Element) -> Element:
    """[x, y] = x y - y x."""
    x._check(y)
    alg = x.algebra
    return Element(alg, vec_sub(alg.mul_vec(x.coeffs, y.coeffs),
                                alg.mul_vec(y.coeffs, x.coeffs)))


def associator(x: Element, y: Element, z: Element) -> Element:
    """(x, y, z) = (x y) z - x (y z)."""
    x._check(y)
    x._check(z)
    alg = x.algebra
    xy_z = alg.mul_vec(alg.mul_vec(x.coeffs, y.coeffs), z.coeffs)
    x_yz = alg.mul_vec(x.coeffs, alg.mul_vec(y.coeffs, z.coeffs))
    return Element(alg, vec_sub(xy_z, x_yz))


def _cancel(u: dict | None, v: dict | None) -> bool:
    """u + v = 0 for two sparse associator vectors (None is zero; the table
    stores no empty vector)."""
    if u is None or v is None:
        return u is v
    for k, c in u.items():
        if v.get(k) != -c:
            return False
    return len(u) == len(v)


def check_alternative(a: Algebra) -> bool:
    """(x,x,y) = 0 = (y,x,x), decided by the linearized identities on basis triples."""
    return alternativity_witness(a) is None


def alternativity_witness(a: Algebra) -> tuple[int, int, int] | None:
    """First basis triple violating (i,j,k)+(j,i,k)=0 or (i,j,k)+(i,k,j)=0, if any.
    Such a sum fails for both triples in it, and one of them is a table key."""
    ass, best = a.associator_table(), None
    for (i, j, k), u in ass.items():
        if best is None or min(i, j) <= best[0]:  # else every triple it pairs comes later
            for p in ((j, i, k), (i, k, j)):
                if not _cancel(u, ass.get(p)):
                    best = min(best or p, p, (i, j, k))
    return best


def check_flexible(a: Algebra) -> bool:
    """(x,y,x) = 0, via the linearization (x,y,z) + (z,y,x) = 0 on basis triples."""
    ass = a.associator_table()
    return all(_cancel(u, ass.get((k, j, i))) for (i, j, k), u in ass.items())


def check_associative(a: Algebra) -> bool:
    return find_nonassociative_triple(a) is None


def find_nonassociative_triple(a: Algebra) -> tuple[int, int, int] | None:
    """First basis triple with nonzero associator, or None when associative."""
    return next(iter(a.associator_table()), None)
