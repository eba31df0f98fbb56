"""Structure-constant algebras over the rationals and their element calculus.

An algebra is a dimension, a rank-3 tensor c[i][j][k] with
basis_i * basis_j = sum_k c[i][j][k] basis_k, and a verified two-sided unit.
Next to the `Fraction` constants, an algebra keeps their nonzeros as integer
numerators over one common denominator. `mul_vec` takes `Fraction` vectors,
runs its triple loop on those integers (see `linalg.int_vec`), and returns
`Fraction`s again, so its values are exactly those of the rational product.
Identity checking (alternative / flexible / associative) works on basis
triples, read off one integer associator table built from those integer
constants: the linearized identities are multilinear, so basis enumeration
decides them over characteristic zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .errors import AlgebraMismatchError, UnitValidationError
from .linalg import (
    Matrix,
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

    __slots__ = ("dim", "constants", "unit", "labels", "_table", "_int_table", "_den",
                 "_hash", "_assoc")

    def __init__(self, constants: Sequence[Sequence[Sequence]], unit: Sequence,
                 labels: Optional[Sequence[str]] = None):
        dim = len(constants)
        if dim < 1:
            raise ValueError("algebra dimension must be at least 1")
        tensor = tuple(
            tuple(fvec(constants[i][j]) for j in range(dim)) for i in range(dim)
        )
        for i in range(dim):
            if len(constants[i]) != dim:
                raise ValueError("structure tensor is not dim x dim x dim")
            for j in range(dim):
                if len(tensor[i][j]) != dim:
                    raise ValueError("structure tensor is not dim x dim x dim")
        self.dim = dim
        self.constants = tensor
        self.unit = fvec(unit)
        if len(self.unit) != dim:
            raise ValueError("unit vector has wrong length")
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != dim:
                raise ValueError("labels length must equal dim")
        self.labels = labels
        # sparse view: _table[i][j] = ((k, c), ...) for nonzero c[i][j][k]
        self._table = tuple(
            tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in plane)
            for plane in tensor
        )
        # the same nonzeros as integers: c[i][j][k] == num / _den
        self._den = den = lcm(*(c.denominator for plane in self._table
                                for cell in plane for _, c in cell))
        self._int_table = tuple(
            tuple(tuple((k, c.numerator * (den // c.denominator)) for k, c in cell)
                  for cell in plane)
            for plane in self._table
        )
        # equal constants give equal integer tables, and ints hash fast
        self._hash = hash((dim, den, self._int_table, self.unit))
        self._assoc = None
        self._validate_unit()

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
        return (self.dim == other.dim and self.constants == other.constants
                and self.unit == other.unit)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Algebra(dim={self.dim})"

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else f"b{i}"

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
                        v = {p: x for p, x in v.items() if x}
                        if v:
                            out[(i, j, k)] = v
            self._assoc = out
        return self._assoc

    def left_mult_matrix(self, y: Sequence[Fraction]) -> Matrix:
        """Matrix of x -> y x in the algebra basis."""
        cols = [self.mul_vec(y, self.basis_vec(j)) for j in range(self.dim)]
        return Matrix(tuple(tuple(c[i] for c in cols) for i in range(self.dim)), self.dim)

    def right_mult_matrix(self, y: Sequence[Fraction]) -> Matrix:
        """Matrix of x -> x y in the algebra basis."""
        cols = [self.mul_vec(self.basis_vec(j), y) for j in range(self.dim)]
        return Matrix(tuple(tuple(c[i] for c in cols) for i in range(self.dim)), self.dim)

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


@dataclass(frozen=True)
class Element:
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

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Element(self.algebra, vec_scale(Fraction(other), self.coeffs))
        return NotImplemented

    def is_zero(self) -> bool:
        return is_zero_vec(self.coeffs)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                name = self.algebra.label(i)
                terms.append(name if c == 1 else f"({c})*{name}")
        return " + ".join(terms) if terms else "0"


def multiply(a: Element, b: Element) -> Element:
    return a * b


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


def mult_operators(y: Element) -> tuple[Matrix, Matrix]:
    """Left and right multiplication operators (L_y, R_y) as matrices."""
    alg = y.algebra
    return alg.left_mult_matrix(y.coeffs), alg.right_mult_matrix(y.coeffs)


def _cancel(u: Optional[dict], v: Optional[dict]) -> bool:
    """u + v = 0 for two sparse associator vectors (None is zero; the table
    stores no empty vector)."""
    if u is None or v is None:
        return u is v
    return u == {k: -c for k, c in v.items()}


def check_alternative(a: Algebra) -> bool:
    """(x,x,y) = 0 = (y,x,x), decided by the linearized identities on basis triples."""
    return alternativity_witness(a) is None


def alternativity_witness(a: Algebra) -> Optional[tuple[int, int, int]]:
    """Basis triple violating (i,j,k)+(j,i,k)=0 or (i,j,k)+(i,k,j)=0, if any."""
    ass = a.associator_table()
    n = a.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                u = ass.get((i, j, k))
                if not _cancel(u, ass.get((j, i, k))) or not _cancel(u, ass.get((i, k, j))):
                    return (i, j, k)
    return None


def check_flexible(a: Algebra) -> bool:
    """(x,y,x) = 0, via the linearization (x,y,z) + (z,y,x) = 0 on basis triples."""
    ass = a.associator_table()
    return all(_cancel(u, ass.get((k, j, i))) for (i, j, k), u in ass.items())


def check_associative(a: Algebra) -> bool:
    return find_nonassociative_triple(a) is None


def find_nonassociative_triple(a: Algebra) -> Optional[tuple[int, int, int]]:
    """First basis triple with nonzero associator, or None when associative."""
    return next(iter(a.associator_table()), None)
