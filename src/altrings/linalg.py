"""Exact linear algebra over the rationals, computed on integers.

Values enter as `fractions.Fraction`s or ints and leave as normalized
`Fraction`s; there are no tolerances anywhere. Inside, the work runs on
integers. Products: `int_vec` writes a rational vector as integer numerators
over one common denominator, the product is taken in `int`, and `frac_vec`
turns the integer result back into one `Fraction` per nonzero entry;
`Matrix.apply` works this way on an integer form of the matrix built once per
`Matrix`, and `Algebra.mul_vec` does the same with the structure constants.
Elimination: `rref`, `kernel`, `solve`, `invert` and `Subspace.span` all run
one fraction-free Gauss-Jordan routine (Bareiss, Math. Comp. 22, 1968) on
sparse `{col: int}` rows of nonzero entries, kept primitive by dividing out
their content, so tall sparse systems cost what their nonzeros cost and a
`Fraction` is built only when a reduced row is emitted. Membership:
`Subspace.reduce_vector` subtracts v's pivot combination, on an integer basis
cached per `Subspace`. The reduced row-echelon form of a row space is unique,
so results (and every report built on them) do not depend on how rows were
stored, ordered or scaled; subspaces keep that canonical basis, and equality
is syntactic, field by field, in the one `__eq__` that every `Record` shares.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import attrgetter

Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_denominator = attrgetter("denominator")


class Record:
    """Frozen record: a subclass's annotated names are its fields, in order, and its class-level
    values their defaults; a `cached_property` keeps its value in `__dict__`, outside equality."""

    def __init_subclass__(cls):
        cls._fields = names = tuple(cls.__annotations__)
        cls._defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        cls._key = staticmethod(attrgetter(*names) if len(names) > 1  # a tuple also for one name
                                else lambda rec: tuple(getattr(rec, n) for n in names))
        cls._post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if kwargs or len(args) != len(cls._fields):
            rest, values = cls._fields[len(args):], {**cls._defaults, **kwargs}
            if args[len(cls._fields):] or not kwargs.keys() <= set(rest) <= values.keys():
                raise TypeError(f"bad arguments for {cls.__qualname__}{cls._fields}")
            args += tuple(values[n] for n in rest)
        for i, name in enumerate(cls._fields):
            object.__setattr__(self, name, args[i])  # reading `self.__dict__` would slow reads
        if cls._post_init:
            self.__post_init__()

    def __eq__(self, other):
        return self._key(self) == self._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"


def fvec(items: Iterable) -> Vec:
    """Coerce an iterable of ints/strings/Fractions to a rational vector;
    Fractions are kept as they are."""
    return tuple(x if type(x) is Fraction else Fraction(x) for x in items)


def zero_vec(n: int) -> Vec:
    return (_ZERO,) * n


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c: Fraction, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def combine(coeffs: Iterable, vectors: Iterable[Sequence], dim: int) -> Vec:
    """The linear combination sum_i coeffs[i] * vectors[i] in Q^dim."""
    out = [_ZERO] * dim
    for c, v in zip(coeffs, vectors):
        if c:
            for i, x in enumerate(v):
                if x:
                    out[i] += c * x
    return tuple(out)


def dot(u: Iterable, v: Iterable) -> Fraction:
    """The sum of u[i] * v[i]."""
    return sum((x * y for x, y in zip(u, v) if x and y), _ZERO)


def is_zero_vec(a: Vec) -> bool:
    return not any(a)


def int_vec(v: Iterable) -> tuple[list[tuple[int, int]], int]:
    """The nonzero entries of a rational vector as (index, numerator) pairs over
    one common denominator: v[i] == num / den for each pair (i, num)."""
    ratios = [(i, x.as_integer_ratio()) for i, x in enumerate(v) if x]
    den = lcm(*(d for _, (_, d) in ratios))
    return [(i, n * (den // d)) for i, (n, d) in ratios], den


def frac_vec(nums: Sequence[int], den: int) -> Vec:
    """The rational vector nums / den, one normalized Fraction per nonzero entry."""
    if den == 1:
        return tuple(Fraction(x) if x else _ZERO for x in nums)
    return tuple(Fraction(x, den) if x else _ZERO for x in nums)


class Matrix(Record):
    """Immutable dense matrix; `cols` is explicit so 0-row stacks keep shape."""

    rows: tuple[Vec, ...]
    cols: int

    def __post_init__(self):
        for r in self.rows:
            if len(r) != self.cols:
                raise ValueError("ragged matrix rows")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        frozen = tuple(fvec(r) for r in rows)
        if cols is None:
            if not frozen:
                raise ValueError("cols required for a 0-row matrix")
            cols = len(frozen[0])
        return cls(frozen, cols)

    @classmethod
    def from_cols(cls, cols: Sequence[Vec], nrows: int) -> "Matrix":
        """The matrix with these columns; no columns give nrows empty rows."""
        if any(len(c) != nrows for c in cols):
            raise ValueError("ragged matrix columns")
        return cls(tuple(zip(*cols)) if cols else ((),) * nrows, len(cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)), n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls(((_ZERO,) * ncols,) * nrows, ncols)

    @cached_property
    def _int_cols(self) -> tuple[tuple, int]:
        """Columns as nonzero (row, numerator) pairs over one common denominator."""
        cols = self.cols
        pairs, den = int_vec(x for row in self.rows for x in row)
        out = [[] for _ in range(cols)]
        for flat, num in pairs:
            r, c = divmod(flat, cols)
            out[c].append((r, num))
        return tuple(map(tuple, out)), den

    def apply(self, v: Sequence[Fraction]) -> Vec:
        """Matrix times column vector, computed on integers."""
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        cols, dm = self._int_cols
        pairs, dv = int_vec(v)
        out = [0] * self.nrows
        for c, x in pairs:
            for r, m in cols[c]:
                out[r] += m * x
        return frac_vec(out, dm * dv)

    def col(self, j: int) -> Vec:
        return tuple(row[j] for row in self.rows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Matrix product, one integer `apply` per column of `other`."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        return Matrix.from_cols([self.apply(other.col(j)) for j in range(other.cols)], self.nrows)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols or self.nrows != other.nrows:
            raise ValueError("shape mismatch in matrix sum")
        return Matrix(tuple(vec_add(a, b) for a, b in zip(self.rows, other.rows)), self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols or self.nrows != other.nrows:
            raise ValueError("shape mismatch in matrix difference")
        return Matrix(tuple(vec_sub(a, b) for a, b in zip(self.rows, other.rows)), self.cols)

    def __neg__(self) -> "Matrix":
        return Matrix(tuple(tuple(-x for x in r) for r in self.rows), self.cols)

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix(tuple(vec_scale(c, r) for r in self.rows), self.cols)

    def is_zero(self) -> bool:
        return all(not x for r in self.rows for x in r)

    def sparse_rows(self) -> list[dict[int, Fraction]]:
        return [{c: x for c, x in enumerate(r) if x} for r in self.rows]

    def __repr__(self):
        body = "; ".join("[" + ", ".join(str(x) for x in r) + "]" for r in self.rows)
        return f"Matrix({self.nrows}x{self.cols}: {body})"


def stack(matrices: Sequence[Matrix], cols: int | None = None) -> Matrix:
    """Vertical concatenation; `cols` disambiguates an empty stack."""
    if matrices:
        cols = matrices[0].cols
        rows: list[Vec] = []
        for m in matrices:
            if m.cols != cols:
                raise ValueError("column mismatch in stack")
            rows.extend(m.rows)
        return Matrix(tuple(rows), cols)
    if cols is None:
        raise ValueError("cols required for an empty stack")
    return Matrix((), cols)


class SparseMatrix(Record):
    """Matrix given by `{col: value}` rows of its nonzero entries (tall sparse systems)."""

    rows: tuple[dict[int, Fraction], ...]
    cols: int

    @property
    def nrows(self) -> int:
        return len(self.rows)


def _primitive(row: dict[int, int]) -> None:
    """Divide a nonzero integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g != 1:
        for c in row:
            row[c] //= g


def _clear(dst: dict[int, int], p: int, src: dict[int, int]) -> None:
    """Cancel dst[p] against the row src, which holds its pivot src[p], in place:
    dst <- s*dst - t*src with t/s = dst[p]/src[p] in lowest terms and s > 0.
    Entries that cancel are dropped; a scaled row is made primitive again."""
    if len(src) == 1:
        del dst[p]
        return
    t, s = dst[p], src[p]
    g = gcd(t, s) if s > 0 else -gcd(t, s)
    t //= g
    s //= g
    if s != 1:
        for c in dst:
            dst[c] *= s
    for c, x in src.items():
        y = dst.get(c, 0) - t * x
        if y:
            dst[c] = y
        else:
            del dst[c]
    if s != 1 and dst:
        _primitive(dst)


def _eliminate(rows: Iterable[dict], ncols: int) -> list[tuple[int, dict[int, Fraction]]]:
    """Fraction-free Gauss-Jordan elimination on sparse rows of ints and
    Fractions, which it reads and never mutates.

    Each row is copied once, scaled to integers unless it holds only ints, and
    combined as s*r - t*q; it is divided by its content when it becomes a pivot
    row and whenever a combination scaled it, and no Fraction is built until a
    reduced row is emitted, divided by its pivot. Returns the nonzero rows of
    the unique RREF as (pivot column, row) pairs sorted by pivot; each row omits
    its pivot entry, an implicit 1, and is zero in every other pivot column.
    """
    piv: dict[int, dict[int, int]] = {}
    for row in rows:
        if len(row) == 1:
            row = dict.fromkeys(row, 1)  # a unit row, up to scale
        elif all(type(x) is int for x in row.values()):
            row = dict(row)  # an empty row is skipped below
        else:
            den = lcm(*map(_denominator, row.values()))
            row = {c: x.numerator * (den // x.denominator) for c, x in row.items()}
        for p in row.keys() & piv.keys():
            _clear(row, p, piv[p])
        if not row:
            continue
        _primitive(row)
        p = min(row)
        for other in piv.values():
            if p in other:
                _clear(other, p, row)
        piv[p] = row
        if len(piv) == ncols:
            break
    out = []
    for p in sorted(piv):
        row = piv[p]
        pv = row.pop(p)
        out.append((p, {c: Fraction(x, pv) for c, x in row.items()}))
    return out


def _dense(pivot: int, row: dict[int, Fraction], ncols: int) -> Vec:
    v = [_ZERO] * ncols
    v[pivot] = _ONE
    for c, x in row.items():
        v[c] = x
    return tuple(v)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form and pivot columns; the form is unique."""
    red = _eliminate(m.sparse_rows(), m.cols)
    rows = [_dense(p, r, m.cols) for p, r in red]
    rows += [zero_vec(m.cols)] * (m.nrows - len(red))
    return Matrix(tuple(rows), m.cols), tuple(p for p, _ in red)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel(m: Matrix | SparseMatrix) -> "Subspace":
    """Canonical basis of the right null space {x : m x = 0} of a Matrix or SparseMatrix."""
    red = _eliminate(m.rows if type(m) is SparseMatrix else m.sparse_rows(), m.cols)
    pivots = {p for p, _ in red}
    basis = {fc: {fc: _ONE} for fc in range(m.cols) if fc not in pivots}
    for p, row in red:
        for fc, x in row.items():
            basis[fc][p] = -x
    return Subspace._from_sparse(m.cols, basis.values())


def solve(m: Matrix, b: Sequence[Fraction]) -> Vec | None:
    """Some exact solution of m x = b, or None when inconsistent."""
    if len(b) != m.nrows:
        raise ValueError("right-hand side length mismatch")
    ncols = m.cols
    rows = m.sparse_rows()
    for row, x in zip(rows, b):
        if x:
            row[ncols] = Fraction(x)
    red = _eliminate(rows, ncols + 1)
    if red and red[-1][0] == ncols:
        return None
    x = [_ZERO] * ncols
    for p, row in red:
        x[p] = row.get(ncols, _ZERO)
    return tuple(x)


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    if m.nrows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.cols
    rows = m.sparse_rows()
    for i, row in enumerate(rows):
        row[n + i] = _ONE
    red = _eliminate(rows, 2 * n)
    if [p for p, _ in red] != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(tuple(tuple(r.get(n + j, _ZERO) for j in range(n)) for _, r in red), n)


class Subspace(Record):
    """Subspace of Q^n held as the unique reduced-echelon basis (no zero rows)."""

    ambient_dim: int
    basis: tuple[Vec, ...]

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = []
        for v in vectors:
            v = fvec(v)
            if len(v) != ambient_dim:
                raise ValueError("spanning vector has wrong length")
            rows.append({c: x for c, x in enumerate(v) if x})
        return cls._from_sparse(ambient_dim, rows)

    @classmethod
    def _from_sparse(cls, ambient_dim: int, rows: Iterable[dict[int, Fraction]]) -> "Subspace":
        red = _eliminate(rows, ambient_dim)
        return cls(ambient_dim, tuple(_dense(p, r, ambient_dim) for p, r in red))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim).rows)  # already reduced

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _int_basis(self) -> tuple[int, tuple[tuple[int, tuple], ...]]:
        """The basis over one common denominator: (den, rows), each row (pivot,
        nonzero (col, numerator) pairs) with row == numerators / den."""
        n = self.ambient_dim
        pairs, den = int_vec(x for row in self.basis for x in row)
        rows = [[] for _ in self.basis]
        for flat, num in pairs:
            r, c = divmod(flat, n)
            rows[r].append((c, num))
        return den, tuple((row[0][0], tuple(row)) for row in rows)

    def reduce_vector(self, v: Sequence[Fraction]) -> Vec:
        """Residue of v after elimination against the basis; zero iff v is a member.
        Each basis row is 1 at its own pivot and 0 at every other pivot, so the
        residue is v - sum_p v[p] row_p, computed on integers over `_int_basis`."""
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        pairs, dv = int_vec(v)
        den, rows = self._int_basis
        num = [0] * self.ambient_dim
        for i, x in pairs:
            num[i] = x
        w = [x * den for x in num]
        for p, row in rows:
            if t := num[p]:
                for c, x in row:
                    w[c] -= t * x
        return frac_vec(w, dv * den)

    def contains_vector(self, v: Sequence[Fraction]) -> bool:
        return is_zero_vec(self.reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains_vector(v) for v in other.basis)

    def __add__(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.span(self.ambient_dim, self.basis + other.basis)

    def __and__(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked combination system."""
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        k = self.dim
        if k == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        cols = self.basis + tuple(vec_scale(-1, b) for b in other.basis)
        combos = kernel(Matrix.from_cols(cols, self.ambient_dim))
        return Subspace.span(self.ambient_dim,
                             [combine(c[:k], self.basis, self.ambient_dim) for c in combos.basis])

    def image_under(self, m: Matrix) -> "Subspace":
        if m.cols != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.span(m.nrows, [m.apply(v) for v in self.basis])

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def column_space(m: Matrix) -> Subspace:
    return Subspace.span(m.nrows, [m.col(j) for j in range(m.cols)])


def restrict_map(m: Matrix, domain: Subspace) -> Matrix:
    """Columns are m applied to the domain's basis vectors."""
    return Matrix.from_cols([m.apply(v) for v in domain.basis], m.nrows)
