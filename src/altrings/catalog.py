"""Constructors for the stock algebras and random test-input generators.

The catalog covers the associative matrix algebras, the eight-dimensional
vector-matrix algebra (the split octonions), doubled algebras built by the
Cayley-Dickson recipe, and direct sums.  Recipe strings give the CLI a
reproducible, serializable way to name these.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import chain

from . import liederiv, sampling  # lazy: only random_lie_derivation runs them
from .algebra import Algebra, Element
from .errors import InputError
from .jsonio import parse_rational
from .linalg import Matrix, Record, combine, dot, fvec, zero_vec
from .structure import (IdempotentKind, center, commutator_annihilator, derivation_algebra,
                        verify_idempotent)

_Z = Fraction(0)
_O = Fraction(1)


def matrix_algebra(n: int) -> Algebra:
    """Full n x n matrix algebra on the matrix units E_pq (row-major order)."""
    if n < 1:
        raise ValueError("matrix algebra needs n >= 1")
    dim = n * n
    idx = lambda p, q: p * n + q
    e = lambda k: tuple(_O if t == k else _Z for t in range(dim))
    # E_pq E_qs = E_ps; every other product of matrix units is zero
    products = {(idx(p, q), idx(q, s)): e(idx(p, s))
                for p in range(n) for q in range(n) for s in range(n)}
    unit = [_Z] * dim
    for p in range(n):
        unit[idx(p, p)] = _O
    labels = [f"E{p+1}{q+1}" for p in range(n) for q in range(n)]
    return Algebra(products, unit, labels)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def zorn() -> Algebra:
    """Vector-matrix algebra: scalar diagonal, 3-vector corners.

    Elements (a, v; w, b) multiply as
    (a1 a2 + v1.w2,  a1 v2 + b2 v1 - w1 x w2;  a2 w1 + b1 w2 + v1 x v2,  b1 b2 + w1.v2).
    Basis order: e1, u1, u2, u3, v1, v2, v3, e2.
    """
    def unpack(c):
        return c[0], c[1:4], c[4:7], c[7]

    def mul(c1, c2):
        a1, v1, w1, b1 = unpack(c1)
        a2, v2, w2, b2 = unpack(c2)
        a = a1 * a2 + dot(v1, w2)
        v = tuple(a1 * x + b2 * y - z for x, y, z in zip(v2, v1, _cross(w1, w2)))
        w = tuple(a2 * x + b1 * y + z for x, y, z in zip(w1, w2, _cross(v1, v2)))
        b = b1 * b2 + dot(w1, v2)
        return (a,) + v + w + (b,)

    basis = [tuple(int(k == i) for k in range(8)) for i in range(8)]
    products = {(i, j): mul(basis[i], basis[j]) for i in range(8) for j in range(8)}
    unit = (_O, _Z, _Z, _Z, _Z, _Z, _Z, _O)
    labels = ["e1", "u1", "u2", "u3", "v1", "v2", "v3", "e2"]
    return Algebra(products, unit, labels)


def octonion_algebra(mus: Sequence) -> Algebra:
    """Iterated Cayley-Dickson doubling of the scalars; three parameters give a dim-8 algebra.

    A step doubles A, whose involution is diag(1, -1, ..., -1), by
    (a,b)(c,d) = (ac + mu conj(d) b, da + b conj(c)).  With s_0 = 1 and
    s_k = -1 for k > 0, each basis product is one signed product of A:
    (b_i,0)(b_j,0) = (b_i b_j, 0), (b_i,0)(0,b_j) = (0, b_j b_i),
    (0,b_i)(b_j,0) = (0, s_j b_i b_j) and (0,b_i)(0,b_j) = (mu s_j b_j b_i, 0).
    """
    products, n = {(0, 0): (_O,)}, 1
    for mu in mus:
        mu = Fraction(mu)
        if mu == 0:
            raise ValueError("doubling parameter must be nonzero")
        zero, doubled = zero_vec(n), {}
        for (p, q), v in products.items():  # v = b_p b_q
            neg = tuple(-x for x in v)
            doubled[p, q] = v + zero
            doubled[q, n + p] = zero + v
            doubled[n + p, q] = zero + (v if q == 0 else neg)
            doubled[n + q, n + p] = tuple(mu * x for x in (v if p == 0 else neg)) + zero
        products, n = doubled, 2 * n
    labels = ["1"] if n == 1 else [f"e{k}" for k in range(n)]
    return Algebra(products, (_O,) + zero_vec(n - 1), labels)


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """Componentwise product on the concatenated basis."""
    n, m = a.dim, b.dim
    products = {(i, j): v + zero_vec(m) for (i, j), v in a.products().items()}
    products.update(((n + i, n + j), zero_vec(n) + v) for (i, j), v in b.products().items())
    unit = tuple(a.unit) + tuple(b.unit)
    labels = None
    if a.labels and b.labels:
        labels = [f"L.{s}" for s in a.labels] + [f"R.{s}" for s in b.labels]
    return Algebra(products, unit, labels)


def find_idempotent(a: Algebra) -> Element | None:
    """The first nontrivial idempotent among the basis vectors b, then the midpoints (1+b)/2."""
    basis = [a.basis_vec(i) for i in range(a.dim)]
    halves = (Fraction(1, 2),) * 2
    midpoints = (combine(halves, (a.unit, b), a.dim) for b in basis if a.mul_vec(b, b) == a.unit)
    candidates = (Element(a, v) for v in chain(basis, midpoints))
    nontrivial = IdempotentKind.NONTRIVIAL
    return next((e for e in candidates if verify_idempotent(a, e) is nontrivial), None)


def random_lie_derivation(a: Algebra, budget: liederiv.SampleBudget,
                          central_terms: int = 1) -> liederiv.MapSpec:
    """Seeded random derivation-plus-central-term map, assembled via `compose`.

    The linear part is a random combination of the derivation-algebra basis;
    each nonlinear term is poly(functional . a) * z with the functional the
    first basis covector of `commutator_annihilator` (zero if there is none),
    poly without constant term, and z a random central element.
    """
    rng = sampling.rng_for(budget.seed)
    n, ders = a.dim, derivation_algebra(a)
    coeffs = sampling.random_vector(rng, len(ders))
    linear = Matrix(tuple(combine(coeffs, [d.rows[r] for d in ders], n) for r in range(n)), n)
    terms = []
    if central_terms:
        ann = commutator_annihilator(a)
        ell = ann.basis[0] if ann.dim else zero_vec(n)
        cen = center(a)
        for _ in range(central_terms):
            z = combine(sampling.random_vector(rng, cen.dim), cen.basis, a.dim)
            terms.append(liederiv.CentralTerm(fvec(ell), sampling.random_poly(rng), fvec(z)))
    return liederiv.compose(a, linear, tuple(terms))


class ConstructionRecipe(Record):
    """A recipe: its kind and the arguments of that kind's entry in `_BUILDERS`."""
    kind: str
    args: tuple = ()

    @property
    def dim(self) -> int:  # of build(self), read off the recipe without building it
        return _BUILDERS[self.kind][1](*self.args)

    def describe(self) -> str:
        if self.kind == "sum":
            return "sum(" + "|".join(p.describe() for p in self.args) + ")"
        return f"{self.kind}:{','.join(map(str, self.args))}" if self.args else self.kind


_ALIASES = {"m2m2": "sum(matrix:2|matrix:2)", "zornq": "sum(zorn|matrix:1)"}


def parse_recipe(text: str) -> ConstructionRecipe:
    """Recipe grammar: zorn | matrix:N | cayley-dickson:m1,m2,... | sum(r1|r2) | m2m2 | zornq."""
    text = text.strip()
    low = text.lower()
    if low in _ALIASES:
        return parse_recipe(_ALIASES[low])
    if low == "zorn":
        return ConstructionRecipe("zorn")
    if low.startswith("matrix:"):
        arg = text.split(":", 1)[1].strip()
        try:
            if not (arg.isascii() and arg.isdigit()):
                raise ValueError(arg)
            n = int(arg)
        except ValueError:  # also digits past int_max_str_digits
            raise InputError(f"bad matrix recipe {text!r}")
        if n < 1:
            raise InputError("matrix recipe needs n >= 1")
        return ConstructionRecipe("matrix", (n,))
    if low.startswith(("cayley-dickson:", "cd:")):
        arg = text.split(":", 1)[1]
        try:
            mus = tuple(parse_rational(s.strip()) for s in arg.split(","))
        except InputError:
            raise InputError(f"bad doubling parameters {arg!r}")
        if not mus or any(m == 0 for m in mus):
            raise InputError("doubling parameters must be nonzero")
        return ConstructionRecipe("cayley-dickson", mus)
    if low.startswith("sum(") and text.endswith(")"):
        inner, depth, cuts = text[4:-1], 0, []
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "|" and depth == 0:
                cuts.append(i)
        if len(cuts) != 1:
            raise InputError(f"sum recipe needs exactly two parts: {text!r}")
        parts = inner[:cuts[0]], inner[cuts[0] + 1:]
        return ConstructionRecipe("sum", tuple(map(parse_recipe, parts)))
    raise InputError(f"unknown recipe {text!r}")


# kind -> (builder, dimension), each called with the recipe's args
_BUILDERS = {
    "matrix": (matrix_algebra, lambda n: n * n),
    "zorn": (zorn, lambda: 8),
    "cayley-dickson": (lambda *mus: octonion_algebra(mus), lambda *mus: 2 ** len(mus)),
    "sum": (lambda left, right: direct_sum(build(left), build(right)),
            lambda left, right: left.dim + right.dim),
}


def build(recipe: ConstructionRecipe) -> Algebra:
    return _BUILDERS[recipe.kind][0](*recipe.args)


def canonical_idempotent(recipe: ConstructionRecipe, algebra: Algebra) -> Element:
    """The unit of the first summand for a sum; otherwise the first nontrivial idempotent
    `find_idempotent` meets, which is E11 on a matrix algebra and e1 on zorn."""
    if recipe.kind == "sum":
        left_dim = recipe.args[0].dim
        return Element(algebra, tuple(algebra.unit[:left_dim]) + zero_vec(algebra.dim - left_dim))
    found = find_idempotent(algebra)
    if found is None:
        raise InputError(f"no nontrivial idempotent found for recipe {recipe.describe()!r}")
    return found
