"""Lie multiplicative derivations and their splitting into derivation + center map.

A map D (not assumed additive) satisfying D([x,y]) = [D(x),y] + [x,D(y)] is
represented in closed form (`MapSpec`: a linear part plus finitely many
polynomial central terms).  `decompose` splits such a map into an additive
derivation `delta` (a matrix) and a center-valued residual `tau` vanishing on
commutators.  `decompose` decides the Lie law itself and reads delta off the
map in closed form, delta = L' - sum_i Z_i(P_jj L' P_ii): L' is the linear part
with the terms' degree-1 parts folded in, and Z_i takes the central element
matched on the corner opposite R_ii (the proof is in `decompose`).  Corner
conditions (1)-(4) remain the caller's; a failing corner hypothesis surfaces
as NoSplitError, and the split's self-checks are verdicts, never raises.

Verification policy: every check on a MapSpec is "exact".  `lie_defect`
decides the Lie law: its degree >= 2 part on the apolar norm of the central
terms, and its degree-1 part, a linear map, on Leibniz rows, once per map
(`MapSpec.lie_law` keeps the answer).  The corner hypotheses are exact for
every MapSpec (a term adds a multiple of P(z) to P(D(a))).  Nothing is drawn
from a `SampleBudget`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .algebra import Algebra, Element, commutator
from .errors import (
    AlgebraMismatchError,
    LieLawViolatedError,
    NormalizationFailedError,
    NoSplitError,
    NotCentralError,
    NotDerivationError,
)
from .linalg import Matrix, Record, Vec, combine, dot, vec_add, vec_scale, zero_vec
from .peirce import Check, PeirceContext
from .structure import _leibniz_failure, center, commutator_subspace, is_derivation

_ZERO = Fraction(0)


class SampleBudget(Record):
    """Seed and sample counts, taken for a uniform call shape: `liederiv` draws
    nothing from them, and `catalog.random_lie_derivation` reads the seed."""

    seed: int
    pair_samples: int = 20
    element_samples: int = 20

    def __post_init__(self):
        if self.pair_samples < 1 or self.element_samples < 1:
            raise ValueError("sample counts must be at least 1")


class CentralTerm(Record):
    """One nonlinear contribution a -> poly(functional . a) * central."""

    functional: Vec
    poly: tuple[Fraction, ...]  # coefficient at index d multiplies s**d
    central: Vec

    @property
    def is_effective(self) -> bool:
        """False when the term is inert: zero polynomial, target or functional."""
        return any(self.poly) and any(self.central) and any(self.functional)

    def eval_scalar(self, s: Fraction) -> Fraction:
        return dot(self.poly, [s ** d for d in range(len(self.poly))])


class MapSpec(Record):
    """Closed-form map: D(a) = linear . a + sum_t poly_t(functional_t . a) central_t.

    Central elements are verified central and polynomials have zero constant
    term at construction, so D(0) = 0 holds for every instance.
    """

    algebra: Algebra
    linear: Matrix
    terms: tuple[CentralTerm, ...] = ()

    def __post_init__(self):
        n = self.algebra.dim
        if self.linear.nrows != n or self.linear.cols != n:
            raise ValueError("linear part must be dim x dim")
        cen = center(self.algebra)
        for t in self.terms:
            if len(t.functional) != n or len(t.central) != n:
                raise ValueError("central term has wrong dimensions")
            if t.poly and t.poly[0] != 0:
                raise ValueError("central-term polynomial must have zero constant term")
            if not cen.contains_vector(t.central):
                raise NotCentralError(
                    f"term target {Element(self.algebra, t.central)!r} is not central"
                )

    @cached_property
    def lie_law(self) -> tuple[Matrix, str | None]:
        """`lie_defect(self)`, decided once per map and kept outside equality."""
        return lie_defect(self)

    @property
    def is_identically_zero(self) -> bool:
        """A zero linear part, and every term inert (zero polynomial, target, or functional)."""
        return self.linear.is_zero() and not any(t.is_effective for t in self.terms)

    def eval_vec(self, v: Vec) -> Vec:
        values = [t.eval_scalar(dot(t.functional, v)) for t in self.terms]
        return vec_add(self.linear.apply(v),
                       combine(values, [t.central for t in self.terms], self.algebra.dim))

    def __call__(self, a: Element) -> Element:
        if a.algebra is not self.algebra and a.algebra != self.algebra:
            raise AlgebraMismatchError("element belongs to a different algebra")
        return Element(self.algebra, self.eval_vec(a.coeffs))

    def scale(self, c) -> "MapSpec":
        c = Fraction(c)
        return MapSpec(self.algebra, self.linear.scale(c),
                       tuple(CentralTerm(t.functional, tuple(c * p for p in t.poly), t.central)
                             for t in self.terms))


def _pair_label(alg: Algebra, i: int, j: int) -> str:
    return f"x={alg.label(i)}, y={alg.label(j)}"


def lie_defect(d: MapSpec) -> tuple[Matrix, str | None]:
    """(L', witness): decide the Lie law of d exactly; the witness is None when it holds.

    Write D(a) = L a + sum_t p_t(f_t . a) z_t, p_t = sum_k a_tk s^k, z_t central.
    The terms drop out of [D x, y] + [x, D y], and [sx, ty] = st [x, y], so the
    Lie defect at (sx, ty) is st B'(x, y) + sum_{k >= 2} (st)^k P_k([x, y]), and
    over Q each coefficient must vanish on its own.  B' is the Leibniz defect over
    [ , ] of the returned L' = L + sum_t a_t1 z_t f_t^T, decided on the Leibniz
    rows of `Algebra.commutator_table`; B' is bilinear and antisymmetric, so its
    first failing pair i < j is the first failing basis pair, row-major.
    With M_t[i][j] = f_t . [b_i, b_j], P_k([x, y]) = sum_t a_tk (x^T M_t y)^k z_t.
    The apolar inner product <p, q> = p(d/dx, d/dy) q is positive definite, and
    <(x^T A y)^k, (x^T B y)^k> = (k!)^2 h_k(A^T B), h_k the complete homogeneous
    symmetric polynomial of the eigenvalues: the derivatives pair the x- and the
    y-factors by two permutations, whose sum is k! sum over pi in S_k of the
    product of tr((A^T B)^|c|) over the cycles c of pi.  So P_k = 0 iff
    N_k = sum_{s,t} a_sk a_tk (z_s . z_t) h_k(M_s^T M_t) = 0, with h_k from
    Newton's identities r h_r = sum_{i<=r} tr(P^i) h_{r-i}; the integer table's
    common scale multiplies N_k by a positive constant.  A term whose functional
    vanishes on `commutator_subspace` has M_t = 0 and is skipped first.  The
    witness of a nonzero N_k is the first basis pair, row-major, with a nonzero
    Lie defect, else the failing degree: the nonzero norm proves the failure.
    The degree >= 2 part is decided first.
    """
    alg, n, linear = d.algebra, d.algebra.dim, d.linear
    span = commutator_subspace(alg).basis
    live = [t for t in d.terms if t.is_effective and any(dot(t.functional, c) for c in span)]
    mats = [Matrix(tuple(tuple(sum((t.functional[k] * x for k, x in cell), _ZERO) for cell in row)
                         for row in alg.commutator_table()), n) for t in live]
    norms = [_ZERO] * max((len(t.poly) for t in live), default=0)
    for s, ms in zip(live, mats):
        if len(s.poly) > 1:
            linear += Matrix(tuple(vec_scale(s.poly[1] * z, s.functional) for z in s.central), n)
        for t, mt in zip(live, mats):
            top, w = min(len(s.poly), len(t.poly)), dot(s.central, t.central)
            if top < 3 or not w:
                continue
            power = prod = Matrix.from_cols(ms.rows, n) * mt
            traces, h = [], [Fraction(1)]
            for r in range(1, top):
                power = power * prod if r > 1 else power
                traces.append(sum(power.rows[i][i] for i in range(n)))
                h.append(sum(traces[i] * h[r - 1 - i] for i in range(r)) / r)
                norms[r] += s.poly[r] * t.poly[r] * w * h[r]
    degree = next((k for k in range(2, len(norms)) if norms[k]), None)
    if degree is None:
        bad = _leibniz_failure(alg, linear, "commutator")
        return linear, bad and _pair_label(alg, *bad)
    for i in range(n):
        for j in range(n):
            x, y = alg.basis_element(i), alg.basis_element(j)
            if d(commutator(x, y)) != commutator(d(x), y) + commutator(x, d(y)):
                return linear, _pair_label(alg, i, j)
    return linear, f"degree-{degree} part of the central terms is nonzero on commutators"


def check_lie_law(d: MapSpec, budget: SampleBudget) -> Check:
    """D([x,y]) = [D(x),y] + [x,D(y)], exact for every MapSpec: the verdict and
    witness of `lie_defect`.  `budget` is taken for a uniform call shape;
    nothing is drawn from it.
    """
    witness = d.lie_law[1]
    return Check("lie-law", witness is None, "exact", witness=witness)


def inner_f(algebra: Algebra, y: Element, z: Element) -> Matrix:
    """Inner correction [L_y,L_z] + [L_y,R_z] + [R_y,R_z].

    Operators compose left to right here (x S T means T(S(x))), so the value at
    x is z(yx) - y(zx) + (yx)z - y(xz) + (xy)z - (xz)y, taken with `mul_vec` on
    each basis vector.  In an alternative algebra the result is a derivation;
    that is re-verified and failure raises.
    """
    mul, y, z = algebra.mul_vec, y.coeffs, z.coeffs
    cols = []
    for k in range(algebra.dim):
        x = algebra.basis_vec(k)
        yx, xy, zx, xz = mul(y, x), mul(x, y), mul(z, x), mul(x, z)
        cols.append(combine((1, -1, 1, -1, 1, -1), (mul(z, yx), mul(y, zx), mul(yx, z),
                                                    mul(y, xz), mul(xy, z), mul(xz, y)),
                            algebra.dim))
    f = Matrix.from_cols(cols, algebra.dim)
    if not is_derivation(algebra, f):
        raise NotDerivationError("inner correction fails the Leibniz rule "
                                 "(is the algebra alternative?)")
    return f


class HypothesesReport(Record):
    a: Check
    b: Check

    @property
    def both_hold(self) -> bool:
        return self.a.ok and self.b.ok


def check_hypotheses(ctx: PeirceContext, d: MapSpec, budget: SampleBudget) -> HypothesesReport:
    """Corner hypotheses: e2 D(R_11) e2 inside Z e2, and e1 D(R_22) e1 inside Z e1.

    Exact on the corner basis: a term adds a multiple of P(z_t), which lies in
    the target P(Z), so the containment is that of the linear part.  P(Z) is
    read off `ctx.central_splits`.  `budget` is accepted for a uniform call
    shape; nothing is drawn from it.
    """
    alg = ctx.algebra
    n = alg.dim
    checks = []
    for which, i in (("a", 0), ("b", 1)):
        other = 1 - i
        split = ctx.central_splits[i]
        ok, witness = True, None
        for v in ctx.spaces[i][i].basis:
            img = ctx.proj[other][other].apply(d.eval_vec(v))
            if any(split.reduce_vector(img + zero_vec(n))[:n]):
                ok, witness = False, (f"a{i+1}{i+1}={Element(alg, v)!r} -> corner "
                                      f"{Element(alg, img)!r} outside Z*e{other+1}")
                break
        checks.append(Check(f"hypothesis-{which}", ok, "exact", witness=witness))
    return HypothesesReport(checks[0], checks[1])


def normalize_at_idempotent(ctx: PeirceContext, d: MapSpec) -> tuple[MapSpec, Element, Matrix]:
    """Subtract the inner correction built from the off-diagonal parts of D(e1).

    Returns (D', y, f) with D' = D - f, y the off-diagonal part of D(e1), and
    f the inner correction at (y, -e1).  Postcondition, checked exactly:
    D'(e1) and D'(e2) are central.
    """
    alg = ctx.algebra
    de1 = d(ctx.e1)
    y = ctx.component(de1, 0, 1) + ctx.component(de1, 1, 0)
    f = inner_f(alg, y, -ctx.e1)
    shifted = MapSpec(alg, d.linear - f, d.terms)
    cen = center(alg)
    for e, name in ((ctx.e1, "e1"), (ctx.e2, "e2")):
        img = shifted.eval_vec(e.coeffs)
        if not cen.contains_vector(img):
            raise NormalizationFailedError(
                f"D'({name}) = {Element(alg, img)!r} is not central; "
                "the map is not a Lie derivation or corner conditions fail"
            )
    return shifted, y, f


def split_diagonal(ctx: PeirceContext, c: Element, side: int) -> tuple[Element, Element]:
    """Write a diagonal-corner value c as b + z, b in R_ii, z central.

    For side 1 the central part is pinned by matching the (2,2) corner
    (`PeirceContext.central_part`); the solution must exist (else NoSplit: the
    corner hypothesis fails) and be unique (else NonUnique: corner conditions
    (2)/(3) fail).
    """
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    zel = Element(ctx.algebra, ctx.central_part(side - 1, c.coeffs))
    b = c - zel
    if not ctx.spaces[side - 1][side - 1].contains_vector(b.coeffs):
        raise NoSplitError(f"residue {b!r} does not lie in the diagonal corner")
    return b, zel


class DecompositionResult(Record):
    """Derivation part, center-valued residual, and the verification checks."""

    algebra: Algebra
    delta: Matrix
    tau: MapSpec
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def decompose(ctx: PeirceContext, d: MapSpec, budget: SampleBudget) -> DecompositionResult:
    """Split a Lie multiplicative derivation as delta + tau, delta in closed form.

    `decompose` decides the Lie law itself (`lie_defect`) and raises
    LieLawViolatedError on a map that breaks it.  Corner conditions (1)-(4)
    remain the caller's.  A failing corner hypothesis surfaces as NoSplitError,
    and a center that the opposite corner does not separate as
    NonUniqueSplitError.  The self-checks are returned as exact verdicts, each
    naming its first witness when it fails.  `budget` is taken for a uniform
    call shape; nothing is drawn from it.

    delta = L' - sum_i Z_i(P_jj L' P_ii), j = 1 - i, where L' is the linear part
    with the terms' degree-1 parts folded in (`lie_defect`), and Z_i(u) is the
    central z with P_jj z = P_jj u (`PeirceContext.central_part`).  This is the
    paper's delta:
    - Let D = delta0 + tau0 be a split.  tau0(s a) is central for every s, and
      zero when a is a commutator; its coefficient of s is tau0'(a), so
      tau0' = L' - delta0 is linear, central-valued and zero on the commutator
      span C.
    - Take w in R_ii.  delta0(w) = delta0(e_i) w + e_i delta0(w), and by the
      Peirce relations neither term has an R_jj component.  So
      P_jj L' w = P_jj tau0'(w), and Z_i returns tau0'(w).  It is unique when
      P_jj is injective on Z; otherwise NonUniqueSplitError is raised.
    - Take w in R_ij with i != j.  Then w = [e_i, w] is a commutator, so
      tau0'(w) = 0.
    - Hence tau0' = sum_i Z_i(P_jj L' P_ii), and the formula returns delta0
      whenever a split exists.  The inner correction that normalizes D at e1
      in the paper's construction (`normalize_at_idempotent`) cancels out.
    """
    alg, n = ctx.algebra, ctx.algebra.dim
    linear, witness = d.lie_law
    if witness is not None:
        raise LieLawViolatedError(f"the map breaks the Lie law (witness {witness})")

    # column k of tau' is sum_i Z_i(P_jj L' P_ii b_k); P_ii b_k is column k of P_ii
    cols = [zero_vec(n)] * n
    for i in range(2):
        for k in range(n):
            if any(w := ctx.proj[i][i].col(k)):
                cols[k] = vec_add(cols[k], ctx.central_part(i, linear.apply(w)))
    tau1 = Matrix.from_cols(cols, n)
    delta = linear - tau1
    tau = MapSpec(alg, d.linear - delta, d.terms)

    # -- verification: the first witness of each failing verdict --
    pair = _leibniz_failure(alg, delta)
    cen = center(alg)
    col = next((k for k in range(n) if not cen.contains_vector(tau.linear.col(k))), None)
    # tau's degree >= 2 part vanishes on commutators (`lie_defect`), and its degree-1 part is tau'
    vec = next((c for c in commutator_subspace(alg).basis if any(tau1.apply(c))), None)
    return DecompositionResult(alg, delta, tau, (
        Check("delta-leibniz", pair is None, "exact", witness=pair and _pair_label(alg, *pair)),
        Check("tau-central", col is None, "exact",
              witness=None if col is None else f"tau({alg.label(col)}) off the center"),
        Check("tau-kills-commutators", vec is None, "exact",
              witness=vec and f"commutator-span vector {Element(alg, vec)!r}")))


def compose(algebra: Algebra, delta: Matrix, terms: tuple[CentralTerm, ...] = ()) -> MapSpec:
    """Assemble delta + tau as a MapSpec, validating both halves.

    delta must satisfy the Leibniz rule, and every nonlinear term must be
    central (checked by MapSpec).  The Lie defect of delta + terms at (x, y) is
    then terms([x, y]), so `lie_defect` decides that the terms vanish on
    commutators.
    """
    if not is_derivation(algebra, delta):
        raise NotDerivationError("linear part fails the Leibniz rule on a basis pair")
    d = MapSpec(algebra, delta, tuple(terms))
    witness = d.lie_law[1]
    if witness is not None:
        raise LieLawViolatedError(
            f"central terms do not vanish on commutators (witness {witness}); the composed "
            "map would break the Lie product rule"
        )
    return d
