"""Lie multiplicative derivations and their splitting into derivation + center map.

A map D (not assumed additive) satisfying D([x,y]) = [D(x),y] + [x,D(y)] is
represented in closed form (`MapSpec`: a linear part plus finitely many
polynomial central terms).  `decompose` splits such a map into an additive
derivation `delta` (a matrix) and a center-valued residual `tau` vanishing on
commutators, following the corner construction: normalize D at the idempotent
with an inner correction taken from products, read off delta on the
off-diagonal corners directly, and strip the unique central part on the
diagonal corners; delta' at any element is that rule summed over its corner
components.

Verification policy: multilinear identities are decided exactly on basis
tuples.  A MapSpec passes the gate when `commutator_witness` is None: the
functional of every effective central term vanishes on the commutator span.
The terms are then central and kill commutators, so the Lie law is that of the
linear part, a derivation of the commutator product exactly when it is one, and
as R12 = [e1, R12] and R21 = [R21, e1] lie in that span, the corner
construction is linear on each corner up to central summands: every step is
decided on basis tuples or Leibniz rows, "exact".  The corner hypotheses are
exact for every MapSpec (a term adds a multiple of P(z) to P(D(a))).  MapSpecs
that fail the gate also get seeded random samples, "sampled".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .algebra import Algebra, Element
from .errors import (
    AlgebraMismatchError,
    InternalInvariantError,
    LieLawViolatedError,
    NonUniqueSplitError,
    NormalizationFailedError,
    NoSplitError,
    NotCentralError,
    NotDerivationError,
)
from .linalg import (
    Matrix,
    Record,
    Vec,
    combine,
    is_zero_vec,
    vec_add,
    vec_sub,
    zero_vec,
)
from .peirce import PeirceContext
from .report import Check
from .sampling import random_vector, rng_for
from .structure import _leibniz_failure, center, commutator_subspace, is_derivation

_ZERO = Fraction(0)


class SampleBudget(Record):
    """Seed and sample counts for the probabilistic side of the checks."""

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
        acc = _ZERO
        power = Fraction(1)
        for d, c in enumerate(self.poly):
            if d:
                power *= s
            if c:
                acc += c * power
        return acc


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

    @property
    def is_linear(self) -> bool:
        """True when every nonlinear term is inert (zero polynomial, target, or functional)."""
        return not any(t.is_effective for t in self.terms)

    @property
    def is_identically_zero(self) -> bool:
        return self.linear.is_zero() and self.is_linear

    def eval_vec(self, v: Vec) -> Vec:
        out = list(self.linear.apply(v))
        for t in self.terms:
            s = _ZERO
            for f, x in zip(t.functional, v):
                if f and x:
                    s += f * x
            val = t.eval_scalar(s)
            if val:
                for i, z in enumerate(t.central):
                    if z:
                        out[i] += val * z
        return tuple(out)

    def __call__(self, a: Element) -> Element:
        if a.algebra is not self.algebra and a.algebra != self.algebra:
            raise AlgebraMismatchError("element belongs to a different algebra")
        return Element(self.algebra, self.eval_vec(a.coeffs))

    def scale(self, c) -> "MapSpec":
        c = Fraction(c)
        return MapSpec(self.algebra, self.linear.scale(c),
                       tuple(CentralTerm(t.functional, tuple(c * p for p in t.poly), t.central)
                             for t in self.terms))


def commutator_witness(algebra: Algebra, terms: tuple[CentralTerm, ...]) -> Optional[Vec]:
    """A commutator-span basis vector on which some effective term's functional
    is nonzero, or None when every effective functional vanishes on the span.

    None is sufficient for the terms to vanish on every commutator, not
    necessary: effective terms whose sum vanishes there still give a witness.
    """
    effective = [t.functional for t in terms if t.is_effective]
    for c in commutator_subspace(algebra).basis:
        for f in effective:
            if sum((x * y for x, y in zip(f, c) if x and y), _ZERO):
                return c
    return None


def _sample_pairs(alg: Algebra, rng, count: int) -> list[tuple[Vec, Vec]]:
    """Basis pairs i != j (to a nonlinear map, [b_j, b_i] is another input than
    [b_i, b_j]), then `count` pairs drawn from `rng`."""
    n = alg.dim
    pairs = [(alg.basis_vec(i), alg.basis_vec(j)) for i in range(n) for j in range(n) if i != j]
    return pairs + [(random_vector(rng, n), random_vector(rng, n)) for _ in range(count)]


def check_lie_law(d: MapSpec, budget: SampleBudget) -> Check:
    """D([x,y]) = [D(x),y] + [x,D(y)].

    Exact for a MapSpec that passes the `commutator_witness` gate: its terms are
    central and vanish on commutators, so they drop out of both sides, and the
    linear part must be a derivation of the commutator product, decided on the
    Leibniz rows over `Algebra.commutator_table`; an antisymmetric defect fails
    first at a pair i < j. Otherwise basis pairs i != j plus sampled pairs,
    labeled "sampled".
    """
    alg = d.algebra
    if commutator_witness(alg, d.terms) is None:
        bad = _leibniz_failure(alg.commutator_table(), d.linear)
        return Check("lie-law", bad is None, "exact", witness=None if bad is None
                     else f"x={alg.label(bad[0])}, y={alg.label(bad[1])}")
    for x, y in _sample_pairs(alg, rng_for(budget.seed), budget.pair_samples):
        lhs = d.eval_vec(vec_sub(alg.mul_vec(x, y), alg.mul_vec(y, x)))
        dx, dy = d.eval_vec(x), d.eval_vec(y)
        rhs = vec_add(vec_sub(alg.mul_vec(dx, y), alg.mul_vec(y, dx)),
                      vec_sub(alg.mul_vec(x, dy), alg.mul_vec(dy, x)))
        if lhs != rhs:
            return Check("lie-law", False, "sampled",
                         witness=f"x={Element(alg, x)!r}, y={Element(alg, y)!r}")
    return Check("lie-law", True, "sampled")


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
    f = Matrix(tuple(zip(*cols)), algebra.dim)
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

    For side 1 the central part is pinned by matching the (2,2) corner; the
    solution must exist (else NoSplit: the corner hypothesis fails) and be
    unique (else NonUnique: corner conditions (2)/(3) fail).
    """
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    alg = ctx.algebra
    n = alg.dim
    system = ctx.central_splits[side - 1]
    if any(not any(row[:n]) for row in system.basis):
        raise NonUniqueSplitError(
            "central elements are not separated by the opposite corner; "
            "corner conditions (2)/(3) are violated"
        )
    residue = system.reduce_vector(ctx.proj[2 - side][2 - side].apply(c.coeffs) + zero_vec(n))
    if any(residue[:n]):
        raise NoSplitError(
            f"no central element matches the corner of {c!r}; "
            f"hypothesis {'a' if side == 1 else 'b'} is violated"
        )
    zel = Element(alg, tuple(-x for x in residue[n:]))
    b = c - zel
    if not ctx.spaces[side - 1][side - 1].contains_vector(b.coeffs):
        raise NoSplitError(f"residue {b!r} does not lie in the diagonal corner")
    return b, zel


class DecompositionResult(Record):
    """Derivation part, center-valued residual, the normalization data
    (y, z, f with f the inner correction at (y, z)), and the per-step
    verification checks."""

    algebra: Algebra
    delta: Matrix
    tau: MapSpec
    correction_y: Element
    correction_z: Element
    correction_f: Matrix
    normalized: MapSpec
    checks: tuple[Check, ...]
    budget: SampleBudget

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _delta_value(ctx: PeirceContext, shifted: MapSpec, i: int, j: int, v: Vec) -> Vec:
    """Construction rule for delta' on one Peirce component (raises on failure)."""
    alg = ctx.algebra
    img = shifted.eval_vec(v)
    if i != j:
        if not ctx.spaces[i][j].contains_vector(img):
            raise LieLawViolatedError(
                f"D'({Element(alg, v)!r}) = {Element(alg, img)!r} leaves corner "
                f"R{i+1}{j+1}; the map is not a Lie derivation"
            )
        return img
    off = vec_add(ctx.proj[0][1].apply(img), ctx.proj[1][0].apply(img))
    if not is_zero_vec(off):
        raise LieLawViolatedError(
            f"D'({Element(alg, v)!r}) has off-diagonal part {Element(alg, off)!r}; "
            "the map is not a Lie derivation"
        )
    b, _z = split_diagonal(ctx, Element(alg, img), i + 1)
    return b.coeffs


def _construction(ctx: PeirceContext, shifted: MapSpec, parts: list[list[list[Vec]]]) -> list[Vec]:
    """delta'(v_k) for each k, given the corner components parts[i][j][k] = P_ij v_k:
    the construction rule summed over the nonzero ones.  The components are taken
    corner by corner, so the first one that raises is the first in corner-major
    order."""
    values = [zero_vec(ctx.algebra.dim)] * len(parts[0][0])
    for i in range(2):
        for j in range(2):
            for k, part in enumerate(parts[i][j]):
                if any(part):
                    values[k] = vec_add(values[k], _delta_value(ctx, shifted, i, j, part))
    return values


def decompose(ctx: PeirceContext, d: MapSpec, budget: SampleBudget) -> DecompositionResult:
    """Split a Lie multiplicative derivation as delta + tau.

    Callers are expected to have checked the Lie law, corner conditions
    (1)-(4), and the corner hypotheses first; violations surface here as
    precondition errors from the construction steps.  Failures of the final
    verification raise InternalInvariantError: with honest inputs they cannot
    happen.  For a MapSpec that passes the `commutator_witness` gate the
    construction is linear on each corner up to central summands (R12 and R21
    lie in the commutator span), so delta' is read off the corner components of
    the basis vectors alone.
    """
    alg = ctx.algebra
    checks: list[Check] = []
    term_witness = commutator_witness(alg, d.terms)
    exact = term_witness is None

    shifted, y, f = normalize_at_idempotent(ctx, d)
    checks.append(Check("normalized-e1-central", True, "exact"))
    checks.append(Check("normalized-e2-central", True, "exact"))

    n = alg.dim
    # P_ij b_k is column k of P_ij
    cols = _construction(ctx, shifted, [[[p.col(k) for k in range(n)] for p in row]
                                        for row in ctx.proj])
    checks.append(Check("corner-images", True, "exact" if exact else "sampled",
                        detail="off-diagonal images stay in their corner; "
                               "diagonal images split as corner + center"))

    delta_prime = Matrix(tuple(zip(*cols)), n)
    delta = delta_prime + f

    tau = MapSpec(alg, d.linear - delta, d.terms)

    # -- verification --

    if not is_derivation(alg, delta):
        raise InternalInvariantError(
            "delta fails the Leibniz rule; either an internal bug or the input "
            "was not a genuine Lie derivation (run the Lie-law check)"
        )
    checks.append(Check("delta-leibniz", True, "exact"))

    rng = rng_for(budget.seed)
    for _ in range(0 if exact else budget.element_samples):
        v = random_vector(rng, n)
        parts = [[[p.apply(v)] for p in row] for row in ctx.proj]
        if _construction(ctx, shifted, parts)[0] != delta_prime.apply(v):
            raise InternalInvariantError(
                "matrix extension of delta disagrees with the corner construction "
                f"at {Element(alg, v)!r}"
            )
    checks.append(Check("delta-matches-construction", True, "exact" if exact else "sampled",
                        detail="corner components of the basis vectors; linear on each corner"
                        if exact else f"{budget.element_samples} random elements"))

    cen = center(alg)
    bad = next((k for k in range(n) if not cen.contains_vector(tau.linear.col(k))), None)
    checks.append(Check("tau-central", bad is None, "exact",
                        witness=None if bad is None else f"tau({alg.label(bad)}) off the center"))
    if bad is not None:
        raise InternalInvariantError("tau has a non-central linear column")

    # the linear part and every effective term vanish on the commutator span
    bad = next((c for c in commutator_subspace(alg).basis if any(tau.linear.apply(c))),
               None) or term_witness
    witness = None if bad is None else f"commutator-span vector {Element(alg, bad)!r}"
    checks.append(Check("tau-kills-commutators", witness is None, "exact", witness=witness))
    if witness is not None:
        raise InternalInvariantError(f"tau does not vanish on a commutator ({witness})")

    checks.append(Check("almost-additive", True, "exact",
                        detail="nonlinear defects land in the span of central targets"))

    return DecompositionResult(alg, delta, tau, y, -ctx.e1, f, shifted, tuple(checks), budget)


def compose(algebra: Algebra, delta: Matrix, terms: tuple[CentralTerm, ...] = ()) -> MapSpec:
    """Assemble delta + tau as a MapSpec, validating both halves.

    delta must satisfy the Leibniz rule; every nonlinear term must be central
    (checked by MapSpec) and must vanish on commutators, which
    `commutator_witness` decides from the term functionals.
    """
    if not is_derivation(algebra, delta):
        raise NotDerivationError("linear part fails the Leibniz rule on a basis pair")
    if commutator_witness(algebra, tuple(terms)) is not None:
        raise LieLawViolatedError(
            "central-term functional does not vanish on the commutator "
            "span; the composed map would break the Lie product rule"
        )
    return MapSpec(algebra, delta, tuple(terms))
