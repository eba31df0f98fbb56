"""Peirce decomposition relative to a nontrivial idempotent.

For e1 nontrivial idempotent and e2 = 1 - e1, the four corner projections
a -> e_i a e_j are explicit matrices, built from L_e1 and R_e1 alone, so
"component lies in R_ij" is exact membership, and each corner condition an
annihilator, one integer system read off the structure table.  The facts read
off a context once are its cached properties.  Index convention: corners are
addressed 0/1 in code and printed 1/2 in reports.  `Check`, the verdict record
that the verifications here and in `liederiv` return, is defined here.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from . import sampling  # lazy: runs on first use, which only a sampled condition 4 makes
from .algebra import Algebra, Element, check_alternative
from .errors import (
    NonUniqueSplitError,
    NoSplitError,
    NotAlternativeError,
    NotIdempotentError,
    PreconditionFailedError,
    TrivialIdempotentError,
)
from .linalg import Matrix, Record, Subspace, Vec, column_space, combine, vec_add, zero_vec
from .structure import IdempotentKind, _annihilator, center, centralizer, verify_idempotent


class Check(Record):
    """One verdict of a verification report.  `mode` says what a pass proves:
    "exact" checks decide the quantified statement (multilinear identities
    reduced to finite basis enumerations, or closed subspace computations);
    "sampled" checks only attest the tested points."""

    name: str
    ok: bool
    mode: str  # "exact" | "sampled"
    witness: str | None = None
    detail: str | None = None

    def to_dict(self) -> dict:
        d = {"name": self.name, "ok": self.ok, "mode": self.mode}
        if self.witness is not None:
            d["witness"] = self.witness
        if self.detail is not None:
            d["detail"] = self.detail
        return d


class PeirceContext(Record):
    """Idempotent pair with corner projections and corner subspaces; what is
    derived from them once is a cached property, kept outside equality."""

    algebra: Algebra
    e1: Element
    e2: Element
    proj: tuple[tuple[Matrix, Matrix], tuple[Matrix, Matrix]]
    spaces: tuple[tuple[Subspace, Subspace], tuple[Subspace, Subspace]]

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (self.spaces[0][0].dim, self.spaces[0][1].dim,
                self.spaces[1][0].dim, self.spaces[1][1].dim)

    def component(self, a: Element, i: int, j: int) -> Element:
        return Element(self.algebra, self.proj[i][j].apply(a.coeffs))

    def decompose(self, a: Element) -> tuple[Element, Element, Element, Element]:
        """Corner components (a11, a12, a21, a22); they sum back to a exactly."""
        if a.algebra is not self.algebra and a.algebra != self.algebra:
            raise ValueError("element belongs to a different algebra")
        return (self.component(a, 0, 0), self.component(a, 0, 1),
                self.component(a, 1, 0), self.component(a, 1, 1))

    def __repr__(self):
        return f"PeirceContext(dims={self.dims})"

    @cached_property
    def conditions_123(self) -> tuple[Check, Check, Check]:
        """Corner conditions (1)-(3), each two annihilator systems."""
        s = self.spaces
        checks = []
        for name, tests, detail in (
                ("condition-1", ((s[0][1], s[1][0], "right"), (s[1][0], s[0][1], "right")),
                 "x_ij R_ji = 0 forces x_ij = 0"),
                ("condition-2", ((s[0][0], s[0][1], "right"), (s[0][0], s[1][0], "left")),
                 "x_11 R_12 = 0 or R_21 x_11 = 0 forces x_11 = 0"),
                ("condition-3", ((s[1][1], s[0][1], "left"), (s[1][1], s[1][0], "right")),
                 "R_12 x_22 = 0 or x_22 R_21 = 0 forces x_22 = 0")):
            w = _annihilator_in(self.algebra, *tests[0]) or _annihilator_in(self.algebra, *tests[1])
            checks.append(Check(name, w is None, "exact", witness=None if w is None else repr(w),
                                detail=detail))
        return tuple(checks)

    @cached_property
    def central_splits(self) -> tuple[Subspace, Subspace]:
        """For side 1 and 2 (at index side - 1): the canonical basis of the pairs
        (P z, z) for central z, P the projection on the opposite corner, in Q^(2 dim).

        Rows with a first-half pivot hold the reduced basis of P(Z) there, the others
        zero, so (v, 0) reduces to zero in the first half exactly when v is in P(Z).
        P is injective on the center exactly when every pivot is in the first half;
        then reducing (v, 0) leaves (v - P z, -z) for the one matching central z."""
        basis = center(self.algebra).basis
        return tuple(Subspace.span(2 * self.algebra.dim, [p.apply(z) + z for z in basis])
                     for p in (self.proj[1][1], self.proj[0][0]))

    def central_part(self, i: int, v: Vec) -> Vec:
        """The central z whose component in the corner opposite R_ii equals that of v.

        It must exist (else NoSplit: hypothesis a for i = 0, b for i = 1, fails)
        and be unique (else NonUnique: corner conditions (2)/(3) fail).
        """
        n, j, system = self.algebra.dim, 1 - i, self.central_splits[i]
        if any(not any(row[:n]) for row in system.basis):
            raise NonUniqueSplitError(
                "central elements are not separated by the opposite corner; "
                "corner conditions (2)/(3) are violated"
            )
        residue = system.reduce_vector(self.proj[j][j].apply(v) + zero_vec(n))
        if any(residue[:n]):
            raise NoSplitError(
                f"no central element matches the corner of {Element(self.algebra, v)!r}; "
                f"hypothesis {'ab'[i]} is violated"
            )
        return tuple(-x for x in residue[n:])


def make_context(algebra: Algebra, e1: Element) -> PeirceContext:
    """The Peirce context of a nontrivial idempotent of an alternative algebra."""
    kind = verify_idempotent(algebra, e1)
    if kind is IdempotentKind.NOT_IDEMPOTENT:
        raise NotIdempotentError("supplied element is not idempotent")
    if kind is IdempotentKind.TRIVIAL:
        raise TrivialIdempotentError("idempotent must differ from 0 and the unit")
    if not check_alternative(algebra):
        raise NotAlternativeError("Peirce decomposition requires an alternative algebra")

    # Alternativity gives L^2 = L and R^2 = R for L = L_e1, R = R_e1, and
    # flexibility LR = RL; so RL, L - RL, R - RL and I - L - R + RL are
    # orthogonal idempotents summing to I, the maps a -> e_i a e_j.
    e2 = algebra.one() - e1
    lm, rm = algebra.left_mult_matrix(e1.coeffs), algebra.right_mult_matrix(e1.coeffs)
    p11 = rm * lm
    proj = ((p11, lm - p11), (rm - p11, Matrix.identity(algebra.dim) - lm - rm + p11))
    spaces = tuple(tuple(column_space(p) for p in row) for row in proj)
    return PeirceContext(algebra, e1, e2, proj, spaces)


def verify_relations(ctx: PeirceContext) -> Check:
    """The corner multiplication rules on Peirce-basis pairs, decided exactly.

    (i) R_ij R_jl in R_il; (ii) R_ij R_ij in R_ji; (iii) other corner products
    vanish; (iv) x y + y x = 0 in each off-diagonal corner, decided on basis
    pairs a <= b (at a = b it reads 2 x_a^2 = 0, so squares vanish too).  The
    witness is the first pair that breaks a rule, with its product.
    """
    alg = ctx.algebra

    def broken(relation: str, x: Vec, y: Vec, product: Vec) -> Check:
        return Check("relations-i-iv", False, "exact", witness=f"{relation}: {Element(alg, x)!r}"
                     f" * {Element(alg, y)!r} = {Element(alg, product)!r}")

    prods = {}  # (ii)'s products x_a x_b in each off-diagonal corner, read again by (iv)
    for i, j, k, l in itertools.product(range(2), repeat=4):
        if j == k:
            name, target = f"(i) R{i+1}{j+1}R{k+1}{l+1}<=R{i+1}{l+1}", ctx.spaces[i][l]
        elif (i, j) == (k, l):
            name, target = f"(ii) R{i+1}{j+1}R{i+1}{j+1}<=R{j+1}{i+1}", ctx.spaces[j][i]
        else:
            name, target = f"(iii) R{i+1}{j+1}R{k+1}{l+1}=0", None
        for a, x in enumerate(ctx.spaces[i][j].basis):
            for b, y in enumerate(ctx.spaces[k][l].basis):
                p = alg.mul_vec(x, y)
                if i != j and (i, j) == (k, l):
                    prods[i, a, b] = p
                if any(p) if target is None else not target.contains_vector(p):
                    return broken(name, x, y, p)
    for i, j in ((0, 1), (1, 0)):
        basis = ctx.spaces[i][j].basis
        for a in range(len(basis)):
            for b in range(a, len(basis)):
                if any(anti := vec_add(prods[i, a, b], prods[i, b, a])):
                    return broken(f"(iv) xy+yx=0 on R{i+1}{j+1}", basis[a], basis[b], anti)
    return Check("relations-i-iv", True, "exact")


class ConditionsReport(Record):
    checks: tuple[Check, Check, Check, Check]

    @property
    def all_hold(self) -> bool:
        return all(c.ok for c in self.checks)


def _annihilator_in(alg: Algebra, domain: Subspace, multipliers: Subspace,
                    side: str) -> Element | None:
    """Nonzero x in `domain` killed by every multiplier (x*r or r*x), if any; with
    no multipliers, the first basis vector of `domain`."""
    ker = _annihilator(alg._int_table, domain, multipliers.basis, side).basis
    return Element(alg, combine(ker[0], domain.basis, alg.dim)) if ker else None


def check_conditions(ctx: PeirceContext, seed: int = 0, samples: int = 20) -> ConditionsReport:
    """Corner conditions (1)-(4), each an annihilator read off the structure table.

    (1)-(3) are linear in the quantified element, so annihilators of corners in
    corners decide them exactly, once per context.  (4) fails at a central z with
    z x = 0 for some x != 0: exact when the center is a line, and sampled
    otherwise; the verdict mode records which.
    """
    alg = ctx.algebra
    checks = list(ctx.conditions_123)
    cen = center(alg)
    cands = list(cen.basis)
    if cen.dim > 1:
        mode, detail = "sampled", f"center dim {cen.dim} > 1; basis plus {samples} samples"
        rng = sampling.rng_for(seed)
        for _ in range(samples):
            v = tuple(sampling.random_rational(rng) for _ in range(cen.dim))
            if any(v):
                cands.append(combine(v, cen.basis, alg.dim))
    else:  # the unit is central, so the center is at least a line
        mode, detail = "exact", "z R = R for nonzero central z (center is a line)"
    full = Subspace.full(alg.dim)
    z = next((z for z in cands if _annihilator(alg._int_table, full, [z], "left").dim), None)
    checks.append(Check("condition-4", z is None, mode,
                        witness=None if z is None else repr(Element(alg, z)), detail=detail))
    return ConditionsReport(tuple(checks))


def _require_conditions_123(ctx: PeirceContext):
    for c in ctx.conditions_123:
        if not c.ok:
            raise PreconditionFailedError(
                f"{c.name} fails (witness {c.witness}); proposition needs (1)-(3)"
            )


def verify_prop_spade_club(ctx: PeirceContext) -> tuple[Check, Check]:
    """Diagonal elements commuting with an off-diagonal corner are central.

    Spade: the annihilator of R_12 in R_11 + R_22 under [ , ] lies in the
    center; club is the R_21 analogue.  Each exact verdict names the first
    annihilator basis element outside the center.  Requires corner conditions
    (1)-(3).
    """
    _require_conditions_123(ctx)
    alg = ctx.algebra
    cen, diag = center(alg), ctx.spaces[0][0] + ctx.spaces[1][1]
    checks = []
    for name, (i, j) in (("prop-spade", (0, 1)), ("prop-club", (1, 0))):
        ann = _annihilator(alg.commutator_table(), diag, ctx.spaces[i][j].basis)
        w = next((v for v in (combine(c, diag.basis, alg.dim) for c in ann.basis)
                  if not cen.contains_vector(v)), None)
        checks.append(Check(name, w is None, "exact", witness=w and repr(Element(alg, w))))
    return checks[0], checks[1]


def verify_offdiag_centralizer(ctx: PeirceContext) -> Check:
    """The centralizer of an off-diagonal corner sits inside corner + center; the
    exact verdict names the first centralizer basis element outside it.
    Requires corner conditions (1)-(3)."""
    _require_conditions_123(ctx)
    alg, cen = ctx.algebra, center(ctx.algebra)
    for i, j in ((0, 1), (1, 0)):
        target = ctx.spaces[i][j] + cen
        w = next((v for v in centralizer(alg, ctx.spaces[i][j]).basis
                  if not target.contains_vector(v)), None)
        if w is not None:
            return Check("offdiag-centralizer", False, "exact", witness=repr(Element(alg, w)))
    return Check("offdiag-centralizer", True, "exact")
