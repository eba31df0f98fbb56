from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from altrings import (
    Algebra,
    CentralTerm,
    MapSpec,
    SampleBudget,
    center,
    check_hypotheses,
    check_lie_law,
    compose,
    decompose,
    derivation_algebra,
    inner_f,
    normalize_at_idempotent,
    split_diagonal,
)
from altrings.algebra import Element, commutator
from altrings.catalog import random_lie_derivation, zorn
from altrings.errors import (
    LieLawViolatedError,
    NonUniqueSplitError,
    NoSplitError,
    NotCentralError,
    NotDerivationError,
)
from altrings.linalg import Matrix, combine, kernel, vec_add, vec_sub
from altrings.liederiv import lie_defect
from altrings.peirce import Check
from altrings.sampling import random_poly, random_rational, random_vector, rng_for
from altrings.structure import commutator_subspace, derivation_span, is_derivation

F = Fraction


def budget(seed=0, n=10):
    return SampleBudget(seed=seed, pair_samples=n, element_samples=n)


def trace_term(m2, poly):
    functional = (F(1), F(0), F(0), F(1))
    return CentralTerm(functional, tuple(F(c) for c in poly), m2.unit)


def ad(algebra, idx):
    b = algebra.basis_vec(idx)
    return algebra.left_mult_matrix(b) - algebra.right_mult_matrix(b)


# -- MapSpec construction and evaluation --


def test_mapspec_rejects_nonzero_constant_term(m2):
    with pytest.raises(ValueError):
        MapSpec(m2, Matrix.zeros(4, 4), (trace_term(m2, [1, 1]),))


def test_mapspec_rejects_noncentral_target(m2):
    bad = CentralTerm((F(1), F(0), F(0), F(1)), (F(0), F(1)), m2.basis_vec(1))
    with pytest.raises(NotCentralError):
        MapSpec(m2, Matrix.zeros(4, 4), (bad,))


def test_evaluate_zero_and_identity(m2):
    zero = MapSpec(m2, Matrix.zeros(4, 4))
    ident = MapSpec(m2, Matrix.identity(4))
    a = m2.element([2, -1, 3, 5])
    assert zero(a).is_zero()
    assert ident(a) == a


def test_evaluate_trace_square(m2):
    # D(a) = tr(a)^2 I; at a = I this is 4I
    d = MapSpec(m2, Matrix.zeros(4, 4), (trace_term(m2, [0, 0, 1]),))
    assert d(m2.one()) == m2.element([4, 0, 0, 4])


def test_mapspec_kills_zero(m2, zorn_algebra):
    for a in (m2, zorn_algebra):
        d = random_lie_derivation(a, budget(seed=2))
        assert d(a.zero()).is_zero()


# -- Lie law --


def test_derivations_satisfy_lie_law(m2):
    for dmat in derivation_algebra(m2):
        assert check_lie_law(MapSpec(m2, dmat), budget()).ok


def test_lie_law_with_trace_polynomial(m2):
    d = MapSpec(m2, ad(m2, 1), (trace_term(m2, [0, 0, 1]),))
    verdict = check_lie_law(d, budget())
    assert verdict.ok and verdict.mode == "exact"


def test_lie_law_fails_for_left_multiplication(m2):
    verdict = check_lie_law(MapSpec(m2, m2.left_mult_matrix(m2.basis_vec(1))), budget())
    assert not verdict.ok
    assert verdict.witness is not None


def trace_square_map(m2):
    """D(a) = (a11^2 - a22^2) 1 kills commutators, but its term functionals E11
    and E22 do not vanish on the commutator span."""
    square = (F(0), F(0), F(1))
    return MapSpec(m2, Matrix.zeros(4, 4),
                   (CentralTerm((F(1), F(0), F(0), F(0)), square, m2.unit),
                    CentralTerm((F(0), F(0), F(0), F(1)), square, tuple(-x for x in m2.unit))))


def test_trace_square_map_keeps_the_exact_lie_law(m2_ctx):
    m2 = m2_ctx.algebra
    d = trace_square_map(m2)
    assert lie_defect(d) == (d.linear, None)
    verdict = check_lie_law(d, budget())
    assert verdict.ok and verdict.mode == "exact"
    rep = check_hypotheses(m2_ctx, d, budget())
    assert rep.both_hold and rep.a.mode == rep.b.mode == "exact"


def test_lie_law_outside_the_gate_tries_both_orders(m2):
    # D(a) = p(a11) 1 with p(s) = s^2 - s: [E12, E21] = E11 - E22 gives p(1) = 0,
    # and only the reversed basis pair (E21, E12) gives p(-1) = 2
    d = MapSpec(m2, Matrix.zeros(4, 4),
                (CentralTerm((F(1), F(0), F(0), F(0)), (F(0), F(-1), F(1)), m2.unit),))
    verdict = check_lie_law(d, budget())
    assert (verdict.ok, verdict.mode, verdict.witness) == (False, "exact", "x=E21, y=E12")


def _reference_lie_law(d, bud):
    """(ok, witness) of the loop `check_lie_law` ran on every MapSpec with an
    effective term: basis pairs i != j, then `pair_samples` sampled pairs."""
    alg, n = d.algebra, d.algebra.dim
    rng = rng_for(bud.seed)
    pairs = [(alg.basis_vec(i), alg.basis_vec(j)) for i in range(n) for j in range(n) if i != j]
    pairs += [(random_vector(rng, n), random_vector(rng, n))
              for _ in range(bud.pair_samples)]
    for x, y in (tuple(Element(alg, v) for v in pair) for pair in pairs):
        if d(commutator(x, y)) != commutator(d(x), y) + commutator(x, d(y)):
            return False, f"x={x!r}, y={y!r}"
    return True, None


def _reference_hypotheses(ctx, d, bud):
    """(ok, witness) per corner hypothesis from the loop `check_hypotheses` ran
    on every MapSpec with an effective term: the corner basis, then
    `element_samples` sampled corner elements."""
    alg = ctx.algebra
    rng = rng_for(bud.seed)
    out = []
    for i in (0, 1):
        other = 1 - i
        proj = ctx.proj[other][other]
        target = center(alg).image_under(proj)
        basis = ctx.spaces[i][i].basis
        samples = list(basis) + [combine([random_rational(rng) for _ in basis],
                                         basis, alg.dim) for _ in range(bud.element_samples)]
        verdict = (True, None)
        for v in samples:
            img = proj.apply(d.eval_vec(v))
            if not target.contains_vector(img):
                verdict = (False, f"a{i+1}{i+1}={Element(alg, v)!r} -> corner "
                                  f"{Element(alg, img)!r} outside Z*e{other+1}")
                break
        out.append(verdict)
    return out


def test_gated_lie_law_is_decided_on_rows(monkeypatch):
    """A gated map's Lie law takes no product of vectors and applies no matrix:
    it is read off the Leibniz rows over the commutator table."""
    z = zorn()  # a fresh algebra, so its commutator table is built here
    bud = budget(seed=3)
    maps = [random_lie_derivation(z, bud), MapSpec(z, z.left_mult_matrix(z.basis_vec(1)))]

    def forbidden(*args):
        raise AssertionError("the gated Lie law evaluated the map")

    monkeypatch.setattr(Algebra, "mul_vec", forbidden)
    monkeypatch.setattr(Matrix, "apply", forbidden)
    verdicts = [check_lie_law(d, bud) for d in maps]
    assert [(v.ok, v.mode, v.witness) for v in verdicts] == [
        (True, "exact", None), (False, "exact", "x=e1, y=u2")]


@settings(max_examples=40)
@given(st.data())
def test_gated_checks_match_sampled_reference(m2_ctx, m3_ctx, zorn_ctx, data):
    """Random Lie derivations, perturbed, give the verdict and witness of the
    sampled loops wherever a basis pair decides the Lie law; a failure the
    sampled loop finds is a failing verdict, and every mode is exact."""
    ctx = data.draw(st.sampled_from([m2_ctx, m3_ctx, zorn_ctx]))
    alg, n = ctx.algebra, ctx.algebra.dim
    bud = SampleBudget(seed=data.draw(st.integers(0, 10**6)), pair_samples=5,
                       element_samples=5)
    d = random_lie_derivation(alg, bud)
    linear, (term,) = d.linear, d.terms
    if data.draw(st.booleans()):  # add a matrix unit E_pq to the linear part
        # q = 0 moves e1 itself, the likeliest way to break hypothesis a
        p, q = data.draw(st.integers(0, n - 1)), data.draw(st.just(0) | st.integers(0, n - 1))
        linear = linear + Matrix(tuple(tuple(F(int((r, c) == (p, q))) for c in range(n))
                                       for r in range(n)), n)
    scale = data.draw(st.sampled_from([F(1), F(0), F(-2), F(3, 5)]))
    functional = term.functional
    if data.draw(st.booleans()):  # a functional that may fail the gate
        functional = alg.basis_vec(data.draw(st.integers(0, n - 1)))
    d = MapSpec(alg, linear,
                (CentralTerm(functional, term.poly, tuple(scale * z for z in term.central)),))

    lie = check_lie_law(d, bud)
    if (lie.witness or "").startswith("degree-"):  # no basis pair breaks the law
        assert not lie.ok
    else:
        assert (lie.ok, lie.witness) == _reference_lie_law(d, bud)
    assert lie.mode == "exact"
    hyp = check_hypotheses(ctx, d, bud)
    assert [(c.ok, c.witness) for c in (hyp.a, hyp.b)] == _reference_hypotheses(ctx, d, bud)
    assert hyp.a.mode == hyp.b.mode == "exact"


def test_hypotheses_match_sampled_reference_for_every_matrix_unit(m3_ctx):
    """Every single-unit perturbation of a map on matrix:3, with its term's
    functional inside and outside the gate."""
    m3 = m3_ctx.algebra
    bud = budget(seed=11, n=5)
    d = random_lie_derivation(m3, bud)
    (term,) = d.terms
    failures = 0
    for functional in (term.functional, m3.basis_vec(1)):
        terms = (CentralTerm(functional, term.poly, term.central),)
        for p in range(9):
            for q in range(9):
                rows = [list(r) for r in d.linear.rows]
                rows[p][q] += 1
                e = MapSpec(m3, Matrix.from_rows(rows), terms)
                hyp = check_hypotheses(m3_ctx, e, bud)
                reference = _reference_hypotheses(m3_ctx, e, bud)
                assert [(c.ok, c.witness) for c in (hyp.a, hyp.b)] == reference
                failures += not all(ok for ok, _ in reference)
    assert failures == 8  # e1 sent into the (2,2) corner off its center line, per functional


# -- inner correction --


def test_inner_f_unit_is_zero(zorn_algebra):
    rng = rng_for(4)
    y = zorn_algebra.element(random_vector(rng, 8))
    assert inner_f(zorn_algebra, y, zorn_algebra.one()).is_zero()


def test_inner_f_is_derivation_in_span(zorn_algebra):
    rng = rng_for(8)
    span = derivation_span(zorn_algebra)
    for _ in range(10):
        y = zorn_algebra.element(random_vector(rng, 8))
        z = zorn_algebra.element(random_vector(rng, 8))
        f = inner_f(zorn_algebra, y, z)
        assert is_derivation(zorn_algebra, f)
        assert span.contains_vector(tuple(x for row in f.rows for x in row))


def test_inner_f_equal_arguments(zorn_algebra):
    rng = rng_for(12)
    y = zorn_algebra.element(random_vector(rng, 8))
    assert is_derivation(zorn_algebra, inner_f(zorn_algebra, y, y))


def test_inner_f_rejects_nonalternative(nonalternative):
    with pytest.raises(NotDerivationError):
        inner_f(nonalternative, nonalternative.basis_element(1),
                nonalternative.basis_element(1))


def _bracket_inner_f(algebra, y, z):
    """The inner correction as operator brackets on multiplication matrices, the
    construction `inner_f` once used: M_T M_S - M_S M_T for [S, T]."""
    ly, ry = algebra.left_mult_matrix(y.coeffs), algebra.right_mult_matrix(y.coeffs)
    lz, rz = algebra.left_mult_matrix(z.coeffs), algebra.right_mult_matrix(z.coeffs)
    f = (lz * ly - ly * lz) + (rz * ly - ly * rz) + (rz * ry - ry * rz)
    if not is_derivation(algebra, f):
        raise NotDerivationError("reference correction fails the Leibniz rule")
    return f


@pytest.fixture(scope="module")
def reference_contexts():
    """zorn and matrix:3 at a coordinate idempotent, the split octonions
    cd:-1,1,1 at (e0 + e2)/2, whose corners are not spanned by basis vectors,
    and matrix:3 at E11 + E12, whose corner projections are not symmetric."""
    from altrings import make_context
    from altrings.catalog import build, canonical_idempotent, parse_recipe

    out = {}
    for recipe in ("zorn", "matrix:3", "cd:-1,1,1"):
        parsed = parse_recipe(recipe)
        algebra = build(parsed)
        out[recipe] = make_context(algebra, canonical_idempotent(parsed, algebra))
    m3 = out["matrix:3"].algebra
    out["matrix:3@E11+E12"] = make_context(m3, m3.element([1, 1, 0, 0, 0, 0, 0, 0, 0]))
    return out


@given(st.sampled_from(["zorn", "matrix:3", "cd:-1,1,1"]), st.integers(0, 10**6))
def test_inner_f_matches_operator_brackets(reference_contexts, recipe, seed):
    algebra = reference_contexts[recipe].algebra
    rng = rng_for(seed)
    y, z = (algebra.element(random_vector(rng, algebra.dim)) for _ in range(2))
    assert inner_f(algebra, y, z) == _bracket_inner_f(algebra, y, z)


def _eval_reference(d, v):
    """L v + sum_t p_t(f_t . v) z_t, the powers of s taken one by one."""
    out = d.linear.apply(v)
    for t in d.terms:
        s = sum((f * x for f, x in zip(t.functional, v)), F(0))
        value, power = F(0), F(1)
        for c in t.poly:
            value += c * power
            power *= s
        out = tuple(o + value * z for o, z in zip(out, t.central))
    return out


@given(st.sampled_from(["zorn", "matrix:3"]), st.integers(0, 10**6))
def test_eval_vec_matches_reference_loop(reference_contexts, recipe, seed):
    """A seeded map plus one term with a random functional, which need not
    vanish on commutators; every term is effective (none is inert)."""
    algebra = reference_contexts[recipe].algebra
    cen, rng = center(algebra), rng_for(seed)
    d = random_lie_derivation(algebra, SampleBudget(seed=seed), central_terms=2)
    extra = CentralTerm(random_vector(rng, algebra.dim), random_poly(rng),
                        combine(random_vector(rng, cen.dim), cen.basis, algebra.dim))
    d = MapSpec(algebra, d.linear, d.terms + (extra,))
    assume(all(t.is_effective for t in d.terms))
    for _ in range(3):
        v = random_vector(rng, algebra.dim)
        assert d.eval_vec(v) == _eval_reference(d, v)


def test_inner_f_and_operator_brackets_reject_nonalternative(nonalternative):
    a = nonalternative.basis_element(1)
    for correction in (inner_f, _bracket_inner_f):
        with pytest.raises(NotDerivationError):
            correction(nonalternative, a, a)


def _corner_rule(ctx, shifted, i, j, v):
    """The paper's construction of delta' on one Peirce component v of the map
    normalized at e1: an off-diagonal image stays in its corner, and a diagonal
    image has no off-diagonal part and loses its central part."""
    img = shifted.eval_vec(v)
    if i != j:
        assert ctx.spaces[i][j].contains_vector(img)
        return img
    assert not any(vec_add(ctx.proj[0][1].apply(img), ctx.proj[1][0].apply(img)))
    return split_diagonal(ctx, Element(ctx.algebra, img), i + 1)[0].coeffs


@settings(max_examples=15)
@given(st.sampled_from(["zorn", "matrix:3", "cd:-1,1,1", "matrix:3@E11+E12"]),
       st.integers(0, 10**6), st.data())
def test_decompose_matches_adapted_basis_inverse(reference_contexts, recipe, seed, data):
    """delta in closed form equals the paper's construction V B^-1 + f: f is the
    inner correction that normalizes D at e1, B holds a basis of each corner in
    turn, and V the corner rule at those vectors.  Half the maps carry live
    cancelling pairs of central terms."""
    from altrings.linalg import invert

    ctx = reference_contexts[recipe]
    alg, n = ctx.algebra, ctx.algebra.dim
    if data.draw(st.booleans()):
        _ctx, d = data.draw(cancelling_maps([ctx], genuine=True))
    else:
        d = random_lie_derivation(alg, SampleBudget(seed=seed))
    shifted, y, f = normalize_at_idempotent(ctx, d)
    assert f == _bracket_inner_f(alg, y, -ctx.e1)
    adapted = [(i, j, v) for i in range(2) for j in range(2) for v in ctx.spaces[i][j].basis]
    values = [_corner_rule(ctx, shifted, i, j, v) for i, j, v in adapted]
    basis_mat = Matrix(tuple(zip(*(v for _, _, v in adapted))), n)
    delta = Matrix(tuple(zip(*values)), n) * invert(basis_mat) + f
    result = decompose(ctx, d, SampleBudget(seed=seed))
    assert result.delta == delta
    assert result.tau == MapSpec(alg, d.linear - delta, d.terms)


# -- hypotheses --


def test_hypotheses_hold_for_derivations(m2_ctx):
    m2 = m2_ctx.algebra
    for dmat in derivation_algebra(m2):
        rep = check_hypotheses(m2_ctx, MapSpec(m2, dmat), budget())
        assert rep.both_hold
        assert rep.a.mode == "exact"


def test_hypotheses_hold_with_central_terms(zorn_ctx):
    d = random_lie_derivation(zorn_ctx.algebra, budget(seed=6))
    rep = check_hypotheses(zorn_ctx, d, budget())
    assert rep.both_hold


def test_hypothesis_a_fails_for_corrupted_map(m3_ctx):
    m3 = m3_ctx.algebra
    rows = [[F(0)] * 9 for _ in range(9)]
    rows[5][0] = F(1)  # send E11 to E23: a non-central (2,2)-corner element
    rep = check_hypotheses(m3_ctx, MapSpec(m3, Matrix.from_rows(rows)), budget())
    assert not rep.a.ok
    assert rep.a.witness is not None
    assert rep.b.ok


# -- normalization --


def test_normalize_already_central(m2_ctx):
    m2 = m2_ctx.algebra
    d = MapSpec(m2, ad(m2, 0) - ad(m2, 3))  # D(e1) = [E11 - E22, e1] = 0
    shifted, y, f = normalize_at_idempotent(m2_ctx, d)
    assert y.is_zero()
    assert f.is_zero()
    assert shifted.linear == d.linear


def test_normalize_clears_offdiagonal(m2_ctx):
    # D = ad_{-E12} sends E11 to E12; after correction D'(E11) = 0
    m2 = m2_ctx.algebra
    d = MapSpec(m2, ad(m2, 1).scale(-1))
    assert d(m2.basis_element(0)) == m2.basis_element(1)
    shifted, y, f = normalize_at_idempotent(m2_ctx, d)
    assert y == m2.basis_element(1)
    assert not f.is_zero()
    assert shifted(m2.basis_element(0)).is_zero()
    assert center(m2).contains_vector(shifted.eval_vec(m2_ctx.e2.coeffs))


def test_normalize_zeroes_offdiagonal_corners_of_de1(zorn_ctx):
    z = zorn_ctx.algebra
    for seed in range(3):
        d = random_lie_derivation(z, budget(seed=seed))
        shifted, _y, _f = normalize_at_idempotent(zorn_ctx, d)
        img = z.element(shifted.eval_vec(zorn_ctx.e1.coeffs))
        assert zorn_ctx.component(img, 0, 1).is_zero()
        assert zorn_ctx.component(img, 1, 0).is_zero()


def test_normalize_passes_central_terms_through(m2_ctx):
    m2 = m2_ctx.algebra
    term = trace_term(m2, [0, 0, 1])
    d = MapSpec(m2, ad(m2, 1), (term,))
    shifted, _y, _f = normalize_at_idempotent(m2_ctx, d)
    assert shifted.terms == (term,)


# -- diagonal split --


def test_split_fixed_points(m2_ctx):
    m2 = m2_ctx.algebra
    b, z = split_diagonal(m2_ctx, m2.basis_element(0), 1)
    assert b == m2.basis_element(0) and z.is_zero()
    b, z = split_diagonal(m2_ctx, m2.one(), 1)
    assert b.is_zero() and z == m2.one()


def test_split_frozen_example(m2_ctx):
    # c = E11 + 2I splits as (E11, 2I)
    m2 = m2_ctx.algebra
    b, z = split_diagonal(m2_ctx, m2.element([3, 0, 0, 2]), 1)
    assert b == m2.basis_element(0)
    assert z == m2.element([2, 0, 0, 2])


def test_split_side_two(m2_ctx):
    m2 = m2_ctx.algebra
    b, z = split_diagonal(m2_ctx, m2.element([2, 0, 0, 3]), 2)
    assert b == m2.basis_element(3)
    assert z == m2.element([2, 0, 0, 2])


def test_split_no_solution(m3_ctx):
    # E23 sits in the (2,2) corner but off the center's corner image
    m3 = m3_ctx.algebra
    for _ in range(2):
        with pytest.raises(NoSplitError):
            split_diagonal(m3_ctx, m3.basis_element(5), 1)


def test_split_not_unique_on_direct_sum(m2m2_ctx):
    # twice: the second call reuses the eliminated system and must raise again
    for _ in range(2):
        with pytest.raises(NonUniqueSplitError):
            split_diagonal(m2m2_ctx, m2m2_ctx.algebra.one(), 1)


# -- decompose --


def test_decompose_zero_map(m2_ctx):
    m2 = m2_ctx.algebra
    res = decompose(m2_ctx, MapSpec(m2, Matrix.zeros(4, 4)), budget())
    assert res.delta.is_zero()
    assert res.ok


def test_decompose_pure_derivation(m2_ctx):
    m2 = m2_ctx.algebra
    cen = center(m2)
    for dmat in derivation_algebra(m2):
        res = decompose(m2_ctx, MapSpec(m2, dmat), budget(seed=3))
        assert res.ok
        drift = res.delta - dmat
        assert all(cen.contains_vector(drift.col(k)) for k in range(4))
        rng = rng_for(17)
        for _ in range(5):
            a = m2.element(random_vector(rng, 4))
            assert res.tau(a).is_zero()


def test_decompose_trace_square_only(m2_ctx):
    # D = tr^2 I has delta = 0 and tau = D
    m2 = m2_ctx.algebra
    d = MapSpec(m2, Matrix.zeros(4, 4), (trace_term(m2, [0, 0, 1]),))
    res = decompose(m2_ctx, d, budget(seed=5))
    assert res.delta.is_zero()
    assert res.tau(m2.basis_element(1)).is_zero()  # traceless input
    assert res.tau(m2.one()) == m2.element([4, 0, 0, 4])


def test_decompose_roundtrip_zorn(zorn_ctx):
    z = zorn_ctx.algebra
    cen = center(z)
    for trial in range(5):
        bud = budget(seed=40 + trial, n=15)
        d = random_lie_derivation(z, bud)
        res = decompose(zorn_ctx, d, bud)
        assert res.ok
        assert is_derivation(z, res.delta)
        drift = res.delta - d.linear
        assert all(cen.contains_vector(drift.col(k)) for k in range(8))
        rng = rng_for(900 + trial)
        for _ in range(10):
            a = z.element(random_vector(rng, 8))
            assert d(a) == z.element(res.delta.apply(a.coeffs)) + res.tau(a)
            assert cen.contains_vector(res.tau(a).coeffs)


def test_decompose_scale_equivariant(zorn_ctx):
    # for a linear Lie derivation, doubling the input doubles delta
    z = zorn_ctx.algebra
    bud = budget(seed=21)
    d = random_lie_derivation(z, bud, central_terms=0)
    assert not d.terms
    once = decompose(zorn_ctx, d, bud)
    twice = decompose(zorn_ctx, d.scale(2), bud)
    assert twice.delta == once.delta.scale(2)


def test_tau_check_tries_reversed_basis_pairs(m2_ctx):
    # D(a) = p(a11) 1 with p(s) = s^2 - s is 2 at E22 - E11 = [E21, E12] and 0 at
    # E11 - E22 = [E12, E21]: the Lie law finds it only at the reversed pair, at
    # every seed, and decompose refuses the map up front with that witness
    m2 = m2_ctx.algebra
    d = MapSpec(m2, Matrix.zeros(4, 4),
                (CentralTerm((F(1), F(0), F(0), F(0)), (F(0), F(-1), F(1)), m2.unit),))
    for seed in range(5):
        bud = SampleBudget(seed=seed)
        lie = check_lie_law(d, bud)
        assert (lie.ok, lie.witness) == (False, "x=E21, y=E12")
        with pytest.raises(LieLawViolatedError, match=r"witness x=E21, y=E12\)"):
            decompose(m2_ctx, d, bud)


def test_decompose_modes_follow_the_gate(m2_ctx):
    # the closed form passes the gate, so every step is exact
    m2 = m2_ctx.algebra
    spec = MapSpec(m2, ad(m2, 1), (trace_term(m2, [0, 0, 1]),))
    modes = {c.name: c.mode for c in decompose(m2_ctx, spec, budget(seed=9)).checks}
    assert modes == dict.fromkeys(("delta-leibniz", "tau-central", "tau-kills-commutators"),
                                  "exact")


def test_decompose_refuses_the_construction_breaker_up_front(m3_ctx):
    # D(a) = p(a12 + a13) 1 with p(s) = s^2 - s vanishes on the basis vectors but
    # leaves R12 at 2 E12; its degree-2 part is nonzero on commutators, first at
    # [E12, E11] = -E12
    m3 = m3_ctx.algebra
    functional = tuple(F(int(k in (1, 2))) for k in range(9))
    d = MapSpec(m3, Matrix.zeros(9, 9), (CentralTerm(functional, (F(0), F(-1), F(1)), m3.unit),))
    with pytest.raises(LieLawViolatedError, match=r"witness x=E12, y=E11\)"):
        decompose(m3_ctx, d, budget())


def test_decompose_rejects_non_lie_map(m2_ctx):
    from altrings.errors import NormalizationFailedError

    m2 = m2_ctx.algebra
    bad = MapSpec(m2, m2.left_mult_matrix(m2.basis_vec(1)))
    with pytest.raises((LieLawViolatedError, NormalizationFailedError)):
        decompose(m2_ctx, bad, budget())


def test_decompose_rejects_corrupted_map_with_named_error(m3_ctx):
    # sends E11 to a non-central (2,2)-corner element: not a Lie derivation,
    # and the construction refuses it with a precondition error, never exit-3
    from altrings.errors import PreconditionError

    m3 = m3_ctx.algebra
    rows = [[F(0)] * 9 for _ in range(9)]
    rows[5][0] = F(1)
    with pytest.raises(PreconditionError):
        decompose(m3_ctx, MapSpec(m3, Matrix.from_rows(rows)), budget())


def a11_map(m2):
    """D(a) = a11 1: central-valued, but not zero on E11 - E22 = [E12, E21]."""
    return MapSpec(m2, Matrix.from_rows([[1, 0, 0, 0], [0] * 4, [0] * 4, [1, 0, 0, 0]]))


def failed_checks(result):
    return {c.name: c.witness for c in result.checks if not c.ok}


def test_tau_commutator_failure_names_the_span_vector(m2_ctx, monkeypatch):
    # with the Lie-law decision patched out, D(a) = a11 1 gives delta = 0 and a
    # central tau, and the exact tau verdict names the span vector where tau is 1
    import altrings.liederiv as liederiv

    monkeypatch.setattr(liederiv, "lie_defect", lambda d: (d.linear, None))
    result = decompose(m2_ctx, a11_map(m2_ctx.algebra), budget())
    assert not result.ok
    assert failed_checks(result) == {
        "tau-kills-commutators": "commutator-span vector E11 + (-1)*E22"}


def test_delta_leibniz_failure_names_a_basis_pair(m2_ctx, monkeypatch):
    # D(a) = tr(a) 1 is a central Lie derivation, so delta = 0; with the central
    # parts patched to zero, delta = D, which breaks the Leibniz rule at (E11, E11):
    # D(E11 E11) = 1, but D(E11) E11 + E11 D(E11) = 2 E11
    from altrings.peirce import PeirceContext

    m2 = m2_ctx.algebra
    monkeypatch.setattr(PeirceContext, "central_part", lambda self, i, v: (F(0),) * 4)
    d = MapSpec(m2, Matrix.from_rows([[1, 0, 0, 1], [0] * 4, [0] * 4, [1, 0, 0, 1]]))
    result = decompose(m2_ctx, d, budget())
    assert result.delta == d.linear and not result.ok
    assert failed_checks(result) == {"delta-leibniz": "x=E11, y=E11"}


def test_tau_central_failure_names_a_basis_vector(m2_ctx, monkeypatch):
    # central parts patched to the non-central E12 put E12 in tau(E11) and
    # tau(E22); E11 - E22 is sent to 0, so tau still kills commutators
    from altrings.peirce import PeirceContext

    m2 = m2_ctx.algebra
    monkeypatch.setattr(PeirceContext, "central_part", lambda self, i, v: m2.basis_vec(1))
    result = decompose(m2_ctx, MapSpec(m2, Matrix.zeros(4, 4)), budget())
    assert result.tau(m2.basis_element(0)) == m2.basis_element(1) and not result.ok
    assert failed_checks(result)["tau-central"] == "tau(E11) off the center"
    assert "tau-kills-commutators" not in failed_checks(result)


def test_decompose_decides_the_degree_one_lie_law(m2_ctx):
    # called without check_lie_law, as the fuzz trials call it, decompose refuses
    # D(a) = a11 1 with the Lie-law witness, not with an exit-3 tau failure
    d = a11_map(m2_ctx.algebra)
    assert check_lie_law(d, budget()).witness == "x=E12, y=E21"
    with pytest.raises(LieLawViolatedError, match=r"witness x=E12, y=E21\)"):
        decompose(m2_ctx, d, budget())


def test_decompose_reports_a_hypothesis_failure_as_no_split(m3_ctx, monkeypatch):
    # E11 -> E23 breaks the Lie law and hypothesis a; with the Lie law patched
    # out, no central element matches the (2,2) corner of D(E11)
    import altrings.liederiv as liederiv

    m3 = m3_ctx.algebra
    rows = [[F(0)] * 9 for _ in range(9)]
    rows[5][0] = F(1)
    monkeypatch.setattr(liederiv, "lie_defect", lambda d: (d.linear, None))
    with pytest.raises(NoSplitError, match="hypothesis a is violated"):
        decompose(m3_ctx, MapSpec(m3, Matrix.from_rows(rows)), budget())


def test_lie_defect_skips_inert_terms(m2):
    e11 = (F(1), F(0), F(0), F(0))
    zero = Matrix.zeros(4, 4)
    live = MapSpec(m2, zero, (CentralTerm(e11, (F(0), F(1), F(1)), m2.unit),))
    assert lie_defect(live) == (Matrix.from_rows([[1, 0, 0, 0], [0] * 4, [0] * 4, [1, 0, 0, 0]]),
                                "x=E12, y=E21")
    inert = (CentralTerm(e11, (F(0), F(1)), (F(0),) * 4),
             CentralTerm(e11, (F(0), F(0)), m2.unit),
             CentralTerm((F(0),) * 4, (F(0), F(1)), m2.unit))
    assert lie_defect(MapSpec(m2, zero, inert)) == (zero, None)
    trace = MapSpec(m2, zero, (trace_term(m2, [0, 1, 1]),))
    assert lie_defect(trace) == (zero, None)


# -- the Lie law of cancelling central terms --


def test_trace_square_map_decomposes_as_a_central_map(m2_ctx):
    m2 = m2_ctx.algebra
    d = trace_square_map(m2)
    result = decompose(m2_ctx, d, budget())
    assert result.delta.is_zero() and result.tau == d
    assert result.ok and {c.mode for c in result.checks} == {"exact"}


def test_cancelling_squares_fail_at_degree_two_at_every_seed(m2):
    # 4 a12 a21 1 = (a12 + a21)^2 1 - (a12 - a21)^2 1 is zero on every basis pair,
    # but at x = E11, y = E12 + E21 the left side is -4 and the right side 0
    square = (F(0), F(0), F(1))
    d = MapSpec(m2, Matrix.zeros(4, 4),
                (CentralTerm((F(0), F(1), F(1), F(0)), square, m2.unit),
                 CentralTerm((F(0), F(1), F(-1), F(0)), square, tuple(-x for x in m2.unit))))
    x, y = m2.basis_element(0), m2.element([0, 1, 1, 0])
    assert d(commutator(x, y)) != commutator(d(x), y) + commutator(x, d(y))
    verdicts = {check_lie_law(d, SampleBudget(seed=seed)) for seed in range(5)}
    assert verdicts == {Check("lie-law", False, "exact", witness="degree-2 part of the "
                              "central terms is nonzero on commutators")}


def _poly_mul(p, q):
    """Product of polynomials in x and y, keyed by the sorted x and y indices."""
    out = {}
    for (px, py), a in p.items():
        for (qx, qy), b in q.items():
            key = (tuple(sorted(px + qx)), tuple(sorted(py + qy)))
            out[key] = out.get(key, 0) + a * b
    return {k: c for k, c in out.items() if c}


def _symbolic_lie_law(d):
    """(ok, witness) of the Lie law from the Lie defect expanded as a polynomial
    in the coordinates of x and y.  The targets are central, so the terms add
    sum_t p_t(f_t . [x, y]) z_t; the linear part adds its bilinear defect.  The
    witness is the first basis pair, row-major, with a nonzero defect, else the
    least degree k >= 2 whose (x^k, y^k) part is nonzero."""
    alg, n = d.algebra, d.algebra.dim
    basis = [alg.basis_element(i) for i in range(n)]
    lin = MapSpec(alg, d.linear)
    defect = [{} for _ in range(n)]
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            v = lin(commutator(x, y)) - commutator(lin(x), y) - commutator(x, lin(y))
            for k, c in enumerate(v.coeffs):
                if c:
                    defect[k][((i,), (j,))] = c
    for t in d.terms:
        g = {}
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                if c := sum(f * b for f, b in zip(t.functional, commutator(x, y).coeffs)):
                    g[((i,), (j,))] = c
        power = {((), ()): F(1)}
        for k, a in enumerate(t.poly):
            power = _poly_mul(power, g) if k else power
            for comp, z in zip(defect, t.central):
                for key, c in power.items():
                    comp[key] = comp.get(key, 0) + a * z * c
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            if d(commutator(x, y)) != commutator(d(x), y) + commutator(x, d(y)):
                return False, f"x={alg.label(i)}, y={alg.label(j)}"
    degrees = sorted({len(key[0]) for comp in defect for key, c in comp.items() if c})
    if not degrees:
        return True, None
    return False, f"degree-{degrees[0]} part of the central terms is nonzero on commutators"


@st.composite
def cancelling_maps(draw, contexts, genuine):
    """A random Lie derivation of the catalog, plus terms (f, p, z) with f on one
    or two basis vectors, each with its partner (s f + h, -p(s .), z), s = +-1 and
    h killing the commutator span, which cancels it on commutators.  Unless
    `genuine`, half the maps get one fault: a term without its partner, a
    perturbed partner polynomial or h, a matrix unit added to the linear part, or
    the pair (u + v, s^2, z), (u - v, -s^2, z), which adds 4 (u . a)(v . a) z."""
    ctx = draw(st.sampled_from(contexts))
    alg, n = ctx.algebra, ctx.algebra.dim
    rng = rng_for(draw(st.integers(0, 10**6)))
    d = random_lie_derivation(alg, SampleBudget(seed=rng.randint(0, 10**6)))
    linear, terms = d.linear, list(d.terms)
    annihilator = kernel(Matrix(tuple(commutator_subspace(alg).basis), n)).basis
    cen = center(alg).basis
    fault = None if genuine or draw(st.booleans()) else draw(
        st.sampled_from(["unpaired", "poly", "h", "linear", "cross"]))

    def unit():
        return alg.basis_vec(draw(st.integers(0, n - 1)))

    for first in (True, False)[:draw(st.integers(1, 2))]:
        fault_here = fault if first else None
        f = combine([draw(st.sampled_from([1, -1, 2])) for _ in range(2)], [unit(), unit()], n)
        poly = (F(0),) + tuple(random_rational(rng) for _ in range(draw(st.integers(1, 3))))
        z = combine([random_rational(rng) for _ in cen], cen, n)
        terms.append(CentralTerm(f, poly, z))
        sign = draw(st.sampled_from([1, -1]))
        h = combine([random_rational(rng) for _ in annihilator], annihilator, n)
        partner = [-c * sign ** k for k, c in enumerate(poly)]
        if fault_here == "unpaired":
            continue
        if fault_here == "poly":
            partner[draw(st.integers(1, len(poly) - 1))] += 1
        if fault_here == "h":
            h = random_vector(rng, n)
        terms.append(CentralTerm(combine([sign, 1], [f, h], n), tuple(partner), z))
    if fault == "linear":
        p, q = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        linear = linear + Matrix(tuple(tuple(F(int((r, c) == (p, q))) for c in range(n))
                                       for r in range(n)), n)
    if fault == "cross":
        u, v, z = unit(), unit(), combine([random_rational(rng) for _ in cen], cen, n)
        terms += [CentralTerm(vec_add(u, v), (F(0), F(0), F(1)), z),
                  CentralTerm(vec_sub(u, v), (F(0), F(0), F(-1)), z)]
    return ctx, MapSpec(alg, linear, tuple(terms))


@settings(max_examples=40)
@given(st.data())
def test_lie_law_matches_symbolic_expansion(m2_ctx, m3_ctx, zorn_ctx, m2m2_ctx, data):
    _ctx, d = data.draw(cancelling_maps([m2_ctx, m3_ctx, zorn_ctx, m2m2_ctx], genuine=False))
    verdict = check_lie_law(d, budget())
    assert (verdict.ok, verdict.witness) == _symbolic_lie_law(d)
    assert verdict.mode == "exact"


@settings(max_examples=15)
@given(st.data())
def test_cancelling_lie_derivations_decompose_exactly(m2_ctx, m3_ctx, zorn_ctx, data):
    ctx, d = data.draw(cancelling_maps([m2_ctx, m3_ctx, zorn_ctx], genuine=True))
    alg = ctx.algebra
    assert check_lie_law(d, budget()).ok
    result = decompose(ctx, d, budget())
    assert result.ok and {c.mode for c in result.checks} == {"exact"}
    rng = rng_for(data.draw(st.integers(0, 10**6)))
    for _ in range(3):
        x, y = (alg.element(random_vector(rng, alg.dim)) for _ in range(2))
        assert d(x) == alg.element(result.delta.apply(x.coeffs)) + result.tau(x)
        assert center(alg).contains_vector(result.tau(x).coeffs)
        assert result.tau(commutator(x, y)).is_zero()


# -- compose --


def test_compose_zero(m2):
    d = compose(m2, Matrix.zeros(4, 4))
    assert check_lie_law(d, budget()).ok


def test_compose_validates_derivation(m2):
    with pytest.raises(NotDerivationError):
        compose(m2, m2.left_mult_matrix(m2.basis_vec(1)))


def test_compose_rejects_bad_functional(m2):
    # a functional not vanishing on commutators breaks the Lie law
    term = CentralTerm((F(1), F(0), F(0), F(0)), (F(0), F(1)), m2.unit)
    with pytest.raises(LieLawViolatedError):
        compose(m2, Matrix.zeros(4, 4), (term,))


def test_compose_cubic_trace_on_zorn(zorn_algebra):
    z = zorn_algebra
    functional = tuple(F(x) for x in (1, 0, 0, 0, 0, 0, 0, 1))
    term = CentralTerm(functional, (F(0), F(0), F(0), F(1)), z.unit)
    ders = derivation_algebra(z)
    d = compose(z, ders[0] + ders[3], (term,))
    assert check_lie_law(d, budget(seed=2)).ok


def test_compose_outputs_satisfy_hypotheses(zorn_ctx):
    for seed in range(3):
        d = random_lie_derivation(zorn_ctx.algebra, budget(seed=seed))
        assert check_hypotheses(zorn_ctx, d, budget(seed=seed)).both_hold


# -- serialization --


def test_mapspec_json_roundtrip(m2):
    from altrings.jsonio import mapspec_from_dict, mapspec_to_dict

    d = MapSpec(m2, ad(m2, 1), (trace_term(m2, [0, 1, 0, 2]),))
    data = mapspec_to_dict(d)
    assert data["central_terms"][0]["poly"][0] == "0"
    back = mapspec_from_dict(data, m2)
    assert back == d


def test_mapspec_json_rejects_constant_term(m2):
    from altrings.errors import InputError
    from altrings.jsonio import mapspec_from_dict, mapspec_to_dict

    data = mapspec_to_dict(MapSpec(m2, Matrix.zeros(4, 4), (trace_term(m2, [0, 1]),)))
    data["central_terms"][0]["poly"] = ["1", "1"]
    with pytest.raises(InputError):
        mapspec_from_dict(data, m2)
