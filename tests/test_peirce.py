import itertools
from fractions import Fraction

import pytest

from altrings import (
    Algebra,
    center,
    centralizer,
    check_conditions,
    make_context,
    verify_offdiag_centralizer,
    verify_prop_spade_club,
    verify_relations,
)
from altrings.catalog import build, find_idempotent, parse_recipe
from altrings.errors import (
    NotAlternativeError,
    NotIdempotentError,
    PreconditionFailedError,
    TrivialIdempotentError,
)
from altrings.linalg import Matrix, Subspace, is_zero_vec
from altrings.peirce import Check, PeirceContext
from altrings.sampling import random_vector, rng_for

F = Fraction


def test_dims(m2_ctx, zorn_ctx, m2m2_ctx):
    assert m2_ctx.dims == (1, 1, 1, 1)
    assert zorn_ctx.dims == (1, 3, 3, 1)
    assert m2m2_ctx.dims == (4, 0, 0, 4)


def test_make_context_rejections(m2, nonalternative):
    from altrings.catalog import direct_sum, matrix_algebra

    with pytest.raises(TrivialIdempotentError):
        make_context(m2, m2.one())
    with pytest.raises(TrivialIdempotentError):
        make_context(m2, m2.zero())
    with pytest.raises(NotIdempotentError):
        make_context(m2, m2.basis_element(1))
    # a nontrivial idempotent inside a non-alternative algebra
    s = direct_sum(nonalternative, matrix_algebra(1))
    e = s.element([1, 0, 0, 0])
    with pytest.raises(NotAlternativeError):
        make_context(s, e)


@pytest.fixture(scope="module")
def contexts(zorn_ctx, m3_ctx, m2m2_ctx):
    """Peirce contexts on zorn, matrix:3, m2m2 (at the unit of one summand
    and at its E11), cd:1,1,1 and sum(zorn|zorn) (at e1 of one summand)."""
    cd = build(parse_recipe("cd:1,1,1"))
    zz = build(parse_recipe("sum(zorn|zorn)"))
    m2m2 = m2m2_ctx.algebra
    return {"zorn": zorn_ctx, "matrix:3": m3_ctx, "m2m2": m2m2_ctx,
            "m2m2 E11": make_context(m2m2, m2m2.basis_element(0)),
            "cd:1,1,1": make_context(cd, find_idempotent(cd)),
            "sum(zorn|zorn)": make_context(zz, zz.basis_element(0))}


def _eight_product_projections(ctx):
    """a -> (e_i a) e_j as R_ej L_ei from the operators of both idempotents,
    each compared with L_ei R_ej: the construction the context once used."""
    alg = ctx.algebra
    lm = [alg.left_mult_matrix(e.coeffs) for e in (ctx.e1, ctx.e2)]
    rm = [alg.right_mult_matrix(e.coeffs) for e in (ctx.e1, ctx.e2)]
    proj = tuple(tuple(rm[j] * lm[i] for j in range(2)) for i in range(2))
    assert all(proj[i][j] == lm[i] * rm[j] for i in range(2) for j in range(2))
    return proj


def test_projections_match_eight_product_construction(contexts):
    for name, ctx in contexts.items():
        assert ctx.proj == _eight_product_projections(ctx), name
        assert sum(ctx.dims) == ctx.algebra.dim, name


def test_projections_resolve_identity(contexts):
    for name, ctx in contexts.items():
        total = ctx.proj[0][0] + ctx.proj[0][1] + ctx.proj[1][0] + ctx.proj[1][1]
        assert total == Matrix.identity(ctx.algebra.dim), name


def test_projections_orthogonal_idempotent(contexts):
    for name, ctx in contexts.items():
        for (i, j), (k, l) in itertools.product(itertools.product(range(2), repeat=2),
                                                repeat=2):
            prod = ctx.proj[i][j] * ctx.proj[k][l]
            if (i, j) == (k, l):
                assert prod == ctx.proj[i][j], (name, i, j)
            else:
                assert prod.is_zero(), (name, i, j, k, l)


def test_decompose_idempotent_and_unit(zorn_ctx):
    z = zorn_ctx.algebra
    parts = zorn_ctx.decompose(zorn_ctx.e1)
    assert parts[0] == zorn_ctx.e1
    assert all(p.is_zero() for p in parts[1:])
    parts = zorn_ctx.decompose(z.one())
    assert parts[0] == zorn_ctx.e1
    assert parts[1].is_zero() and parts[2].is_zero()
    assert parts[3] == zorn_ctx.e2


def test_decompose_reassembles(zorn_ctx):
    rng = rng_for(9)
    for _ in range(5):
        a = zorn_ctx.algebra.element(random_vector(rng, 8))
        p11, p12, p21, p22 = zorn_ctx.decompose(a)
        assert p11 + p12 + p21 + p22 == a


def test_relations_pass_on_builtins(m2_ctx, zorn_ctx):
    assert verify_relations(m2_ctx).ok
    assert verify_relations(zorn_ctx).ok


def test_relation_i_spot_check(m2_ctx):
    m2 = m2_ctx.algebra
    # E12 E21 = E11 lands in the (1,1) corner
    prod = m2.mul_vec(m2.basis_vec(1), m2.basis_vec(2))
    assert prod == m2.basis_vec(0)
    assert m2_ctx.spaces[0][0].contains_vector(prod)


def test_relation_ii_spot_check(zorn_ctx):
    # product of two (1,2)-corner basis vectors lands in the (2,1) corner
    z = zorn_ctx.algebra
    for x in zorn_ctx.spaces[0][1].basis:
        for y in zorn_ctx.spaces[0][1].basis:
            assert zorn_ctx.spaces[1][0].contains_vector(z.mul_vec(x, y))


def test_relation_iv_squares_vanish(zorn_ctx):
    z = zorn_ctx.algebra
    for corner in (zorn_ctx.spaces[0][1], zorn_ctx.spaces[1][0]):
        for x in corner.basis:
            assert is_zero_vec(z.mul_vec(x, x))


def test_conditions_hold_on_prime_builtins(m2_ctx, zorn_ctx):
    for ctx in (m2_ctx, zorn_ctx):
        rep = check_conditions(ctx)
        assert rep.all_hold
        assert all(c.mode == "exact" for c in rep.checks)


def test_condition_two_fails_on_direct_sum(m2m2_ctx):
    rep = check_conditions(m2m2_ctx)
    c2 = rep.checks[1]
    assert not c2.ok
    assert c2.witness is not None
    # witness is a nonzero (1,1)-corner element annihilating the empty R12
    assert rep.checks[0].ok  # condition (1) is vacuous here: both corners are 0


def test_condition_four_mode_follows_the_center(m2_ctx, m2m2_ctx):
    c4 = check_conditions(m2_ctx).checks[3]
    assert (c4.ok, c4.mode, c4.witness, c4.detail) == (
        True, "exact", None, "z R = R for nonzero central z (center is a line)")
    # the unit of one summand is central and kills the other summand
    c4 = check_conditions(m2m2_ctx, seed=3, samples=5).checks[3]
    assert (c4.ok, c4.mode, c4.witness, c4.detail) == (
        False, "sampled", "L.E11 + L.E22", "center dim 2 > 1; basis plus 5 samples")


def test_relation_iv_reads_each_pair_product(m2_ctx):
    """The relations verdict names the first broken rule with its pair product.
    On M_2 with span(E11, E12) posing as R12 that is (iii): E11 E11 = E11.  In
    Q[t]/(t^3) with span(t) posing as R12, span(t^2) as R21 and zero diagonal
    corners, (i)-(iii) hold (t t^2 = 0, t t = t^2 lies in R21), and (iv) fails on
    the pair (t, t): t t + t t = 2 t^2."""
    alg, s = m2_ctx.algebra, m2_ctx.spaces
    fake = Subspace.span(4, [alg.basis_vec(0), alg.basis_vec(1)])
    ctx = PeirceContext(alg, m2_ctx.e1, m2_ctx.e2, m2_ctx.proj, ((s[0][0], fake), s[1]))
    assert verify_relations(ctx) == Check("relations-i-iv", False, "exact",
                                          witness="(iii) R12R11=0: E11 * E11 = E11")
    unit, t, t2 = (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))
    truncated = Algebra({(0, 0): unit, (0, 1): t, (1, 0): t, (0, 2): t2, (2, 0): t2, (1, 1): t2},
                        unit, labels=["1", "t", "t2"])
    zero = Subspace.span(3, [])
    ctx = PeirceContext(truncated, truncated.one(), truncated.zero(), None,
                        ((zero, Subspace.span(3, [t])), (Subspace.span(3, [t2]), zero)))
    assert verify_relations(ctx) == Check("relations-i-iv", False, "exact",
                                          witness="(iv) xy+yx=0 on R12: t * t = (2)*t2")


def _fake_corners(ctx, rng):
    """Corner subspaces posing as the true ones: each corner is kept, or (more
    often on the diagonal) replaced by the span of a few random signed 0/1
    vectors and a part of the true corner's basis."""
    n = ctx.algebra.dim
    spaces = []
    for i in range(2):
        row = []
        for j in range(2):
            if rng.random() < (0.7 if i != j else 0.2):
                row.append(ctx.spaces[i][j])
                continue
            vecs = [tuple(F(rng.choice([0, 0, 0, 1, -1])) for _ in range(n))
                    for _ in range(rng.randrange(3))]
            row.append(Subspace.span(n, vecs + list(ctx.spaces[i][j].basis[:rng.randrange(3)])))
        spaces.append(tuple(row))
    return tuple(spaces)


def _element(alg, text: str):
    """The coefficients of the element whose repr is `text`."""
    index = {alg.label(i): i for i in range(alg.dim)}
    coeffs = [F(0)] * alg.dim
    for term in text.split(" + "):
        c, _, name = term.rpartition("*")
        coeffs[index[name]] = F(c.strip("()") or 1)
    assert repr(alg.element(coeffs)) == text
    return tuple(coeffs)


def test_props_spade_club_match_centralizer_meet(m2_ctx, zorn_ctx):
    """Spade and club as annihilators in R_11 + R_22 agree with centralizer(R_ij)
    meet (R_11 + R_22) inside the center, the form they were once decided in,
    on contexts whose corners pose as R_ij (built as in the (iv) test above).
    A failing spade or club names an element of R_11 + R_22 that commutes with
    its corner and is not central; a failing offdiag-centralizer names one that
    commutes with an off-diagonal corner and lies outside that corner plus the
    center."""
    import random

    seen = {}
    for ctx in (m2_ctx, zorn_ctx):
        alg, rng, cen = ctx.algebra, random.Random(5), center(ctx.algebra)
        for _ in range(400):
            fake = PeirceContext(alg, ctx.e1, ctx.e2, ctx.proj, _fake_corners(ctx, rng))
            try:
                props = verify_prop_spade_club(fake)
            except PreconditionFailedError:
                continue
            diag = fake.spaces[0][0] + fake.spaces[1][1]
            corners = (fake.spaces[0][1], fake.spaces[1][0])
            assert tuple(c.ok for c in props) == tuple(
                cen.contains(centralizer(alg, r) & diag) for r in corners)
            for check, r in zip(props, corners):
                if not check.ok:
                    w = _element(alg, check.witness)
                    assert diag.contains_vector(w) and centralizer(alg, r).contains_vector(w)
                    assert not cen.contains_vector(w)
            offdiag = verify_offdiag_centralizer(fake)
            if not offdiag.ok:
                w = _element(alg, offdiag.witness)
                assert any(centralizer(alg, r).contains_vector(w)
                           and not (r + cen).contains_vector(w) for r in corners)
            for check in (*props, offdiag):
                seen.setdefault(check.name, set()).add(check.ok)
    assert seen == dict.fromkeys(("prop-spade", "prop-club", "offdiag-centralizer"),
                                 {True, False})


def test_props_spade_club(m2_ctx, zorn_ctx):
    for ctx in (m2_ctx, zorn_ctx):
        assert verify_prop_spade_club(ctx) == (Check("prop-spade", True, "exact"),
                                               Check("prop-club", True, "exact"))


def test_offdiag_centralizer(m2_ctx, zorn_ctx):
    for ctx in (m2_ctx, zorn_ctx):
        assert verify_offdiag_centralizer(ctx) == Check("offdiag-centralizer", True, "exact")


def test_props_need_conditions(m2m2_ctx):
    with pytest.raises(PreconditionFailedError):
        verify_prop_spade_club(m2m2_ctx)
    with pytest.raises(PreconditionFailedError):
        verify_offdiag_centralizer(m2m2_ctx)


def test_corner_products_land_where_predicted(zorn_ctx):
    # the (1,2) component of (a11+a12)(b21+b22) comes only from a12*b22
    z = zorn_ctx.algebra
    rng = rng_for(23)
    for _ in range(5):
        a = z.element(random_vector(rng, 8))
        b = z.element(random_vector(rng, 8))
        a11, a12, _, _ = zorn_ctx.decompose(a)
        _, _, b21, b22 = zorn_ctx.decompose(b)
        prod = (a11 + a12) * (b21 + b22)
        predicted = a12 * b22
        assert zorn_ctx.component(prod, 0, 1) == zorn_ctx.component(predicted, 0, 1)
        assert zorn_ctx.spaces[0][1].contains_vector(predicted.coeffs)


def test_unit_always_in_spade_set(zorn_ctx):
    z = zorn_ctx.algebra
    diag = zorn_ctx.spaces[0][0] + zorn_ctx.spaces[1][1]
    inter = centralizer(z, zorn_ctx.spaces[0][1]) & diag
    assert inter.contains_vector(z.unit)
    assert center(z).contains_vector(z.unit)
