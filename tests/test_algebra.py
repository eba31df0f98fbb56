from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altrings import (
    associator,
    check_alternative,
    check_associative,
    check_flexible,
    commutator,
    find_nonassociative_triple,
)
from altrings.algebra import Algebra, _cancel, alternativity_witness
from altrings.catalog import build, parse_recipe
from altrings.errors import AlgebraMismatchError, UnitValidationError
from altrings.linalg import Matrix
from altrings.sampling import random_vector, rng_for
from test_structure import unital_algebras

F = Fraction


def test_unit_validation_rejects_bad_unit(m2):
    with pytest.raises(UnitValidationError):
        Algebra(m2.products(), m2.basis_vec(0))  # E11 is not a two-sided unit


def test_equal_constants_give_equal_algebras():
    """Dual numbers Q[x]/(x^2), once from ints with explicit zero cells and
    once from Fractions with the zero cells omitted."""
    ints = Algebra({(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1), (1, 1): (0, 0)}, (1, 0))
    fracs = Algebra({(0, 0): (F(1), F(0)), (0, 1): (F(0), F(1)), (1, 0): (F(0), F(1))},
                    (F(1), F(0)))
    assert ints == fracs and hash(ints) == hash(fracs)
    for x2 in [(F(1, 2), F(0)), (F(0), F(-1))]:  # x^2 = 1/2, x^2 = -x
        other = Algebra({**fracs.products(), (1, 1): x2}, fracs.unit)
        assert other != fracs


def test_unit_laws(zorn_algebra):
    one = zorn_algebra.one()
    for i in range(zorn_algebra.dim):
        b = zorn_algebra.basis_element(i)
        assert one * b == b
        assert b * one == b


def test_matrix_unit_product(m2):
    e11, e12 = m2.basis_element(0), m2.basis_element(1)
    assert e11 * e12 == e12
    assert (e12 * e11).is_zero()


def test_zorn_offdiagonal_products(zorn_algebra):
    # hand-expanded vector-matrix products: u1 u2 = v3, u1 v1 = e1, v1 u1 = e2
    z = zorn_algebra
    u1, u2, v1 = z.basis_element(1), z.basis_element(2), z.basis_element(4)
    assert u1 * u2 == z.basis_element(6)
    assert u1 * v1 == z.basis_element(0)
    assert v1 * u1 == z.basis_element(7)


def test_algebra_mismatch_raises(m2, zorn_algebra):
    with pytest.raises(AlgebraMismatchError):
        m2.basis_element(0) * zorn_algebra.basis_element(0)


def test_associator_vanishes_in_matrix_algebra(m2):
    rng = rng_for(7)
    for _ in range(10):
        x, y, z = (m2.element(random_vector(rng, 4)) for _ in range(3))
        assert associator(x, y, z).is_zero()


def test_zorn_alternating_law_on_samples(zorn_algebra):
    rng = rng_for(11)
    for _ in range(10):
        x = zorn_algebra.element(random_vector(rng, 8))
        y = zorn_algebra.element(random_vector(rng, 8))
        assert associator(x, x, y).is_zero()
        assert associator(y, x, x).is_zero()


def test_zorn_nonassociative_witness(zorn_algebra):
    # (u1, u2, u3) = e2 - e1, found by brute force over basis triples
    z = zorn_algebra
    w = associator(z.basis_element(1), z.basis_element(2), z.basis_element(3))
    assert w == z.element([-1, 0, 0, 0, 0, 0, 0, 1])
    assert find_nonassociative_triple(z) is not None


def test_commutator_basics(m2, zorn_algebra):
    e11, e12 = m2.basis_element(0), m2.basis_element(1)
    assert commutator(e11, e11).is_zero()
    assert commutator(e11, e12) == e12
    # [e1, a12] = a12 on the off-diagonal corner
    e1, u1 = zorn_algebra.basis_element(0), zorn_algebra.basis_element(1)
    assert commutator(e1, u1) == u1


def test_mult_operators_unit(m2):
    l, r = m2.left_mult_matrix(m2.unit), m2.right_mult_matrix(m2.unit)
    assert l == Matrix.identity(4)
    assert r == Matrix.identity(4)


def test_mult_operators_e11_frozen(m2):
    # L projects onto the first row of columns, R onto rows: written out by hand
    l, r = m2.left_mult_matrix(m2.basis_vec(0)), m2.right_mult_matrix(m2.basis_vec(0))
    assert l == Matrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert r == Matrix.from_rows([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])


def test_left_minus_right_is_commutator(zorn_algebra):
    rng = rng_for(3)
    y = zorn_algebra.element(random_vector(rng, 8))
    l, r = zorn_algebra.left_mult_matrix(y.coeffs), zorn_algebra.right_mult_matrix(y.coeffs)
    for i in range(8):
        x = zorn_algebra.basis_element(i)
        assert (l - r).apply(x.coeffs) == commutator(y, x).coeffs


def test_identity_flags(m2, m3, zorn_algebra, nonalternative):
    for a in (m2, m3):
        assert check_alternative(a) and check_flexible(a) and check_associative(a)
    assert check_alternative(zorn_algebra)
    assert check_flexible(zorn_algebra)
    assert not check_associative(zorn_algebra)
    assert not check_alternative(nonalternative)
    assert not check_flexible(nonalternative)
    assert alternativity_witness(nonalternative) is not None


def _reference_alternativity_witness(a):
    """The walk over all dim^3 basis triples that `alternativity_witness` replaced."""
    ass = a.associator_table()
    n = a.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                u = ass.get((i, j, k))
                if not _cancel(u, ass.get((j, i, k))) or not _cancel(u, ass.get((i, k, j))):
                    return (i, j, k)
    return None


def test_cancel_compares_whole_vectors():
    # u + v = 0 needs the same support: an entry of either one alone is a residue
    assert _cancel({0: 1, 2: -3}, {2: 3, 0: -1})
    assert not _cancel({0: 1}, {0: -1, 1: 2})
    assert not _cancel({0: 1, 1: 2}, {0: -1})
    assert not _cancel({0: 1}, {0: 1})
    assert _cancel(None, None) and not _cancel({0: 1}, None) and not _cancel(None, {0: 1})


def _late_partner():
    """a a = a, b a = -b, b b = a: the first failing triple (1, 2, 1) is not a key
    of the associator table, only the partner of the later key (2, 1, 1)."""
    e = [tuple(F(int(t == k)) for t in range(3)) for k in range(3)]
    products = {(0, 0): e[0], (0, 1): e[1], (0, 2): e[2], (1, 0): e[1], (2, 0): e[2],
                (1, 1): e[1], (2, 1): tuple(-x for x in e[2]), (2, 2): e[1]}
    return Algebra(products, e[0])


@settings(max_examples=80)
@given(unital_algebras())
@example(_late_partner())
def test_alternativity_witness_matches_triple_walk(a):
    assert alternativity_witness(a) == _reference_alternativity_witness(a)


@pytest.mark.parametrize("recipe", ["cd:-1,-1,-1,-1", "cd:-1,1/2,-3,2", "zorn", "matrix:3"])
def test_alternativity_witness_matches_triple_walk_on_catalog(recipe):
    a = build(parse_recipe(recipe))
    witness = alternativity_witness(a)
    assert witness == _reference_alternativity_witness(a)
    assert (witness is None) == (recipe in ("zorn", "matrix:3"))  # doublings of dim 16 are not


def test_alternative_implies_flexible_on_builtins(m2, zorn_algebra):
    for a in (m2, zorn_algebra):
        if check_alternative(a):
            assert check_flexible(a)


coeffs8 = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=8, max_size=8
)


@given(coeffs8, coeffs8, coeffs8, st.fractions(min_value=-3, max_value=3, max_denominator=2))
def test_bilinearity(zorn_algebra, av, bv, cv, alpha):
    a = zorn_algebra.element(av)
    b = zorn_algebra.element(bv)
    c = zorn_algebra.element(cv)
    assert (alpha * a + b) * c == alpha * (a * c) + b * c
    assert c * (alpha * a + b) == alpha * (c * a) + c * b


def test_associator_alternates_on_basis(zorn_algebra):
    z = zorn_algebra
    for i in range(8):
        for j in range(8):
            for k in range(8):
                x, y, w = z.basis_element(i), z.basis_element(j), z.basis_element(k)
                assert associator(x, y, w) == -associator(y, x, w)
                assert associator(x, y, w) == -associator(x, w, y)


def test_mult_operator_consistency(zorn_algebra):
    rng = rng_for(5)
    y = zorn_algebra.element(random_vector(rng, 8))
    l = zorn_algebra.left_mult_matrix(y.coeffs)
    for i in range(8):
        x = zorn_algebra.basis_element(i)
        assert l.apply(x.coeffs) == (y * x).coeffs
