from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from altrings.linalg import (
    Matrix,
    SparseMatrix,
    Subspace,
    column_space,
    invert,
    kernel,
    rank,
    rref,
    solve,
)

F = Fraction

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def small_matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(Matrix.from_rows)
        )
    )


def test_rref_identity():
    red, pivots = rref(Matrix.identity(2))
    assert red == Matrix.identity(2)
    assert pivots == (0, 1)


def test_rref_zero():
    red, pivots = rref(Matrix.zeros(3, 3))
    assert red == Matrix.zeros(3, 3)
    assert pivots == ()


def test_rref_rank_one():
    # hand row-reduction: [[2,4],[1,2]] -> [[1,2],[0,0]]
    red, pivots = rref(Matrix.from_rows([[2, 4], [1, 2]]))
    assert red == Matrix.from_rows([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_kernel_identity_is_zero():
    assert kernel(Matrix.identity(3)) == Subspace.zero(3)


def test_kernel_zero_map_is_full():
    assert kernel(Matrix.zeros(3, 3)) == Subspace.full(3)


def test_kernel_line():
    ker = kernel(Matrix.from_rows([[1, 1]]))
    assert ker.basis == ((F(1), F(-1)),)


def test_solve_identity():
    assert solve(Matrix.identity(2), (F(3), F(5))) == (F(3), F(5))


def test_solve_inconsistent():
    assert solve(Matrix.zeros(2, 2), (F(1), F(0))) is None


def test_solve_underdetermined_verified_by_substitution():
    m = Matrix.from_rows([[1, 1]])
    x = solve(m, (F(2),))
    assert x is not None
    assert m.apply(x) == (F(2),)


def test_membership_of_zero():
    s = Subspace.span(3, [(1, 2, 3)])
    assert s.contains_vector((0, 0, 0))


def test_sum_of_axes_is_plane():
    x = Subspace.span(2, [(1, 0)])
    y = Subspace.span(2, [(0, 1)])
    assert (x + y) == Subspace.full(2)


def test_intersection_frozen_example():
    # stacked-kernel oracle: line inside a plane containing it
    a = Subspace.span(3, [(1, 1, 0)])
    b = Subspace.span(3, [(1, 1, 0), (0, 0, 1)])
    assert (a & b) == a


def test_invert_roundtrip():
    m = Matrix.from_rows([[2, 1], [1, 1]])
    assert m * invert(m) == Matrix.identity(2)
    with pytest.raises(ValueError):
        invert(Matrix.from_rows([[1, 1], [1, 1]]))


def test_zero_row_matrix_kernel_full():
    assert kernel(Matrix((), 4)) == Subspace.full(4)


@given(small_matrices())
def test_rref_idempotent(m):
    red, _ = rref(m)
    again, _ = rref(red)
    assert again == red


@given(small_matrices())
def test_rank_nullity(m):
    assert kernel(m).dim + rank(m) == m.cols


@given(small_matrices())
def test_solve_substitution(m):
    # build a consistent system and verify any returned solution exactly
    x0 = tuple(F(k % 3 - 1) for k in range(m.cols))
    b = m.apply(x0)
    x = solve(m, b)
    assert x is not None
    assert m.apply(x) == b


@given(
    st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=3),
    st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=3),
)
def test_mutual_containment_is_equality(vs, ws):
    s = Subspace.span(3, vs)
    t = Subspace.span(3, ws)
    if s.contains(t) and t.contains(s):
        assert s == t
    if s == t:
        assert s.contains(t) and t.contains(s)


@given(
    st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=3),
    st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=3),
)
def test_lattice_sandwich(vs, ws):
    s = Subspace.span(3, vs)
    t = Subspace.span(3, ws)
    meet, join = s & t, s + t
    assert s.contains(meet) and t.contains(meet)
    assert join.contains(s) and join.contains(t)


@given(small_matrices())
def test_kernel_vectors_annihilate(m):
    ker = kernel(m)
    for v in ker.basis:
        assert not any(m.apply(v))


@given(small_matrices())
def test_column_space_dim_is_rank(m):
    assert column_space(m).dim == rank(m)


@st.composite
def redundant_matrices(draw, square=False):
    """small_matrices with duplicated and zero rows inserted at random places;
    `square` keeps the leading k x k block, k = min(rows, cols)."""
    m = draw(small_matrices())
    rows = list(m.rows)
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), rows[draw(st.integers(0, len(rows) - 1))])
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), (F(0),) * m.cols)
    cols = m.cols
    if square:
        cols = min(len(rows), cols)
        rows = [r[:cols] for r in rows[:cols]]
    return Matrix(tuple(rows), cols)


@given(redundant_matrices(), st.randoms(use_true_random=False))
def test_sparse_kernel_matches_dense(m, rnd):
    rows = [{c: x for c, x in enumerate(r) if x} for r in m.rows]
    rnd.shuffle(rows)
    assert kernel(SparseMatrix(tuple(rows), m.cols)) == kernel(m)


@given(redundant_matrices(square=True))
def test_invert_full_rank_square(m):
    if rank(m) == m.cols:
        assert invert(m) * m == Matrix.identity(m.cols)
    else:
        with pytest.raises(ValueError):
            invert(m)
