import builtins
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from altrings.algebra import Element
from altrings.catalog import direct_sum, matrix_algebra, zorn
from altrings.liederiv import MapSpec, SampleBudget
from altrings.linalg import (
    Matrix,
    Record,
    SparseMatrix,
    Subspace,
    _eliminate,
    column_space,
    invert,
    kernel,
    rank,
    rref,
    solve,
)
from altrings.peirce import Check, ConditionsReport, make_context
from altrings.structure import center

F = Fraction
M2 = matrix_algebra(2)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
wide_rationals = st.one_of(rationals, st.fractions(min_value=-5, max_value=5,
                                                   max_denominator=10**6))


def small_matrices(max_dim=4, entries=rationals):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
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
def redundant_matrices(draw, square=False, entries=rationals):
    """small_matrices with duplicated and zero rows inserted at random places;
    `square` keeps the leading k x k block, k = min(rows, cols)."""
    m = draw(small_matrices(entries=entries))
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


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _sub_scaled(dst: dict[int, Fraction], f: Fraction, src: dict[int, Fraction]) -> None:
    """dst -= f * src on sparse rows, dropping entries that cancel."""
    for c, x in src.items():
        y = dst.get(c, _ZERO) - f * x
        if y:
            dst[c] = y
        else:
            del dst[c]


def _reference_eliminate(rows, ncols):
    """Gauss-Jordan elimination on sparse `Fraction` rows, the reference for the
    fraction-free `_eliminate`: both must return the unique RREF."""
    piv: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        for p in [c for c in row if c in piv]:
            _sub_scaled(row, row.pop(p), piv[p])
        if not row:
            continue
        p = min(row)
        inv = _ONE / row.pop(p)
        if inv != 1:
            row = {c: x * inv for c, x in row.items()}
        for other in piv.values():
            if p in other:
                _sub_scaled(other, other.pop(p), row)
        piv[p] = row
        if len(piv) == ncols:
            break
    return [(p, piv[p]) for p in sorted(piv)]


@given(redundant_matrices(entries=wide_rationals), st.sampled_from(["rows", "solve", "invert"]),
       st.randoms(use_true_random=False), st.data())
def test_eliminate_matches_fraction_reference(m, shape, rnd, data):
    """Shuffled redundant rows, with a right-hand side column as `solve` builds
    it or an identity block as `invert` builds it, integral entries passed as
    int or as Fraction at random: the same (pivot, row) pairs as the Fraction
    reference, every entry a normalized Fraction; the input rows are left
    as they were, so `kernel` can pass a `SparseMatrix`'s own rows."""
    rows = [{c: x for c, x in enumerate(r) if x} for r in m.rows]
    ncols = m.cols
    if shape == "solve":
        rhs = data.draw(st.lists(wide_rationals, min_size=len(rows), max_size=len(rows)))
        for row, x in zip(rows, rhs):
            if x:
                row[ncols] = x
        ncols += 1
    elif shape == "invert":
        for i, row in enumerate(rows):
            row[ncols + i] = 1
        ncols += len(rows)
    rows = [{c: int(x) if x.denominator == 1 and rnd.random() < 0.5 else x
             for c, x in row.items()} for row in rows]
    rnd.shuffle(rows)
    expected = _reference_eliminate([dict(r) for r in rows], ncols)
    given = tuple(dict(r) for r in rows)
    got = _eliminate(given, ncols)
    assert got == expected
    assert given == tuple(rows)
    for _, row in got:
        for x in row.values():
            assert type(x) is Fraction and x.denominator > 0
            assert gcd(x.numerator, x.denominator) == 1


def _reference_reduce(space: Subspace, v) -> tuple:
    """`Subspace.reduce_vector` as it was on Fraction rows, the reference for
    the integer version: `split_diagonal` reads the residue, not only whether
    it is zero."""
    w = list(Fraction(x) for x in v)
    for row in space.basis:
        p = next(i for i, x in enumerate(row) if x)
        f = w[p]
        if f:
            for c in range(p, space.ambient_dim):
                if row[c]:
                    w[c] -= f * row[c]
    return tuple(w)


@given(st.lists(st.lists(wide_rationals, min_size=4, max_size=4), min_size=1, max_size=3),
       st.lists(st.lists(wide_rationals, min_size=4, max_size=4), min_size=1, max_size=3))
def test_reduce_vector_matches_fraction_reference(spanning, vectors):
    space = Subspace.span(4, spanning)
    for v in vectors + spanning:
        got = space.reduce_vector(v)
        assert got == _reference_reduce(space, v)
        assert all(type(x) is Fraction for x in got)


@pytest.fixture(scope="module")
def two_half_contexts(m2m2_ctx):
    """Contexts whose `central_splits` spaces are 2-dim, in Q^(2n): m2m2 at
    E11 + E11' and sum(zorn|zorn) at e1 of its first summand."""
    zz = direct_sum(zorn(), zorn())
    return m2m2_ctx, make_context(zz, zz.basis_element(0))


@pytest.mark.parametrize("index", [0, 1], ids=["m2m2", "zorn+zorn"])
@given(data=st.data())
def test_reduce_vector_matches_fraction_reference_on_two_half_spaces(two_half_contexts,
                                                                     index, data):
    """`PeirceContext.central_part` reads the residue of (P v, 0) against a
    `central_splits` space, not only whether it is zero: its values match the
    reference there, and on the corner spaces."""
    ctx = two_half_contexts[index]
    n, zero = ctx.algebra.dim, (F(0),) * ctx.algebra.dim
    v = tuple(data.draw(st.lists(wide_rationals, min_size=n, max_size=n)))
    for i, system in enumerate(ctx.central_splits):
        p = ctx.proj[1 - i][1 - i]
        assert system.dim == 2
        for w in (p.apply(v) + zero, v + v, *(p.apply(z) + zero for z in center(ctx.algebra).basis),
                  *system.basis):
            assert system.reduce_vector(w) == _reference_reduce(system, w)
    for space in (s for row in ctx.spaces for s in row):
        for w in (v, *space.basis):
            assert space.reduce_vector(w) == _reference_reduce(space, w)


def _reference_matmul(a: Matrix, b: Matrix) -> Matrix:
    """The dense `Fraction` triple loop `Matrix.__mul__` ran before it took one
    integer `apply` per column: the reference for the exact product."""
    bt = list(zip(*b.rows)) if b.rows else [()] * b.cols
    out = []
    for row in a.rows:
        new = []
        for bcol in bt:
            acc = _ZERO
            for x, y in zip(row, bcol):
                if x and y:
                    acc += x * y
            new.append(acc)
        out.append(tuple(new))
    return Matrix(tuple(out), b.cols)


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_matmul_matches_fraction_reference(r, k, c, data):
    """Every shape with sides 0-4, sparse entries of wide denominators: the
    same matrix as the reference, every entry a normalized Fraction."""
    entries = st.one_of(st.just(F(0)), wide_rationals)

    def matrix(nrows, ncols):
        rows = data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                                  min_size=nrows, max_size=nrows))
        return Matrix.from_rows(rows, ncols)

    a, b = matrix(r, k), matrix(k, c)
    got = a * b
    assert got == _reference_matmul(a, b)
    assert (got.nrows, got.cols) == (r, c)
    assert all(type(x) is Fraction for row in got.rows for x in row)


def test_from_cols_matches_rows_built_by_hand():
    cols = [(F(1), F(2), F(3)), (F(0), F(-1, 2), F(4))]
    assert Matrix.from_cols(cols, 3) == Matrix.from_rows([[1, 0], [2, F(-1, 2)], [3, 4]])
    # no columns: an n x 0 matrix keeps its n rows
    assert Matrix.from_cols([], 3) == Matrix(((), (), ()), 0)
    assert Matrix.from_cols([], 0) == Matrix((), 0)
    with pytest.raises(ValueError, match="ragged"):
        Matrix.from_cols([(F(1), F(2)), (F(1),)], 2)
    with pytest.raises(ValueError, match="ragged"):
        Matrix.from_cols([(F(1), F(2))], 3)
    # a product by an n x 0 matrix is m x 0 and keeps its m rows
    a = Matrix.from_rows([[1, 2], [3, 4], [5, 6]])
    assert a * Matrix.from_cols([], 2) == Matrix(((), (), ()), 0)


@given(small_matrices())
def test_from_cols_of_the_columns_is_the_matrix(m):
    assert Matrix.from_cols([m.col(j) for j in range(m.cols)], m.nrows) == m


@pytest.mark.parametrize("cls, args, other, invalid, cached", [
    (Check, ("lie-law", True, "exact"), ("lie-law", False, "exact"), None, None),
    (Element, (M2, M2.unit), (M2, (F(1), F(0), F(0), F(0))), None, None),
    (Matrix, (((F(1), F(2)), (F(0), F(1))), 2), (((F(1), F(3)), (F(0), F(1))), 2),
     (((F(1), F(2)), (F(0),)), 2), "_int_cols"),
    (Subspace, (2, ((F(1), F(1, 2)),)), (2, ((F(1), F(0)),)), None, "_int_basis"),
    (SampleBudget, (7,), (8,), (7, 0), None),
    (MapSpec, (M2, Matrix.identity(4)), (M2, Matrix.zeros(4, 4)), (M2, Matrix.identity(3)), None),
    (ConditionsReport, ((Check("c", True, "exact"),),), ((Check("c", False, "exact"),),), None,
     None),
], ids=["Check", "Element", "Matrix", "Subspace", "SampleBudget", "MapSpec", "ConditionsReport"])
def test_record_contract(cls, args, other, invalid, cached):
    """What every `Record` promises: construction by position, keyword and
    default; `__post_init__` validation; equality and hash by the tuple of
    field values, within one class; no assignment; cached integer forms outside
    equality."""
    names = list(cls.__annotations__)
    rec = cls(*args)
    assert cls(**dict(zip(names, args))) == rec
    for name in names[len(args):]:
        assert getattr(rec, name) == getattr(cls, name)
    assert [getattr(rec, n) for n in names[:len(args)]] == list(args)
    with pytest.raises(TypeError):
        cls(*args[:-1]) if len(args) == len(names) else cls()
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError):
        cls(*(getattr(rec, n) for n in names), args[0])
    if invalid is not None:
        with pytest.raises(ValueError):
            cls(*invalid)

    twin = cls(*args)
    assert twin == rec and hash(twin) == hash(rec) == hash(tuple(getattr(rec, n) for n in names))
    assert twin is not rec and cls(*other) != rec
    mirror = type("Mirror", (Record,), {"__annotations__": dict(cls.__annotations__)})
    assert mirror(*(getattr(rec, n) for n in names)) != rec
    assert rec != tuple(args)
    with pytest.raises(AttributeError):
        setattr(rec, names[0], args[0])
    with pytest.raises(AttributeError):
        delattr(rec, names[0])

    if cached is not None:
        first = getattr(rec, cached)
        assert vars(rec)[cached] is first and getattr(rec, cached) is first
        assert cached not in vars(twin)
        assert rec == twin and hash(rec) == hash(twin)


def test_record_definition_compiles_no_code(monkeypatch):
    """Every record class shares one `__init__`, `__eq__` and `__hash__`:
    defining, building, comparing and hashing a record compiles nothing."""
    def refuse(*args, **kwargs):
        raise AssertionError("a record compiled code")

    # a context, so that builtins are restored before a failure is reported
    with monkeypatch.context() as patch:
        patch.setattr(builtins, "exec", refuse)
        patch.setattr(builtins, "compile", refuse)

        class Pair(Record):
            left: int
            right: str = "r"

            def __post_init__(self):
                if self.left < 0:
                    raise ValueError("negative left")

        pair = Pair(1)
        assert (pair.left, pair.right) == (1, "r")
        assert pair == Pair(left=1, right="r") and hash(pair) == hash(Pair(1, "r"))
        assert pair != Pair(1, "s") and pair != Pair(2)
        with pytest.raises(ValueError):
            Pair(-1)

        class Empty(Record):
            pass

        assert Empty() == Empty() and hash(Empty()) == hash(())
