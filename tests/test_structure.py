import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altrings import (
    Algebra,
    analyze,
    associator,
    center,
    centralizer,
    check_prime,
    commutator,
    derivation_algebra,
    is_derivation,
    nucleus,
    verify_idempotent,
)
from altrings.algebra import alternativity_witness, check_flexible, find_nonassociative_triple
from altrings.catalog import build, direct_sum, matrix_algebra, octonion_algebra, parse_recipe
from altrings.errors import NotAlternativeError
from altrings.linalg import (Matrix, SparseMatrix, Subspace, combine, frac_vec, invert, is_zero_vec,
                             kernel, restrict_map, stack, vec_sub, zero_vec)
from altrings.sampling import random_nonzero_vector, rng_for
from altrings.structure import (IdempotentKind, _annihilator, _leibniz_failure, _leibniz_rows,
                                commutator_annihilator, commutator_subspace, derivation_span,
                                lie_derivation_split)

F = Fraction


def test_nucleus_matrix_algebra_full(m2):
    assert nucleus(m2) == Subspace.full(4)


def test_nucleus_zorn_is_unit_line(zorn_algebra):
    nuc = nucleus(zorn_algebra)
    assert nuc.basis == (zorn_algebra.unit,)
    # brute-force cross-check: the unit associates with every basis pair
    one = zorn_algebra.one()
    for i in range(8):
        for j in range(8):
            x = zorn_algebra.basis_element(i)
            y = zorn_algebra.basis_element(j)
            assert associator(x, y, one).is_zero()
            assert associator(x, one, y).is_zero()
            assert associator(one, x, y).is_zero()


def test_nucleus_direct_sum_full(m2m2):
    assert nucleus(m2m2).dim == 8


def test_nucleus_of_associative_algebra_solves_one_system(monkeypatch):
    # no associator rows: the first (empty) system already gives the whole space
    import altrings.structure as structure

    sizes = []

    def counting_kernel(m):
        sizes.append(m.nrows)
        return kernel(m)

    monkeypatch.setattr(structure, "kernel", counting_kernel)
    assert nucleus.__wrapped__(matrix_algebra(4)) == Subspace.full(16)
    assert sizes == [0]


def test_center_matrix_algebra(m2):
    # scalar matrices: canonical basis is the identity's coefficient vector
    assert center(m2).basis == ((F(1), F(0), F(0), F(1)),)


def test_center_zorn(zorn_algebra):
    assert center(zorn_algebra).basis == (zorn_algebra.unit,)


def test_center_direct_sum_dims(m2, zorn_algebra):
    q = matrix_algebra(1)
    for a, b in ((m2, m2), (zorn_algebra, q), (m2, q)):
        s = direct_sum(a, b)
        assert center(s).dim == center(a).dim + center(b).dim


def test_center_inside_nucleus(m2, zorn_algebra, m2m2, nonalternative):
    for a in (m2, zorn_algebra, m2m2, nonalternative):
        assert nucleus(a).contains(center(a))


def test_derivations_trivial_for_scalars():
    assert derivation_algebra(matrix_algebra(1)) == ()


def test_derivations_m2(m2):
    ders = derivation_algebra(m2)
    assert len(ders) == 3
    for d in ders:
        assert is_derivation(m2, d)
        assert is_zero_vec(d.apply(m2.unit))


def test_derivations_zorn(zorn_algebra):
    ders = derivation_algebra(zorn_algebra)
    assert len(ders) == 14
    for d in ders:
        assert is_derivation(zorn_algebra, d)
        assert is_zero_vec(d.apply(zorn_algebra.unit))


def test_verify_idempotent(m2):
    assert verify_idempotent(m2, m2.one()) is IdempotentKind.TRIVIAL
    assert verify_idempotent(m2, m2.zero()) is IdempotentKind.TRIVIAL
    assert verify_idempotent(m2, m2.basis_element(0)) is IdempotentKind.NONTRIVIAL
    # (E11 + E12)^2 = E11 + E12 by direct multiplication
    e = m2.element([1, 1, 0, 0])
    assert (e * e) == e
    assert verify_idempotent(m2, e) is IdempotentKind.NONTRIVIAL
    assert verify_idempotent(m2, m2.basis_element(1)) is IdempotentKind.NOT_IDEMPOTENT


def _witness_is_valid(a, result):
    x, b = result.witness
    assert not x.is_zero() and not b.is_zero()
    for k in range(a.dim):
        prod = a.mul_vec(a.mul_vec(x.coeffs, a.basis_vec(k)), b.coeffs)
        assert is_zero_vec(prod)


def test_check_prime_direct_sum(m2m2):
    result = check_prime(m2m2, trials=5, seed=3)
    assert not result.probably_prime
    _witness_is_valid(m2m2, result)


def test_check_prime_zorn_plus_scalars(zorn_algebra):
    s = direct_sum(zorn_algebra, matrix_algebra(1))
    result = check_prime(s, trials=5, seed=3)
    assert not result.probably_prime
    _witness_is_valid(s, result)


def test_check_prime_simple_algebras(m2, zorn_algebra):
    assert check_prime(m2, trials=10, seed=5).probably_prime
    assert check_prime(zorn_algebra, trials=10, seed=5).probably_prime


def test_check_prime_requires_alternative(nonalternative):
    with pytest.raises(NotAlternativeError):
        check_prime(nonalternative, trials=1, seed=0)


def test_check_prime_rejects_zero_trials(m2):
    with pytest.raises(ValueError):
        check_prime(m2, trials=0, seed=0)


def _reference_prime(a, trials, seed):
    """The witness and candidate count of the search over the kernel of the
    stacked dense L_p, p over the products a0 b_k, per candidate a0."""
    n, rng = a.dim, rng_for(seed)
    candidates = [a.basis_vec(i) for i in range(n)]
    candidates += [random_nonzero_vector(rng, n) for _ in range(trials)]
    for cand in candidates:
        prods = [a.mul_vec(cand, a.basis_vec(k)) for k in range(n)]
        ker = kernel(stack([a.left_mult_matrix(p) for p in prods], n))
        if ker.dim > 0:
            return (cand, ker.basis[0]), len(candidates)
    return None, len(candidates)


@pytest.mark.parametrize("recipe", ["matrix:2", "matrix:3", "zorn", "m2m2", "zornq",
                                    "sum(zorn|zorn)", "sum(matrix:1|matrix:1)", "cd:-1,-1",
                                    "cd:1,-1,1"])
def test_check_prime_matches_stacked_reference(recipe):
    a = build(parse_recipe(recipe))
    for seed in range(3):
        result = check_prime(a, trials=5, seed=seed)
        witness = None if result.witness is None else tuple(x.coeffs for x in result.witness)
        assert (witness, result.candidates_tried) == _reference_prime(a, 5, seed)


def test_centralizer_of_everything_is_center(m2, zorn_algebra):
    # the sedenions have a line for nucleus, sum(zorn|zorn) a nucleus of dim 2
    for a in (m2, zorn_algebra, build(parse_recipe("cd:-1,-1,-1,-1")),
              build(parse_recipe("sum(zorn|zorn)"))):
        assert centralizer(a, Subspace.full(a.dim)) == center(a)


def test_centralizer_of_unit_line_is_full(m2):
    assert centralizer(m2, Subspace.span(4, [m2.unit])) == Subspace.full(4)


def test_centralizer_of_offdiag_corner_m2(m2):
    # elements commuting with E12: span{I, E12}, computed by hand
    r12 = Subspace.span(4, [m2.basis_vec(1)])
    c = centralizer(m2, r12)
    assert c.dim == 2
    assert c.contains_vector(m2.unit)
    assert c.contains_vector(m2.basis_vec(1))


def test_analyze_reports(m2, zorn_algebra):
    rep = analyze(m2)
    assert (rep.nucleus.dim, rep.center.dim, rep.derivation_dim) == (4, 1, 3)
    assert rep.is_associative and rep.is_alternative and rep.is_flexible
    rep = analyze(zorn_algebra)
    assert (rep.nucleus.dim, rep.center.dim, rep.derivation_dim) == (1, 1, 14)
    assert rep.is_alternative and rep.is_flexible and not rep.is_associative


def test_analyze_scalars():
    rep = analyze(matrix_algebra(1))
    assert (rep.nucleus.dim, rep.center.dim, rep.derivation_dim) == (1, 1, 0)


DIM16 = {
    # recipe: ((dim, nucleus, center, derivations), alternativity witness,
    #          flexible, first non-associative basis triple)
    "cd:-1,-1,-1,-1": ((16, 1, 1, 14), (1, 2, 12), True, (1, 2, 4)),
    "matrix:4": ((16, 16, 1, 15), None, True, None),
    "sum(zorn|zorn)": ((16, 2, 2, 28), None, True, (0, 1, 2)),
}


@pytest.mark.parametrize("recipe", sorted(DIM16))
def test_analyze_dim16(recipe):
    dims, alt_witness, flexible, nonassoc = DIM16[recipe]
    a = build(parse_recipe(recipe))
    rep = analyze(a)
    assert (a.dim, rep.nucleus.dim, rep.center.dim, rep.derivation_dim) == dims
    assert alternativity_witness(a) == alt_witness
    assert rep.is_alternative == (alt_witness is None)
    assert check_flexible(a) == rep.is_flexible == flexible
    assert find_nonassociative_triple(a) == nonassoc
    assert rep.is_associative == (nonassoc is None)
    assert rep.center.contains_vector(a.unit)
    for d in derivation_algebra(a):
        assert is_derivation(a, d)


@pytest.mark.parametrize("products", [
    # (a*a, a*b, b*a, b*b) on the basis 1, a, b.  In each algebra the nucleus is
    # the unit line, but it would grow if the named associator slot were skipped.
    ("0", "0", "a", "0"),  # (x, y, r)
    ("a", "0", "a", "b"),  # (x, r, y)
    ("0", "a", "0", "0"),  # (r, x, y): a*b = a gives (a, b, b) = a
])
def test_nucleus_checks_every_slot(products):
    def e(k):
        return tuple(F(int(t == k)) for t in range(3))

    vec = {"0": (F(0),) * 3, "a": e(1), "b": e(2)}
    aa, ab, ba, bb = (vec[p] for p in products)
    alg = Algebra({(0, 0): e(0), (0, 1): e(1), (0, 2): e(2), (1, 0): e(1), (2, 0): e(2),
                   (1, 1): aa, (1, 2): ab, (2, 1): ba, (2, 2): bb}, e(0))
    assert nucleus(alg) == Subspace.span(3, [alg.unit])


@st.composite
def unital_products(draw):
    """Random sparse rational constants {(i, j): b_i b_j} up to dim 4, b0 a unit."""
    n = draw(st.integers(2, 4))
    coeff = st.sampled_from([F(0)] * 6 + [F(1), F(-1), F(2), F(1, 2), F(-3, 2)])

    def e(k):
        return tuple(F(int(t == k)) for t in range(n))

    return {(i, j): e(i + j) if 0 in (i, j) else tuple(draw(coeff) for _ in range(n))
            for i in range(n) for j in range(n)}


def unital_algebras():
    """Random unital algebras from `unital_products`: b0 b0 = b0 is the unit."""
    return unital_products().map(lambda c: Algebra(c, c[0, 0]))


@st.composite
def rebased_algebras(draw):
    """A `unital_algebras` draw in the basis P b_0, ..., P b_{n-1}, where
    P = I + L, L strictly lower triangular with L[1][0] = 1: the unit becomes
    P^-1 b_0, whose entry 1 is -1, so it is not a basis vector."""
    a = draw(unital_algebras())
    n = a.dim
    p = Matrix.from_rows([[F(int(r == c)) if c >= r else F(1) if (r, c) == (1, 0)
                           else draw(_rationals) for c in range(n)] for r in range(n)])
    q, cols = invert(p), [p.col(i) for i in range(n)]
    return Algebra({(i, j): q.apply(a.mul_vec(cols[i], cols[j]))
                    for i in range(n) for j in range(n)}, q.apply(a.unit))


def any_unital_algebras():
    return st.one_of(unital_algebras(), rebased_algebras())


def _kernel_of_maps(dim, maps, inputs):
    """Common kernel of linear maps given as functions on the basis `inputs` of Q^dim."""
    rows = []
    for f in maps:
        cols = [f(x) for x in inputs]
        rows += [tuple(col[k] for col in cols) for k in range(len(cols[0]))]
    return kernel(Matrix(tuple(rows), dim))


def _leibniz_defect(a, d, x, y):
    """d(xy) - d(x) y - x d(y) for a matrix d and elements x, y."""
    return (a.element(d.apply((x * y).coeffs)) - a.element(d.apply(x.coeffs)) * y
            - x * a.element(d.apply(y.coeffs)))


@settings(max_examples=60)
@given(any_unital_algebras())
def test_structure_matches_element_definitions(a):
    n = a.dim
    basis = [a.basis_element(i) for i in range(n)]
    pairs = [(x, y) for x in basis for y in basis]
    nuc = _kernel_of_maps(n, [f for x, y in pairs for f in (
        lambda r, x=x, y=y: associator(x, y, r).coeffs,
        lambda r, x=x, y=y: associator(x, r, y).coeffs,
        lambda r, x=x, y=y: associator(r, x, y).coeffs)], basis)
    assert nucleus(a) == nuc
    assert center(a) == nuc & _kernel_of_maps(
        n, [lambda r, x=x: commutator(r, x).coeffs for x in basis], basis)
    # Leibniz rule d(xy) - d(x)y - x d(y), as a map of the matrix d
    units = [Matrix(tuple(tuple(F(int((r, c) == (p, q))) for c in range(n)) for r in range(n)), n)
             for p in range(n) for q in range(n)]
    assert derivation_span(a) == _kernel_of_maps(n * n, [
        lambda d, x=x, y=y: _leibniz_defect(a, d, x, y).coeffs for x, y in pairs], units)
    triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    ass = {t: associator(*(basis[i] for i in t)) for t in triples}
    assert find_nonassociative_triple(a) == next(
        (t for t in triples if not ass[t].is_zero()), None)
    assert check_flexible(a) == all((ass[(i, j, k)] + ass[(k, j, i)]).is_zero()
                                    for i, j, k in triples)
    assert alternativity_witness(a) == next(
        (t for t in triples if not (ass[t] + ass[(t[1], t[0], t[2])]).is_zero()
         or not (ass[t] + ass[(t[0], t[2], t[1])]).is_zero()), None)


_rationals = st.one_of(st.just(F(0)), st.fractions(min_value=-4, max_value=4, max_denominator=6))


def _vectors(a):
    """Random rational vectors, the zero vector and basis vectors of the algebra."""
    n = a.dim
    return st.one_of(st.lists(_rationals, min_size=n, max_size=n).map(tuple),
                     st.just((F(0),) * n),
                     st.integers(0, n - 1).map(a.basis_vec))


@settings(max_examples=60)
@given(st.data())
def test_centralizer_matches_dense_commutator_system(data):
    """The sparse integer rows of `centralizer` have the kernel of the stacked
    dense matrices R_v - L_v, v over a basis of the subspace."""
    a = data.draw(unital_algebras())
    s = Subspace.span(a.dim, data.draw(st.lists(_vectors(a), max_size=3)))
    blocks = [a.right_mult_matrix(v) - a.left_mult_matrix(v) for v in s.basis]
    assert centralizer(a, s) == kernel(stack(blocks, a.dim))


@settings(max_examples=80)
@given(st.data())
def test_annihilator_matches_dense_operator_system(data):
    """`_annihilator` is the kernel of the stacked dense operators x -> x r (R_r),
    x -> r x (L_r) or x -> [x, r] (R_r - L_r) restricted to the domain, mapped
    into the algebra; its basis comes back already reduced."""
    a = data.draw(any_unital_algebras())
    vectors = st.lists(_vectors(a), max_size=3)
    domain = Subspace.span(a.dim, data.draw(vectors))
    multipliers = data.draw(vectors)
    side = data.draw(st.sampled_from(["right", "left", "commute"]))
    op = {"right": a.right_mult_matrix, "left": a.left_mult_matrix,
          "commute": lambda r: a.right_mult_matrix(r) - a.left_mult_matrix(r)}[side]
    ker = kernel(stack([restrict_map(op(r), domain) for r in multipliers], domain.dim))
    ann = _annihilator(a, domain, multipliers, side)
    assert ann == Subspace(a.dim, tuple(combine(c, domain.basis, a.dim) for c in ker.basis))
    assert Subspace.span(a.dim, ann.basis) == ann


@settings(max_examples=60)
@given(any_unital_algebras())
def test_commutator_table_matches_product_differences(a):
    """`commutator_table` and `commutator_subspace` give what the differences of
    the `Fraction` products b_i b_j - b_j b_i give."""
    n, prods = a.dim, a.products()
    diffs = {(i, j): vec_sub(prods.get((i, j), zero_vec(n)), prods.get((j, i), zero_vec(n)))
             for i in range(n) for j in range(n)}
    comm = a.commutator_table()
    assert {(i, j): frac_vec([dict(comm[i][j]).get(k, 0) for k in range(n)], a._den)
            for i in range(n) for j in range(n)} == diffs
    assert all(x for row in comm for cell in row for _, x in cell)
    assert commutator_subspace(a) == Subspace.span(
        n, [c for (i, j), c in diffs.items() if i < j and any(c)])


@settings(max_examples=80)
@given(st.data())
def test_integer_products_match_fraction_reference(data):
    c = data.draw(unital_products())  # the reference: the constants as drawn
    a = Algebra(c, c[0, 0])
    n = a.dim
    vectors = _vectors(a)
    x, y = data.draw(vectors), data.draw(vectors)
    product = tuple(sum((c[i, j][k] * x[i] * y[j] for i in range(n) for j in range(n)), F(0))
                    for k in range(n))
    assert a.mul_vec(x, y) == product
    assert a.left_mult_matrix(x).apply(y) == product
    assert a.right_mult_matrix(y).apply(x) == product
    m = Matrix(tuple(data.draw(vectors) for _ in range(n)), n)
    image = tuple(sum((m.rows[r][k] * y[k] for k in range(n)), F(0)) for r in range(n))
    assert m.apply(y) == image
    assert all(type(v) is F for v in a.mul_vec(x, y) + m.apply(y))


def _unit_matrix(n, p, q):
    return Matrix(tuple(tuple(F(int((r, c) == (p, q))) for c in range(n)) for r in range(n)), n)


@settings(max_examples=60)
@given(st.data())
def test_is_derivation_matches_leibniz_oracle(data):
    a = data.draw(unital_algebras())
    n = a.dim
    basis = [a.basis_element(i) for i in range(n)]

    def oracle(d):
        return all(_leibniz_defect(a, d, x, y).is_zero() for x in basis for y in basis)

    d = Matrix.zeros(n, n)
    for der in derivation_algebra(a):
        d = d + der.scale(data.draw(_rationals))
    assert is_derivation(a, d) and oracle(d)
    # d(1) = 2 d(1) for every derivation, so adding E_00 (b0 = 1 -> b0) never gives one
    e00 = _unit_matrix(n, 0, 0)
    assert not is_derivation(a, d + e00) and not oracle(d + e00)
    for m in [d + _unit_matrix(n, p, q) for p in range(n) for q in range(n)] + [
            Matrix(tuple(data.draw(_vectors(a)) for _ in range(n)), n)]:
        assert is_derivation(a, m) == oracle(m)


def _reference_leibniz_rows(table):
    """The full Leibniz system of an integer structure table: one row per basis
    pair (i, j) and output component k, tagged (i, j), with no row dropped or
    reduced."""
    n = len(table)
    rows = []
    for i in range(n):
        for j in range(n):
            block = [{} for _ in range(n)]
            for m, c in table[i][j]:
                for k in range(n):
                    block[k][k * n + m] = c
            for m in range(n):
                for k, c in table[m][j]:
                    block[k][m * n + i] = block[k].get(m * n + i, 0) - c
                for k, c in table[i][m]:
                    block[k][m * n + j] = block[k].get(m * n + j, 0) - c
            rows += [((i, j), r) for r in ({col: x for col, x in r.items() if x}
                                           for r in block) if r]
    return rows


def _reference_nucleus(a):
    """The kernel of all three associator slots' rows in one system."""
    rows = {}
    for (i, j, m), v in a.associator_table().items():
        for k, x in v.items():
            rows.setdefault((0, i, j, k), {})[m] = x
            rows.setdefault((1, i, m, k), {})[j] = x
            rows.setdefault((2, j, m, k), {})[i] = x
    return kernel(SparseMatrix(tuple(rows.values()), a.dim))


def test_cached_facts_are_kept_for_a_bounded_number_of_algebras():
    """A library loop over 30 distinct dim-16 algebras, each analysed and then
    dropped, retains the facts of the last CACHE_SIZE (about 1.1 MB each), not
    of all 30 (32 MB when the caches were unbounded)."""
    import gc
    import tracemalloc

    from altrings import structure

    cached = (nucleus, center, structure.commutator_subspace, _leibniz_rows, derivation_span,
              derivation_algebra)
    for f in cached:
        f.cache_clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for k in range(1, 31):
            a = octonion_algebra((-1, k, -3, -1))
            analyze(a)
            del a
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert retained < 12_000_000, retained
    assert all(f.cache_info().currsize <= structure.CACHE_SIZE for f in cached)


def _assert_matches_reference_systems(a, perturbed):
    """On the product table and on the commutator table, the deduplicated
    Leibniz system has the full one's kernel, holds no zero entry and no two
    rows equal up to scale, and gives the full one's first failing pair on the
    derivation basis and on `perturbed` matrices, which `is_derivation` reads;
    the nucleus is the kernel of the three-slot system."""
    n = a.dim
    for table in (a._int_table, a.commutator_table()):
        tagged = _leibniz_rows(table)
        rows = tuple(r for _, r in tagged)
        full = _reference_leibniz_rows(table)
        assert kernel(SparseMatrix(tuple(r for _, r in full), n * n)) == \
            kernel(SparseMatrix(rows, n * n))
        assert all(r and all(r.values()) for r in rows)
        assert len({frozenset((c, F(x, r[min(r)])) for c, x in r.items()) for r in rows}) == \
            len(rows)
        for d in derivation_algebra(a) + tuple(perturbed):
            vd = [x for row in d.rows for x in row]
            first = next((ij for ij, r in full if sum(x * vd[c] for c, x in r.items())), None)
            assert _leibniz_failure(table, d) == first
            if table is a._int_table:
                assert is_derivation(a, d) == (first is None)
    assert nucleus(a) == _reference_nucleus(a)


@pytest.mark.parametrize("recipe", ["zorn", "matrix:3", "m2m2", "cd:1,1,1", "cd:-1,-1,-1,-1",
                                    "sum(zorn|zorn)", "sum(zorn|matrix:1)"])
def test_reduced_systems_match_full_systems(recipe):
    a = build(parse_recipe(recipe))
    n = a.dim
    ders = derivation_algebra(a)
    d = Matrix.zeros(n, n)
    for k, der in enumerate(ders):
        d = d + der.scale(k + 1)
    rng = random.Random(recipe)
    _assert_matches_reference_systems(
        a, [d + _unit_matrix(n, *divmod(c, n)) for c in rng.sample(range(n * n), 24)])


@settings(max_examples=60)
@given(st.data())
def test_reduced_systems_match_full_systems_on_random_algebras(data):
    a = data.draw(any_unital_algebras())
    n = a.dim
    d = Matrix.zeros(n, n)
    for der in derivation_algebra(a):
        d = d + der.scale(data.draw(_rationals))
    _assert_matches_reference_systems(
        a, [d + _unit_matrix(n, p, q) for p in range(n) for q in range(n)]
        + [Matrix(tuple(data.draw(_vectors(a)) for _ in range(n)), n)])


@pytest.mark.parametrize("recipe, dims", [
    ("zorn", (15, 14, 15)), ("matrix:2", (4, 3, 4)), ("matrix:3", (9, 8, 9)),
    ("matrix:4", (16, 15, 16)), ("m2m2", (10, 6, 10)), ("sum(zorn|zorn)", (32, 28, 32)),
    ("cd:1,1,1", (15, 14, 15)), ("cd:-1,-1", (4, 3, 4)), ("cd:-1,-1,-1,-1", (15, 14, 15)),
    ("sum(zorn|matrix:1)", (18, 14, 18)), ("sum(matrix:2|matrix:1)", (7, 3, 7))])
def test_linear_lie_derivations_are_derivations_plus_central_maps(recipe, dims):
    """dim LieDer, dim Der and dim (Der + T), T the center-valued linear maps
    that kill commutators: LieDer = Der + T."""
    a = build(parse_recipe(recipe))
    lie, der_t = lie_derivation_split(a)
    assert (lie.dim, len(derivation_algebra(a)), der_t.dim) == dims
    assert lie == der_t


SURVEY_RECIPES = ("matrix:1", "matrix:2", "matrix:3", "matrix:4", "zorn", "cd:-1,-1",
                  "cd:-1,-1,-1", "cd:1,1,1", "cd:-1,-1,-1,-1", "m2m2", "sum(zorn|matrix:1)",
                  "sum(matrix:2|matrix:1)", "sum(zorn|zorn)")
COMMUTATIVE = ("matrix:1", "cd:-1", "sum(matrix:1|matrix:1)")


@pytest.mark.parametrize("recipe", SURVEY_RECIPES + COMMUTATIVE[1:])
def test_commutator_annihilator_is_the_dual_of_the_commutator_span(recipe):
    """ann([A, A]) has dimension dim - dim [A, A] and kills [A, A]; on the
    commutative algebras, where [A, A] = 0, it is the whole dual."""
    a = build(parse_recipe(recipe))
    comm, ann = commutator_subspace(a), commutator_annihilator(a)
    assert ann.dim == a.dim - comm.dim
    assert all(sum(f * x for f, x in zip(ell, c)) == 0 for ell in ann.basis for c in comm.basis)
    assert (ann == Subspace.full(a.dim)) == (comm.dim == 0) == (recipe in COMMUTATIVE)
