from fractions import Fraction

import pytest

from altrings import (
    SampleBudget,
    center,
    check_alternative,
    check_associative,
    check_lie_law,
    check_prime,
    verify_idempotent,
)
from altrings.catalog import (
    build,
    canonical_idempotent,
    direct_sum,
    find_idempotent,
    matrix_algebra,
    octonion_algebra,
    parse_recipe,
    random_lie_derivation,
    zorn,
)
from altrings.errors import InputError
from altrings.structure import IdempotentKind, commutator_annihilator, commutator_subspace

F = Fraction


def test_matrix_algebra_small():
    q = matrix_algebra(1)
    assert q.dim == 1
    assert q.one() * q.one() == q.one()
    m2 = matrix_algebra(2)
    assert m2.dim == 4
    assert m2.basis_element(1) * m2.basis_element(2) == m2.basis_element(0)  # E12 E21 = E11
    with pytest.raises(ValueError):
        matrix_algebra(0)


def test_zorn_is_the_expected_algebra(zorn_algebra):
    assert zorn_algebra.dim == 8
    assert check_alternative(zorn_algebra)
    assert not check_associative(zorn_algebra)
    assert center(zorn_algebra).basis == (zorn_algebra.unit,)
    e1 = zorn_algebra.basis_element(0)
    assert verify_idempotent(zorn_algebra, e1) is IdempotentKind.NONTRIVIAL


def test_cayley_dickson_gaussian():
    g = octonion_algebra((-1,))
    assert g.dim == 2
    assert check_associative(g)
    i = g.basis_element(1)
    assert i * i == -g.one()


def test_cayley_dickson_rejects_zero():
    with pytest.raises(ValueError):
        octonion_algebra((0,))


def test_octonion_mixes_alternative():
    for mus in ((-1, -1, -1), (1, 1, 1), (-1, -1, 1)):
        a = octonion_algebra(mus)
        assert a.dim == 8
        assert check_alternative(a)
        assert not check_associative(a)


def test_split_octonions_have_idempotent_and_look_prime():
    a = octonion_algebra((1, 1, 1))
    e = find_idempotent(a)
    assert e is not None
    assert verify_idempotent(a, e) is IdempotentKind.NONTRIVIAL
    assert check_prime(a, trials=10, seed=4).probably_prime


def test_division_octonions_have_no_idempotent():
    assert find_idempotent(octonion_algebra((-1, -1, -1))) is None


def test_direct_sum_small():
    q = matrix_algebra(1)
    s = direct_sum(q, q)
    assert s.dim == 2
    assert center(s).dim == 2


def test_direct_sum_not_prime(zorn_algebra):
    s = direct_sum(zorn_algebra, matrix_algebra(1))
    assert check_alternative(s)
    assert not check_prime(s, trials=3, seed=1).probably_prime


def test_random_lie_derivation_always_lawful(m2, zorn_algebra):
    for seed in range(4):
        for a in (m2, zorn_algebra):
            budget = SampleBudget(seed=seed, pair_samples=10, element_samples=10)
            d = random_lie_derivation(a, budget)
            assert check_lie_law(d, budget).ok


def test_random_lie_derivation_zero_terms(m2):
    budget = SampleBudget(seed=5, pair_samples=5, element_samples=5)
    d = random_lie_derivation(m2, budget, central_terms=0)
    assert d.terms == ()


def test_commutator_functional_m2(m2):
    # [M2, M2] is the traceless plane, so the annihilator is the trace direction
    assert commutator_subspace(m2).dim == 3
    assert commutator_annihilator(m2).basis == ((F(1), F(0), F(0), F(1)),)


def test_commutator_functional_zorn(zorn_algebra):
    assert commutator_subspace(zorn_algebra).dim == 7
    [ell] = commutator_annihilator(zorn_algebra).basis
    for c in commutator_subspace(zorn_algebra).basis:
        assert sum(f * x for f, x in zip(ell, c)) == 0


def test_recipe_parsing_roundtrip():
    for text, described in [
        ("zorn", "zorn"),
        ("matrix:3", "matrix:3"),
        ("cayley-dickson:-1,-1,1", "cayley-dickson:-1,-1,1"),
        ("m2m2", "sum(matrix:2|matrix:2)"),
        ("zornq", "sum(zorn|matrix:1)"),
        ("sum(zorn|matrix:1)", "sum(zorn|matrix:1)"),
        ("cd:1/2,-3", "cayley-dickson:1/2,-3"),
        ("sum(sum(zorn|cd:-1)|m2m2)", "sum(sum(zorn|cayley-dickson:-1)|sum(matrix:2|matrix:2))"),
    ]:
        recipe = parse_recipe(text)
        assert recipe.describe() == described
        # the dimension is read off the recipe; building agrees with it
        assert recipe.dim == build(recipe).dim >= 1


def test_recipe_errors():
    for bad in ("bogus", "matrix:x", "matrix:0", "cd:0"):
        with pytest.raises(InputError):
            parse_recipe(bad)
    # N is ASCII decimal digits: no digit separators, signs or other scripts' digits
    for bad in ("matrix:2_0", "matrix:\u0663", "matrix:+2"):
        with pytest.raises(InputError, match=r"^bad matrix recipe "):
            parse_recipe(bad)
    # a sum has two top-level parts, not one and not three
    for bad in ("sum(zorn)", "sum(zorn|zorn|zorn)", "sum(sum(zorn|zorn)|zorn|matrix:2)"):
        with pytest.raises(InputError, match=r"^sum recipe needs exactly two parts: "):
            parse_recipe(bad)
    # each part names an algebra: an empty or blank one is refused as such, not as ''
    for bad, named in (("sum(|zorn)", "sum(|zorn)"), ("sum(zorn|)", "sum(zorn|)"),
                       ("sum(zorn|sum(zorn| ))", "sum(zorn| )")):
        with pytest.raises(InputError) as exc:
            parse_recipe(bad)
        assert str(exc.value) == f"sum recipe has an empty part: {named!r}"


def test_canonical_idempotents():
    # pinned, so that a change to the search order shows
    for text, want in [
        ("matrix:2", "1,0,0,0"),
        ("zorn", "1,0,0,0,0,0,0,0"),
        ("cd:-1,1,1", "1/2,0,1/2,0,0,0,0,0"),
        ("cd:1,1,1", "1/2,1/2,0,0,0,0,0,0"),
        ("m2m2", "1,0,0,1,0,0,0,0"),
        ("sum(zorn|matrix:1)", "1,0,0,0,0,0,0,1,0"),
    ]:
        recipe = parse_recipe(text)
        a = build(recipe)
        e = canonical_idempotent(recipe, a)
        assert verify_idempotent(a, e) is IdempotentKind.NONTRIVIAL
        assert e.coeffs == tuple(F(x) for x in want.split(","))
    with pytest.raises(InputError, match=r"^no nontrivial idempotent found for recipe 'matrix:1'$"):
        canonical_idempotent(parse_recipe("matrix:1"), matrix_algebra(1))
    with pytest.raises(InputError):
        canonical_idempotent(parse_recipe("cd:-1,-1,-1"), octonion_algebra((-1, -1, -1)))


def test_canonical_idempotent_of_a_sum_builds_nothing(monkeypatch):
    """The unit of a sum's first summand is placed by the summand's dimension,
    read off its recipe: no summand is built again."""
    import altrings.catalog as catalog

    for text, want in [("m2m2", "1,0,0,1,0,0,0,0"), ("sum(zorn|matrix:1)", "1,0,0,0,0,0,0,1,0")]:
        recipe = parse_recipe(text)
        a = build(recipe)
        calls = []
        monkeypatch.setattr(catalog, "build", lambda r: calls.append(r) or build(r))
        e = canonical_idempotent(recipe, a)
        monkeypatch.undo()
        assert calls == [], text
        assert e.coeffs == tuple(F(x) for x in want.split(","))


def test_algebra_json_roundtrip(zorn_algebra, m2):
    from altrings.jsonio import algebra_from_dict, algebra_to_dict

    for a in (zorn_algebra, m2):
        back = algebra_from_dict(algebra_to_dict(a, provenance="test"))
        assert back == a
    data = algebra_to_dict(zorn_algebra)
    # zero products are omitted and rationals travel as canonical strings
    assert all(any(x != "0" for x in entry["value"]) for entry in data["constants"])
    assert data["unit"] == ["1", "0", "0", "0", "0", "0", "0", "1"]
