"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Everything here is exact rational arithmetic; "sampled" only ever widens the
set of points checked, never introduces a tolerance.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest

from altrings import (
    MapSpec,
    SampleBudget,
    associator,
    center,
    check_alternative,
    check_flexible,
    check_hypotheses,
    check_prime,
    decompose,
    derivation_algebra,
    inner_f,
    normalize_at_idempotent,
    nucleus,
    verify_offdiag_centralizer,
    verify_prop_spade_club,
    verify_relations,
)
from altrings.catalog import (
    direct_sum,
    matrix_algebra,
    octonion_algebra,
    random_lie_derivation,
    zorn,
)
from altrings.cli import main as cli_main
from altrings.liederiv import check_lie_law
from altrings.linalg import Matrix, Subspace, is_zero_vec, vec_sub
from altrings.peirce import check_conditions
from altrings.sampling import random_vector, rng_for
from altrings.structure import derivation_span, is_derivation

F = Fraction

TRIALS = 50
SAMPLES = 200


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def _roundtrip_trials(ctx, count: int, seed_base: int):
    """Shared driver for criteria 5 and 6: returns per-trial records."""
    algebra = ctx.algebra
    cen = center(algebra)
    n = algebra.dim
    basis_pairs = [
        (algebra.basis_vec(i), algebra.basis_vec(j))
        for i in range(n)
        for j in range(n)
        if i < j
    ]
    records = []
    for trial in range(count):
        budget = SampleBudget(seed=seed_base + trial, pair_samples=5, element_samples=5)
        spec = random_lie_derivation(algebra, budget)

        shifted, _y, _f = normalize_at_idempotent(ctx, spec)
        normalized_central = cen.contains_vector(
            shifted.eval_vec(ctx.e1.coeffs)
        ) and cen.contains_vector(shifted.eval_vec(ctx.e2.coeffs))

        result = decompose(ctx, spec, budget)
        delta, tau = result.delta, result.tau

        leibniz = is_derivation(algebra, delta)

        rng = rng_for(10_000 + seed_base + trial)
        reassembles = True
        tau_central = True
        for _ in range(SAMPLES):
            a = random_vector(rng, n)
            tau_val = tau.eval_vec(a)
            if spec.eval_vec(a) != tuple(
                x + y for x, y in zip(delta.apply(a), tau_val)
            ):
                reassembles = False
                break
            if not cen.contains_vector(tau_val):
                tau_central = False
                break

        kills_commutators = True
        pair_iter = list(basis_pairs) + [
            (random_vector(rng, n), random_vector(rng, n)) for _ in range(SAMPLES)
        ]
        for x, y in pair_iter:
            comm = vec_sub(algebra.mul_vec(x, y), algebra.mul_vec(y, x))
            if not is_zero_vec(tau.eval_vec(comm)):
                kills_commutators = False
                break

        drift = delta - spec.linear
        drift_central = all(cen.contains_vector(drift.col(k)) for k in range(n))

        records.append({
            "normalized_central": normalized_central,
            "leibniz": leibniz,
            "reassembles": reassembles,
            "tau_central": tau_central,
            "kills_commutators": kills_commutators,
            "drift_central": drift_central,
        })
    return records


@pytest.fixture(scope="module")
def zorn_trials(zorn_ctx):
    return _roundtrip_trials(zorn_ctx, TRIALS, seed_base=7_000)


@pytest.fixture(scope="module")
def m2_trials(m2_ctx):
    return _roundtrip_trials(m2_ctx, TRIALS, seed_base=9_000)


def test_criterion_1_identity_suite(m2, m3, zorn_algebra):
    with criterion(1, "identity suite"):
        subjects = [m2, m3, zorn_algebra,
                    octonion_algebra((-1, -1, -1)),
                    octonion_algebra((1, 1, 1)),
                    octonion_algebra((-1, -1, 1))]
        for algebra in subjects:
            assert check_alternative(algebra)
            assert check_flexible(algebra)
        # exhibited witness: brute force over basis triples, independent of
        # the library's own witness search
        witness = None
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    w = associator(zorn_algebra.basis_element(i),
                                   zorn_algebra.basis_element(j),
                                   zorn_algebra.basis_element(k))
                    if not w.is_zero():
                        witness = (i, j, k, w)
                        break
                if witness:
                    break
            if witness:
                break
        assert witness is not None


def test_criterion_2_structure_oracle(m2, zorn_algebra):
    with criterion(2, "structure oracle"):
        assert center(zorn_algebra).basis == (zorn_algebra.unit,)
        assert nucleus(zorn_algebra).basis == (zorn_algebra.unit,)
        assert nucleus(m2) == Subspace.full(4)
        ders_m2 = derivation_algebra(m2)
        ders_zorn = derivation_algebra(zorn_algebra)
        assert len(ders_m2) == 3
        assert len(ders_zorn) == 14
        for algebra, ders in ((m2, ders_m2), (zorn_algebra, ders_zorn)):
            for d in ders:
                assert is_derivation(algebra, d)  # every Leibniz row annihilates vec(d)


def test_criterion_3_peirce_suite(zorn_ctx, m2m2_ctx):
    with criterion(3, "Peirce suite"):
        assert zorn_ctx.dims == (1, 3, 3, 1)
        assert verify_relations(zorn_ctx).ok
        zorn_conditions = check_conditions(zorn_ctx)
        assert zorn_conditions.all_hold
        sum_conditions = check_conditions(m2m2_ctx)
        c2 = sum_conditions.checks[1]
        assert not c2.ok
        assert c2.witness is not None


def test_criterion_4_inner_correction(zorn_algebra):
    with criterion(4, "inner correction is a derivation"):
        span = derivation_span(zorn_algebra)
        assert span.dim == 14
        rng = rng_for(4242)
        for _ in range(100):
            y = zorn_algebra.element(random_vector(rng, 8))
            z = zorn_algebra.element(random_vector(rng, 8))
            f = inner_f(zorn_algebra, y, z)  # raises unless Leibniz holds
            assert is_derivation(zorn_algebra, f)
            flat = tuple(x for row in f.rows for x in row)
            assert span.contains_vector(flat)


def test_criterion_5_roundtrip(zorn_trials, m2_trials):
    with criterion(5, "main-theorem round-trip"):
        for records in (zorn_trials, m2_trials):
            assert len(records) == TRIALS
            for rec in records:
                assert rec["leibniz"]
                assert rec["reassembles"]
                assert rec["tau_central"]
                assert rec["kills_commutators"]
                assert rec["drift_central"]


def test_criterion_6_normalization(zorn_trials, m2_trials):
    with criterion(6, "normalization postcondition"):
        for records in (zorn_trials, m2_trials):
            assert all(rec["normalized_central"] for rec in records)


def test_criterion_7_converse(zorn_ctx, m2_ctx, m3_ctx):
    with criterion(7, "converse direction"):
        budget = SampleBudget(seed=77, pair_samples=10, element_samples=100)
        for ctx, seed_base in ((zorn_ctx, 100), (m2_ctx, 200)):
            for trial in range(10):
                gen_budget = SampleBudget(seed=seed_base + trial,
                                          pair_samples=5, element_samples=5)
                spec = random_lie_derivation(ctx.algebra, gen_budget)
                assert check_lie_law(spec, gen_budget).ok
                report = check_hypotheses(ctx, spec, budget)
                assert report.both_hold
        # deliberately corrupted: an R11 basis vector sent to a non-central
        # element of the (2,2) corner must fail hypothesis a) with a witness
        m3 = m3_ctx.algebra
        rows = [[F(0)] * 9 for _ in range(9)]
        rows[5][0] = F(1)  # E11 -> E23
        corrupted = MapSpec(m3, Matrix.from_rows(rows))
        report = check_hypotheses(m3_ctx, corrupted, budget)
        assert not report.a.ok
        assert report.a.witness is not None


def test_criterion_8_primality(m2, zorn_algebra, m2m2, m2_ctx, zorn_ctx):
    with criterion(8, "primality and centralizer propositions"):
        for algebra in (m2m2, direct_sum(zorn_algebra, matrix_algebra(1))):
            result = check_prime(algebra, trials=5, seed=8)
            assert not result.probably_prime
            a, b = result.witness
            assert not a.is_zero() and not b.is_zero()
            for k in range(algebra.dim):
                prod = algebra.mul_vec(
                    algebra.mul_vec(a.coeffs, algebra.basis_vec(k)), b.coeffs
                )
                assert is_zero_vec(prod)
        assert check_prime(m2, trials=100, seed=8).probably_prime
        assert check_prime(zorn_algebra, trials=100, seed=8).probably_prime
        for ctx in (m2_ctx, zorn_ctx):
            assert [c.ok for c in verify_prop_spade_club(ctx)] == [True, True]
            assert verify_offdiag_centralizer(ctx).ok


def test_criterion_9_determinism(capsys):
    with criterion(9, "fuzz determinism"):
        args = ["fuzz", "zorn", "--trials", "50", "--seed", "7", "--json"]
        assert cli_main(list(args)) == 0
        first = capsys.readouterr().out
        assert cli_main(list(args)) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()
        assert '"ok": true' in first
