#!/usr/bin/env python3
"""End-to-end demo: split a random Lie multiplicative derivation on the
vector-matrix algebra into derivation + center-valued residual.

Usage: python scripts/roundtrip_demo.py [seed]
"""

import sys

from altrings import (
    SampleBudget,
    center,
    check_hypotheses,
    check_lie_law,
    decompose,
    make_context,
)
from altrings.catalog import random_lie_derivation, zorn


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    algebra = zorn()
    ctx = make_context(algebra, algebra.basis_element(0))
    budget = SampleBudget(seed=seed)

    spec = random_lie_derivation(algebra, budget)
    print(f"seed {seed}: generated map with {len(spec.terms)} central term(s)")
    print("  lie law:", check_lie_law(spec, budget))
    hyp = check_hypotheses(ctx, spec, budget)
    print("  hypothesis a:", hyp.a.ok, " hypothesis b:", hyp.b.ok)

    result = decompose(ctx, spec, budget)
    print("decomposition checks:")
    for check in result.checks:
        print(f"  {check.name:<28} {'pass' if check.ok else 'FAIL'} [{check.mode}]")

    cen = center(algebra)
    drift = result.delta - spec.linear
    drift_ok = all(cen.contains_vector(drift.col(k)) for k in range(algebra.dim))
    print("delta drift from the generator's derivation part is central:", drift_ok)
    a = algebra.element(range(1, 9))
    print("sample evaluation at 1*e1 + 2*u1 + ... :")
    print("  D(a)     =", spec(a))
    print("  delta(a) =", algebra.element(result.delta.apply(a.coeffs)))
    print("  tau(a)   =", result.tau(a))


if __name__ == "__main__":
    main()
