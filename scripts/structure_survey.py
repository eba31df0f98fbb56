#!/usr/bin/env python3
"""Survey the stock algebras: identities, nucleus/center/derivation dimensions,
and the linear form of the theorem on Lie derivations.

`lieder` is the dimension of LieDer, the linear maps D with
D([x,y]) = [D(x),y] + [x,D(y)]: the kernel of the Leibniz rows over the
commutator table. T holds the linear maps into the center Z that kill the
commutator span [A,A], spanned by the maps x -> f(x) z with z in Z and f a
covector vanishing on [A,A]. Derivations and the maps in T are Lie
derivations, so Der + T lies inside LieDer; `der+T` is its dimension, and the
last column says whether the two spaces are equal.

Usage: python scripts/structure_survey.py
"""

from altrings import analyze
from altrings.catalog import build, parse_recipe
from altrings.structure import lie_derivation_split

RECIPES = ("matrix:1", "matrix:2", "matrix:3", "matrix:4", "zorn", "cd:-1,-1", "cd:-1,-1,-1",
           "cd:1,1,1", "cd:-1,-1,-1,-1", "m2m2", "sum(zorn|matrix:1)", "sum(matrix:2|matrix:1)",
           "sum(zorn|zorn)")


def main():
    header = (f"{'algebra':<24}{'dim':>4}{'nuc':>5}{'cen':>5}{'der':>5}{'lieder':>8}"
              f"{'der+T':>7}  alt flex assoc  LieDer=Der+T")
    print(header)
    print("-" * len(header))
    for recipe in RECIPES:
        algebra = build(parse_recipe(recipe))
        rep = analyze(algebra)
        lie, der_t = lie_derivation_split(algebra)
        flags = "  ".join(
            "y" if f else "n"
            for f in (rep.is_alternative, rep.is_flexible, rep.is_associative)
        )
        print(f"{recipe:<24}{algebra.dim:>4}{rep.nucleus.dim:>5}{rep.center.dim:>5}"
              f"{rep.derivation_dim:>5}{lie.dim:>8}{der_t.dim:>7}  {flags}"
              f"     {'y' if lie == der_t else 'n'}")


if __name__ == "__main__":
    main()
