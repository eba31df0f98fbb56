"""Seeded random rational values for probabilistic checks.

Coefficients are numerator in [-HEIGHT, HEIGHT] over denominator in {1, 2, 3};
every caller passes an explicit seed so runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .linalg import Vec

DENOMINATORS = (1, 2, 3)
HEIGHT = 9
MAX_DEGREE = 3


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-HEIGHT, HEIGHT), rng.choice(DENOMINATORS))


def random_vector(rng: random.Random, n: int) -> Vec:
    return tuple(random_rational(rng) for _ in range(n))


def random_nonzero_vector(rng: random.Random, n: int) -> Vec:
    while True:
        v = random_vector(rng, n)
        if any(v):
            return v


def random_poly(rng: random.Random) -> tuple[Fraction, ...]:
    """Coefficients by degree with zero constant term (index 0)."""
    deg = rng.randint(1, MAX_DEGREE)
    return (Fraction(0),) + tuple(random_rational(rng) for _ in range(deg))
