from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from altrings import Algebra, make_context, matrix_algebra, zorn
from altrings.catalog import direct_sum

settings.register_profile(
    "exact",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def m2():
    return matrix_algebra(2)


@pytest.fixture(scope="session")
def m3():
    return matrix_algebra(3)


@pytest.fixture(scope="session")
def zorn_algebra():
    return zorn()


@pytest.fixture(scope="session")
def m2m2(m2):
    return direct_sum(m2, m2)


@pytest.fixture(scope="session")
def m2_ctx(m2):
    return make_context(m2, m2.basis_element(0))


@pytest.fixture(scope="session")
def m3_ctx(m3):
    return make_context(m3, m3.basis_element(0))


@pytest.fixture(scope="session")
def zorn_ctx(zorn_algebra):
    return make_context(zorn_algebra, zorn_algebra.basis_element(0))


@pytest.fixture(scope="session")
def m2m2_ctx(m2m2):
    return make_context(m2m2, m2m2.element([1, 0, 0, 1, 0, 0, 0, 0]))


@pytest.fixture(scope="session")
def nonalternative():
    """dim-3 unital algebra with a*a = b, a*b = 0, b*a = 1: (a,a,a) = 1 != 0."""
    z = Fraction(0)
    o = Fraction(1)

    def basis(i):
        return tuple(o if k == i else z for k in range(3))

    products = {
        (0, 0): basis(0), (0, 1): basis(1), (0, 2): basis(2),
        (1, 0): basis(1), (1, 1): basis(2),
        (2, 0): basis(2), (2, 1): basis(0),
    }
    return Algebra(products, basis(0), ["1", "a", "b"])
