"""The Kostka-Foulkes polynomials as a q-level oracle for both algebras.

``kostka_foulkes`` shares nothing with the package: no partition function,
no Kostant sum and no Weyl sum. It checks the closed routes and the Weyl
sums polynomial for polynomial, and the integer routes at q = 1.
"""

from itertools import product

import pytest

from qkostant import rootsys, sp4
from qkostant.g2_multiplicity import multiplicity, qmultiplicity_closed
from qkostant.rootsys import FundCoord
from qkostant.sp4 import multiplicity_c2_closed, multiplicity_c2_weyl_sum

from kostka_foulkes import ALGEBRAS, kostka_foulkes, level, root_in_fund

GRID = range(8)


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_level_is_positive_on_the_simple_roots(name):
    alg = ALGEBRAS[name]
    assert level(alg, root_in_fund(alg, (1, 0))) > 0
    assert level(alg, root_in_fund(alg, (0, 1))) > 0


def test_zero_weight_of_the_adjoint_representations():
    # The exponents of g2 are 1 and 5, those of sp4 are 1 and 3 (Kostant).
    assert kostka_foulkes("g2", (0, 1), (0, 0)) == [0, 1, 0, 0, 0, 1]
    assert kostka_foulkes("c2", (2, 0), (0, 0)) == [0, 1, 0, 1]


def test_highest_weight_and_weights_above_it():
    for name, (m, n) in product(ALGEBRAS, product(range(4), repeat=2)):
        assert kostka_foulkes(name, (m, n), (m, n)) == [1]
        assert kostka_foulkes(name, (m, n), (m + 1, n)) == []


@pytest.mark.parametrize("m", GRID)
def test_g2_closed_route_equals_kostka_foulkes(m):
    for n, x, y in product(GRID, repeat=3):
        lam, mu = FundCoord(m, n), FundCoord(x, y)
        expected = kostka_foulkes("g2", lam, mu)
        assert list(qmultiplicity_closed(lam, mu).mq.coeffs) == expected, (m, n, x, y)
        assert multiplicity(lam, mu, "tarski") == sum(expected), (m, n, x, y)


@pytest.mark.parametrize("m", GRID)
def test_sp4_routes_equal_kostka_foulkes(m):
    for n, x, y in product(GRID, repeat=3):
        lam, mu = FundCoord(m, n), FundCoord(x, y)
        expected = kostka_foulkes("c2", lam, mu)
        assert list(multiplicity_c2_weyl_sum(lam, mu).coeffs) == expected, (m, n, x, y)
        assert list(rootsys.closed(sp4.ALGEBRA, lam, mu).mq.coeffs) == expected, (m, n, x, y)
        assert multiplicity_c2_closed(lam, mu).value == sum(expected), (m, n, x, y)
