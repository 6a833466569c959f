"""Weyl's dimension formula as an oracle for the classical multiplicities.

For every highest weight lam, the sum over dominant mu of m(lam, mu) times
the size of the Weyl orbit of mu is dim L(lam), which the Weyl dimension
formula gives as a product over the positive roots alpha of
(lam + rho, alpha^v) / (rho, alpha^v). Nothing here goes through a
q-partition function: the roots, the half squared lengths and the group
orders are literals, and the multiplicities come from the integer routes.
"""

from itertools import product

import pytest

from qkostant.g2_multiplicity import multiplicity
from qkostant.rootsys import FundCoord
from qkostant.sp4 import multiplicity_c2_closed

# Positive roots in the simple-root basis, |a_i|^2 / 2 of the two simple
# roots (a1 short in both algebras), and the order of the Weyl group.
ALGEBRAS = {
    "g2": (((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)), (1, 3), 12),
    "c2": (((1, 0), (0, 1), (1, 1), (2, 1)), (1, 2), 8),
}

MULTIPLICITY = {
    "g2": lambda lam, mu: multiplicity(lam, mu, "tarski"),
    "c2": lambda lam, mu: multiplicity_c2_closed(lam, mu).value,
}

# Every weight of L(lam) with lam in [0,4]^2 has dominant mu in [0,19]^2.
MU_MAX = 19


def weyl_dimension(algebra: str, m: int, n: int) -> int:
    """prod (lam + rho, alpha) / (rho, alpha); (w_i, a_j) is delta_ij |a_j|^2 / 2."""
    roots, half_sq, _ = ALGEBRAS[algebra]
    num = den = 1
    for c1, c2 in roots:
        num *= c1 * (m + 1) * half_sq[0] + c2 * (n + 1) * half_sq[1]
        den *= c1 * half_sq[0] + c2 * half_sq[1]
    dim, rem = divmod(num, den)
    assert rem == 0
    return dim


def orbit_size(algebra: str, x: int, y: int) -> int:
    """|W mu| for dominant mu: |W| over the parabolic subgroup fixing mu."""
    order = ALGEBRAS[algebra][2]
    if x == 0 and y == 0:
        return 1
    if x == 0 or y == 0:
        return order // 2
    return order


def test_dimension_formula_fixtures():
    assert [weyl_dimension("g2", *lam) for lam in ((1, 0), (0, 1), (2, 0))] == [7, 14, 27]
    assert [weyl_dimension("c2", *lam) for lam in ((1, 0), (0, 1), (2, 0))] == [4, 5, 10]


@pytest.mark.parametrize("algebra", list(ALGEBRAS))
@pytest.mark.parametrize("m,n", list(product(range(5), repeat=2)))
def test_weighted_multiplicities_sum_to_the_dimension(algebra, m, n):
    lam = FundCoord(m, n)
    mult = MULTIPLICITY[algebra]
    total = sum(
        mult(lam, FundCoord(x, y)) * orbit_size(algebra, x, y)
        for x, y in product(range(MU_MAX + 1), repeat=2)
    )
    assert total == weyl_dimension(algebra, m, n)
