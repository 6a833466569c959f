"""Weyl's dimension formula as an oracle for the classical multiplicities.

For every highest weight lam, the sum over dominant mu of m(lam, mu) times
the size of the Weyl orbit of mu is dim L(lam), which the Weyl dimension
formula gives as a product over the positive roots alpha of
(lam + rho, alpha^v) / (rho, alpha^v). That check goes through no
q-partition function: the roots, the half squared lengths and the group
orders are literals, and the multiplicities come from the integer routes.

The Kostant-Hesselink harmonic identity checks the q-level routes at large
weights the same way: m_q(lam, 0) is the graded multiplicity of L(lam) in
the harmonic polynomials on the Lie algebra (Kostant 1963; Hesselink 1980),
so for every k, sum_lam dim L(lam) [q^k] m_q(lam, 0) is [q^k] of
prod_i (1 - q^{d_i}) / (1 - q)^{dim g}, with d_i the degrees of the basic
invariants. The right side and the dimensions share no code with the
partition kernels.
"""

from itertools import product
from math import comb

import pytest

from qkostant import rootsys, sp4
from qkostant.g2_multiplicity import multiplicity, qmultiplicity_closed
from qkostant.rootsys import FundCoord
from qkostant.sp4 import multiplicity_c2_closed, multiplicity_c2_weyl_sum

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


# dim g, the degrees of the basic invariants, and the root coordinates of
# m*w1 + n*w2 (doubled, as sp4's w1 is a1 + a2/2) and of the highest root
# theta, doubled too.
HARMONIC = {
    "g2": (14, (2, 6), lambda m, n: (2 * (2 * m + 3 * n), 2 * (m + 2 * n)), (6, 4)),
    "c2": (10, (2, 4), lambda m, n: (2 * (m + n), m + 2 * n), (4, 2)),
}

# The q routes of each algebra that the identity checks.
Q_MULTIPLICITY = {
    "g2": (lambda lam: qmultiplicity_closed(lam, FundCoord(0, 0)).mq,),
    "c2": (
        lambda lam: multiplicity_c2_weyl_sum(lam, FundCoord(0, 0)),
        lambda lam: rootsys.closed(sp4.ALGEBRA, lam, FundCoord(0, 0)).mq,
    ),
}

HARMONIC_DEGREE = 40


def harmonic_series(algebra: str, top: int) -> list[int]:
    """[q^k] prod_i (1 - q^{d_i}) / (1 - q)^{dim g} for k = 0..top."""
    dim, degrees, _, _ = HARMONIC[algebra]
    series = [comb(k + dim - 1, dim - 1) for k in range(top + 1)]
    for d in degrees:
        for k in range(top, d - 1, -1):
            series[k] -= series[k - d]
    return series


def test_harmonic_series_fixtures():
    # The adjoint representation is the degree-1 harmonics; q^2 holds dim S^2(g) - 1.
    assert harmonic_series("g2", 2) == [1, 14, 104]
    assert harmonic_series("c2", 2) == [1, 10, 54]


@pytest.mark.parametrize("algebra", list(HARMONIC))
def test_harmonic_identity(algebra):
    """sum_lam dim L(lam) [q^k] m_q(lam, 0) over every lam <= k*theta, k <= 40.

    g2 reaches lam at root coordinates (120, 80). Its closed route fuses
    every query's terms into one marker chain, so the identity checks that
    chain at every lam. sp4 holds its Weyl sum and its closed q route to
    the identity each.
    """
    _, _, doubled_root, (t1, t2) = HARMONIC[algebra]
    top = HARMONIC_DEGREE
    routes = Q_MULTIPLICITY[algebra]
    totals = [[0] * (top + 1) for _ in routes]
    for m, n in product(range(2 * top + 1), repeat=2):
        c1, c2 = doubled_root(m, n)
        if c1 > top * t1 or c2 > top * t2:
            continue
        dim = weyl_dimension(algebra, m, n)
        for route, total in zip(routes, totals):
            for k, c in enumerate(route(FundCoord(m, n)).coeffs[: top + 1]):
                total[k] += dim * c
    assert totals == [harmonic_series(algebra, top)] * len(routes)
