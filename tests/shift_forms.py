"""Shared fixture data: the affine form of sigma(lam+rho)-(mu+rho) for every
Weyl element, as functions of the fundamental coordinates (m, n, x, y).
Transcribed independently of the matrix machinery they are checked against.

``sigma_shift`` computes the same weights from the group matrices. The
package no longer uses it: its closed routes and Weyl sums read the shifts
off the shifted orbit in doubled coordinates. It stays here, with the g2
constants it needs, for the tests that hold the matrices to these forms.
"""

from qkostant.rootsys import G2, FundCoord, Mat, RootCoord, WeylElement, to_root

# Half-sum of the positive roots; also w1 + w2.
RHO = RootCoord(5, 3)

# Columns are w1 = 2a1 + a2 and w2 = 3a1 + 2a2.
FUND_TO_ROOT: Mat = ((2, 3), (1, 2))


def sigma_shift(sigma: WeylElement, lam: FundCoord, mu: FundCoord) -> RootCoord:
    """sigma(lam + rho) - (mu + rho), everything in g2 root coordinates."""
    lr = to_root(G2, lam)
    mr = to_root(G2, mu)
    moved = sigma.apply(RootCoord(lr.c1 + RHO.c1, lr.c2 + RHO.c2))
    return RootCoord(moved.c1 - mr.c1 - RHO.c1, moved.c2 - mr.c2 - RHO.c2)


SHIFT_FORMS = {
    "1": lambda m, n, x, y: (2 * m + 3 * n - 2 * x - 3 * y, m + 2 * n - x - 2 * y),
    "s1": lambda m, n, x, y: (m + 3 * n - 2 * x - 3 * y - 1, m + 2 * n - x - 2 * y),
    "s2": lambda m, n, x, y: (2 * m + 3 * n - 2 * x - 3 * y, m + n - x - 2 * y - 1),
    "s2s1": lambda m, n, x, y: (m + 3 * n - 2 * x - 3 * y - 1, n - x - 2 * y - 2),
    "s1s2": lambda m, n, x, y: (m - 2 * x - 3 * y - 4, m + n - x - 2 * y - 1),
    "s1s2s1": lambda m, n, x, y: (-m - 2 * x - 3 * y - 6, n - x - 2 * y - 2),
    "s2s1s2": lambda m, n, x, y: (m - 2 * x - 3 * y - 4, -n - x - 2 * y - 4),
    "(s1s2)^2": lambda m, n, x, y: (-m - 3 * n - 2 * x - 3 * y - 9, -n - x - 2 * y - 4),
    "(s2s1)^2": lambda m, n, x, y: (-m - 2 * x - 3 * y - 6, -m - n - x - 2 * y - 5),
    "s1(s2s1)^2": lambda m, n, x, y: (
        -2 * m - 3 * n - 2 * x - 3 * y - 10,
        -m - n - x - 2 * y - 5,
    ),
    "s2(s1s2)^2": lambda m, n, x, y: (
        -m - 3 * n - 2 * x - 3 * y - 9,
        -m - 2 * n - x - 2 * y - 6,
    ),
    "(s1s2)^3": lambda m, n, x, y: (
        -2 * m - 3 * n - 2 * x - 3 * y - 10,
        -m - 2 * n - x - 2 * y - 6,
    ),
}
