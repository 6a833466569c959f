"""Kostka-Foulkes polynomials of g2 and sp4, through Hall-Littlewood polynomials.

For dominant lam and mu, Lusztig (1983) and Kato (1982) show that the
q-analog of the weight multiplicity, m_q(lam, mu), is the Kostka-Foulkes
polynomial K_{lam,mu}(q): the transition matrix in

    chi(lam) = sum over dominant mu of K_{lam,mu}(q) P_mu(q)

from Weyl characters to Hall-Littlewood polynomials. Macdonald's formula
for P_mu, with the Weyl denominator divided out, reads

    W_mu(q) P_mu = sum over subsets S of the positive roots of (-q)^|S| chi(mu - sum S),

where chi of a non-dominant weight is straightened by the dot action and
W_mu(q) is the Poincare polynomial of the stabiliser of mu. Every weight on
the right is at most mu, so P_mu is chi(mu) plus lower terms and K follows
by unitriangular back-substitution over the dominant weights.

Nothing here uses a partition function, a Kostant sum or a Weyl-group sum.
The Cartan matrices and roots are literals, weights are (x, y) pairs in the
fundamental basis, and a polynomial is a list of integer coefficients,
lowest degree first, without trailing zeros.
"""

from functools import cache
from itertools import combinations
from typing import NamedTuple


class Algebra(NamedTuple):
    cartan: tuple[tuple[int, int], tuple[int, int]]  # row i: a_i in the fundamental basis
    positive_roots: tuple[tuple[int, int], ...]  # in the simple-root basis
    coxeter_number: int
    level: tuple[int, int]  # a linear form that is positive on a1 and a2


ALGEBRAS = {
    # a1 short: (a1, a2^v) = -1 and (a2, a1^v) = -3.
    "g2": Algebra(
        ((2, -1), (-3, 2)),
        ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)),
        6,
        (3, 5),
    ),
    # a1 short: (a1, a2^v) = -1 and (a2, a1^v) = -2.
    "c2": Algebra(((2, -1), (-2, 2)), ((1, 0), (0, 1), (1, 1), (2, 1)), 4, (3, 4)),
}


def root_in_fund(alg: Algebra, root: tuple[int, int]) -> tuple[int, int]:
    (p, q), (r, s) = alg.cartan
    c1, c2 = root
    return (c1 * p + c2 * r, c1 * q + c2 * s)


def level(alg: Algebra, w: tuple[int, int]) -> int:
    return alg.level[0] * w[0] + alg.level[1] * w[1]


def straighten(alg: Algebra, nu: tuple[int, int]) -> tuple[int, tuple[int, int]] | None:
    """chi(nu) = sign * chi(dominant): reflect nu + rho into the dominant chamber.

    In the fundamental basis the simple reflection s_i subtracts x_i * a_i
    from x. Returns None when nu + rho lies on a wall, where chi(nu) = 0.
    """
    x = [nu[0] + 1, nu[1] + 1]
    sign = 1
    while True:
        if x[0] == 0 or x[1] == 0:
            return None
        if x[0] > 0 and x[1] > 0:
            return sign, (x[0] - 1, x[1] - 1)
        i = 0 if x[0] < 0 else 1
        a = alg.cartan[i]
        x = [x[0] - x[i] * a[0], x[1] - x[i] * a[1]]
        sign = -sign


def trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def add_into(acc: list[int], p: list[int], scale: int = 1) -> list[int]:
    if len(acc) < len(p):
        acc.extend([0] * (len(p) - len(acc)))
    for i, c in enumerate(p):
        acc[i] += scale * c
    return trim(acc)


def mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def divide(p: list[int], d: list[int]) -> list[int]:
    """p / d for a monic divisor d; the division must be exact."""
    p = list(p)
    quotient = [0] * max(len(p) - len(d) + 1, 0)
    for i in range(len(quotient) - 1, -1, -1):
        quotient[i] = c = p[i + len(d) - 1]
        for j, b in enumerate(d):
            p[i + j] -= c * b
    if any(p):
        raise ArithmeticError("inexact polynomial division")
    return trim(quotient)


def stabiliser_poincare(alg: Algebra, mu: tuple[int, int]) -> list[int]:
    """W_mu(q): 1, 1+q, or (1+q)(1+q+...+q^(h-1)) for the whole group."""
    zeros = (mu[0] == 0) + (mu[1] == 0)
    if zeros == 0:
        return [1]
    if zeros == 1:
        return [1, 1]
    return mul([1, 1], [1] * alg.coxeter_number)


@cache
def hall_littlewood(name: str, mu: tuple[int, int]) -> dict[tuple[int, int], list[int]]:
    """P_mu as {dominant nu: coefficient of chi(nu)}; the chi(mu) coefficient is 1."""
    alg = ALGEBRAS[name]
    roots = [root_in_fund(alg, r) for r in alg.positive_roots]
    total: dict[tuple[int, int], list[int]] = {}
    for size in range(len(roots) + 1):
        monomial = [0] * size + [(-1) ** size]
        for subset in combinations(roots, size):
            nu = (mu[0] - sum(r[0] for r in subset), mu[1] - sum(r[1] for r in subset))
            straight = straighten(alg, nu)
            if straight is not None:
                sign, dominant = straight
                add_into(total.setdefault(dominant, []), monomial, sign)
    poincare = stabiliser_poincare(alg, mu)
    expansion = {nu: divide(p, poincare) for nu, p in total.items() if p}
    if expansion[mu] != [1] or any(
        level(alg, nu) >= level(alg, mu) for nu in expansion if nu != mu
    ):
        raise ArithmeticError(f"P_{mu} is not chi({mu}) plus lower terms")
    return expansion


@cache
def kostka_foulkes_row(name: str, lam: tuple[int, int]) -> dict[tuple[int, int], list[int]]:
    """{dominant mu: K_{lam,mu}(q)} for every mu with a nonzero polynomial.

    Starting from chi(lam), the highest remaining chi(nu) fixes K_{lam,nu}
    and K_{lam,nu} * P_nu is taken away, until nothing remains.
    """
    alg = ALGEBRAS[name]
    remainder = {lam: [1]}
    row = {}
    while remainder:
        nu = max(remainder, key=lambda w: level(alg, w))
        coeff = remainder.pop(nu)
        if not coeff:
            continue
        row[nu] = coeff
        for kappa, p in hall_littlewood(name, nu).items():
            if kappa != nu:
                add_into(remainder.setdefault(kappa, []), mul(coeff, p), -1)
    return row


def kostka_foulkes(name: str, lam: tuple[int, int], mu: tuple[int, int]) -> list[int]:
    """K_{lam,mu}(q) = m_q(lam, mu) as coefficients, lowest degree first."""
    return kostka_foulkes_row(name, tuple(lam)).get(tuple(mu), [])
