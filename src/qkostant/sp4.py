"""Corrected partition and multiplicity formulas for sp4.

Positive roots in the simple-root basis: a1, a2, a1+a2, 2a1+a2. The
fundamental weights live outside the root lattice (w1 = a1 + a2/2), so the
Weyl-sum oracle tracks weights in doubled root coordinates and drops any
term whose shifted weight fails to land back on the root lattice; the closed
q route sums only the terms P, Q, R of the alternation set. Each adds its
terms' signed run markers into one difference array and takes one prefix sum.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, repeat
from operator import add, sub
from typing import NamedTuple, Sequence

from .errors import InternalConsistencyError
from .qpoly import QPoly, checked_int
from .rootsys import (
    C2,
    FundCoord,
    Mat,
    MultiplicityResult,
    RootCoord,
    _as_fund,
    _as_root,
    alternation_terms,
    closed_result,
    doubled,
    qpartition_enumerated,
    weyl_elements,
    weyl_terms,
)

def _c2_marks(diff: list[int], m: int, n: int, sign: int) -> None:
    """Add sign times the run markers of the sp4 q-partition at (m, n) into diff.

    For i = 0..min(m//2, n) copies of the long root 2a1+a2, the remaining
    decompositions contribute one q^j for every j from max(m-i, n) to
    m+n-2i. In a difference array, the run starts m-i (while i <= m-n)
    are one unit-stride slice, the starts at n are one point, and the run
    ends m+n-2i+1 are one stride-2 slice that stops at m+n+1, since diff
    may be longer than m+n+2. Its prefix sum is then the q-partition.
    """
    top = m // 2 if m // 2 < n else n  # min() is a slower call here
    moving = m - n + 1 if m - n < top else top + 1  # how many i start at m-i
    if moving > 0:
        first = m + 1 - moving
        diff[first : m + 1] = map(add, diff[first : m + 1], repeat(sign))
    else:
        moving = 0
    diff[n] += sign * (top + 1 - moving)
    ends, stop = m + n + 1 - 2 * top, m + n + 2
    diff[ends:stop:2] = map(sub, diff[ends:stop:2], repeat(sign))


def _c2_sum(terms: Sequence[tuple[int, tuple[int, int]]]) -> QPoly:
    """The sum of sign * qpartition_c2((m, n)) over (sign, (m, n)) pairs with m, n >= 0.

    A prefix sum is linear, so each term adds its signed markers into one
    difference array, whose one prefix sum is the result.
    """
    if not terms:
        return QPoly()
    diff = [0] * (max(m + n for _, (m, n) in terms) + 2)
    for sign, (m, n) in terms:
        _c2_marks(diff, m, n, sign)
    return QPoly(accumulate(diff))


def qpartition_c2(v: RootCoord) -> QPoly:
    """q-analog of Kostant's partition function for sp4, closed double sum.

    The one-term _c2_sum, in O(N) time for N = m + n with no Python loop.
    """
    m, n = _as_root(v)
    if m < 0 or n < 0:
        return QPoly()
    return _c2_sum([(1, (m, n))])


def qpartition_c2_bruteforce(v: RootCoord) -> QPoly:
    """Definitional oracle: enumerate decompositions into the four roots."""
    return qpartition_enumerated(C2.positive_roots, v)


def _closed_form(m: int, n: int) -> int:
    """Four-region closed form of the sp4 partition count."""
    half = m // 2
    if n >= m:
        return (half + 1) * (m - half + 1)
    if 2 * n - 1 > m > n:
        quad, rem = divmod(2 * m * n - m * m - n * n + m + n, 2)
        if rem:
            raise InternalConsistencyError(f"odd quadratic term at ({m}, {n})")
        return quad + half * (m - half) + 1
    if 2 * n > m >= 2 * n - 1 > n:
        value, rem = divmod((half + 1) * (2 * n - half + 2), 2)
        if rem:
            raise InternalConsistencyError(f"odd edge-region value at ({m}, {n})")
        return value
    return (n + 1) * (n + 2) // 2  # m >= 2n


def partition_c2_closed(v: RootCoord) -> int:
    """Partition count at q = 1 for sp4; 0 when a coordinate is negative.

    A count outside the signed 64-bit range raises CoefficientOverflowError.
    """
    m, n = _as_root(v)
    if m < 0 or n < 0:
        return 0
    return checked_int(_closed_form(m, n))


class Sp4CaseData(NamedTuple):
    """Case integers for an sp4 weight pair; b and d are stored doubled.

    b and d, the a2-coordinates of the terms P and R, are half-integers when
    m - x is odd, so membership in N means "doubled value nonnegative and
    even". All arithmetic stays in plain integers this way.
    """

    a: int
    two_b: int
    c: int
    two_d: int
    in_n: tuple[bool, bool, bool, bool]
    case_label: str

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.two_b, self.c, self.two_d)


def _case_data(shifts: list[tuple[int, int, int]], label: str) -> Sp4CaseData:
    # Doubled P = (2a, 2b), Q = (2c, 2b), R = (2a, 2d); sp4's u is always even.
    (_, two_a, two_b), (_, two_c, _), (_, _, two_d) = shifts
    a, c = two_a >> 1, two_c >> 1
    b_ok = two_b >= 0 and two_b % 2 == 0
    d_ok = two_d >= 0 and two_d % 2 == 0
    return Sp4CaseData(a, two_b, c, two_d, (a >= 0, b_ok, c >= 0, d_ok), label)


def compute_case_c2(lam: FundCoord, mu: FundCoord) -> Sp4CaseData:
    """The case integers of (lam, mu), read off the alternation set, and their case."""
    shifts, label, _ = alternation_terms(C2, lam, mu)
    return _case_data(shifts, label)


class Sp4MultiplicityResult(NamedTuple):
    lam: FundCoord
    mu: FundCoord
    case: Sp4CaseData
    value: int


def multiplicity_c2_closed(lam: FundCoord, mu: FundCoord) -> Sp4MultiplicityResult:
    """Classical multiplicity m(lam, mu) for sp4 via the corrected cases.

    The terms P, Q, R are those of the Weyl elements 1, s1, s2. Each
    contributing term is the regional partition count at that term's own
    coordinates: P at (a, b), Q at (c, b), R at (a, d). Since b > c and
    a > 2d whenever those terms are selected, Q always reduces to
    floor((c+2)/2) * ceil((c+2)/2) and R to (d+1)(d+2)/2.
    """
    shifts, label, terms = alternation_terms(C2, lam, mu)
    value = 0
    for _, sign, v in terms:
        value += sign * partition_c2_closed(v)
    if value < 0:
        raise InternalConsistencyError(
            f"negative multiplicity {value} for ({tuple(lam)}, {tuple(mu)})"
        )
    return Sp4MultiplicityResult(
        _as_fund(lam), _as_fund(mu), _case_data(shifts, label), checked_int(value)
    )


def qmultiplicity_c2_closed(lam: FundCoord, mu: FundCoord) -> MultiplicityResult:
    """m_q(lam, mu) for sp4: one _c2_sum of the terms of P, Q, R that its case combines."""
    shifts, label, terms = alternation_terms(C2, lam, mu)
    mq = _c2_sum([(sign, v) for _, sign, v in terms])
    return closed_result(lam, mu, _case_data(shifts, label), terms, mq)


@cache
def weyl_group_c2() -> tuple[tuple[Mat, int], ...]:
    """The 8 sp4 Weyl elements as (matrix, length), sorted by length, then matrix."""
    group = ((elem.matrix, elem.length) for elem in weyl_elements(C2))
    return tuple(sorted(group, key=lambda item: (item[1], item[0])))


def fundamental_weights_c2() -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """(w1, w2, rho) in doubled root coordinates: (2, 1), (2, 2) and (4, 3)."""
    return C2.two_w1, C2.two_w2, doubled(C2, (1, 1))


def multiplicity_c2_weyl_sum(lam: FundCoord, mu: FundCoord) -> QPoly:
    """m_q(lam, mu) for sp4 as the alternating sum over its 8 Weyl elements.

    The term of sigma is the q-partition of sigma(lam + rho) - (mu + rho).
    """
    return _c2_sum(weyl_terms(C2, lam, mu))
