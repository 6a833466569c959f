"""Corrected partition and multiplicity formulas for sp4.

Positive roots in the simple-root basis: a1, a2, a1+a2, 2a1+a2. The
fundamental weights live outside the root lattice (w1 = a1 + a2/2), so the
Weyl-sum oracle tracks weights in doubled root coordinates and drops any
term whose shifted weight fails to land back on the root lattice.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import accumulate, repeat
from operator import sub
from typing import NamedTuple

from .errors import InternalConsistencyError
from .qpoly import QPoly, checked_int
from .rootsys import (
    C2,
    FundCoord,
    Mat,
    RootCoord,
    alternation_shifts,
    doubled,
    qpartition_enumerated,
    to_fund,
    to_root,
    weyl_elements,
    weyl_sum,
)

POSITIVE_ROOTS_C2: tuple[RootCoord, ...] = C2.positive_roots


@lru_cache(maxsize=None)
def qpartition_c2(v: RootCoord) -> QPoly:
    """q-analog of Kostant's partition function for sp4, closed double sum.

    For i = 0..min(m//2, n) copies of the long root 2a1+a2, the remaining
    decompositions contribute one q^j for every j from max(m-i, n) to
    m+n-2i. In one difference array, the run starts m-i (while i <= m-n)
    are one unit-stride slice, the starts at n are one point, and the run
    ends m+n-2i+1 are one stride-2 slice, so the sum costs O(N) for
    N = m + n with no Python loop.
    """
    m, n = v
    if type(m) is not int or type(n) is not int:  # bool is rejected too
        raise ValueError(f"qpartition_c2 needs integer coordinates, got {tuple(v)!r}")
    if m < 0 or n < 0:
        return QPoly()
    top = m // 2 if m // 2 < n else n  # min() is a slower call here
    moving = m - n + 1 if m - n < top else top + 1  # how many i start at m-i
    if moving < 0:
        moving = 0
    diff = [0] * (m + n + 2)
    diff[m + 1 - moving : m + 1] = [1] * moving
    diff[n] += top + 1 - moving
    ends = m + n + 1 - 2 * top
    diff[ends::2] = map(sub, diff[ends::2], repeat(1))
    return QPoly(accumulate(diff))


def qpartition_c2_bruteforce(v: RootCoord) -> QPoly:
    """Definitional oracle: enumerate decompositions into the four roots."""
    return qpartition_enumerated(POSITIVE_ROOTS_C2, v)


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
    """Partition count at q = 1 for sp4; requires nonnegative integer coordinates.

    A count outside the signed 64-bit range raises CoefficientOverflowError.
    """
    m, n = v
    if type(m) is not int or type(n) is not int:  # bool is rejected too
        raise ValueError(f"partition_c2_closed needs integer coordinates, got {tuple(v)!r}")
    if m < 0 or n < 0:
        raise ValueError(f"partition_c2_closed needs nonnegative coordinates, got {tuple(v)}")
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
    a_in_n: bool
    b_in_n: bool
    c_in_n: bool
    d_in_n: bool
    case_label: str

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.two_b, self.c, self.two_d)

    @property
    def in_n(self) -> tuple[bool, bool, bool, bool]:
        return (self.a_in_n, self.b_in_n, self.c_in_n, self.d_in_n)


def _case_data(shifts: list[tuple[int, int, int]]) -> Sp4CaseData:
    # Doubled P = (2a, 2b), Q = (2c, 2b), R = (2a, 2d); sp4's u is always even.
    (_, two_a, two_b), (_, two_c, _), (_, _, two_d) = shifts
    a, c = two_a >> 1, two_c >> 1
    a_ok = a >= 0
    b_ok = two_b >= 0 and two_b % 2 == 0
    c_ok = c >= 0
    d_ok = two_d >= 0 and two_d % 2 == 0
    if not (a_ok and b_ok):
        label = "ZERO"
    elif c_ok and d_ok:
        label = "PQR"
    elif c_ok:
        label = "PQ"
    elif d_ok:
        label = "PR"
    else:
        label = "P"
    return Sp4CaseData(a, two_b, c, two_d, a_ok, b_ok, c_ok, d_ok, label)


def compute_case_c2(lam: FundCoord, mu: FundCoord) -> Sp4CaseData:
    """The case integers of (lam, mu), read off the alternation set, and their case."""
    return _case_data(alternation_shifts(C2, lam, mu))


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
    shifts = alternation_shifts(C2, lam, mu)
    case = _case_data(shifts)
    label = case.case_label
    value = 0
    if label != "ZERO":
        for (name, _), (sign, u, v) in zip(C2.alternation, shifts):
            if name in label:
                value += sign * partition_c2_closed(RootCoord(u >> 1, v >> 1))
    if value < 0:
        raise InternalConsistencyError(
            f"negative multiplicity {value} for ({tuple(lam)}, {tuple(mu)})"
        )
    return Sp4MultiplicityResult(lam, mu, case, checked_int(value))


@cache
def weyl_group_c2() -> tuple[tuple[Mat, int], ...]:
    """The 8 sp4 Weyl elements as (matrix, length), sorted by length, then matrix."""
    group = ((elem.matrix, elem.length) for elem in weyl_elements(C2))
    return tuple(sorted(group, key=lambda item: (item[1], item[0])))


def fundamental_weights_c2() -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """(w1, w2, rho) in doubled root coordinates: (2, 1), (2, 2) and (4, 3)."""
    return C2.two_w1, C2.two_w2, doubled(C2, (1, 1))


def fund_to_root_c2(w: FundCoord) -> RootCoord | None:
    """Root coordinates of m*w1 + n*w2, or None when m is odd.

    Odd m puts the weight off the root lattice (its a2-coordinate is a
    half-integer), where the partition count is zero by definition.
    """
    return to_root(C2, w)


def root_to_fund_c2(v: RootCoord) -> FundCoord:
    """Fundamental coordinates of a root-lattice weight.

    Raises ValueError when the weight is not dominant.
    """
    return to_fund(C2, v)


def multiplicity_c2_weyl_sum(lam: FundCoord, mu: FundCoord) -> QPoly:
    """m_q(lam, mu) for sp4 as the alternating sum over its 8 Weyl elements.

    The term of sigma is the q-partition of sigma(lam + rho) - (mu + rho).
    It is zero when that weight has a negative coordinate, or an odd
    doubled one (it then lies outside the root lattice); only the other
    terms are evaluated.
    """
    return weyl_sum(C2, qpartition_c2, lam, mu)
