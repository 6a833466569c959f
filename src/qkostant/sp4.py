"""Corrected partition and multiplicity formulas for sp4.

Positive roots in the simple-root basis: a1, a2, a1+a2, 2a1+a2. The
fundamental weights live outside the root lattice (w1 = a1 + a2/2), so the
Weyl-sum oracle tracks weights in doubled root coordinates and drops any
term whose shifted weight fails to land back on the root lattice; the closed
q route sums only the terms P, Q, R of the alternation set. Both are the
shared rootsys routes fed ALGEBRA, whose term sum _c2_sum adds the terms'
O(1) breakpoint events into one list and walks it once, writing each
linear piece of the coefficients with one slice assignment.
"""

from __future__ import annotations

import sys
from itertools import repeat
from typing import NamedTuple, Sequence

from .errors import InternalConsistencyError
from .qpoly import QPoly, checked_int
from .rootsys import (
    C2,
    Algebra,
    FundCoord,
    Mat,
    RootCoord,
    _as_fund,
    _as_root,
    _new_tuple,
    alternation_terms,
    count_sum,
    doubled,
    qpartition_defined,
    weyl_elements,
    weyl_sum,
)


def _c2_events(events: list, m: int, n: int, sign: int) -> None:
    """Append sign times the breakpoint events of the sp4 q-partition at (m, n).

    Its coefficient c_j counts the copies i = 0..top, top = min(m//2, n),
    of the long root 2a1+a2 with max(m-i, n) <= j <= m+n-2i. So c_j =
    c_{j-2} + g_j on each parity class, where g is a step function of j
    apart from a few one-off jumps. An event (j, step, jump, jump_next)
    adds step to g from j on, jump to g_j alone and jump_next to g_{j+1}
    alone. The first `moving` copies (i <= m-n) start their runs at m-i,
    one per index from x = m+1-moving to m; the other copies start at n;
    the run ends m+n-2i+1 lower g by 1 from e = m+n+1-2*top, until the
    event at m+n+3 cancels that past the term's degree m+n.
    """
    top = m // 2 if m // 2 < n else n  # min() is a slower call here
    moving = m - n + 1 if m - n < top else top + 1  # how many i start at m-i
    if moving > 0:
        rise = 2 * sign
        events += ((m + 1 - moving, rise, -sign, 0), (m + 1, -rise, sign, 0))
    else:
        moving = 0
    w = sign * (top + 1 - moving)
    t = m + n
    events += ((n, 0, w, w), (t + 1 - 2 * top, -sign, 0, 0), (t + 3, sign, 0, 0))


def _c2_walk(events: list, degree: int) -> QPoly:
    """The coefficients 0..degree that the events describe, as a QPoly.

    Sorts the events in place, appends an end marker and walks them once.
    Between two event positions g is constant, so each parity class is an
    arithmetic progression. A constant piece is written and range-checked
    at once; a rising or falling one is listed, and the lowest and highest
    of their ends, lo and hi, are range-checked after the walk. A
    coefficient outside the signed 64-bit range raises
    CoefficientOverflowError. Each listed piece is then written with one
    strided slice assignment, sliced from one container of the values
    lo..hi: a list when hi - lo <= degree, so each distinct value is made
    once, and the range itself otherwise, so memory stays O(degree).
    """
    stop = degree + 1
    events.sort()
    events.append((stop, 0, 0, 0))  # the first event at or past stop ends the walk
    out = [0] * stop
    pieces = []  # (start, end, first, last, step) of each rising or falling piece
    # The piece from a on: u = c_{a-2} plus the jump at a, v = c_{a-1} plus
    # the jump at a+1, and g its step.
    a = u = v = g = 0
    for j, step, jump, jump_next in events:
        if j > a:
            if j > stop:
                j = stop
            na = (j - a + 1) >> 1  # coefficients of a's class in [a, j)
            nb = j - a - na  # and of the other class
            if g:
                first, u = u + g, u + na * g
                pieces.append((a, j, first, u, g))
                if nb:
                    first, v = v + g, v + nb * g
                    pieces.append((a + 1, j, first, v, g))
            else:
                if u:
                    out[a:j:2] = repeat(checked_int(u), na)
                if nb and v:
                    out[a + 1 : j : 2] = repeat(checked_int(v), nb)
            if na != nb:  # j lies in the other class: swap to keep u for j's
                u, v = v, u
            a = j
            if j == stop:
                break
        g += step
        u += jump
        v += jump_next
    if pieces:
        ends = [end for piece in pieces for end in piece[2:4]]
        lo, hi = min(ends), max(ends)
        checked_int(lo)
        checked_int(hi)
        # Compare hi - lo, not len(range(...)), which cannot exceed sys.maxsize.
        values = list(range(lo, hi + 1)) if hi - lo < stop else range(lo, hi + 1)
        for start, end, first, last, g in pieces:
            last += g - lo  # the index one step past last, where -1 would wrap
            out[start:end:2] = values[first - lo : last if last >= 0 else None : g]
    return QPoly._from_checked(tuple(out))


def _c2_sum(terms: Sequence[tuple[int, tuple[int, int]]]) -> QPoly:
    """The sum of sign * qpartition_c2((m, n)) over (sign, (m, n)) pairs with m, n >= 0.

    The events of a sum are its terms' events together, so any number of
    terms is one walk, with no per-term polynomial. A degree too large for a
    list raises ValueError before the walk allocates one.
    """
    if not terms:
        return QPoly()
    events: list = []
    degree = 0
    for sign, (m, n) in terms:
        _c2_events(events, m, n, sign)
        if m + n > degree:
            degree = m + n
    if degree + 1 > sys.maxsize:
        raise ValueError(f"degree {degree} is too large for a coefficient list")
    return _c2_walk(events, degree)


def qpartition_c2(v: RootCoord) -> QPoly:
    """q-analog of Kostant's partition function for sp4, closed double sum.

    The one-term _c2_sum: O(1) Python work and O(N) C-level fill for N = m + n.
    """
    m, n = _as_root(v)
    if m < 0 or n < 0:
        return QPoly()
    return _c2_sum([(1, (m, n))])


def qpartition_c2_bruteforce(v: RootCoord) -> QPoly:
    """Definitional q-analog, read off the box up to v (rootsys.qpartition_defined)."""
    return qpartition_defined(C2.positive_roots, v)


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
    return _new_tuple(Sp4CaseData, (a, two_b, c, two_d, (a >= 0, b_ok, c >= 0, d_ok), label))


ALGEBRA = Algebra(C2, _c2_sum, _case_data, _closed_form)


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
    floor((c+2)/2) * ceil((c+2)/2) and R to (d+1)(d+2)/2. The counts are
    summed by rootsys.count_sum, which range-checks only the total, so a
    term outside the signed 64-bit range is fine when the value is not.
    """
    shifts, label, terms = alternation_terms(C2, lam, mu)
    value = count_sum(ALGEBRA, terms)
    return Sp4MultiplicityResult(_as_fund(lam), _as_fund(mu), _case_data(shifts, label), value)


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
    return weyl_sum(ALGEBRA, lam, mu)
