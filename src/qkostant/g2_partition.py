"""Kostant's partition function for g2 and its q-analog, three ways.

``qpartition`` evaluates the quadruple-sum closed form of the q-analog in
O(N) time, ``partition_witnesses``/``qpartition_bruteforce`` enumerate
the actual decompositions into positive roots, and ``tarski_g``/
``tarski_h``/``partition_tarski`` give Tarski's classical piecewise values
at q = 1.
The three agree everywhere; the test suite holds them to that.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import add
from typing import Iterator, NamedTuple

from .errors import InternalConsistencyError
from .qpoly import QPoly, checked_int
from .rootsys import POSITIVE_ROOTS, RootCoord, _as_root, decompositions, qpartition_enumerated


class PartitionWitness(NamedTuple):
    """Multiplicities of the six positive roots in one decomposition.

    Fields follow the root order a1, a2, a1+a2, 2a1+a2, 3a1+a2, 3a1+2a2.
    """

    n1: int
    n2: int
    n3: int
    n4: int
    n5: int
    n6: int

    @property
    def total_roots(self) -> int:
        return self.n1 + self.n2 + self.n3 + self.n4 + self.n5 + self.n6


def partition_witnesses(v: RootCoord) -> Iterator[PartitionWitness]:
    """Iterate over every decomposition of v into positive roots.

    Loops run over the non-simple roots highest first; the simple-root
    counts n1, n2 are then forced by the target coordinates.
    """
    return map(PartitionWitness._make, decompositions(POSITIVE_ROOTS, v))


def qpartition_bruteforce(v: RootCoord) -> QPoly:
    """Definitional q-analog: one q^(number of roots) per witness."""
    return qpartition_enumerated(POSITIVE_ROOTS, v)


def _g2_marks(
    points: list[int], tops: list[int], runs: list[int], m: int, n: int, sign: int
) -> None:
    """Add sign times the markers of the g2 q-partition at (m, n) >= 0 into three lists.

    The lists must hold at least m + n + 7 entries; _g2_chain turns them
    into the coefficients. Evaluates the quadruple sum over counts
    (i, j, k, l) of the roots 3a1+2a2, 3a1+a2, 2a1+a2, a1+a2 with O(1)
    work per i. For fixed (i, j), with a = m-3i-3j, b = n-2i-j and
    t = m+n-4i-3j, each k = 0..min(a//2, b) contributes the exponent run
    [start(k), t-2k] over l; the starts are t-b-k while k < a-b and t-a
    from then on.

    The coefficients are the prefix sums of +1 at each run start and -1
    just past each run end. With S_d the stride-d prefix sum, they are
    S_1(S_2(E)) for a marker list E: w starts at x enter E as +w at x and
    -w at x+2, and the run ends t+1, t-1, ... of one (i, j) as -1 at the
    lowest and +1 at t+3. As j steps, each entry moves in an arithmetic
    progression with two breakpoints: below j1 = a0-2*b0 the k-runs reach
    k = b, and from j2 = ceil((a0-b0)/2) on no start moves. Here a0, b0
    are a, b at j = 0, and j1, j2 are clamped to [0, J+1] for
    J = min(a0//3, b0). So per i, E gets one stride-3 progression (kept in
    ``tops``), up to two unit-stride runs (``runs``) and three closed-form
    weights (``points``): E = points + S_3(tops) + S_1(runs). No loop over
    j, k or l is run. Every marker of one term cancels past its degree
    m + n, so the chain of a longer list gives exact zeros there.
    """
    long_runs = 0  # runs [m-n-j1+1, m-n], one for every i with j1 > 0
    a0, b0, t0 = m, n, m + n  # a, b and t at j = 0 for the current i
    for _ in range(min(m // 3, n // 2) + 1):
        stop = a0 // 3 + 1 if a0 // 3 < b0 else b0 + 1  # J + 1
        j1 = a0 - 2 * b0
        if j1 >= stop:
            j1 = stop
        if j1 > 0:
            # j < j1: a > 2b and k runs to b. The lowest start t-2b and the
            # lowest run end t-2b+1 leave one entry, +1 at t-2b = m-n-j.
            runs[m - n + 1 - j1] += sign
            long_runs += 1
        else:
            j1 = 0
        j2 = (a0 - b0 + 1) // 2
        if j2 < j1:
            j2 = j1
        elif j2 > stop:
            j2 = stop
        if j2:
            # j < j2: the moving starts end at t-b = m-2i-2j, so E has -1 at
            # m-2i-2j+1 and m-2i-2j+2, one run over all these j.
            hi = t0 - b0 + 3
            runs[hi - 2 * j2] -= sign
            runs[hi] += sign
        tops[t0 + 6 - 3 * stop] += sign
        tops[t0 + 6] -= sign
        # j >= j1: k runs to a//2, and the lowest run end is n-i+1 or n-i+2
        # by the parity of a; odd counts the odd a = a0-3j over [j1, J].
        span = stop - j1
        odd = (span + ((a0 + j1) & 1)) // 2
        # j in [j1, j2): the moving starts begin at n-i+1. The fixed starts
        # at t-a = n-i number b-a+1+a//2 there and a//2+1 for j >= j2; the
        # a//2 are summed in closed form over [j1, J].
        moving = j2 - j1
        fixed = (
            moving * (b0 - a0 + j1 + j2)
            + (span * (2 * a0 - 3 * (j1 + stop - 1)) // 2 - odd) // 2
            + stop
            - j2
        )
        p = t0 - a0
        points[p] += sign * fixed
        points[p + 1] += sign * (moving - span + odd)
        points[p + 2] += sign * (moving - odd - fixed)
        a0 -= 3
        b0 -= 2
        t0 -= 4
    runs[m - n + 1] -= sign * long_runs


def _g2_chain(points: list[int], tops: list[int], runs: list[int], degree: int) -> QPoly:
    """The polynomial S_1(S_2(points + S_3(tops) + S_1(runs))) up to q^degree."""
    tops[0::3] = accumulate(tops[0::3])
    tops[1::3] = accumulate(tops[1::3])
    tops[2::3] = accumulate(tops[2::3])
    marks = list(map(add, map(add, points, tops), accumulate(runs)))
    del marks[degree + 1 :]  # prefix sums never look ahead
    marks[0::2] = accumulate(marks[0::2])
    marks[1::2] = accumulate(marks[1::2])
    return QPoly(accumulate(marks))


@lru_cache(maxsize=None)
def qpartition(v: RootCoord) -> QPoly:
    """q-analog of Kostant's partition function for g2, closed form.

    The chain of the markers that _g2_marks sets, in O(N) time for
    N = m + n.
    """
    m, n = _as_root(v)
    if m < 0 or n < 0:
        return QPoly()
    size = m + n + 7
    points = [0] * size  # entries of E at n-i, n-i+1 and n-i+2
    tops = [0] * size  # second differences, stride 3: the +1 at t+3 over j
    runs = [0] * size  # first differences: unit-stride runs of E
    _g2_marks(points, tops, runs, m, n, 1)
    return _g2_chain(points, tops, runs, m + n)


def _tarski_g(k: int) -> int:
    """Tarski's g without the 64-bit check.

    The division by 432 is performed last and must be exact; a remainder
    means the polynomial data was mistranscribed.
    """
    if type(k) is not int or k < -2:  # bool is rejected too
        raise ValueError(f"tarski_g is defined for integers k >= -2, got {k!r}")
    r = k % 6
    if r == 0:
        num = (k + 6) * (k**3 + 14 * k * k + 54 * k + 72)
    elif r == 1:
        num = (k + 5) ** 2 * (k * k + 10 * k + 13)
    elif r == 2:
        num = (k + 4) * (k**3 + 16 * k * k + 74 * k + 68)
    elif r == 3:
        num = (k + 3) ** 2 * (k + 5) * (k + 9)
    elif r == 4:
        num = (k + 2) * (k + 8) * (k * k + 10 * k + 22)
    else:
        num = (k + 1) * (k + 5) * (k + 7) ** 2
    value, rem = divmod(num, 432)
    if rem:
        raise InternalConsistencyError(f"g({k}) = {num}/432 is not an integer")
    if value < 0:
        raise InternalConsistencyError(f"g({k}) = {value} is negative")
    return value


def _tarski_h(k: int) -> int:
    """Tarski's h without the 64-bit check."""
    if type(k) is not int or k < -2:  # bool is rejected too
        raise ValueError(f"tarski_h is defined for integers k >= -2, got {k!r}")
    if k % 2 == 0:
        num = (k + 2) * (k + 4) * (k * k + 6 * k + 6)
    else:
        num = (k + 1) * (k + 3) ** 2 * (k + 5)
    value, rem = divmod(num, 48)
    if rem:
        raise InternalConsistencyError(f"h({k}) = {num}/48 is not an integer")
    if value < 0:
        raise InternalConsistencyError(f"h({k}) = {value} is negative")
    return value


def tarski_g(k: int) -> int:
    """Tarski's g: the partition count in the region m <= n, by residue mod 6.

    A value outside the signed 64-bit range raises CoefficientOverflowError.
    """
    return checked_int(_tarski_g(k))


def tarski_h(k: int) -> int:
    """Tarski's h: the partition count in the region m >= 3n, by parity of k.

    A value outside the signed 64-bit range raises CoefficientOverflowError.
    """
    return checked_int(_tarski_h(k))


def partition_tarski(v: RootCoord) -> int:
    """Kostant's partition function at q = 1 via Tarski's five regions.

    Adjacent regions overlap on their boundary lines (m = n, 2m = 3n,
    m = 2n, m = 3n) and agree there; dispatch takes the first match.
    Non-integer coordinates raise ValueError, and a count outside the
    signed 64-bit range raises CoefficientOverflowError.
    """
    m, n = _as_root(v)
    if m < 0 or n < 0:
        return 0
    if m <= n:
        value = _tarski_g(m)
    elif 2 * m <= 3 * n:  # n <= m <= 3n/2
        value = _tarski_g(m) - _tarski_h(m - n - 1)
    elif m <= 2 * n:  # 3n/2 <= m <= 2n
        value = _tarski_h(n) - _tarski_g(3 * n - m - 1) + _tarski_h(2 * n - m - 2)
    elif m <= 3 * n:  # 2n <= m <= 3n
        value = _tarski_h(n) - _tarski_g(3 * n - m - 1)
    else:  # 3n <= m
        value = _tarski_h(n)
    return checked_int(value)
