"""Kostant's partition function for g2 and its q-analog, three ways.

``qpartition`` evaluates the quadruple-sum closed form of the q-analog in
O(N^2) time, ``partition_witnesses``/``qpartition_bruteforce`` enumerate
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
from .rootsys import POSITIVE_ROOTS, RootCoord, decompositions, qpartition_enumerated


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


@lru_cache(maxsize=None)
def qpartition(v: RootCoord) -> QPoly:
    """q-analog of Kostant's partition function for g2, closed form.

    Evaluates the quadruple sum over counts (i, j, k, l) of the roots
    3a1+2a2, 3a1+a2, 2a1+a2, a1+a2 in O(N^2) time for N = m + n. For
    fixed (i, j), with A = m-3i-3j, B = n-2i-j and T = m+n-4i-3j, each
    k = 0..min(A//2, B) contributes the exponent run [start(k), T-2k]
    over l. The run ends step by -2 in k; the starts are T-B-k while
    k < A-B and T-A from then on. Both progressions go into strided
    second-difference arrays, so no loop over k or l is run.
    """
    m, n = v
    if m < 0 or n < 0:
        return QPoly()
    size = m + n + 4
    flat = [0] * size  # first differences: runs starting at one fixed exponent
    unit = [0] * size  # second differences, unit stride: the moving run starts
    even = [0] * size  # second differences, stride 2: the run ends
    for i in range(min(m // 3, n // 2) + 1):
        a, b, t = m - 3 * i, n - 2 * i, m + n - 4 * i
        while a >= 0 and b >= 0:
            k_max = a // 2 if a // 2 < b else b  # min() is a slower call here
            # -1 just past each run end t - 2k; the lowest, t - 2*k_max + 1, is >= 1.
            even[t - 2 * k_max + 1] -= 1
            even[t + 3] += 1
            split = a - b
            if split > 0:
                last = k_max if k_max < split else split - 1
                unit[t - b - last] += 1
                unit[t - b + 1] -= 1
                if k_max >= split:
                    flat[t - a] += k_max - split + 1
            else:
                flat[t - a] += k_max + 1
            a -= 3
            b -= 1
            t -= 3
    even[0::2] = accumulate(even[0::2])
    even[1::2] = accumulate(even[1::2])
    return QPoly(accumulate(map(add, map(add, flat, accumulate(unit)), even)))


def _tarski_g(k: int) -> int:
    """Tarski's g without the 64-bit check.

    The division by 432 is performed last and must be exact; a remainder
    means the polynomial data was mistranscribed.
    """
    if k < -2:
        raise ValueError(f"tarski_g is defined for k >= -2, got {k}")
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
    if k < -2:
        raise ValueError(f"tarski_h is defined for k >= -2, got {k}")
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
    m, n = v
    if type(m) is not int or type(n) is not int:  # bool is rejected too
        raise ValueError(f"partition_tarski needs integer coordinates, got {tuple(v)!r}")
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
