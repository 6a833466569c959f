"""Deliberately wrong variants of library formulas, for the mutation tests.

A test that runs one of these and sees it disagree with an oracle shows
that the part it removes is load-bearing.
"""

from itertools import repeat
from operator import sub

from qkostant.g2_partition import _g2_marks
from qkostant.sp4 import _c2_marks, _closed_form


def closed_form_without_edge_region(m: int, n: int) -> int:
    """sp4's closed partition count with its m = 2n-1 region removed.

    The dispatch collapses to three regions: points on that line fall
    through to the m >= 2n formula, every other point keeps its value.
    """
    if 2 * n > m >= 2 * n - 1 > n:
        return (n + 1) * (n + 2) // 2
    return _closed_form(m, n)


def g2_marks_ignoring_sign(
    points: list[int], tops: list[int], runs: list[int], m: int, n: int, sign: int
) -> None:
    """g2's marker builder with every term added as if its sign were +1."""
    _g2_marks(points, tops, runs, m, n, 1)


def c2_marks_ignoring_sign(diff: list[int], m: int, n: int, sign: int) -> None:
    """sp4's marker builder with every term added as if its sign were +1."""
    _c2_marks(diff, m, n, 1)


def c2_marks_unclipped(diff: list[int], m: int, n: int, sign: int) -> None:
    """sp4's marker builder with its run ends not stopped at m+n+1.

    The stride-2 run ends go on through every later index of the same
    parity, as ``diff[ends::2]`` would in a list longer than the term.
    """
    _c2_marks(diff, m, n, sign)
    tail = slice(m + n + 3, None, 2)
    diff[tail] = map(sub, diff[tail], repeat(sign))
