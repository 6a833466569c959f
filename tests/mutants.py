"""Deliberately wrong variants of library formulas, for the mutation tests.

A test that runs one of these and sees it disagree with an oracle shows
that the part it removes is load-bearing.
"""

from qkostant.sp4 import _closed_form


def closed_form_without_edge_region(m: int, n: int) -> int:
    """sp4's closed partition count with its m = 2n-1 region removed.

    The dispatch collapses to three regions: points on that line fall
    through to the m >= 2n formula, every other point keeps its value.
    """
    if 2 * n > m >= 2 * n - 1 > n:
        return (n + 1) * (n + 2) // 2
    return _closed_form(m, n)
