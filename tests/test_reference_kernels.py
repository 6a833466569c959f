"""The fast partition kernels against the direct sums in reference_kernels.

Brute-force enumeration stays the primary oracle on the small grids in
test_g2_partition.py and test_sp4.py; the direct sums reach the large
points where enumeration is out of reach.
"""

from itertools import product
from random import Random

import pytest

from qkostant.g2_partition import qpartition
from qkostant.rootsys import RootCoord
from qkostant.sp4 import qpartition_c2
from reference_kernels import qpartition_c2_double_sum, qpartition_triple_sum

_rng = Random(20030781)
G2_POINTS = sorted((_rng.randint(0, 600), _rng.randint(0, 400)) for _ in range(30))
C2_POINTS = sorted((_rng.randint(0, 3000), _rng.randint(0, 3000)) for _ in range(30))

# Points whose (i, j) terms reach every regime of the g2 kernel's k-runs.
G2_REGIME_POINTS = [(0, 0), (5, 9), (6, 6), (12, 9), (8, 4), (9, 4), (20, 3), (1, 0), (0, 1)]


def g2_regimes(m, n):
    """Which regimes the k-runs of qpartition(m, n) pass through.

    For fixed (i, j), A = m-3i-3j, B = n-2i-j, K = min(A//2, B) and
    T = m+n-4i-3j; the run starts move with k only while k < A-B.
    """
    seen = set()
    for i in range(min(m // 3, n // 2) + 1):
        for j in range(min((m - 3 * i) // 3, n - 2 * i) + 1):
            a, b = m - 3 * i - 3 * j, n - 2 * i - j
            k_max, t = min(a // 2, b), m + n - 4 * i - 3 * j
            if t == 2 * k_max:
                seen.add("T = 2K")
            split = a - b
            if split <= 0:
                seen.add("A-B <= 0")
            elif split < k_max:
                seen.add("0 < A-B < K")
            elif split == k_max:
                seen.add("A-B = K")
            else:
                seen.add("A-B > K")
    return seen


class TestG2Kernel:
    def test_equals_triple_sum_on_grid(self):
        for m, n in product(range(45), repeat=2):
            assert qpartition(RootCoord(m, n)) == qpartition_triple_sum(m, n), (m, n)

    @pytest.mark.parametrize("m,n", G2_POINTS)
    def test_equals_triple_sum_at_seeded_points(self, m, n):
        assert qpartition(RootCoord(m, n)) == qpartition_triple_sum(m, n)

    def test_regime_points_cover_every_regime(self):
        covered = set().union(*(g2_regimes(m, n) for m, n in G2_REGIME_POINTS))
        assert covered == {"T = 2K", "A-B <= 0", "0 < A-B < K", "A-B = K", "A-B > K"}

    @pytest.mark.parametrize("m,n", G2_REGIME_POINTS)
    def test_equals_triple_sum_at_regime_points(self, m, n):
        assert qpartition(RootCoord(m, n)) == qpartition_triple_sum(m, n)


class TestC2Kernel:
    def test_equals_double_sum_on_grid(self):
        for m, n in product(range(45), repeat=2):
            assert qpartition_c2(RootCoord(m, n)) == qpartition_c2_double_sum(m, n), (m, n)

    @pytest.mark.parametrize("m,n", C2_POINTS)
    def test_equals_double_sum_at_seeded_points(self, m, n):
        assert qpartition_c2(RootCoord(m, n)) == qpartition_c2_double_sum(m, n)
