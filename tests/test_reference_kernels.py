"""The fast kernels and Weyl sums against the direct forms in reference_kernels.

Brute-force enumeration stays the primary oracle on the small grids in
test_g2_partition.py and test_sp4.py; the direct sums reach the large
points where enumeration is out of reach, and the kernels the package
used before (the g2 loop over i and j, the sp4 loop over i) larger ones
still. The pruned, orbit-cached Weyl
sums are held equal to the unpruned alternating sums term for term, and
the shared decomposition enumerator to the hand-written loops it replaced.
The sp4 case integers, read off the alternation set, are held to the
affine forms they replaced.
"""

from itertools import product
from random import Random

import pytest

from qkostant.g2_multiplicity import qmultiplicity_weyl_sum
from qkostant.g2_partition import partition_witnesses, qpartition
from qkostant.rootsys import (
    C2,
    G2,
    POSITIVE_ROOTS,
    FundCoord,
    RootCoord,
    decompositions,
    shifted_orbit,
)
from qkostant.sp4 import (
    POSITIVE_ROOTS_C2,
    compute_case_c2,
    multiplicity_c2_weyl_sum,
    qpartition_c2,
    qpartition_c2_bruteforce,
)
from reference_kernels import (
    compute_case_c2_affine,
    multiplicity_c2_weyl_sum_unpruned,
    partition_witnesses_nested,
    qmultiplicity_weyl_sum_unpruned,
    qpartition_c2_bruteforce_nested,
    qpartition_c2_double_sum,
    qpartition_c2_loop,
    qpartition_double_loop,
    qpartition_triple_sum,
    witnesses_c2_nested,
)

_rng = Random(20030781)
G2_POINTS = sorted((_rng.randint(0, 600), _rng.randint(0, 400)) for _ in range(30))
C2_POINTS = sorted((_rng.randint(0, 3000), _rng.randint(0, 3000)) for _ in range(30))


def _weyl_points(rng, lam_max, count):
    """(m, n, x, y) with lambda up to lam_max; mu ranges past lambda, so some
    pairs have mu not below lambda and a zero multiplicity."""
    points = []
    for _ in range(count):
        m, n = rng.randint(0, lam_max), rng.randint(0, lam_max)
        points.append((m, n, rng.randint(0, m + 4), rng.randint(0, n + 4)))
    return sorted(points)


G2_WEYL_POINTS = _weyl_points(_rng, 40, 30)
C2_WEYL_POINTS = _weyl_points(_rng, 300, 30)

# Seeded points for the kernels the package used before, which reach further.
_loop_rng = Random(6)
G2_LOOP_POINTS = sorted((_loop_rng.randint(0, 3000), _loop_rng.randint(0, 3000)) for _ in range(30))
C2_LOOP_POINTS = sorted((_loop_rng.randint(0, 6000), _loop_rng.randint(0, 6000)) for _ in range(30))

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


# Points whose i-steps reach every j-range and clamp of the g2 kernel.
G2_J_RANGE_POINTS = [(0, 0), (1, 0), (12, 6), (15, 7), (300, 130)]


def g2_j_ranges(m, n):
    """Which j-ranges and clamps the i-steps of qpartition(m, n) reach.

    For fixed i, with a0 = m-3i, b0 = n-2i and J = min(a0//3, b0), each
    j = 0..J has a = a0-3j and b = b0-j. The k-runs reach b while a > 2b
    (j < j1); below that the run starts move while a > b (j < j2) and are
    all fixed from there on. The ranges are taken from a and b for every
    j here, not from the kernel's formulas for j1 and j2.
    """
    seen = set()
    for i in range(min(m // 3, n // 2) + 1):
        a0, b0 = m - 3 * i, n - 2 * i
        top = min(a0 // 3, b0)
        parities = {"k runs to b": set(), "moving starts": set(), "fixed starts": set()}
        for j in range(top + 1):
            a, b = a0 - 3 * j, b0 - j
            name = "k runs to b" if a > 2 * b else "moving starts" if a > b else "fixed starts"
            parities[name].add(a % 2)
        for name, found in parities.items():
            seen.update((name, parity) for parity in found)
        if all(parities.values()):
            seen.add("all three at one i")
            if len(parities["moving starts"]) == len(parities["fixed starts"]) == 2:
                seen.add("all three at one i, both parities in the last two")
        if a0 - 2 * b0 <= 0:
            seen.add("j1 = 0")
        if a0 - 2 * b0 >= top + 1:
            seen.add("j1 = J+1")
        if (a0 - b0 + 1) // 2 >= top + 1:
            seen.add("j2 = J+1")
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

    def test_equals_double_loop_on_grid(self):
        for m, n in product(range(45), repeat=2):
            v = RootCoord(m, n)
            assert qpartition(v) == qpartition_double_loop(v), (m, n)

    @pytest.mark.parametrize("m,n", G2_LOOP_POINTS)
    def test_equals_double_loop_at_seeded_points(self, m, n):
        v = RootCoord(m, n)
        assert qpartition(v) == qpartition_double_loop(v)

    def test_j_range_points_cover_every_range_parity_and_clamp(self):
        covered = set().union(*(g2_j_ranges(m, n) for m, n in G2_J_RANGE_POINTS))
        assert covered == {
            ("k runs to b", 0),
            ("k runs to b", 1),
            ("moving starts", 0),
            ("moving starts", 1),
            ("fixed starts", 0),
            ("fixed starts", 1),
            "all three at one i",
            "all three at one i, both parities in the last two",
            "j1 = 0",
            "j1 = J+1",
            "j2 = J+1",
        }

    @pytest.mark.parametrize("m,n", G2_J_RANGE_POINTS)
    def test_equals_double_loop_at_j_range_points(self, m, n):
        v = RootCoord(m, n)
        assert qpartition(v) == qpartition_double_loop(v)
        assert qpartition(v) == qpartition_triple_sum(m, n)


class TestC2Kernel:
    def test_equals_double_sum_on_grid(self):
        for m, n in product(range(45), repeat=2):
            assert qpartition_c2(RootCoord(m, n)) == qpartition_c2_double_sum(m, n), (m, n)

    @pytest.mark.parametrize("m,n", C2_POINTS)
    def test_equals_double_sum_at_seeded_points(self, m, n):
        assert qpartition_c2(RootCoord(m, n)) == qpartition_c2_double_sum(m, n)

    def test_equals_loop_on_grid(self):
        for m, n in product(range(45), repeat=2):
            v = RootCoord(m, n)
            assert qpartition_c2(v) == qpartition_c2_loop(v), (m, n)

    @pytest.mark.parametrize("m,n", C2_LOOP_POINTS)
    def test_equals_loop_at_seeded_points(self, m, n):
        v = RootCoord(m, n)
        assert qpartition_c2(v) == qpartition_c2_loop(v)


class TestWeylSums:
    def test_g2_equals_unpruned_on_grid(self):
        for m, n, x, y in product(range(8), repeat=4):
            lam, mu = FundCoord(m, n), FundCoord(x, y)
            assert qmultiplicity_weyl_sum(lam, mu) == qmultiplicity_weyl_sum_unpruned(
                lam, mu
            ), (m, n, x, y)

    def test_c2_equals_unpruned_on_grid(self):
        for m, n, x, y in product(range(8), repeat=4):
            lam, mu = FundCoord(m, n), FundCoord(x, y)
            assert multiplicity_c2_weyl_sum(lam, mu) == multiplicity_c2_weyl_sum_unpruned(
                lam, mu
            ), (m, n, x, y)

    @pytest.mark.parametrize("m,n,x,y", G2_WEYL_POINTS)
    def test_g2_equals_unpruned_at_seeded_points(self, m, n, x, y):
        lam, mu = FundCoord(m, n), FundCoord(x, y)
        assert qmultiplicity_weyl_sum(lam, mu) == qmultiplicity_weyl_sum_unpruned(lam, mu)

    @pytest.mark.parametrize("m,n,x,y", C2_WEYL_POINTS)
    def test_c2_equals_unpruned_at_seeded_points(self, m, n, x, y):
        lam, mu = FundCoord(m, n), FundCoord(x, y)
        assert multiplicity_c2_weyl_sum(lam, mu) == multiplicity_c2_weyl_sum_unpruned(lam, mu)

    def test_seeded_points_include_zero_and_nonzero_results(self):
        g2 = [qmultiplicity_weyl_sum(FundCoord(m, n), FundCoord(x, y)).is_zero()
              for m, n, x, y in G2_WEYL_POINTS]
        c2 = [multiplicity_c2_weyl_sum(FundCoord(m, n), FundCoord(x, y)).is_zero()
              for m, n, x, y in C2_WEYL_POINTS]
        assert any(g2) and not all(g2)
        assert any(c2) and not all(c2)

    @pytest.mark.parametrize("rs", [G2, C2], ids=["g2", "c2"])
    def test_orbit_cache_is_bounded(self, rs):
        maxsize = shifted_orbit.cache_info().maxsize
        assert maxsize is not None and maxsize > 0
        for m in range(maxsize + 10):
            shifted_orbit(rs, m, 1)
        assert shifted_orbit.cache_info().currsize <= maxsize

    @pytest.mark.parametrize("rs", [G2, C2], ids=["g2", "c2"])
    def test_orbit_cache_keeps_types_apart(self, rs):
        # 1001.0 == 1001 and hashes alike; a shared entry would hand integer
        # callers the float orbit cached first.
        shifted_orbit(rs, 1001.0, 7)
        assert all(type(c) is int for term in shifted_orbit(rs, 1001, 7) for c in term)


def test_sp4_case_integers_equal_the_affine_forms():
    for m, n, x, y in product(range(9), repeat=4):
        lam, mu = FundCoord(m, n), FundCoord(x, y)
        assert compute_case_c2(lam, mu) == compute_case_c2_affine(lam, mu), (m, n, x, y)


class TestEnumerator:
    """The shared enumerator against the hand-written loops it replaced."""

    def test_g2_witnesses_match_nested_loops_in_order(self):
        for m, n in product(range(21), repeat=2):
            v = RootCoord(m, n)
            assert list(partition_witnesses(v)) == list(partition_witnesses_nested(v)), (m, n)

    def test_c2_witnesses_match_nested_loops_in_order(self):
        for m, n in product(range(21), repeat=2):
            assert list(decompositions(POSITIVE_ROOTS_C2, RootCoord(m, n))) == list(
                witnesses_c2_nested(m, n)
            ), (m, n)

    def test_c2_bruteforce_matches_nested_loops(self):
        for m, n in product(range(21), repeat=2):
            v = RootCoord(m, n)
            assert qpartition_c2_bruteforce(v) == qpartition_c2_bruteforce_nested(v), (m, n)

    @pytest.mark.parametrize("roots", [POSITIVE_ROOTS, POSITIVE_ROOTS_C2], ids=["g2", "c2"])
    def test_every_witness_sums_to_its_target(self, roots):
        for m, n in product(range(13), repeat=2):
            for counts in decompositions(roots, RootCoord(m, n)):
                assert min(counts) >= 0
                assert sum(k * r.c1 for k, r in zip(counts, roots)) == m
                assert sum(k * r.c2 for k, r in zip(counts, roots)) == n
