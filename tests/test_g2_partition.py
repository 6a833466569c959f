"""Partition-function tests. The definition is the ground truth here: the
test-side enumerator's frozen outputs pin the definitional box and the
closed forms, and grid scans hold the three evaluation routes together."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkostant.errors import CoefficientOverflowError
from qkostant.g2_partition import (
    partition_tarski,
    qpartition,
    qpartition_bruteforce,
    tarski_g,
    tarski_h,
)
from qkostant.rootsys import G2, RootCoord

from reference_kernels import decompositions

# Values computed by the enumerator and frozen; (7,4) is the cross-check
# point between the enumerator and the quadruple sum.
BRUTE_FIXTURES = {
    (3, 2): [0, 1, 2, 2, 1, 1],
    (2, 2): [0, 0, 2, 1, 1],
    (1, 1): [0, 1, 1],
    (0, 1): [0, 1],
    (3, 0): [0, 0, 0, 1],
    (0, 0): [1],
    (7, 4): [0, 0, 0, 3, 6, 7, 5, 5, 3, 2, 1, 1],
    (-1, 5): [],
}


def witnesses(v):
    """Every decomposition of v into the g2 roots, as a count per root."""
    return decompositions(G2.positive_roots, v)


class TestWitnesses:
    def test_each_witness_reconstructs_the_weight(self):
        for m, n in product(range(12), repeat=2):
            for counts in witnesses(RootCoord(m, n)):
                assert len(counts) == len(G2.positive_roots)
                c1 = sum(k * r.c1 for k, r in zip(counts, G2.positive_roots))
                c2 = sum(k * r.c2 for k, r in zip(counts, G2.positive_roots))
                assert (c1, c2) == (m, n)

    def test_witnesses_are_distinct(self):
        ws = list(witnesses(RootCoord(6, 4)))
        assert len(ws) == len(set(ws))

    def test_negative_weight_has_no_witnesses(self):
        assert list(witnesses(RootCoord(-1, 5))) == []
        assert list(witnesses(RootCoord(5, -1))) == []


class TestQPartition:
    @pytest.mark.parametrize("coords,coeffs", sorted(BRUTE_FIXTURES.items()))
    def test_bruteforce_fixtures(self, coords, coeffs):
        assert list(qpartition_bruteforce(RootCoord(*coords)).coeffs) == coeffs

    @pytest.mark.parametrize("coords,coeffs", sorted(BRUTE_FIXTURES.items()))
    def test_quadruple_sum_matches_fixtures(self, coords, coeffs):
        assert list(qpartition(RootCoord(*coords)).coeffs) == coeffs

    def test_equals_bruteforce_on_grid(self):
        for m, n in product(range(19), repeat=2):
            v = RootCoord(m, n)
            assert qpartition(v) == qpartition_bruteforce(v), (m, n)

    @given(st.integers(-3, 45), st.integers(-3, 45))
    @settings(max_examples=120, deadline=None)
    def test_equals_bruteforce_at_random_points(self, m, n):
        assert qpartition(RootCoord(m, n)) == qpartition_bruteforce(RootCoord(m, n))

    def test_nonnegative_coefficients_and_contiguous_support(self):
        for m, n in product(range(25), repeat=2):
            coeffs = qpartition(RootCoord(m, n)).coeffs
            assert all(c >= 0 for c in coeffs)
            if coeffs:
                low = next(i for i, c in enumerate(coeffs) if c)
                assert all(c > 0 for c in coeffs[low:]), (m, n)

    def test_lowest_degree_is_fewest_roots_used(self):
        for m, n in product(range(15), repeat=2):
            if m == n == 0:
                continue
            coeffs = qpartition(RootCoord(m, n)).coeffs
            fewest = min(
                (sum(counts) for counts in witnesses(RootCoord(m, n))),
                default=None,
            )
            if not coeffs:
                assert fewest is None
            else:
                assert fewest == next(i for i, c in enumerate(coeffs) if c)


    def test_degree_past_any_list_is_a_value_error(self):
        with pytest.raises(ValueError, match="degree 100000000000000000000 "):
            qpartition(RootCoord(10**20, 0))


class TestTarskiPolynomials:
    @pytest.mark.parametrize(
        "k,expected", [(-2, 0), (-1, 0), (0, 1), (1, 2), (2, 4), (3, 8), (4, 13), (5, 20)]
    )
    def test_g_values(self, k, expected):
        assert tarski_g(k) == expected

    @pytest.mark.parametrize("k,expected", [(-2, 0), (-1, 0), (0, 1), (1, 4), (2, 11), (3, 24)])
    def test_h_values(self, k, expected):
        # h(2) = 11 is pinned by the enumerator: it must count the
        # decompositions of 6a1 + 2a2.
        assert tarski_h(k) == expected

    def test_h2_against_the_enumerator(self):
        assert tarski_h(2) == qpartition_bruteforce(RootCoord(6, 2)).eval_at_one() == 11

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            tarski_g(-3)
        with pytest.raises(ValueError):
            tarski_h(-3)

    def test_values_outside_int64_overflow(self):
        with pytest.raises(CoefficientOverflowError):
            tarski_g(10**8)  # 231481527777780972222310185186 unchecked
        with pytest.raises(CoefficientOverflowError):
            tarski_h(160000)  # 13654357360000280001 unchecked

    def test_g_range_edge(self):
        assert tarski_g(251237) == 9223276340246567508
        with pytest.raises(CoefficientOverflowError):
            tarski_g(251238)

    def test_g_matches_small_region_counts(self):
        # In the region m <= n the count depends on m alone.
        for m in range(10):
            for n in range(m, m + 4):
                assert tarski_g(m) == qpartition_bruteforce(RootCoord(m, n)).eval_at_one()

    def test_h_matches_wide_region_counts(self):
        # In the region m >= 3n the count depends on n alone.
        for n in range(7):
            for m in range(3 * n, 3 * n + 4):
                assert tarski_h(n) == qpartition_bruteforce(RootCoord(m, n)).eval_at_one()


def region_a(m, n):
    return tarski_g(m)


def region_b(m, n):
    return tarski_g(m) - tarski_h(m - n - 1)


def region_c(m, n):
    return tarski_h(n) - tarski_g(3 * n - m - 1) + tarski_h(2 * n - m - 2)


def region_d(m, n):
    return tarski_h(n) - tarski_g(3 * n - m - 1)


def region_e(m, n):
    return tarski_h(n)


class TestPartitionTarski:
    @pytest.mark.parametrize("coords,expected", [((3, 2), 7), ((2, 2), 4), ((3, 0), 1)])
    def test_fixture_values(self, coords, expected):
        assert partition_tarski(RootCoord(*coords)) == expected

    @pytest.mark.parametrize("coords", [(2.5, 1), (1, True), (3, 2.0)])
    def test_rejects_non_integer_coordinates(self, coords):
        with pytest.raises(ValueError):
            partition_tarski(RootCoord(*coords))

    def test_count_outside_int64_overflows(self):
        with pytest.raises(CoefficientOverflowError):
            partition_tarski(RootCoord(10**8, 10**8))

    def test_in_range_count_from_out_of_range_terms(self):
        # Region 3n/2 <= m <= 2n: h(160000) - g(239998) + h(79997), whose
        # first term alone is past int64 while the count is not.
        assert partition_tarski(RootCoord(240001, 160000)) == 6827306687200260001

    def test_negative_input_counts_nothing(self):
        assert partition_tarski(RootCoord(-1, 4)) == 0
        assert partition_tarski(RootCoord(4, -1)) == 0

    def test_matches_q_route_on_grid(self):
        for m, n in product(range(41), repeat=2):
            v = RootCoord(m, n)
            assert partition_tarski(v) == qpartition(v).eval_at_one(), (m, n)

    def test_adjacent_regions_agree_on_their_boundaries(self):
        for t in range(0, 35):
            assert region_a(t, t) == region_b(t, t)  # m = n
            assert region_c(2 * t, t) == region_d(2 * t, t)  # m = 2n
            assert region_d(3 * t, t) == region_e(3 * t, t)  # m = 3n
        for t in range(0, 23):
            assert region_b(3 * t, 2 * t) == region_c(3 * t, 2 * t)  # 2m = 3n
