"""Tests for the sp4 partition and multiplicity formulas.

Two oracles anchor everything: ℘_q from its definition (the box that
qpartition_c2_bruteforce reads, pinned by frozen enumerator outputs) for
partition values, and the order-8 Weyl sum for multiplicities. The
edge-region mutation test shows the m = 2n-1 branch of the closed
partition form is load-bearing.
"""

import sys
import tracemalloc
from itertools import product

import pytest

from qkostant import rootsys, sp4
from qkostant.errors import CoefficientOverflowError
from qkostant.qpoly import INT64_MAX, INT64_MIN, QPoly
from qkostant.rootsys import C2, FundCoord, RootCoord, mat_det, to_fund, to_root
from qkostant.sp4 import (
    fundamental_weights_c2,
    multiplicity_c2_closed,
    multiplicity_c2_weyl_sum,
    partition_c2_closed,
    qpartition_c2,
    qpartition_c2_bruteforce,
    weyl_group_c2,
)
from mutants import closed_form_without_edge_region

# Enumerator outputs, frozen. (1,1) is {a1+a2} and {a1, a2}; (2,1) is
# {2a1+a2}, {a1, a1+a2}, {a1, a1, a2}.
BRUTE_FIXTURES = {
    (1, 1): [0, 1, 1],
    (2, 1): [0, 1, 1, 1],
    (0, 0): [1],
    (2, 2): [0, 0, 2, 1, 1],
    (0, 3): [0, 0, 0, 1],
    (5, 0): [0, 0, 0, 0, 0, 1],
    (3, 2): [0, 0, 1, 2, 1, 1],
    (1, 2): [0, 0, 1, 1],
    (4, 3): [0, 0, 0, 2, 2, 2, 1, 1],
}


class TestQPartition:
    @pytest.mark.parametrize("coords,coeffs", sorted(BRUTE_FIXTURES.items()))
    def test_bruteforce_fixtures(self, coords, coeffs):
        assert list(qpartition_c2_bruteforce(RootCoord(*coords)).coeffs) == coeffs

    @pytest.mark.parametrize("coords,coeffs", sorted(BRUTE_FIXTURES.items()))
    def test_double_sum_matches_fixtures(self, coords, coeffs):
        assert list(qpartition_c2(RootCoord(*coords)).coeffs) == coeffs

    def test_equals_bruteforce_on_grid(self):
        for m, n in product(range(26), repeat=2):
            v = RootCoord(m, n)
            assert qpartition_c2(v) == qpartition_c2_bruteforce(v), (m, n)

    def test_negative_coordinates_count_nothing(self):
        assert qpartition_c2(RootCoord(-1, 3)) == QPoly()
        assert qpartition_c2(RootCoord(3, -1)) == QPoly()

    def test_degree_past_any_list_is_a_value_error(self):
        with pytest.raises(ValueError, match="degree 100000000000000000000 "):
            qpartition_c2(RootCoord(10**20, 0))


class TestWalk:
    """The event walk checks each linear piece at its two ends only."""

    # One event at index 0 with step g: on index's parity class p,
    # c_2r+p = jump + g(r+1), where jump is the event's jump (p = 0) or
    # jump_next (p = 1). So jump puts value at index; the other class stays small.
    @pytest.mark.parametrize(
        "step,index,value",
        [
            (1, 10, INT64_MAX),  # the rising end
            (1, 10, INT64_MAX + 1),
            (-1, 10, INT64_MIN),  # the falling end
            (-1, 10, INT64_MIN - 1),
            (-1, 0, INT64_MAX),  # the falling start
            (-1, 0, INT64_MAX + 1),
            (0, 10, INT64_MAX),  # a constant piece
            (0, 10, INT64_MAX + 1),
            (0, 10, INT64_MIN),
            (0, 10, INT64_MIN - 1),
            (1, 9, INT64_MAX),  # the rising end of the odd class
            (1, 9, INT64_MAX + 1),
            (-1, 9, INT64_MIN),  # its falling end
            (-1, 9, INT64_MIN - 1),
            (-1, 1, INT64_MAX),  # its falling start
            (-1, 1, INT64_MAX + 1),
        ],
    )
    def test_piece_ends_are_range_checked(self, step, index, value):
        jump = value - step * (index // 2 + 1)
        events = [(0, step, 0, jump) if index % 2 else (0, step, jump, 0)]
        if INT64_MIN <= value <= INT64_MAX:
            assert sp4._c2_walk(events, 10).coeffs[index] == value
        else:
            with pytest.raises(CoefficientOverflowError):
                sp4._c2_walk(events, 10)

    @pytest.mark.parametrize(
        "events,coeffs",
        [
            ([(4, 1, -1, 0)], ()),  # c_4 = 0 ends a rising piece of one
            ([(3, 1, -1, -1)], ()),  # c_3 = c_4 = 0: in both classes
            ([(0, 0, 2, 0), (4, 1, -3, 0)], (2, 0, 2)),
            ([(0, 1, -1, 0), (2, 0, 0, 0)], (0, 1, 1, 2, 2)),
        ],
    )
    def test_no_trailing_zero(self, events, coeffs):
        assert sp4._c2_walk(events, 4).coeffs == coeffs

    def test_values_spanning_more_than_sysmaxsize_are_not_listed(self):
        # Rising pieces from near INT64_MIN (odd class) and up to INT64_MAX
        # (even class): their values span 2^64 - 1, more than sys.maxsize, so
        # the walk slices a range instead of listing them.
        events = [(0, 1, INT64_MAX - 6, INT64_MIN - 1)]
        tracemalloc.start()
        try:
            coeffs = sp4._c2_walk(events, 10).coeffs
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coeffs[0::2] == tuple(range(INT64_MAX - 5, INT64_MAX + 1))
        assert coeffs[1::2] == tuple(range(INT64_MIN, INT64_MIN + 5))
        assert INT64_MAX - INT64_MIN > sys.maxsize and peak < 1 << 16

    @pytest.mark.parametrize(
        "events,coeffs",
        [
            ([(0, -1, 10, 10)], (9, 9, 8, 8, 7, 7, 6, 6, 5, 5)),
            ([(0, -1, 10, 11)], (9, 10, 8, 9, 7, 8, 6, 7, 5, 6)),  # the even class alone
            ([(0, -2, 12, 12)], (10, 10, 8, 8, 6, 6, 4, 4, 2, 2)),
            ([(0, 3, 0, 0), (5, -6, 0, 0)], (3, 3, 6, 6, 9, 3, 6, 0, 3, -3)),
        ],
    )
    def test_falling_piece_ending_at_the_lowest_value(self, events, coeffs):
        # One step past the lowest value's index is a slice stop of -1 or
        # -2, which would wrap to the end of the value list.
        assert sp4._c2_walk(events, 9).coeffs == coeffs

    def test_events_past_the_degree_are_ignored(self):
        assert sp4._c2_walk([(2, 1, 0, 0), (5, 7, 1, 1)], 4).coeffs == (0, 0, 1, 1, 2)
        assert sp4._c2_walk([(5, 1, 0, 0)], 4) == QPoly()


class TestClosedPartitionForm:
    @pytest.mark.parametrize("coords,expected", [((2, 1), 3), ((0, 0), 1), ((3, 2), 5)])
    def test_fixture_values(self, coords, expected):
        assert partition_c2_closed(RootCoord(*coords)) == expected

    def test_matches_q_route_on_grid(self):
        for m, n in product(range(41), repeat=2):
            v = RootCoord(m, n)
            assert partition_c2_closed(v) == qpartition_c2(v).eval_at_one(), (m, n)

    def test_zero_off_the_positive_cone(self):
        for m, n in product(range(-3, 4), repeat=2):
            if m < 0 or n < 0:
                v = RootCoord(m, n)
                assert partition_c2_closed(v) == 0 == qpartition_c2(v).eval_at_one(), (m, n)

    @pytest.mark.parametrize("coords", [(2.5, 1), (2, 1.0), (True, 1)])
    def test_rejects_non_integer_coordinates(self, coords):
        with pytest.raises(ValueError):
            partition_c2_closed(RootCoord(*coords))

    def test_count_outside_int64_overflows(self):
        with pytest.raises(CoefficientOverflowError):
            partition_c2_closed(RootCoord(10**10, 10**10))

    def test_edge_region_is_load_bearing(self):
        """Without the m = 2n-1 region the dispatch falls back to the
        m >= 2n formula and the oracle equivalence breaks."""
        assert closed_form_without_edge_region(3, 2) == 6
        assert qpartition_c2(RootCoord(3, 2)).eval_at_one() == 5
        mismatches = [
            (m, n)
            for m, n in product(range(61), repeat=2)
            if closed_form_without_edge_region(m, n)
            != qpartition_c2(RootCoord(m, n)).eval_at_one()
        ]
        assert mismatches
        assert mismatches[0] == (3, 2)
        # every failure sits on the removed line, and only for n >= 2
        assert all(m == 2 * n - 1 and n >= 2 for m, n in mismatches)


class TestWeylGroupData:
    def test_order_eight_with_alternating_dets(self):
        group = weyl_group_c2()
        assert len(group) == 8
        assert sorted(length for _, length in group) == [0, 1, 1, 2, 2, 3, 3, 4]
        for matrix, length in group:
            assert mat_det(matrix) == (-1) ** length

    def test_elements_are_unchanged(self):
        # Recorded from the breadth-first closure that sp4 had on its own.
        assert weyl_group_c2() == (
            (((1, 0), (0, 1)), 0),
            (((-1, 2), (0, 1)), 1),
            (((1, 0), (1, -1)), 1),
            (((-1, 2), (-1, 1)), 2),
            (((1, -2), (1, -1)), 2),
            (((-1, 0), (-1, 1)), 3),
            (((1, -2), (0, -1)), 3),
            (((-1, 0), (0, -1)), 4),
        )

    def test_derived_weights(self):
        w1, w2, rho = fundamental_weights_c2()
        assert (w1, w2) == ((2, 1), (2, 2))
        assert rho == (4, 3)

    def test_coordinate_conversions(self):
        assert to_root(C2, FundCoord(2, 1)) == RootCoord(3, 2)
        assert to_root(C2, FundCoord(1, 0)) is None  # off the root lattice
        assert to_fund(C2, RootCoord(3, 2)) == FundCoord(2, 1)
        with pytest.raises(ValueError, match=r"\(1, 0\) is not dominant.*\(2, -1\)"):
            to_fund(C2, RootCoord(1, 0))  # a1 = 2w1 - w2 is not dominant


class TestCaseSelection:
    def test_equal_weights_select_p(self):
        case = rootsys.case(sp4.ALGEBRA, FundCoord(1, 0), FundCoord(1, 0))
        assert (case.a, case.two_b, case.c, case.two_d) == (0, 0, -2, -2)
        assert case.case_label == "P"

    def test_odd_difference_kills_b_and_d_together(self):
        for m, n, x, y in product(range(9), repeat=4):
            case = rootsys.case(sp4.ALGEBRA, FundCoord(m, n), FundCoord(x, y))
            if (m - x) % 2:
                assert not case.in_n[1] and not case.in_n[3]
                assert case.case_label == "ZERO"
            else:
                assert case.two_b % 2 == 0 and case.two_d % 2 == 0

    @pytest.mark.parametrize(
        "lam,mu,label",
        [
            ((2, 1), (0, 0), "PQR"),
            ((0, 2), (0, 0), "PQ"),
            ((2, 0), (0, 1), "P"),
            ((0, 0), (2, 0), "ZERO"),
        ],
    )
    def test_labels(self, lam, mu, label):
        assert rootsys.case(sp4.ALGEBRA, FundCoord(*lam), FundCoord(*mu)).case_label == label


class TestMultiplicity:
    @pytest.mark.parametrize(
        "lam,mu,expected",
        [
            ((2, 1), (0, 0), 3),
            ((0, 2), (0, 0), 2),
            ((2, 0), (0, 1), 1),
            ((0, 1), (0, 0), 1),
            ((1, 0), (1, 0), 1),
        ],
    )
    def test_closed_fixtures(self, lam, mu, expected):
        assert multiplicity_c2_closed(FundCoord(*lam), FundCoord(*mu)).value == expected

    def test_rejects_non_integer_weights(self):
        with pytest.raises(ValueError):
            multiplicity_c2_closed(FundCoord(2.5, 0), FundCoord(0.5, 0))

    def test_value_outside_int64_overflows(self):
        with pytest.raises(CoefficientOverflowError):
            multiplicity_c2_closed(FundCoord(10**10, 10**10), FundCoord(0, 0))

    def test_highest_weight_has_multiplicity_one(self):
        for m, n in product(range(7), repeat=2):
            lam = FundCoord(m, n)
            assert multiplicity_c2_closed(lam, lam).value == 1
            assert multiplicity_c2_weyl_sum(lam, lam) == QPoly([1])

    def test_closed_matches_weyl_sum_on_grid(self):
        # Both closed routes, the q route and the integer one, on the
        # [0,10]^4 grid of `table --max 10`.
        for m, n, x, y in product(range(11), repeat=4):
            lam, mu = FundCoord(m, n), FundCoord(x, y)
            weyl = multiplicity_c2_weyl_sum(lam, mu)
            closed = rootsys.closed(sp4.ALGEBRA, lam, mu)
            assert closed.mq == weyl, (m, n, x, y)
            value = multiplicity_c2_closed(lam, mu).value
            assert closed.m_at_one == value == weyl.eval_at_one(), (m, n, x, y)

    def test_weyl_sum_coefficients_are_nonnegative(self):
        for m, n, x, y in product(range(6), repeat=4):
            mq = multiplicity_c2_weyl_sum(FundCoord(m, n), FundCoord(x, y))
            assert all(c >= 0 for c in mq.coeffs)

    def test_odd_difference_vanishes(self):
        for m, n, x, y in product(range(6), repeat=4):
            if (m - x) % 2:
                assert multiplicity_c2_weyl_sum(FundCoord(m, n), FundCoord(x, y)) == QPoly()

    def test_adjoint_zero_weight_fixture(self):
        # L(2w1) is the 10-dimensional adjoint: its zero weight space has
        # dimension 2, the rank, and m_q(theta, 0) = q + q^3 carries the
        # exponents 1 and 3 of sp4 (Kostant).
        assert multiplicity_c2_closed(FundCoord(2, 0), FundCoord(0, 0)).value == 2
        assert multiplicity_c2_weyl_sum(FundCoord(2, 0), FundCoord(0, 0)) == QPoly([0, 1, 0, 1])

    def test_fourteen_dimensional_fixture(self):
        # L(2w2) has a two-dimensional zero weight space (q^2 + q^4). A
        # perfect-square closed form for the Q term overcounts this to 3;
        # Q must be the genuine partition value at (c, b).
        assert multiplicity_c2_closed(FundCoord(0, 2), FundCoord(0, 0)).value == 2
        assert multiplicity_c2_weyl_sum(FundCoord(0, 2), FundCoord(0, 0)) == QPoly(
            [0, 0, 1, 0, 1]
        )

    def test_weyl_sum_plain_tuples_match_fund_coords(self):
        for lam, mu in [((0, 2), (0, 0)), ((2, 1), (0, 0)), ((3, 1), (1, 1)), ((3, 1), (0, 2))]:
            assert multiplicity_c2_weyl_sum(lam, mu) == multiplicity_c2_weyl_sum(
                FundCoord(*lam), FundCoord(*mu)
            )


class TestPositiveRoots:
    def test_root_list(self):
        assert C2.positive_roots == (
            RootCoord(1, 0),
            RootCoord(0, 1),
            RootCoord(1, 1),
            RootCoord(2, 1),
        )
