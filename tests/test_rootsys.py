"""Structural tests for the g2 root system and its Weyl group."""

import random
import re
from itertools import product

import pytest

from qkostant.rootsys import (
    C2,
    G2,
    IDENTITY,
    POSITIVE_ROOTS,
    FundCoord,
    RootCoord,
    alternation_shifts,
    doubled,
    fund_to_root,
    mat_det,
    mat_mul,
    root_to_fund,
    to_fund,
    to_root,
    weyl_elements,
    weyl_group,
)

from shift_forms import FUND_TO_ROOT, RHO, SHIFT_FORMS, sigma_shift


def by_word():
    return {w.word: w for w in weyl_group()}


class TestConstants:
    def test_positive_roots(self):
        assert POSITIVE_ROOTS == (
            RootCoord(1, 0),
            RootCoord(0, 1),
            RootCoord(1, 1),
            RootCoord(2, 1),
            RootCoord(3, 1),
            RootCoord(3, 2),
        )

    def test_rho_is_half_sum(self):
        total = (sum(r.c1 for r in POSITIVE_ROOTS), sum(r.c2 for r in POSITIVE_ROOTS))
        assert total == (2 * RHO.c1, 2 * RHO.c2)
        assert RHO == RootCoord(5, 3)

    @pytest.mark.parametrize(
        "fund,root",
        [((0, 1), (3, 2)), ((0, 0), (0, 0)), ((1, 1), (5, 3)), ((1, 0), (2, 1))],
    )
    def test_fund_to_root(self, fund, root):
        assert fund_to_root(FundCoord(*fund)) == RootCoord(*root)

    def test_fund_to_root_matrix_is_half_the_doubled_weights(self):
        (p, q), (r, s) = FUND_TO_ROOT
        assert ((2 * p, 2 * r), (2 * q, 2 * s)) == (G2.two_w1, G2.two_w2)

    def test_round_trip_on_grid(self):
        for m, n in product(range(8), repeat=2):
            w = FundCoord(m, n)
            assert root_to_fund(fund_to_root(w)) == w

    def test_root_to_fund_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            root_to_fund(RootCoord(1, 0))  # a1 = 2w1 - 3w2

    @pytest.mark.parametrize("coords", [(True, 0), (0, False), (2.5, 0), (0, 1.0), ("1", 0)])
    def test_fund_coord_rejects_non_integers(self, coords):
        with pytest.raises(ValueError):
            FundCoord(*coords)

    def test_fund_coord_rejects_negatives(self):
        with pytest.raises(ValueError):
            FundCoord(-1, 0)
        with pytest.raises(ValueError):
            FundCoord(0, -2)


class TestGroupStructure:
    def test_twelve_elements_with_graded_lengths(self):
        lengths = [w.length for w in weyl_group()]
        assert lengths == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]

    def test_identity_element(self):
        assert by_word()["1"].matrix == IDENTITY

    def test_action_spot_checks(self):
        w = by_word()
        assert w["s2s1"].apply(RootCoord(1, 0)) == RootCoord(-1, -1)
        assert w["(s1s2)^3"].apply(RootCoord(0, 1)) == RootCoord(0, -1)
        assert w["s1"].apply(RootCoord(0, 1)) == RootCoord(3, 1)

    def test_generators_are_involutions(self):
        w = by_word()
        for gen in ("s1", "s2"):
            assert mat_mul(w[gen].matrix, w[gen].matrix) == IDENTITY

    def test_dihedral_relation(self):
        w = by_word()
        rot = mat_mul(w["s1"].matrix, w["s2"].matrix)
        power = IDENTITY
        orders = []
        for k in range(1, 7):
            power = mat_mul(power, rot)
            if power == IDENTITY:
                orders.append(k)
        assert orders == [6]  # (s1 s2) has order exactly 6

    def test_determinant_matches_sign(self):
        for w in weyl_group():
            assert mat_det(w.matrix) == w.sign == (-1) ** w.length

    def test_matrices_distinct_and_closed(self):
        mats = {w.matrix for w in weyl_group()}
        assert len(mats) == 12
        for a, b in product(weyl_group(), repeat=2):
            assert mat_mul(a.matrix, b.matrix) in mats

    def test_permutes_all_roots(self):
        roots = set(POSITIVE_ROOTS) | {RootCoord(-r.c1, -r.c2) for r in POSITIVE_ROOTS}
        for w in weyl_group():
            assert {w.apply(r) for r in roots} == roots


class TestSigmaShift:
    def test_identity_at_equal_weights(self):
        ident = by_word()["1"]
        assert sigma_shift(ident, FundCoord(2, 5), FundCoord(2, 5)) == RootCoord(0, 0)

    def test_longest_element_at_zero(self):
        longest = by_word()["(s1s2)^3"]
        assert sigma_shift(longest, FundCoord(0, 0), FundCoord(0, 0)) == RootCoord(-10, -6)

    def test_matches_affine_forms_on_random_tuples(self):
        rng = random.Random(1912)
        elements = by_word()
        for _ in range(60):
            m, n, x, y = (rng.randint(0, 20) for _ in range(4))
            lam, mu = FundCoord(m, n), FundCoord(x, y)
            for word, form in SHIFT_FORMS.items():
                assert sigma_shift(elements[word], lam, mu) == RootCoord(*form(m, n, x, y)), (
                    word,
                    (m, n, x, y),
                )

    def test_exactly_five_elements_can_contribute(self):
        """Only 1, s1, s2, s2s1, s1s2 ever shift a dominant pair into the
        nonnegative quadrant; the other seven always go negative."""
        nonneg_seen = {w.word: False for w in weyl_group()}
        for m, n, x, y in product(range(7), repeat=4):
            lam, mu = FundCoord(m, n), FundCoord(x, y)
            for w in weyl_group():
                shift = sigma_shift(w, lam, mu)
                if shift.c1 >= 0 and shift.c2 >= 0:
                    nonneg_seen[w.word] = True
        contributors = {word for word, seen in nonneg_seen.items() if seen}
        assert contributors == {"1", "s1", "s2", "s2s1", "s1s2"}


def expand(word):
    """Letters of a word such as "1", "s2s1", "(s1s2)^2" or "s1(s2s1)^2"."""
    if word == "1":
        return []
    power = re.fullmatch(r"(.*)\((.*)\)\^(\d+)", word)
    if power:
        head, pair, times = power.groups()
        word = head + pair * int(times)
    return [int(digit) for digit in word[1::2]]


def act(matrix, v):
    (p, q), (r, s) = matrix
    return (p * v[0] + q * v[1], r * v[0] + s * v[1])


@pytest.mark.parametrize("rs", [G2, C2], ids=["g2", "c2"])
class TestRootSystemRecords:
    """Each record's literals against what its reflections force."""

    def test_simple_roots_come_first(self, rs):
        assert rs.positive_roots[:2] == (RootCoord(1, 0), RootCoord(0, 1))

    def test_reflections_negate_their_simple_root(self, rs):
        assert act(rs.s1, (1, 0)) == (-1, 0)
        assert act(rs.s2, (0, 1)) == (0, -1)

    def test_doubled_fundamental_weights_from_the_reflections(self, rs):
        # s_i(w_i) = w_i - a_i and s_j(w_i) = w_i for j != i, doubled.
        (u1, v1), (u2, v2) = rs.two_w1, rs.two_w2
        assert act(rs.s1, rs.two_w1) == (u1 - 2, v1)
        assert act(rs.s2, rs.two_w1) == rs.two_w1
        assert act(rs.s2, rs.two_w2) == (u2, v2 - 2)
        assert act(rs.s1, rs.two_w2) == rs.two_w2

    def test_two_rho_is_the_sum_of_positive_roots(self, rs):
        two_rho = (rs.two_w1[0] + rs.two_w2[0], rs.two_w1[1] + rs.two_w2[1])
        assert two_rho == (
            sum(r.c1 for r in rs.positive_roots),
            sum(r.c2 for r in rs.positive_roots),
        )

    def test_weyl_group_permutes_the_roots(self, rs):
        roots = set(rs.positive_roots) | {(-r.c1, -r.c2) for r in rs.positive_roots}
        group = weyl_elements(rs)
        assert len(group) == 2 * len(rs.positive_roots)
        assert len({elem.matrix for elem in group}) == len(group)
        for elem in group:
            assert {act(elem.matrix, r) for r in roots} == roots

    def test_words_rebuild_their_matrices(self, rs):
        for elem in weyl_elements(rs):
            letters = expand(elem.word)
            matrix = IDENTITY
            for letter in letters:
                matrix = mat_mul(matrix, rs.s1 if letter == 1 else rs.s2)
            assert (matrix, len(letters)) == (elem.matrix, elem.length), elem.word

    def test_coordinate_round_trip(self, rs):
        for m, n in product(range(8), repeat=2):
            root = to_root(rs, (m, n))
            if root is not None:
                assert to_fund(rs, root) == FundCoord(m, n)

    def test_alternation_set_is_where_dominant_pairs_reach_the_positive_cone(self, rs):
        """alternation_shifts against the matrices, and no element outside the
        alternation set ever shifts a dominant pair into the positive cone of
        the root lattice."""
        words = [word for _, word in rs.alternation]
        reached = set()
        for m, n, x, y in product(range(7), repeat=4):
            lam2 = doubled(rs, (m + 1, n + 1))
            mu1, mu2 = doubled(rs, (x + 1, y + 1))
            shifts = {}
            for elem in weyl_elements(rs):
                u, v = act(elem.matrix, lam2)
                shifts[elem.word] = (elem.sign, u - mu1, v - mu2)
                if u >= mu1 and v >= mu2 and not (u - mu1) % 2 and not (v - mu2) % 2:
                    reached.add(elem.word)
            assert alternation_shifts(rs, (m, n), (x, y)) == [shifts[w] for w in words]
        assert reached == set(words)
