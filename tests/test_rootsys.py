"""Structural tests for the g2 root system and its Weyl group, and for the
core's genericity: a B2 record that only the tests know runs through it."""

import random
import re
from itertools import product

import pytest

from qkostant import g2_multiplicity, sp4
from qkostant.errors import InternalConsistencyError
from qkostant.qpoly import QPoly
from qkostant.rootsys import (
    C2,
    G2,
    IDENTITY,
    Algebra,
    FundCoord,
    QPartitionBox,
    RootCoord,
    RootSystem,
    alternation_terms,
    alternation_terms_at,
    case,
    closed,
    closed_at,
    count_sum,
    doubled,
    grid_points,
    mat_det,
    mat_mul,
    qpartition_defined,
    to_fund,
    to_root,
    weyl_elements,
    weyl_group,
    weyl_sum,
    weyl_terms,
    weyl_terms_at,
)
from qkostant.sp4 import (
    _c2_sum,
    _closed_form,
    multiplicity_c2_closed,
    qpartition_c2,
)

from reference_kernels import qpartition_enumerated
from shift_forms import FUND_TO_ROOT, RHO, SHIFT_FORMS, sigma_shift


# sp4 with its simple roots swapped: a1 long, a2 short. The package has no
# B2 record; the core must serve it from these fields alone.
B2 = RootSystem(
    name="b2",
    positive_roots=(RootCoord(1, 0), RootCoord(0, 1), RootCoord(1, 1), RootCoord(1, 2)),
    # s1: a1 -> -a1, a2 -> a1 + a2;  s2: a1 -> a1 + 2a2, a2 -> -a2.
    s1=((-1, 1), (0, 1)),
    s2=((1, 0), (2, -1)),
    two_w1=(2, 2),  # w1 = a1 + a2
    two_w2=(1, 2),  # w2 = a1/2 + a2
    alternation=(("P", "1"), ("Q", "s2"), ("R", "s1")),
)
B2_ALGEBRA = Algebra(
    B2,
    lambda terms: _c2_sum([(sign, (n, m)) for sign, (m, n) in terms]),
    lambda shifts, label: label,
    lambda m, n: _closed_form(n, m),
)


def by_word():
    return {w.word: w for w in weyl_group()}


class TestConstants:
    def test_positive_roots(self):
        assert G2.positive_roots == (
            RootCoord(1, 0),
            RootCoord(0, 1),
            RootCoord(1, 1),
            RootCoord(2, 1),
            RootCoord(3, 1),
            RootCoord(3, 2),
        )

    def test_rho_is_half_sum(self):
        total = (sum(r.c1 for r in G2.positive_roots), sum(r.c2 for r in G2.positive_roots))
        assert total == (2 * RHO.c1, 2 * RHO.c2)
        assert RHO == RootCoord(5, 3)

    @pytest.mark.parametrize(
        "fund,root",
        [((0, 1), (3, 2)), ((0, 0), (0, 0)), ((1, 1), (5, 3)), ((1, 0), (2, 1))],
    )
    def test_fund_to_root(self, fund, root):
        assert to_root(G2, FundCoord(*fund)) == RootCoord(*root)

    def test_fund_to_root_matrix_is_half_the_doubled_weights(self):
        (p, q), (r, s) = FUND_TO_ROOT
        assert ((2 * p, 2 * r), (2 * q, 2 * s)) == (G2.two_w1, G2.two_w2)

    def test_round_trip_on_grid(self):
        # doubled reads two_w1 and two_w2, and to_fund the reflections, so the
        # round trip ties the one pair of fields to the other, through the
        # doubled weights also at sp4's and B2's half-integral ones.
        for rs, m, n in product((G2, C2, B2), range(-8, 8), range(-8, 8)):
            two_v = doubled(rs, (m, n))
            if m < 0 or n < 0:
                with pytest.raises(ValueError, match=rf"coordinates \({2 * m}, {2 * n}\)"):
                    to_fund(rs, two_v)
            else:
                assert to_fund(rs, two_v) == FundCoord(2 * m, 2 * n), (rs.name, m, n)

    def test_root_to_fund_rejects_non_dominant(self):
        with pytest.raises(ValueError, match=r"\(1, 0\) is not dominant.*\(2, -1\)"):
            to_fund(G2, RootCoord(1, 0))  # a1 = 2w1 - w2

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
        roots = set(G2.positive_roots) | {RootCoord(-r.c1, -r.c2) for r in G2.positive_roots}
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


@pytest.mark.parametrize("rs", [G2, C2, B2], ids=["g2", "c2", "b2"])
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
        """alternation_terms' shifts against the matrices, and no element outside the
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
            assert alternation_terms(rs, (m, n), (x, y))[0] == [shifts[w] for w in words]
        assert reached == set(words)


# w1 and w2 doubled, in root coordinates, written here rather than read from
# doubled() or the records' two_w1 and two_w2, so that the sign test below
# shares no weight data with the code whose alternation set it bounds.
DOUBLED_FUNDAMENTAL_WEIGHTS = {"g2": ((4, 2), (6, 4)), "c2": ((2, 1), (2, 2))}

# The coordinates k that make each element outside the alternation set vanish.
VANISHING_COORDINATES = {
    "g2": {"s1s2s1": {0}, "s2s1s2": {1}, "(s1s2)^2": {0, 1}, "(s2s1)^2": {0, 1},
           "s1(s2s1)^2": {0, 1}, "s2(s1s2)^2": {0, 1}, "(s1s2)^3": {0, 1}},
    "c2": {"s1s2": {0}, "s2s1": {1}, "s1s2s1": {0, 1}, "s2s1s2": {0, 1}, "(s1s2)^2": {0, 1}},
}


@pytest.mark.parametrize("rs", [G2, C2], ids=["g2", "c2"])
def test_no_element_outside_the_alternation_set_reaches_the_cone_at_any_pair(rs):
    """The alternation set, at every dominant pair, not only on a grid.

    sigma(lam + rho) - (mu + rho) = m sigma(w1) + n sigma(w2) + (sigma rho - rho) - mu
    for lam = m w1 + n w2. The root coordinates of w1 and w2, and so of every
    dominant mu, are nonnegative. So where sigma(w1)_k <= 0, sigma(w2)_k <= 0
    and (sigma rho - rho)_k < 0, coordinate k of the shifted weight is
    negative for every m, n >= 0 and every dominant mu, and sigma's term
    vanishes. Exactly the elements outside rs.alternation have such a k; the
    grid test above shows that each element of the set does reach the cone.
    """
    w1, w2 = DOUBLED_FUNDAMENTAL_WEIGHTS[rs.name]
    assert min(w1 + w2) >= 0
    rho = (w1[0] + w2[0], w1[1] + w2[1])
    vanishing = {}
    for elem in weyl_elements(rs):
        s_w1, s_w2, s_rho = (act(elem.matrix, w) for w in (w1, w2, rho))
        ks = {k for k in (0, 1) if s_w1[k] <= 0 and s_w2[k] <= 0 and s_rho[k] < rho[k]}
        if ks:
            vanishing[elem.word] = ks
    assert vanishing == VANISHING_COORDINATES[rs.name]
    assert set(vanishing).isdisjoint(word for _, word in rs.alternation)
    assert len(vanishing) + len(rs.alternation) == len(weyl_elements(rs))


class TestB2:
    """Swapping the coordinates of every weight maps B2 onto sp4, so each B2
    answer of the core is an sp4 answer read with its coordinates swapped."""

    def test_enumerator_is_the_swapped_sp4_kernel(self):
        for m, n in product(range(16), repeat=2):
            enumerated = qpartition_enumerated(B2.positive_roots, RootCoord(m, n))
            assert enumerated == qpartition_defined(B2.positive_roots, (m, n)), (m, n)
            assert enumerated == qpartition_c2(RootCoord(n, m)), (m, n)

    def test_shared_routes_are_the_swapped_sp4_route(self):
        for m, n, x, y in product(range(8), repeat=4):
            result = closed(B2_ALGEBRA, (m, n), (x, y))
            c2 = closed(sp4.ALGEBRA, (n, m), (y, x))
            assert (result.mq, result.case) == (c2.mq, c2.case.case_label), (m, n, x, y)
            assert weyl_sum(B2_ALGEBRA, (m, n), (x, y)) == result.mq, (m, n, x, y)

    def test_shared_integer_route_is_the_swapped_sp4_route(self):
        for m, n, x, y in product(range(8), repeat=4):
            terms = alternation_terms(B2, (m, n), (x, y))[2]
            expected = multiplicity_c2_closed((n, m), (y, x)).value
            assert count_sum(B2_ALGEBRA, terms) == expected, (m, n, x, y)


@pytest.mark.parametrize(
    "alg,lam",
    [(g2_multiplicity.ALGEBRA, (1, 1)), (sp4.ALGEBRA, (2, 0))],
    ids=["g2", "c2"],
)
def test_negative_closed_coefficient_is_inconsistent(alg, lam):
    """The shared closed route refuses a term sum with a negative coefficient.
    Each point has alternation terms (c2's (1, 1), (0, 0) has none, so no
    term sum runs there)."""
    assert alternation_terms(alg.rs, lam, (0, 0))[2]
    broken = alg._replace(term_sum=lambda terms: QPoly([1, -1]))
    with pytest.raises(InternalConsistencyError, match="negative coefficient in m_q"):
        closed(broken, lam, (0, 0))


ALGEBRAS = [g2_multiplicity.ALGEBRA, sp4.ALGEBRA, B2_ALGEBRA]


@pytest.mark.parametrize("box", [False, True], ids=["fused", "box"])
@pytest.mark.parametrize("alg", ALGEBRAS, ids=["g2", "c2", "b2"])
def test_grid_points_and_cores_are_the_one_pair_routes(alg, box):
    """What table and verify sweep, point by point, against the one-pair routes;
    the sweeps' record sums ℘_q off the box of every Weyl term of the grid.
    A result's terms are the (sign, RootCoord) pairs that term_sum and
    count_sum take, one per letter of the label."""
    record = alg
    if box:
        top1, top2 = doubled(alg.rs, (6, 6))
        record = alg._replace(term_sum=QPartitionBox(alg.rs.positive_roots, top1 >> 1,
                                                     top2 >> 1).term_sum)
    points = list(grid_points(alg.rs, 6))
    assert [(*lam, *mu) for lam, mu, *_ in points] == list(product(range(7), repeat=4))
    for lam, mu, row, orbit, mu_shift in points:
        pair = (tuple(lam), tuple(mu))
        assert type(lam) is FundCoord and type(mu) is FundCoord
        assert row == [(name, *elem) for (name, _), elem in zip(alg.rs.alternation, orbit)]
        terms = alternation_terms_at(row, mu_shift)
        assert terms == alternation_terms(alg.rs, *pair), pair
        assert all(type(v) is RootCoord for _, v in terms[2])
        weyl = weyl_terms_at(orbit, mu_shift)
        assert weyl == weyl_terms(alg.rs, *pair), pair
        assert all(type(v) is RootCoord for _, v in weyl)
        result = closed_at(record, lam, mu, row, mu_shift)
        assert result == closed(alg, *pair), pair
        assert (result.case, result.terms) == (case(alg, *pair), tuple(terms[2])), pair
        assert type(result) is type(closed(record, *pair))
        assert alg.term_sum(result.terms) == result.mq, pair
        assert count_sum(alg, result.terms) == result.m_at_one, pair
        label = terms[1]
        assert len(result.terms) == (0 if label == "ZERO" else len(label)), pair


@pytest.mark.parametrize(
    "alg,top", [(g2_multiplicity.ALGEBRA, 6), (sp4.ALGEBRA, 8)], ids=["g2", "c2"]
)
def test_a_term_free_point_runs_no_term_sum(monkeypatch, alg, top):
    """closed_at at a point with no alternation term on the positive cone
    returns zero, its case record and no terms, without summing: neither the
    kernel nor the box is asked."""

    def no_sum(*args):
        raise AssertionError("a term sum ran")

    top1, top2 = doubled(alg.rs, (top, top))
    box = QPartitionBox(alg.rs.positive_roots, top1 >> 1, top2 >> 1)
    monkeypatch.setattr(QPartitionBox, "term_sum", no_sum)
    records = (alg._replace(term_sum=no_sum), alg._replace(term_sum=box.term_sum))
    free = 0
    for lam, mu, row, _, mu_shift in grid_points(alg.rs, top):
        if alternation_terms_at(row, mu_shift)[2]:
            continue
        free += 1
        for record in records:
            result = closed_at(record, lam, mu, row, mu_shift)
            assert (result.mq, result.m_at_one, result.terms) == (QPoly(), 0, ()), (lam, mu)
            assert result.case == case(alg, lam, mu), (lam, mu)
    assert free > (top + 1) ** 4 // 3


def test_grid_points_of_a_negative_bound_is_empty():
    assert list(grid_points(G2, -1)) == []
