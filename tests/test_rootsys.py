"""Structural tests for the g2 root system and its Weyl group, and for the
core's genericity: a B2 record that only the tests know runs through it."""

import math
import random
import re
from itertools import product

import pytest

from qkostant import g2_multiplicity, rootsys, sp4
from qkostant.errors import InternalConsistencyError
from qkostant.g2_partition import qpartition
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
    _alternation_row,
    _mu_shift,
    _point,
    alternation_terms,
    alternation_terms_at,
    case,
    case_steps,
    closed,
    count_sum,
    doubled,
    grid_rows,
    line_step,
    mat_det,
    mat_mul,
    qpartition_defined,
    row_cases,
    row_labels,
    sweep_box,
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


def _points(rs, top):
    """(lam, mu, row, orbit, mu_shift) at every (lam, mu) of [0, top]^4: the
    arguments of the per-point cores, as the one-pair routes make them."""
    for m, n, x, y in product(range(top + 1), repeat=4):
        lam, mu, orbit, mu_shift = _point(rs, (m, n), (x, y))
        yield lam, mu, _alternation_row(rs, orbit), orbit, mu_shift


@pytest.mark.parametrize("box", [False, True], ids=["fused", "box"])
@pytest.mark.parametrize("alg", ALGEBRAS, ids=["g2", "c2", "b2"])
def test_grid_points_and_cores_are_the_one_pair_routes(alg, box):
    """The per-point cores, point by point over [0, 6]^4, against the one-pair
    routes; with box, the record sums ℘_q off the box of every Weyl term of the
    grid. A result's terms are the (sign, RootCoord) pairs that term_sum and
    count_sum take, one per letter of the label."""
    record = alg
    if box:
        top1, top2 = doubled(alg.rs, (6, 6))
        record = alg._replace(term_sum=QPartitionBox(alg.rs.positive_roots, top1 >> 1,
                                                     top2 >> 1).term_sum)
    for lam, mu, row, orbit, mu_shift in _points(alg.rs, 6):
        pair = (tuple(lam), tuple(mu))
        assert type(lam) is FundCoord and type(mu) is FundCoord
        assert row == [(name, *elem) for (name, _), elem in zip(alg.rs.alternation, orbit)]
        terms = alternation_terms_at(row, mu_shift)
        assert terms == alternation_terms(alg.rs, *pair), pair
        assert all(type(v) is RootCoord for _, v in terms[2])
        weyl = weyl_terms_at(orbit, mu_shift)
        assert weyl == weyl_terms(alg.rs, *pair), pair
        assert all(type(v) is RootCoord for _, v in weyl)
        result = closed(record, lam, mu)
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
    """closed at a point with no alternation term on the positive cone
    returns zero, its case record and no terms, without summing: neither the
    kernel nor the box is asked."""

    def no_sum(*args):
        raise AssertionError("a term sum ran")

    top1, top2 = doubled(alg.rs, (top, top))
    box = QPartitionBox(alg.rs.positive_roots, top1 >> 1, top2 >> 1)
    monkeypatch.setattr(QPartitionBox, "term_sum", no_sum)
    records = (alg._replace(term_sum=no_sum), alg._replace(term_sum=box.term_sum))
    free = 0
    for lam, mu, row, _, mu_shift in _points(alg.rs, top):
        if alternation_terms_at(row, mu_shift)[2]:
            continue
        free += 1
        for record in records:
            result = closed(record, lam, mu)
            assert (result.mq, result.m_at_one, result.terms) == (QPoly(), 0, ()), (lam, mu)
            assert result.case == case(alg, lam, mu), (lam, mu)
    assert free > (top + 1) ** 4 // 3


def test_grid_points_of_a_negative_bound_is_empty():
    # The row core that replaced grid_points yields no row either.
    assert list(grid_rows(G2, -1)) == []


@pytest.mark.parametrize("alg", [g2_multiplicity.ALGEBRA, sp4.ALGEBRA], ids=["g2", "c2"])
def test_the_row_core_is_the_per_point_route(alg):
    """What table and verify read off each row of the row core, tuple by tuple,
    against closed on a record that sums ℘_q off the same box, for every
    N in 0 ... 8: the case fields (the first tuple's, moved by case_steps), the
    label, the case record of each run of row_cases, the coefficients (the
    first ht(lam - mu) + 1 lanes of the tuple's slot of the closed row, where
    it has a term) and m_at_1; and each slot of the Weyl row against the box's
    term_sum of the tuple's Weyl terms."""
    rs = alg.rs
    width = len(alg.case_data([(1, 0, 0)] * len(rs.alternation), "ZERO").as_tuple())
    steps = case_steps(alg, width)
    a, b = line_step(rs)
    for top in range(9):
        box = sweep_box(rs, top)
        record = alg._replace(term_sum=box.term_sum)
        slots = top + 1
        polys, lanes = box.polys.run(slots), box.polys.lanes
        rows = list(grid_rows(rs, top))
        assert [(*row.lam, row.x) for row in rows] == list(product(range(slots), repeat=3))
        for row in rows:
            full = [lanes] * slots
            closed_row = list(polys.decode(polys.row(row.terms), full))
            weyl_terms = weyl_terms_at(row.orbit, row.mu_shift)
            weyl_row = list(polys.decode(polys.row(weyl_terms), full))
            first = alg.case_data(row.shifts, row.labels[0]).as_tuple()
            labels = row_labels(row.labels[0], row.spans, top)
            runs = row_cases(alg, row, top)
            assert [y0 for y0, *_ in runs] == sorted({y0 for y0, *_ in runs})
            assert (runs[0][0], runs[-1][1]) == (0, slots)
            for y in range(slots):
                mu = (row.x, y)
                orbit, mu_shift = _point(rs, row.lam, mu)[2:]
                assert (orbit, _mu_shift(rs, row.x, 0)) == (row.orbit, row.mu_shift)
                expected = closed(record, row.lam, FundCoord(*mu))
                where = (tuple(row.lam), mu)
                assert tuple(f + y * s for f, s in zip(first, steps)) == \
                    expected.case.as_tuple(), where
                assert labels[y] == expected.case.case_label, where
                [run_case] = [c for y0, y1, c in runs if y0 <= y < y1]
                assert run_case.in_n == expected.case.in_n, where
                assert run_case.case_label == expected.case.case_label, where
                # A tuple with a term has the degree of lam - mu; the lanes past it are 0.
                degree = -1
                if row.terms and y < row.spans[0]:
                    degree = ((row.shifts[0][1] + row.shifts[0][2]) >> 1) - y * (a + b)
                coeffs = closed_row[y][:degree + 1]
                assert coeffs == expected.mq.coeffs, where
                assert not any(closed_row[y][degree + 1:]), where
                assert sum(coeffs) == expected.m_at_one, where
                weyl = box.term_sum(weyl_terms_at(orbit, mu_shift))
                assert weyl_row[y] == weyl.coeffs + (0,) * (lanes - len(weyl.coeffs)), where


@pytest.mark.parametrize("alg", [g2_multiplicity.ALGEBRA, sp4.ALGEBRA], ids=["g2", "c2"])
def test_the_shape_memo_is_the_per_row_labels(alg):
    """grid_rows labels each distinct shape (label, *spans) once per call: every
    row's labels equal row_labels of its own label and spans, the rows of one
    shape share one tuple, and row_cases reads the same runs off the memo as off
    labels built for the row alone, for every N in 0 ... 8."""
    for top in range(9):
        shapes = {}
        for row in grid_rows(alg.rs, top):
            label = alternation_terms(alg.rs, row.lam, (row.x, 0))[1]
            own = row_labels(label, row.spans, top)
            assert row.labels == own and len(own) == top + 1, (row.lam, row.x)
            assert shapes.setdefault((label, *row.spans), row.labels) is row.labels
            alone = row._replace(labels=own)
            assert row_cases(alg, row, top) == row_cases(alg, alone, top), (row.lam, row.x)
        assert len({id(labels) for labels in shapes.values()}) == len(shapes)


def _negative_lanes(lines, slots, row):
    """(slot, lane) of each negative lane of a row of lines.run(slots), decoded in full."""
    full = [lines.lanes] * slots
    return [(y, i) for y, slot in enumerate(lines.run(slots).decode(row, full))
            for i, lane in enumerate(slot) if lane < 0]


LANE_WIDTHS = (8, 16, 32, 64)


def _narrowest(peak):
    """The narrowest lane of LANE_WIDTHS whose signed range holds ±peak."""
    return min(width for width in LANE_WIDTHS if peak < 1 << width - 1)


def _at_least(monkeypatch, width):
    """Make every box built from here on take lanes of at least width bits."""
    own = rootsys._lane_width
    monkeypatch.setattr(rootsys, "_lane_width", lambda peak: max(width, own(peak)))


@pytest.mark.parametrize("rs", [G2, C2], ids=["g2", "c2"])
def test_the_one_op_negativity_test_is_a_decoded_negative_lane(monkeypatch, rs):
    """_Lines.negative, one & and one compare, against "some lane of the decoded
    row is negative", on the polynomial and count rows of signed term sums of at
    most |W| random terms, on the sweep boxes of N = 2 and 4, whose lanes are
    widened to at least 8, 16, 32 and 64 bits in turn. Each run(k) is the same
    lines read k slots at a time: it shares their ints, and its bias and mask
    are the one-slot reading's, repeated over k slots."""
    rng = random.Random(f"negative/{rs.name}")
    order = 2 * len(rs.positive_roots)
    for width in LANE_WIDTHS:
        _at_least(monkeypatch, width)
        for top in (2, 4):
            box = sweep_box(rs, top)
            top1, top2 = (c >> 1 for c in doubled(rs, (top, top)))
            for lines in (box.polys, box.counts):
                assert lines.lane_bits >= width and (width == 8 or lines.lane_bits == width)
                for slots in (1, 2, top + 1):
                    run = lines.run(slots)
                    assert run.ints is lines.ints and run.lanes == lines.lanes
                    assert run.bias == sum(lines.bias << y * lines.slot_bits
                                           for y in range(slots))
                    assert run.mask == (1 << slots * lines.slot_bits) - 1
                    seen = set()
                    for _ in range(300):
                        terms = [(rng.choice((1, -1)),
                                  (rng.randint(0, top1), rng.randint(0, top2)))
                                 for _ in range(rng.randint(1, order))]
                        row = run.row(terms)
                        negative = bool(_negative_lanes(lines, slots, row))
                        assert run.negative(row) == negative, (width, terms)
                        seen.add(negative)
                    assert seen == {True, False}


def test_the_one_op_negativity_test_sees_each_end_of_a_row(monkeypatch):
    """On a box of the simple roots alone, where ℘_q(c1, c2) = q^(c1 + c2), a row
    with exactly one negative lane: slot 0, lane 0; the last lane of the last
    slot (a run of one slot at the top corner); the lowest lane of the last slot
    of a longer run; and the last slot of a row of counts. Its largest entry, 1,
    times |W| = 4 fits 8-bit lanes, which the box takes for both kinds; the
    cases run again with its lanes widened to 16, 32 and 64 bits."""
    step, top1, top2 = (3, 2), 20, 12
    slots = 5
    last = (step[0] * (slots - 1), step[1] * (slots - 1))  # reaches every slot of the run
    short = (last[0] + 1, last[1] - 1)  # the same degrees, one slot fewer
    for width in LANE_WIDTHS:
        _at_least(monkeypatch, width)
        box = QPartitionBox([(1, 0), (0, 1)], top1, top2, step)
        assert box.counts.lane_bits == box.polys.lane_bits == width
        lanes = box.polys.lanes
        cases = [
            (box.polys, slots, [(-1, (0, 0))], [(0, 0)]),
            (box.polys, 1, [(-1, (top1, top2))], [(0, lanes - 1)]),
            (box.polys, slots, [(1, short), (-1, last)], [(slots - 1, 0)]),
            (box.counts, slots, [(1, short), (-1, last)], [(slots - 1, 0)]),
        ]
        for lines, run_slots, terms, where in cases:
            run = lines.run(run_slots)
            row = run.row(terms)
            assert _negative_lanes(lines, run_slots, row) == where, (width, terms)
            assert run.negative(row), (width, terms)
            assert not run.negative(run.row([(-sign, v) for sign, v in terms])), (width, terms)


def test_a_box_whose_counts_need_64_bit_lanes_takes_them():
    """a1, a2 and sixty copies of a1 + a2: order 124, and ℘_q(m, n) has the
    coefficient C(j + 59, 59) at degree m + n - j for j <= min(m, n). The
    largest coefficient of the box up to (6, 5), C(64, 5) at its corner, times
    124 is below 2^31, as is its largest count, C(65, 5), so it takes 32-bit
    lanes for both; in the box up to (6, 6) both pass 2^31, and it takes 64-bit
    ones. Every entry of the wider box is that sum, and the enumerator's where
    its decompositions are few enough to list."""
    roots = [RootCoord(1, 0), RootCoord(0, 1)] + [RootCoord(1, 1)] * 60
    assert 124 * math.comb(65, 5) < 1 << 31 <= 124 * math.comb(65, 6)
    narrow = QPartitionBox(roots, 6, 5)
    assert narrow.polys.lane_bits == narrow.counts.lane_bits == 32
    box = QPartitionBox(roots, 6, 6)
    assert box.polys.lane_bits == box.counts.lane_bits == 64
    for m, n in product(range(7), repeat=2):
        coeffs = [0] * (m + n + 1)
        for j in range(min(m, n) + 1):
            coeffs[m + n - j] = math.comb(j + 59, 59)
        assert box[m, n] == QPoly(coeffs), (m, n)
        if min(m, n) <= 2:
            assert box[m, n] == qpartition_enumerated(roots, RootCoord(m, n)), (m, n)


# Each N beside one where a sweep box's lanes widen: g2's counts at N = 1 and 7 and
# its polynomials at 2 and 17; c2's counts at 4 and its polynomials at 20.
SWEEP_FLIPS = [(g2_multiplicity.ALGEBRA, top) for top in (1, 2, 6, 7, 16, 17)] + [
    (sp4.ALGEBRA, top) for top in (3, 4, 19, 20)]


@pytest.mark.parametrize("alg,top", SWEEP_FLIPS,
                         ids=[f"{alg.rs.name}-{top}" for alg, top in SWEEP_FLIPS])
def test_a_sweep_box_takes_the_narrowest_lanes_that_hold_its_largest_entry(alg, top):
    """Each kind of a sweep box takes the narrowest lanes of 8, 16, 32 and 64 bits
    whose signed range holds its largest entry times |W|: the largest coefficient
    of ℘_q over the box for its polynomials and the largest count for its counts,
    both read off the algebra's kernel at every point, not off the box. Both
    kinds change width at one of these N, or at its neighbour here."""
    rs = alg.rs
    order = 2 * len(rs.positive_roots)
    top1, top2 = (c >> 1 for c in doubled(rs, (top, top)))
    polys = [alg.term_sum([(1, RootCoord(c1, c2))]).coeffs
             for c1 in range(top1 + 1) for c2 in range(top2 + 1)]
    box = sweep_box(rs, top)
    assert box.polys.lane_bits == _narrowest(max(map(max, polys)) * order)
    assert box.counts.lane_bits == _narrowest(max(map(sum, polys)) * order)


def test_a_sweep_box_of_one_point_keeps_the_lanes_it_was_filled_at():
    """The sweep box of N = 0 holds ℘_q(0, 0) = 1 alone: its one line holds one
    point, so its polynomials keep the 32-bit lanes of the fill, and its count
    takes 8 bits."""
    for rs in (G2, C2):
        box = sweep_box(rs, 0)
        assert (box.polys.lane_bits, box.counts.lane_bits) == (32, 8)
        assert box[0, 0] == QPoly([1])


def test_a_box_of_one_point_per_line_reads_no_coefficient(monkeypatch):
    """qpartition_defined's box, each line of one point, is read one entry at a
    time, so it reads no largest coefficient to narrow its lanes by; a box with a
    line of two points does."""

    def no_read(*args):
        raise AssertionError("a coefficient was read")

    monkeypatch.setattr(QPartitionBox, "_largest_coefficient", staticmethod(no_read))
    for v in ((0, 0), (5, 0), (0, 5), (12, 8)):
        assert qpartition_defined(G2.positive_roots, v) == qpartition(RootCoord(*v)), v
    with pytest.raises(AssertionError, match="was read"):
        QPartitionBox(G2.positive_roots, 1, 1)


@pytest.mark.parametrize("width", [8, 16, 32])
def test_a_box_widens_its_lanes_where_its_largest_entry_times_w_reaches_the_sign_bit(width):
    """a1 r times, a2 s times and a1 + a2 k times, up to (1, 1): ℘_q(1, 1) =
    rs·q^2 + k·q, the other entries 1, r·q and s·q, and |W| = 2(r + s + k). |W|
    is even, so a largest entry times |W| is at most 2^(w-1) - 2 below 2^(w-1):
    r = s = 1 and k = 2^(w/2 - 1) - 1 put the largest coefficient, k, there,
    which takes w-bit lanes, and the second root set puts it at 2^(w-1), which
    takes 2w-bit lanes. The counts take the narrowest lanes that hold the
    largest count, rs + k, times |W|, and every entry is the formula's."""
    at = {8: (2, 4, 2), 16: (16, 16, 32), 32: (512, 512, 3072)}[width]
    below = (1, 1, (1 << width // 2 - 1) - 1)
    for (r, s, k), lanes in ((below, width), (at, 2 * width)):
        order = 2 * (r + s + k)
        assert max(r * s, k) * order == (1 << width - 1) - (2 if lanes == width else 0)
        box = QPartitionBox([RootCoord(1, 0)] * r + [RootCoord(0, 1)] * s
                            + [RootCoord(1, 1)] * k, 1, 1)
        assert box.polys.lane_bits == lanes
        assert box.counts.lane_bits == _narrowest((r * s + k) * order)
        assert [box[v] for v in ((0, 0), (1, 0), (0, 1), (1, 1))] == [
            QPoly([1]), QPoly([0, r]), QPoly([0, s]), QPoly([0, k, r * s])]


@pytest.mark.parametrize("top1,top2", [(12, 8), (5, 3), (4, 7)])
def test_every_step_reads_the_entries_of_the_plain_box(top1, top2):
    """The lines of every step hold the entries of the box of step (1, 1), also
    where some rows of the box are lines of one point each and the others are
    not: each entry, its count, and each slot of the run of a point's line down
    to the line's end. Every step with a line of two points or more narrows its
    lanes as the plain box does; the others keep the 32 bits of the fill."""
    plain = QPartitionBox(G2.positive_roots, top1, top2)
    assert plain.polys.lane_bits < 32
    for step in ((1, 1), (2, 1), (1, 2), (3, 2), (4, 3), (3, 5), (7, 5), (top1, 1), (1, top2)):
        box = QPartitionBox(G2.positive_roots, top1, top2, step)
        a, b = step
        narrows = a <= top1 and b <= top2
        assert box.polys.lane_bits == (plain.polys.lane_bits if narrows else 32), step
        for v in product(range(top1 + 1), range(top2 + 1)):
            assert box[v] == plain[v], (step, v)
            assert box.sum_at_one([(1, v)]) == plain.sum_at_one([(1, v)]), (step, v)
            slots = min(v[0] // a, v[1] // b) + 1
            run = box.polys.run(slots)
            for y, lanes in enumerate(run.decode(run.row([(1, v)]), [box.polys.lanes] * slots)):
                assert QPoly(lanes) == plain[v[0] - y * a, v[1] - y * b], (step, v, y)
