"""Both kernels and both closed routes against the kernel-free box oracle.

rootsys.QPartitionBox fills ℘_q over a whole box from the definition, one
pass per positive root, and table and verify read every ℘_q they sum from
one. It holds ``qpartition`` and ``qpartition_c2`` at every point of a box,
its counts summed at q = 1 to the closed counts, and the fused closed q
routes of both algebras to Σ sign·box[term] over the Weyl terms at every
dominant mu below a seeded set of lambda <= (40, 40), both as QPoly sums and
through the box's own term sum, decoded. A marker builder that loses the
sign of a term agrees with the box on every one-term kernel call, so only
the fused routes see it. The box's term sum, the first slot of the row sums
that table and verify read, is held to QPoly.signed_sum of its entries. The box's
refusals (past its byte budget, a count too large for its lanes, a sign
other than 1 or -1, or a term outside it), the refusal of the definitional
routes qpartition_bruteforce and qpartition_c2_bruteforce past that budget,
the exactness of its packed sums at the edges of the 64-bit range, and its
decode at both ends of the lane count are tested here too. The box is held
to the test-side enumerator.
"""

import re
import tracemalloc
from itertools import product, repeat
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkostant import g2_multiplicity, g2_partition, sp4
from qkostant.g2_partition import partition_tarski, qpartition
from qkostant.qpoly import INT64_MAX, QPoly
from qkostant.rootsys import (
    BOX_BYTE_BUDGET,
    C2,
    G2,
    FundCoord,
    QPartitionBox,
    RootCoord,
    closed,
    doubled,
    weyl_terms,
)
from qkostant.sp4 import partition_c2_closed, qpartition_c2

from mutants import c2_events_ignoring_sign, g2_marks_ignoring_sign
from reference_kernels import qpartition_enumerated

ALGEBRAS = {"g2": g2_multiplicity.ALGEBRA, "c2": sp4.ALGEBRA}


def _dominant_pairs(rs, rng, count):
    """(lam, mu) for count seeded lam <= (40, 40) and every dominant mu <= lam."""
    pairs = []
    for _ in range(count):
        lam = FundCoord(rng.randint(0, 40), rng.randint(0, 40))
        top1, top2 = doubled(rs, lam)
        for mu in product(range(top1 // 2 + 1), range(top2 // 2 + 1)):
            d1, d2 = doubled(rs, mu)
            if d1 <= top1 and d2 <= top2 and not (top1 - d1) % 2 and not (top2 - d2) % 2:
                pairs.append((lam, FundCoord(*mu)))
    return pairs


PAIRS = {"g2": _dominant_pairs(G2, Random(21), 3), "c2": _dominant_pairs(C2, Random(22), 3)}


def _box_for(rs, pairs):
    terms = [v for lam, mu in pairs for _, v in weyl_terms(rs, lam, mu)]
    return QPartitionBox(rs.positive_roots, max(c1 for c1, _ in terms), max(c2 for _, c2 in terms))


@pytest.fixture(scope="module")
def boxes():
    return {"g2": _box_for(G2, PAIRS["g2"]), "c2": _box_for(C2, PAIRS["c2"])}


def _assert_routes_match_the_box(name, box):
    alg = ALGEBRAS[name]
    for lam, mu in PAIRS[name]:
        terms = weyl_terms(alg.rs, lam, mu)
        expected = QPoly.signed_sum((sign, box[v]) for sign, v in terms)
        mq = closed(alg, lam, mu).mq
        assert mq == expected, (name, lam, mu)
        assert box.term_sum(terms) == mq, (name, lam, mu)


class TestBox:
    def test_small_box_matches_the_enumerator(self):
        box = QPartitionBox(G2.positive_roots, 12, 12)
        for m, n in product(range(13), repeat=2):
            assert box[m, n] == qpartition_enumerated(G2.positive_roots, RootCoord(m, n)), (m, n)

    @pytest.mark.parametrize(
        "rs,route,top",
        [(G2, g2_partition.qpartition_bruteforce, 30), (C2, sp4.qpartition_c2_bruteforce, 40)],
        ids=["g2", "c2"],
    )
    def test_the_definitional_routes_match_the_enumerator(self, rs, route, top):
        # The grids of test_criterion_04, which holds the kernels to these routes.
        for m, n in product(range(top + 1), repeat=2):
            v = RootCoord(m, n)
            assert route(v) == qpartition_enumerated(rs.positive_roots, v), (m, n)

    def test_a_count_past_a_lane_is_refused(self):
        # Forty copies of a1: the count at (40, 0) is C(79, 39) > 2^64.
        with pytest.raises(ValueError, match="does not fit a signed 64-bit lane"):
            QPartitionBox([RootCoord(1, 0)] * 40, 40, 0)

    def test_a_count_is_refused_from_two_to_the_63_over_the_group_order(self):
        # Twenty copies of a1, whose group order the box takes as 40: the count
        # at (t, 0) is C(t + 19, 19), and 40 * C(t + 19, 19) first reaches 2^63
        # at t = 56, where the count itself still fits 64 bits.
        roots = [RootCoord(1, 0)] * 20
        assert 40 * comb(74, 19) < 1 << 63 <= 40 * comb(75, 19) < 40 << 64
        assert QPartitionBox(roots, 55, 0)[55, 0] == QPoly([0] * 55 + [comb(74, 19)])
        with pytest.raises(ValueError, match="does not fit a signed 64-bit lane"):
            QPartitionBox(roots, 56, 0)

    def test_a_box_past_the_byte_budget_is_refused_before_it_is_built(self, monkeypatch):
        def no_fill(*args):
            raise AssertionError("the box was filled")

        monkeypatch.setattr(QPartitionBox, "_fill", staticmethod(no_fill))
        # (4 * (top1 + top2 + 1) + 8) bytes per point is 248560652 over
        # [0, 400]x[0, 240], the box of verify --max 80, and 484372812 over
        # [0, 500]x[0, 300], that of --max 100.
        for top1, top2 in ((500, 300), (10**11, 10**11), (10**30, 0)):
            with pytest.raises(ValueError, match="more than the budget"):
                QPartitionBox(G2.positive_roots, top1, top2)
        with pytest.raises(AssertionError, match="was filled"):
            QPartitionBox(G2.positive_roots, 400, 240)
        assert BOX_BYTE_BUDGET == 1 << 28

    @pytest.mark.parametrize(
        "route,fits,refused",
        [
            (g2_partition.qpartition_bruteforce, (410, 246), (415, 249)),
            (sp4.qpartition_c2_bruteforce, (321, 321), (322, 322)),
        ],
        ids=["g2", "c2"],
    )
    def test_the_definitional_routes_refuse_a_weight_past_the_budget_at_once(
        self, monkeypatch, route, fits, refused
    ):
        # Each route reads its entry off the box up to the weight itself: the
        # boxes of verify --max 82 and 83 for g2, and of c2 weights (321, 321)
        # and (322, 322), lie on either side of the budget.
        for v in (refused, (10**10, 10**10)):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="more than the budget"):
                    route(RootCoord(*v))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

        def no_fill(*args):
            raise AssertionError("the box was filled")

        monkeypatch.setattr(QPartitionBox, "_fill", staticmethod(no_fill))
        with pytest.raises(AssertionError, match="was filled"):
            route(RootCoord(*fits))
        # Off the positive cone no box is built at all.
        assert route(RootCoord(-1, 5)) == route(RootCoord(5, -1)) == QPoly()

    def test_a_negative_bound_is_refused(self):
        with pytest.raises(ValueError, match="nonnegative bounds"):
            QPartitionBox(G2.positive_roots, -1, 0)

    @pytest.mark.parametrize("rs", [G2, C2], ids=["g2", "c2"])
    def test_an_empty_term_sum_is_zero_and_a_negative_term_decodes(self, rs):
        # box[v] is term_sum([(1, v)]), so the decode is held to the enumerator
        # at both ends of its lane count: no lane for a sum that cancels, one
        # for ℘_q(0, 0) = 1, and top1 + top2 + 1 = 41 for the widest entry,
        # ℘_q(24, 16), whose degree is its number of simple roots.
        box = SMALL_BOXES[rs.name]
        assert box.term_sum([]) == QPoly()
        enumerated = {
            v: qpartition_enumerated(rs.positive_roots, v)
            for v in (RootCoord(0, 0), RootCoord(1, 0), RootCoord(3, 2), RootCoord(24, 16))
        }
        assert len(enumerated[0, 0].coeffs) == 1 and len(enumerated[24, 16].coeffs) == 41
        for v, poly in enumerated.items():
            assert box[v] == box.term_sum([(1, v)]) == poly
            assert box.term_sum([(-1, v)]) == -poly
            assert box.term_sum([(1, v), (-1, v)]) == QPoly()
        # Lanes of both signs: ℘_q(3, 2) has low terms that ℘_q(24, 16) lacks.
        mixed = box.term_sum([(1, RootCoord(3, 2)), (-1, RootCoord(24, 16))])
        assert mixed == enumerated[3, 2] - enumerated[24, 16]
        assert min(mixed.coeffs) < 0 < max(mixed.coeffs) and len(mixed.coeffs) == 41

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_a_sign_other_than_one_or_minus_one_is_refused(self, sign):
        box = SMALL_BOXES["g2"]
        v = RootCoord(3, 2)
        for call in (
            lambda terms: box.term_sum(terms),
            lambda terms: box.sum_at_one(terms),
        ):
            with pytest.raises(ValueError, match="sign must be 1 or -1"):
                call([(sign, v)])
            with pytest.raises(ValueError, match="sign must be 1 or -1"):
                call([(1, v), (sign, RootCoord(0, 0))])

    @pytest.mark.parametrize("v", [(-1, 2), (2, -1), (-1, -1), (7, 0), (0, 5), (7, 5)])
    def test_a_term_outside_the_box_is_refused(self, v):
        # Up to (6, 4): a negative coordinate must not read a row from its far
        # end (box[-1, 2] as ℘_q(6, 2)), and one past the top has no row.
        box = QPartitionBox(G2.positive_roots, 6, 4)
        term = re.escape(f"{(1, v)}")
        for call in (
            lambda: box[v],
            lambda: box.term_sum([(1, v)]),
            lambda: box.sum_at_one([(1, v)]),
            lambda: box.term_sum([(1, RootCoord(6, 4)), (1, v)]),
            lambda: box.sum_at_one([(-1, RootCoord(0, 0)), (1, v)]),
        ):
            with pytest.raises(ValueError, match=f"term {term} lies outside the box up to"
                                                 r" \(6, 4\)"):
                call()
        assert box[6, 4] == qpartition_enumerated(G2.positive_roots, RootCoord(6, 4))

    def test_the_term_sum_is_exact_at_the_lane_bound(self):
        # Twenty copies of a1, whose group order the box takes as 40: forty
        # terms of ℘_q(55, 0) = C(74, 19)·q^55 sum to 0.93·2^63 on either side.
        box = QPartitionBox([RootCoord(1, 0)] * 20, 55, 0)
        top = 40 * comb(74, 19)
        assert 0.9 * 2**63 < top <= INT64_MAX
        for sign in (1, -1):
            assert box.term_sum([(sign, RootCoord(55, 0))] * 40) == QPoly([0] * 55 + [sign * top])
        below = [(-1, RootCoord(55, 0))] * 39 + [(1, RootCoord(54, 0))]
        assert box.term_sum(below) == QPoly([0] * 54 + [comb(73, 19), -39 * comb(74, 19)])

    def test_more_terms_than_the_weyl_group_are_refused(self):
        # The lanes are sized for one term per Weyl element, 12 for g2. The
        # terms are counted as they are read, so an endless generator is
        # refused too, and a generator within the bound sums as its list does.
        box = SMALL_BOXES["g2"]
        terms = [(1, RootCoord(24, 16)), (-1, RootCoord(3, 2))] * 6
        assert box.term_sum(iter(terms)) == box.term_sum(terms) == QPoly.signed_sum(
            (sign, box[v]) for sign, v in terms)
        for more in (terms + [(1, RootCoord(0, 0))], repeat((1, RootCoord(24, 16)))):
            with pytest.raises(ValueError, match="takes at most 12 terms"):
                box.term_sum(more)

    @pytest.mark.parametrize("name,count", [("g2", partition_tarski), ("c2", partition_c2_closed)])
    def test_the_sum_at_one_matches_the_counts(self, boxes, name, count):
        box = boxes[name]
        rs = ALGEBRAS[name].rs
        pool = sorted({v for lam, mu in PAIRS[name] for _, v in weyl_terms(rs, lam, mu)})
        rng = Random(25)
        for _ in range(300):
            terms = [(rng.choice((1, -1)), rng.choice(pool)) for _ in range(rng.randint(0, 12))]
            total = box.sum_at_one(terms)
            assert total == sum(sign * count(v) for sign, v in terms), terms
            assert total == sum(sign * box[v].eval_at_one() for sign, v in terms), terms

    def test_g2_kernel_matches_the_box(self):
        box = QPartitionBox(G2.positive_roots, 120, 80)
        for m, n in product(range(121), range(81)):
            assert qpartition(RootCoord(m, n)) == box[m, n], (m, n)

    def test_c2_kernel_matches_the_box(self):
        box = QPartitionBox(C2.positive_roots, 120, 80)
        for m, n in product(range(121), range(81)):
            assert qpartition_c2(RootCoord(m, n)) == box[m, n], (m, n)


SMALL_BOXES = {rs.name: QPartitionBox(rs.positive_roots, 24, 16) for rs in (G2, C2)}


@st.composite
def _signed_terms(draw, rs):
    """Up to one (sign, v) per Weyl element of rs, v in SMALL_BOXES[rs.name]."""
    v = st.builds(RootCoord, st.integers(0, 24), st.integers(0, 16))
    term = st.tuples(st.sampled_from((1, -1)), v)
    return draw(st.lists(term, max_size=2 * len(rs.positive_roots)))


@pytest.mark.parametrize("rs", [G2, C2], ids=["g2", "c2"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_the_term_sum_is_the_signed_sum_of_the_entries(rs, data):
    terms = data.draw(_signed_terms(rs))
    box = SMALL_BOXES[rs.name]
    assert box.term_sum(terms) == QPoly.signed_sum((sign, box[v]) for sign, v in terms)


class TestClosedRoutes:
    def test_pairs_reach_deep_weights_of_each_lambda(self):
        # Every dominant mu <= lam is a weight of L(lam), so no pair is zero.
        for name, pairs in PAIRS.items():
            assert max(lam.m + lam.n for lam, _ in pairs) >= 40, name
            assert len(pairs) >= 300, name
            assert all(closed(ALGEBRAS[name], lam, mu).mq for lam, mu in pairs), name

    @pytest.mark.parametrize("name", ["g2", "c2"])
    def test_fused_routes_match_the_box(self, boxes, name):
        _assert_routes_match_the_box(name, boxes[name])

    @pytest.mark.parametrize(
        "name,module,builder,mutant",
        [
            ("g2", g2_partition, "_g2_marks", g2_marks_ignoring_sign),
            ("c2", sp4, "_c2_events", c2_events_ignoring_sign),
        ],
        ids=["g2", "c2"],
    )
    def test_a_lost_sign_fails_the_box(self, boxes, monkeypatch, name, module, builder, mutant):
        monkeypatch.setattr(module, builder, mutant)
        with pytest.raises(AssertionError):
            _assert_routes_match_the_box(name, boxes[name])
