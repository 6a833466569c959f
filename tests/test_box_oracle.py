"""Both kernels and both closed routes against the kernel-free box oracle.

The box fills ℘_q over a whole box from the definition, one pass per
positive root (see box_oracle.py). It holds ``qpartition`` and
``qpartition_c2`` at every point of a box, and the fused and memoized
closed q routes of both algebras to Σ sign·box[term] over the Weyl terms
at every dominant mu below a seeded set of lambda <= (40, 40). A marker
builder that loses the sign of a term agrees with the box on every
one-term kernel call, so only the closed routes see it.
"""

from itertools import product
from random import Random

import pytest

from qkostant import g2_multiplicity, g2_partition, sp4
from qkostant.g2_partition import qpartition
from qkostant.qpoly import QPoly
from qkostant.rootsys import C2, G2, FundCoord, RootCoord, closed, doubled, memoized, weyl_terms
from qkostant.sp4 import qpartition_c2

from box_oracle import QPartitionBox
from mutants import c2_events_ignoring_sign, g2_marks_ignoring_sign

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
    memo = memoized(alg)
    for lam, mu in PAIRS[name]:
        expected = QPoly.signed_sum((sign, box[v]) for sign, v in weyl_terms(alg.rs, lam, mu))
        assert closed(alg, lam, mu).mq == expected, (name, lam, mu)
        assert closed(memo, lam, mu).mq == expected, (name, lam, mu)


class TestBox:
    def test_small_box_matches_the_enumerator(self):
        box = QPartitionBox(G2.positive_roots, 12, 12)
        for m, n in product(range(13), repeat=2):
            assert box[m, n] == g2_partition.qpartition_bruteforce(RootCoord(m, n)), (m, n)

    def test_a_count_past_a_lane_is_refused(self):
        # Forty copies of a1: the count at (40, 0) is C(79, 39) > 2^64.
        with pytest.raises(ValueError, match="does not fit 64 bits"):
            QPartitionBox([RootCoord(1, 0)] * 40, 40, 0)

    def test_g2_kernel_matches_the_box(self):
        box = QPartitionBox(G2.positive_roots, 120, 80)
        for m, n in product(range(121), range(81)):
            assert qpartition(RootCoord(m, n)) == box[m, n], (m, n)

    def test_c2_kernel_matches_the_box(self):
        box = QPartitionBox(C2.positive_roots, 120, 80)
        for m, n in product(range(121), range(81)):
            assert qpartition_c2(RootCoord(m, n)) == box[m, n], (m, n)


class TestClosedRoutes:
    def test_pairs_reach_deep_weights_of_each_lambda(self):
        # Every dominant mu <= lam is a weight of L(lam), so no pair is zero.
        for name, pairs in PAIRS.items():
            assert max(lam.m + lam.n for lam, _ in pairs) >= 40, name
            assert len(pairs) >= 300, name
            assert all(closed(ALGEBRAS[name], lam, mu).mq for lam, mu in pairs), name

    @pytest.mark.parametrize("name", ["g2", "c2"])
    def test_fused_and_memoized_routes_match_the_box(self, boxes, name):
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
