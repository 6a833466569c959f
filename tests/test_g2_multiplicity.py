"""Tests for the g2 weight q-multiplicity engine.

The 12-term alternating Weyl sum is the oracle; the case-selected closed
route must match it polynomial-for-polynomial on grids and random pairs.
"""

from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkostant import g2_multiplicity
from qkostant.errors import CoefficientOverflowError
from qkostant.g2_multiplicity import (
    ALLOWED_SIGNATURES,
    TERM_NAMES,
    audit_cases,
    compute_abcdef,
    multiplicity,
    qmultiplicity_closed,
    qmultiplicity_weyl_sum,
    signature,
)
from qkostant.g2_partition import qpartition
from qkostant.qpoly import QPoly
from qkostant.rootsys import G2, FundCoord

from reference_kernels import case_label_g2_tree
from shift_forms import SHIFT_FORMS

# One witness per admissible case, with its full (a, b, c, d, e, f) vector.
CASE_WITNESSES = [
    ((5, 6, 0, 0), (28, 17, 22, 10, 4, 1), "PQRST"),
    ((0, 4, 0, 0), (12, 8, 11, 3, 2, -4), "PQRS"),
    ((5, 0, 0, 0), (10, 5, 4, 4, -2, 1), "PQRT"),
    ((5, 4, 0, 4), (10, 5, 4, 0, -6, -11), "PQR"),
    ((0, 50, 51, 0), (48, 49, 47, -2, -3, -106), "PQ"),
    ((2, 0, 1, 0), (2, 1, -1, 0, -3, -4), "PR"),
    ((0, 0, 0, 0), (0, 0, -1, -1, -2, -4), "P"),
    ((0, 0, 8, 0), (-16, -8, -17, -9, -10, -20), "ZERO"),
]

fund_pairs = st.tuples(
    st.integers(0, 12), st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)
)


class TestCaseData:
    @pytest.mark.parametrize("point,vector,label", CASE_WITNESSES)
    def test_case_vectors(self, point, vector, label):
        m, n, x, y = point
        case = compute_abcdef(FundCoord(m, n), FundCoord(x, y))
        assert case.as_tuple() == vector
        assert case.case_label == label
        assert case.in_n == tuple(v >= 0 for v in vector)

    def test_highest_root_case(self):
        case = compute_abcdef(FundCoord(0, 1), FundCoord(0, 0))
        assert case.as_tuple() == (3, 2, 2, 0, -1, -4)
        assert case.case_label == "PQR"

    @staticmethod
    def _tree_label(m, n, x, y):
        case = compute_abcdef(FundCoord(m, n), FundCoord(x, y))
        return case.case_label, case_label_g2_tree(tuple(v >= 0 for v in case.as_tuple()))

    def test_case_labels_follow_the_decision_tree(self):
        # The label names the terms on the positive cone; the tree reads it
        # off the signs of a..f instead.
        for point in product(range(11), repeat=4):
            label, tree = self._tree_label(*point)
            assert label == tree, point

    @given(st.tuples(*[st.integers(0, 400)] * 4))
    @settings(max_examples=300, deadline=None)
    def test_case_labels_follow_the_decision_tree_at_large_weights(self, point):
        label, tree = self._tree_label(*point)
        assert label == tree

    def test_case_integers_are_the_shift_forms_of_the_alternation_set(self):
        # Each term's Weyl word, and the case integers that are its root coordinates.
        words = {"P": "1", "Q": "s1", "R": "s2", "S": "s2s1", "T": "s1s2"}
        coords = {"P": "ab", "Q": "cb", "R": "ad", "S": "ce", "T": "fd"}
        assert G2.alternation == tuple(words.items())
        for m, n, x, y in product(range(9), repeat=4):
            case = compute_abcdef(FundCoord(m, n), FundCoord(x, y))
            for name, word in words.items():
                expected = SHIFT_FORMS[word](m, n, x, y)
                got = tuple(getattr(case, field) for field in coords[name])
                assert got == expected, (m, n, x, y, name)

    def test_impossible_sign_patterns_never_occur(self):
        # Each pair/triple below is contradictory for dominant weights.
        for m, n, x, y in product(range(9), repeat=4):
            case = compute_abcdef(FundCoord(m, n), FundCoord(x, y))
            a, b, c, d, e, f = case.as_tuple()
            assert not (e >= 0 and d < 0)
            assert not (f >= 0 and c < 0)
            assert not (c >= 0 and a < 0)
            assert not (d >= 0 and b < 0)
            assert not (a >= 0 and f >= 0 and d < 0)
            assert not (e >= 0 and c < 0)


class TestClosedFormula:
    def test_highest_root_q_multiplicity(self):
        result = qmultiplicity_closed(FundCoord(0, 1), FundCoord(0, 0))
        assert result.mq == QPoly([0, 1, 0, 0, 0, 1])  # q + q^5: the exponents 1, 5
        assert result.m_at_one == 2
        assert [name for name, _, _ in result.terms] == ["P", "Q", "R"]

    def test_single_power_fixture(self):
        result = qmultiplicity_closed(FundCoord(0, 3), FundCoord(1, 2))
        assert result.mq == QPoly.monomial(2)
        assert result.m_at_one == 1

    def test_highest_weight_has_multiplicity_one(self):
        for lam in (FundCoord(4, 7), FundCoord(0, 0), FundCoord(3, 3)):
            result = qmultiplicity_closed(lam, lam)
            assert result.mq == QPoly([1])
            assert result.case.case_label == "P"
            assert (result.case.a, result.case.b) == (0, 0)

    def test_vanishes_off_the_root_lattice_cone(self):
        # mu bigger than lam in every direction: lam - mu is not a
        # nonnegative root combination, so the multiplicity is zero.
        assert qmultiplicity_closed(FundCoord(1, 1), FundCoord(4, 4)).mq == QPoly()
        assert qmultiplicity_closed(FundCoord(0, 0), FundCoord(0, 1)).mq == QPoly()

    def test_matches_weyl_sum_on_grid(self):
        for m, n, x, y in product(range(5), repeat=4):
            lam, mu = FundCoord(m, n), FundCoord(x, y)
            assert qmultiplicity_closed(lam, mu).mq == qmultiplicity_weyl_sum(lam, mu), (
                m,
                n,
                x,
                y,
            )

    @given(fund_pairs)
    @settings(max_examples=80, deadline=None)
    def test_matches_weyl_sum_at_random_pairs(self, point):
        m, n, x, y = point
        lam, mu = FundCoord(m, n), FundCoord(x, y)
        assert qmultiplicity_closed(lam, mu).mq == qmultiplicity_weyl_sum(lam, mu)

    def test_coefficients_are_nonnegative(self):
        for m, n, x, y in product(range(6), repeat=4):
            mq = qmultiplicity_closed(FundCoord(m, n), FundCoord(x, y)).mq
            assert all(c >= 0 for c in mq.coeffs)

    def test_mq_recombines_from_stored_terms(self):
        signs = {"P": 1, "Q": -1, "R": -1, "S": 1, "T": 1}
        for m, n, x, y in product(range(5), repeat=4):
            result = qmultiplicity_closed(FundCoord(m, n), FundCoord(x, y))
            label = "".join(name for name, _, _ in result.terms) or "ZERO"
            assert label == result.case.case_label
            combined = QPoly()
            for name, sign, v in result.terms:
                assert sign == signs[name]
                poly = qpartition(v)
                combined = combined + poly if signs[name] > 0 else combined - poly
            assert combined == result.mq


def _forget_met_terms():
    g2_multiplicity._met_terms.clear()
    qpartition.cache_clear()


@pytest.fixture
def cold_closed_route():
    """No term met by the closed route and no cached qpartition; the rest of
    the suite would otherwise warm both, and the fused path would hardly run."""
    _forget_met_terms()


def _recombined(result):
    return QPoly.signed_sum((sign, qpartition(v)) for _, sign, v in result.terms)


small_lam_pairs = st.tuples(
    st.integers(0, 80), st.integers(0, 80), st.integers(0, 80), st.integers(0, 80)
)


class TestClosedRoutePaths:
    """A query with no term met before is fused: one marker list, one chain,
    no qpartition cache entry. A query that meets a term again sums the
    cached qpartition polynomials."""

    def test_cold_queries_are_fused_and_match_the_weyl_sum(self):
        for m, n, x, y in product(range(7), repeat=4):
            lam, mu = FundCoord(m, n), FundCoord(x, y)
            _forget_met_terms()
            result = qmultiplicity_closed(lam, mu)
            assert qpartition.cache_info().currsize == 0, (m, n, x, y)
            assert result.mq == qmultiplicity_weyl_sum(lam, mu), (m, n, x, y)
            assert result.mq == _recombined(result), (m, n, x, y)

    def test_warm_queries_sum_cached_terms(self, cold_closed_route):
        grid = [(FundCoord(m, n), FundCoord(x, y)) for m, n, x, y in product(range(7), repeat=4)]
        first = [qmultiplicity_closed(lam, mu).mq for lam, mu in grid]
        for (lam, mu), mq in zip(grid, first):
            hits = qpartition.cache_info().hits
            misses = qpartition.cache_info().misses
            result = qmultiplicity_closed(lam, mu)
            info = qpartition.cache_info()
            # Every term is read from the qpartition cache, once per term.
            assert info.hits + info.misses - hits - misses == len(result.terms)
            assert result.mq == mq == qmultiplicity_weyl_sum(lam, mu), (lam, mu)
            assert result.mq == _recombined(result), (lam, mu)

    @given(small_lam_pairs)
    @settings(max_examples=60, deadline=None)
    def test_both_paths_match_the_weyl_sum(self, point):
        m, n, x, y = point
        lam, mu = FundCoord(m, n), FundCoord(x, y)
        _forget_met_terms()
        oracle = qmultiplicity_weyl_sum(lam, mu)
        _forget_met_terms()
        cold = qmultiplicity_closed(lam, mu)
        assert qpartition.cache_info().currsize == 0
        warm = qmultiplicity_closed(lam, mu)
        assert qpartition.cache_info().currsize == len(warm.terms)
        assert cold.mq == warm.mq == oracle
        assert cold.terms == warm.terms

    def test_a_reused_term_fills_the_cache(self, cold_closed_route):
        first = qmultiplicity_closed(FundCoord(5, 6), FundCoord(0, 0))
        assert len(first.terms) == 5
        assert qpartition.cache_info().currsize == 0
        # Adding w1 to both weights keeps P = lam - mu and moves Q.
        second = qmultiplicity_closed(FundCoord(6, 6), FundCoord(1, 0))
        assert second.terms[0] == first.terms[0]
        assert second.terms[1] != first.terms[1]
        assert qpartition.cache_info().currsize == len(second.terms)
        assert second.mq == qmultiplicity_weyl_sum(FundCoord(6, 6), FundCoord(1, 0))


class TestWeylSum:
    def test_highest_root_exponents(self):
        assert qmultiplicity_weyl_sum(FundCoord(0, 1), FundCoord(0, 0)) == QPoly(
            [0, 1, 0, 0, 0, 1]
        )

    def test_trivial_representation(self):
        assert qmultiplicity_weyl_sum(FundCoord(0, 0), FundCoord(0, 0)) == QPoly([1])

    def test_agreement_fixture(self):
        lam, mu = FundCoord(3, 2), FundCoord(1, 1)
        assert qmultiplicity_weyl_sum(lam, mu) == qmultiplicity_closed(lam, mu).mq

    def test_plain_tuples_match_fund_coords(self):
        for lam, mu in [((0, 1), (0, 0)), ((3, 2), (1, 1)), ((4, 0), (0, 1)), ((1, 1), (4, 4))]:
            assert qmultiplicity_weyl_sum(lam, mu) == qmultiplicity_weyl_sum(
                FundCoord(*lam), FundCoord(*mu)
            )


class TestMultiplicity:
    @pytest.mark.parametrize(
        "lam,mu,expected",
        [((0, 1), (0, 0), 2), ((0, 3), (1, 2), 1), ((0, 0), (0, 1), 0)],
    )
    def test_fixtures_under_both_methods(self, lam, mu, expected):
        for method in ("qpoly", "tarski"):
            assert multiplicity(FundCoord(*lam), FundCoord(*mu), method) == expected

    def test_qpoly_method_is_closed_m_at_one(self):
        # verify compares m_at_one with Tarski in place of a second
        # multiplicity(..., "qpoly") call; this is the identity it relies on.
        for m, n, x, y in product(range(6), repeat=4):
            lam, mu = FundCoord(m, n), FundCoord(x, y)
            assert multiplicity(lam, mu, "qpoly") == qmultiplicity_closed(lam, mu).m_at_one

    def test_methods_agree_on_grid(self):
        for m, n, x, y in product(range(5), repeat=4):
            lam, mu = FundCoord(m, n), FundCoord(x, y)
            assert multiplicity(lam, mu, "qpoly") == multiplicity(lam, mu, "tarski")

    def test_tarski_value_outside_int64_overflows(self):
        with pytest.raises(CoefficientOverflowError):
            multiplicity(FundCoord(10**6, 10**6), FundCoord(0, 0), method="tarski")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            multiplicity(FundCoord(0, 1), FundCoord(0, 0), "freudenthal")


class TestAudit:
    def test_signature_rendering(self):
        assert signature(()) == "0"
        assert signature(("P",)) == "P"
        assert signature(("P", "Q", "R", "S", "T")) == "P-Q-R+S+T"
        assert signature(("Q", "S")) == "-Q+S"

    def test_grid_zero_sees_only_p(self):
        report = audit_cases(0)
        assert report.observed_signatures == ("P",)
        assert report.counterexamples == ()

    def test_all_eight_signatures_realized_at_six(self):
        report = audit_cases(6)
        assert set(report.observed_signatures) == ALLOWED_SIGNATURES
        assert report.counterexamples == ()

    def test_forbidden_combinations_never_appear(self):
        every_signature = {
            signature(subset)
            for size in range(6)
            for subset in combinations(TERM_NAMES, size)
        }
        forbidden = every_signature - ALLOWED_SIGNATURES
        assert len(forbidden) == 24
        observed = set(audit_cases(6).observed_signatures)
        assert observed & forbidden == set()

    def test_report_serializes(self):
        payload = audit_cases(1).to_json_dict()
        assert payload["grid_max"] == 1
        assert payload["counterexamples"] == []
        assert isinstance(payload["observed_signatures"], list)

    def test_negative_grid_rejected(self):
        with pytest.raises(ValueError):
            audit_cases(-1)
