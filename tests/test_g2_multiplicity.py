"""Tests for the g2 weight q-multiplicity engine.

The 12-term alternating Weyl sum is the oracle; the case-selected closed
route must match it polynomial-for-polynomial on grids and random pairs.
"""

from itertools import combinations, product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkostant import cli, g2_multiplicity, g2_partition, rootsys, sp4
from qkostant.errors import CoefficientOverflowError, InternalConsistencyError
from qkostant.g2_multiplicity import (
    ALGEBRA,
    CASE_LABELS,
    multiplicity,
    qmultiplicity_closed,
    qmultiplicity_weyl_sum,
)
from qkostant.g2_partition import qpartition
from qkostant.qpoly import QPoly
from qkostant.rootsys import (
    G2,
    FundCoord,
    alternation_terms,
    closed,
)
from qkostant.sp4 import qpartition_c2

from mutants import c2_events_ignoring_sign, g2_marks_ignoring_sign
from reference_kernels import case_label_g2_tree, g2_sum_loop
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
        case = rootsys.case(ALGEBRA, FundCoord(m, n), FundCoord(x, y))
        assert case.as_tuple() == vector
        assert case.case_label == label
        assert case.in_n == tuple(v >= 0 for v in vector)

    def test_highest_root_case(self):
        case = rootsys.case(ALGEBRA, FundCoord(0, 1), FundCoord(0, 0))
        assert case.as_tuple() == (3, 2, 2, 0, -1, -4)
        assert case.case_label == "PQR"

    @staticmethod
    def _tree_label(m, n, x, y):
        case = rootsys.case(ALGEBRA, FundCoord(m, n), FundCoord(x, y))
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
            case = rootsys.case(ALGEBRA, FundCoord(m, n), FundCoord(x, y))
            for name, word in words.items():
                expected = SHIFT_FORMS[word](m, n, x, y)
                got = tuple(getattr(case, field) for field in coords[name])
                assert got == expected, (m, n, x, y, name)

    def test_impossible_sign_patterns_never_occur(self):
        # Each pair/triple below is contradictory for dominant weights.
        for m, n, x, y in product(range(9), repeat=4):
            case = rootsys.case(ALGEBRA, FundCoord(m, n), FundCoord(x, y))
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
        assert (result.case.case_label, len(result.terms)) == ("PQR", 3)

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
            label = result.case.case_label
            assert len(label.replace("ZERO", "")) == len(result.terms)
            combined = QPoly()
            for name, (sign, v) in zip(label, result.terms):
                assert sign == signs[name]
                poly = qpartition(v)
                combined = combined + poly if signs[name] > 0 else combined - poly
            assert combined == result.mq


def _recombined(result):
    return QPoly.signed_sum((sign, qpartition(v)) for sign, v in result.terms)


small_lam_pairs = st.tuples(
    st.integers(0, 80), st.integers(0, 80), st.integers(0, 80), st.integers(0, 80)
)

GRID7 = [(FundCoord(m, n), FundCoord(x, y)) for m, n, x, y in product(range(8), repeat=4)]


def _deep_pairs(count: int, seed: int) -> list[tuple[FundCoord, FundCoord]]:
    """Pairs shaped like the benchmark's deep g2 queries: lam in [20,80]^2, mu <= lam/4."""
    rng = Random(seed)
    pairs = []
    for _ in range(count):
        m, n = rng.randint(20, 80), rng.randint(20, 80)
        pairs.append((FundCoord(m, n), FundCoord(rng.randint(0, m // 4), rng.randint(0, n // 4))))
    return pairs


DEEP_PAIRS = _deep_pairs(16, seed=18)


class TestClosedRoutePaths:
    """ALGEBRA, the one-off queries' record, fuses a query's terms: one
    marker list, one chain. Its one-term calls, which verify holds to the
    box of ℘_q term by term, recombine to the same sum on every query, and
    so do sp4's."""

    def test_cold_queries_are_fused_and_match_the_weyl_sum(self):
        for m, n, x, y in product(range(7), repeat=4):
            lam, mu = FundCoord(m, n), FundCoord(x, y)
            result = qmultiplicity_closed(lam, mu)
            assert result.mq == qmultiplicity_weyl_sum(lam, mu), (m, n, x, y)
            assert result.mq == _recombined(result), (m, n, x, y)

    def test_fused_marker_signs_are_load_bearing(self, monkeypatch):
        """The mutant agrees with the builder on qpartition's own one-term
        sums (sign 1), so only the fused sum of a query changes."""
        monkeypatch.setattr(g2_partition, "_g2_marks", g2_marks_ignoring_sign)
        with pytest.raises(AssertionError):
            self.test_cold_queries_are_fused_and_match_the_weyl_sum()

    @pytest.mark.parametrize("command", ["table", "verify"])
    @pytest.mark.parametrize("algebra", ["g2", "c2"])
    def test_each_sweep_computes_each_term_once(self, monkeypatch, capsys, algebra, command):
        """Both sweeps read ℘_q off their box. verify holds the kernel to it
        with one one-term call per distinct point of the pair box and of g2's
        closed-route terms in each run, a check neither missing nor shared
        across sweeps; table calls no kernel, and neither do c2's tuple
        checks, which run at q = 1."""
        spec = cli._ALGEBRAS[algebra]
        calls = []

        def spy(terms):
            calls.append(list(terms))
            return spec.record.term_sum(terms)

        record = spec.record._replace(term_sum=spy)
        monkeypatch.setitem(cli._ALGEBRAS, algebra, spec._replace(record=record))
        expected = set()
        if command == "verify":
            expected.update(product(range(4), repeat=2))
        if (algebra, command) == ("g2", "verify"):
            for m, n, x, y in product(range(4), repeat=4):
                expected.update(v for _, v in alternation_terms(record.rs, (m, n), (x, y))[2])
        counts = []
        for _ in range(2):
            calls.clear()
            assert cli.run([command, "--algebra", algebra, "--max", "3"]) == 0
            assert all(len(terms) == 1 and terms[0][0] == 1 for terms in calls)
            assert sorted(terms[0][1] for terms in calls) == sorted(expected)
            counts.append(len(calls))
        capsys.readouterr()
        assert counts[0] == counts[1] == len(expected)

    @given(small_lam_pairs)
    @settings(max_examples=60, deadline=None)
    def test_both_paths_match_the_weyl_sum(self, point):
        # The fused sum of the closed terms, and their one-term calls.
        m, n, x, y = point
        lam, mu = FundCoord(m, n), FundCoord(x, y)
        fused = qmultiplicity_closed(lam, mu)
        assert fused.mq == _recombined(fused) == qmultiplicity_weyl_sum(lam, mu)

    @staticmethod
    def _assert_fused_sums_recombine(alg, kernel, pairs):
        for lam, mu in pairs:
            fused = closed(alg, lam, mu)
            recombined = QPoly.signed_sum((sign, kernel(v)) for sign, v in fused.terms)
            assert fused.mq == recombined, (lam, mu)

    def test_fused_sums_recombine_the_one_term_calls_on_the_grid(self):
        self._assert_fused_sums_recombine(ALGEBRA, qpartition, GRID7)

    def test_fused_sums_recombine_the_one_term_calls_on_deep_pairs(self):
        # Every deep pair combines four or five signed terms.
        assert {len(closed(ALGEBRA, lam, mu).terms) for lam, mu in DEEP_PAIRS} == {4, 5}
        self._assert_fused_sums_recombine(ALGEBRA, qpartition, DEEP_PAIRS)

    def test_fused_terms_of_deep_pairs_equal_the_loop(self):
        # The loop over i that the closed-form markers replaced, on the same sums.
        for lam, mu in DEEP_PAIRS:
            terms = list(closed(ALGEBRA, lam, mu).terms)
            assert g2_partition._g2_sum(terms) == g2_sum_loop(terms), (lam, mu)

    @pytest.mark.parametrize("pairs", [GRID7, DEEP_PAIRS], ids=["grid", "deep"])
    def test_fused_marker_signs_break_the_agreement(self, monkeypatch, pairs):
        monkeypatch.setattr(g2_partition, "_g2_marks", g2_marks_ignoring_sign)
        with pytest.raises(AssertionError):
            self._assert_fused_sums_recombine(ALGEBRA, qpartition, pairs)

    @pytest.mark.parametrize("pairs", [GRID7, DEEP_PAIRS], ids=["grid", "deep"])
    def test_sp4_fused_sums_recombine_the_one_term_calls(self, pairs):
        self._assert_fused_sums_recombine(sp4.ALGEBRA, qpartition_c2, pairs)

    def test_sp4_fused_event_signs_break_the_agreement(self, monkeypatch):
        monkeypatch.setattr(sp4, "_c2_events", c2_events_ignoring_sign)
        with pytest.raises(AssertionError):
            self._assert_fused_sums_recombine(sp4.ALGEBRA, qpartition_c2, GRID7)

    def test_a_sweep_leaves_one_off_answers_unchanged(self, tmp_path):
        queries = GRID7[::97] + DEEP_PAIRS[:4]

        def answers():
            return [
                (qmultiplicity_closed(lam, mu), qmultiplicity_weyl_sum(lam, mu))
                for lam, mu in queries
            ]

        before = answers()
        assert cli.run(["table", "--max", "6", "--output", str(tmp_path / "table.csv")]) == 0
        assert answers() == before
        assert cli.run(["verify", "--max", "3"]) == 0
        assert answers() == before


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

    def test_negative_tarski_total_is_inconsistent(self, monkeypatch):
        """The shared integer route refuses a negative total for g2 as for sp4."""
        monkeypatch.setattr(g2_multiplicity, "ALGEBRA", ALGEBRA._replace(count=lambda m, n: -1))
        with pytest.raises(InternalConsistencyError, match="negative multiplicity -1 "):
            multiplicity(FundCoord(0, 0), FundCoord(0, 0), method="tarski")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            multiplicity(FundCoord(0, 1), FundCoord(0, 0), "freudenthal")


def _live_terms(case) -> str:
    # P = (a, b), Q = (c, b), R = (a, d), S = (c, e), T = (f, d): a term
    # contributes when both of its shift coordinates lie in the cone.
    a, b, c, d, e, f = case.in_n
    live = zip("PQRST", (a and b, c and b, a and d, c and e, f and d))
    return "".join(name for name, inside in live if inside) or "ZERO"


def _observed_labels(grid_max: int) -> set[str]:
    observed = set()
    for m, n, x, y in product(range(grid_max + 1), repeat=4):
        case = rootsys.case(ALGEBRA, FundCoord(m, n), FundCoord(x, y))
        assert case.case_label == _live_terms(case)
        observed.add(case.case_label)
    return observed


class TestAudit:
    def test_grid_zero_sees_only_p(self):
        assert _observed_labels(0) == {"P"}

    def test_all_eight_signatures_realized_at_six(self):
        assert _observed_labels(6) == set(CASE_LABELS)

    def test_forbidden_combinations_never_appear(self):
        every_label = {
            "".join(subset) or "ZERO" for size in range(6) for subset in combinations("PQRST", size)
        }
        forbidden = every_label - set(CASE_LABELS)
        assert len(forbidden) == 24
        assert _observed_labels(6) & forbidden == set()
