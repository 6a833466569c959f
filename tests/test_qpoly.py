"""Unit and property tests for the exact polynomial type."""

import json
import time
from itertools import zip_longest

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkostant.errors import CoefficientOverflowError
from qkostant.qpoly import INT64_MAX, INT64_MIN, QPoly, checked_int

coeff_lists = st.lists(st.integers(-(10**6), 10**6), max_size=12)
polys = coeff_lists.map(QPoly)
int64_lists = st.lists(
    st.integers(INT64_MIN, INT64_MAX) | st.sampled_from([INT64_MIN, -1, 0, 1, INT64_MAX]),
    max_size=6,
)


class IntSub(int):
    """An int subclass: an int instance, so a valid coefficient."""


class IndexOnly:
    """Converts to an int through __index__ but is not one, as numpy scalars do."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def reference_check(cs):
    """The three-scan rule QPoly used before its one-pass check.

    Returns None when the list is accepted, else the exception type and the
    first bad coefficient that decides it.
    """
    if cs and not (
        all(isinstance(c, int) for c in cs) and INT64_MIN <= min(cs) and max(cs) <= INT64_MAX
    ):
        for c in cs:
            if not isinstance(c, int):
                return TypeError, c
            if not INT64_MIN <= c <= INT64_MAX:
                return CoefficientOverflowError, c
    return None


EDGES = [INT64_MIN - 1, INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX, INT64_MAX + 1]
ints = st.one_of(st.sampled_from(EDGES), st.integers(-(2**70), 2**70), st.integers(-9, 9))
# ints twice, so that many lists hold only valid entries.
entries = st.one_of(
    ints,
    ints,
    st.booleans(),
    ints.map(IntSub),
    ints.map(IndexOnly),
    st.floats(allow_nan=False),
    st.text(max_size=2),
    st.none(),
)


class TestArithmetic:
    def test_additive_identity(self):
        p = QPoly([0, 1, 0, 0, 0, 1])  # q + q^5
        assert p + QPoly() == p

    def test_hand_sum(self):
        assert QPoly([0, 1, 2]) + QPoly([0, 0, 1]) == QPoly([0, 1, 3])

    def test_cancellation_reaches_canonical_zero(self):
        p = QPoly.monomial(3)
        z = p + (-p)
        assert z == QPoly()
        assert z.coeffs == ()

    def test_difference_of_partition_polynomials(self):
        # q + 2q^2 + 2q^3 + q^4 + q^5 minus 2q^2 + q^3 + q^4
        left = QPoly([0, 1, 2, 2, 1, 1])
        right = QPoly([0, 0, 2, 1, 1])
        assert left - right == QPoly([0, 1, 0, 1, 0, 1])

    def test_difference_leaving_one_monomial(self):
        assert QPoly([0, 1, 1]) - QPoly([0, 1]) == QPoly.monomial(2)

    def test_self_difference_is_zero(self):
        p = QPoly([3, 0, -2, 7])
        assert (p - p) == QPoly()

    @given(polys, polys)
    def test_addition_commutes(self, p, r):
        assert p + r == r + p

    @given(polys, polys, polys)
    def test_addition_associates(self, p, r, s):
        assert (p + r) + s == p + (r + s)

    @given(polys, polys)
    def test_sub_is_add_of_negation(self, p, r):
        assert p - r == p + (-r)

    @given(polys)
    def test_canonical_form(self, p):
        assert not p.coeffs or p.coeffs[-1] != 0


class TestSignedSum:
    def test_empty_sum_is_zero(self):
        assert QPoly.signed_sum([]) == QPoly()

    def test_hand_sum(self):
        # signs + - - + over polynomials of different lengths
        terms = [(1, QPoly([0, 1, 2, 2, 1, 1])), (-1, QPoly([0, 0, 2, 1, 1])),
                 (-1, QPoly([0, 1])), (1, QPoly([0, 0, 0, 0, 0, 0, 1]))]
        assert QPoly.signed_sum(terms) == QPoly([0, 0, 0, 1, 0, 1, 1])

    @given(st.lists(st.tuples(st.sampled_from([1, -1]), coeff_lists), max_size=12))
    def test_matches_exact_integer_sums(self, terms):
        # + and - call signed_sum themselves, so the reference is plain int arithmetic.
        exact = [0] * max((len(cs) for _, cs in terms), default=0)
        for sign, cs in terms:
            for i, c in enumerate(cs):
                exact[i] += sign * c
        while exact and exact[-1] == 0:
            exact.pop()
        assert QPoly.signed_sum([(sign, QPoly(cs)) for sign, cs in terms]).coeffs == tuple(exact)

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_other_signs_rejected(self, sign):
        with pytest.raises(ValueError):
            QPoly.signed_sum([(sign, QPoly([1]))])

    def test_only_the_result_is_range_checked(self):
        top = QPoly([INT64_MAX])
        assert QPoly.signed_sum([(1, top), (1, top), (-1, top)]) == top

    def test_result_past_the_boundary_fails(self):
        with pytest.raises(CoefficientOverflowError):
            QPoly.signed_sum([(1, QPoly([0, INT64_MAX])), (1, QPoly([0, 1]))])
        with pytest.raises(CoefficientOverflowError):
            QPoly.signed_sum([(-1, QPoly([INT64_MIN]))])


class TestCoefficientCheck:
    @given(st.lists(entries, max_size=12))
    def test_matches_the_three_scan_rule(self, cs):
        expected = reference_check(cs)
        if expected is None:
            stored = list(cs)
            while stored and stored[-1] == 0:
                stored.pop()
            assert QPoly(cs).coeffs == tuple(stored)
            return
        kind, bad = expected
        with pytest.raises(kind) as info:
            QPoly(cs)
        assert type(info.value) is kind
        assert (str(bad) if kind is CoefficientOverflowError else type(bad).__name__) in str(info.value)

    @pytest.mark.parametrize(
        "c", [INT64_MIN, INT64_MAX, True, False, IntSub(5), IntSub(INT64_MIN)],
        ids=["int64-min", "int64-max", "true", "false", "int-subclass", "int-subclass-min"],
    )
    def test_accepted(self, c):
        assert reference_check([1, c]) is None
        assert QPoly([1, c]).coeffs == ((1, c) if c else (1,))

    @pytest.mark.parametrize(
        "c,kind",
        [
            (INT64_MIN - 1, CoefficientOverflowError),
            (INT64_MAX + 1, CoefficientOverflowError),
            (IntSub(INT64_MAX + 1), CoefficientOverflowError),
            (10**5000, CoefficientOverflowError),
            (IndexOnly(3), TypeError),
            (2.0, TypeError),
            (None, TypeError),
        ],
        ids=["int64-min-1", "int64-max+1", "int-subclass-past-max", "huge", "index-only",
             "float", "none"],
    )
    def test_rejected(self, c, kind):
        with pytest.raises(kind):
            QPoly([1, c, 2])


class TestEvaluation:
    @pytest.mark.parametrize(
        "coeffs,expected",
        [([0, 1, 0, 0, 0, 1], 2), ([], 0), ([0, 1, 2, 2, 1, 1], 7)],
    )
    def test_eval_at_one(self, coeffs, expected):
        assert QPoly(coeffs).eval_at_one() == expected

    def test_eval_at_integer_points(self):
        p = QPoly([1, 2, 3])  # 1 + 2q + 3q^2
        assert p.eval_at(0) == 1
        assert p.eval_at(2) == 17
        assert p.eval_at(-1) == 2

    @given(polys, polys)
    def test_eval_at_one_is_additive(self, p, r):
        assert (p + r).eval_at_one() == p.eval_at_one() + r.eval_at_one()

    def test_eval_at_rejects_non_integers(self):
        with pytest.raises(TypeError):
            QPoly([1]).eval_at(1.5)


class TestMonomial:
    def test_degree_zero_is_one(self):
        assert QPoly.monomial(0) == QPoly([1])

    @pytest.mark.parametrize("degree", [3, 5])
    def test_single_coefficient(self, degree):
        p = QPoly.monomial(degree)
        assert p.coeffs == tuple([0] * degree + [1])

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            QPoly.monomial(-1)


class TestCanonicalEquality:
    def test_trailing_zeros_are_stripped(self):
        assert QPoly([1, 0, 0]) == QPoly([1])
        assert hash(QPoly([1, 0, 0])) == hash(QPoly([1]))

    def test_truthiness(self):
        assert not QPoly()
        assert QPoly([0, 1])

    def test_non_integer_coefficients_rejected(self):
        with pytest.raises(TypeError):
            QPoly([1.5])


class TestOverflow:
    def test_boundary_values_are_storable(self):
        assert QPoly([INT64_MAX]).coeffs == (INT64_MAX,)
        assert QPoly([INT64_MIN]).coeffs == (INT64_MIN,)

    def test_construction_past_the_boundary_fails(self):
        with pytest.raises(CoefficientOverflowError):
            QPoly([INT64_MAX + 1])

    def test_addition_past_the_boundary_fails(self):
        with pytest.raises(CoefficientOverflowError):
            QPoly([INT64_MAX]) + QPoly([1])

    def test_difference_is_exact_where_the_negation_overflows(self):
        # -INT64_MIN is outside the range; the exact difference INT64_MAX is not.
        assert QPoly([-1]) - QPoly([INT64_MIN]) == QPoly([INT64_MAX])

    @given(int64_lists, int64_lists)
    def test_operators_are_exact_integer_arithmetic(self, a, b):
        pairs = list(zip_longest(a, b, fillvalue=0))
        for op, exact in (
            (lambda: QPoly(a) + QPoly(b), [x + y for x, y in pairs]),
            (lambda: QPoly(a) - QPoly(b), [x - y for x, y in pairs]),
            (lambda: -QPoly(a), [-x for x in a]),
        ):
            if all(INT64_MIN <= c <= INT64_MAX for c in exact):
                while exact and exact[-1] == 0:
                    exact.pop()
                assert op().coeffs == tuple(exact)
            else:
                with pytest.raises(CoefficientOverflowError):
                    op()

    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("bad", [INT64_MAX + 1, INT64_MIN - 1])
    def test_out_of_range_at_any_position_fails(self, position, bad):
        coeffs = [1, -2, 3, -4, 5]
        coeffs[position] = bad
        with pytest.raises(CoefficientOverflowError, match=str(bad)):
            QPoly(coeffs)

    def test_non_integer_in_the_middle_is_a_type_error(self):
        with pytest.raises(TypeError, match="float"):
            QPoly([1, 2, 2.0, 4, 5])

    def test_first_bad_coefficient_decides_the_error(self):
        with pytest.raises(CoefficientOverflowError):
            QPoly([1, INT64_MAX + 1, "x"])
        with pytest.raises(TypeError):
            QPoly([1, "x", INT64_MAX + 1])

    def test_evaluation_past_the_boundary_fails(self):
        with pytest.raises(CoefficientOverflowError):
            QPoly.monomial(63).eval_at(2)  # 2^63

    def test_evaluation_at_the_boundary_is_fine(self):
        assert QPoly.monomial(62).eval_at(2) == 2**62

    @pytest.mark.parametrize(
        "value", [2**5000, -(10**5000), 10**5000 + 1], ids=["2^5000", "-10^5000", "10^5000+1"]
    )
    def test_unprintably_long_values_still_overflow(self, value):
        # Python refuses to print ints past a few thousand digits; the error
        # reports the bit length instead of raising ValueError.
        with pytest.raises(CoefficientOverflowError, match=f"{value.bit_length()} bits"):
            checked_int(value)

    def test_evaluation_far_past_the_boundary_fails(self):
        with pytest.raises(CoefficientOverflowError):
            QPoly.monomial(20000).eval_at(2)

    def test_evaluation_stops_once_overflow_is_certain(self):
        start = time.perf_counter()
        with pytest.raises(CoefficientOverflowError):
            QPoly([1] * 200000).eval_at(3)
        # Stopping at the first partial sum past 2**64 takes milliseconds;
        # the bound is generous for slow machines.
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "coeffs,value,expected",
        [
            ([0] * 63 + [1], -2, INT64_MIN),
            ([-INT64_MAX, INT64_MAX], 2, INT64_MAX),
            ([INT64_MAX, -INT64_MAX], 2, -INT64_MAX),
            ([INT64_MIN, 1 << 62], 2, 0),
        ],
    )
    def test_results_at_the_boundary_are_not_cut_short(self, coeffs, value, expected):
        assert QPoly(coeffs).eval_at(value) == expected

    @given(st.lists(ints.filter(lambda c: INT64_MIN <= c <= INT64_MAX), max_size=70),
           st.integers(-5, 5))
    def test_evaluation_is_exact_or_overflows(self, coeffs, value):
        exact = sum(c * value**i for i, c in enumerate(coeffs))
        if INT64_MIN <= exact <= INT64_MAX:
            assert QPoly(coeffs).eval_at(value) == exact
        else:
            with pytest.raises(CoefficientOverflowError):
                QPoly(coeffs).eval_at(value)

    @pytest.mark.parametrize(
        "coeffs,value,expected",
        [
            ([-INT64_MAX, -INT64_MAX, -INT64_MAX, INT64_MAX, INT64_MAX, INT64_MAX], 1, 0),
            ([INT64_MAX, -INT64_MAX, INT64_MAX, INT64_MAX, -INT64_MAX, INT64_MAX], -1, 0),
            ([5, INT64_MAX, INT64_MAX, INT64_MAX], 0, 5),
        ],
    )
    def test_evaluation_at_small_points_is_exact(self, coeffs, value, expected):
        # At 1 and -1 the Horner partial sums pass 2**64 and come back, and
        # at 0 only the constant term counts; only the result is checked.
        assert QPoly(coeffs).eval_at(value) == expected


class TestDisplay:
    @pytest.mark.parametrize(
        "coeffs,text",
        [
            ([], "0"),
            ([7], "7"),
            ([0, 1, 0, 0, 0, 1], "q^5 + q"),
            ([-1, 2], "2q - 1"),
            ([0, -3], "-3q"),
            ([0, 1, 2, 2, 1, 1], "q^5 + q^4 + 2q^3 + 2q^2 + q"),
        ],
    )
    def test_str_descending_powers(self, coeffs, text):
        assert str(QPoly(coeffs)) == text

    def test_latex_braces_exponents(self):
        assert QPoly([0, 1, 0, 0, 0, 1]).latex() == "q^{5} + q"
        assert QPoly([0, 0, 2]).latex() == "2q^{2}"

    @given(polys)
    def test_json_round_trip(self, p):
        dumped = json.dumps(list(p.coeffs))
        assert QPoly(json.loads(dumped)) == p
