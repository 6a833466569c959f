"""The fast kernels and Weyl sums against the direct forms in reference_kernels.

Brute-force enumeration stays the primary oracle on the small grids in
test_g2_partition.py and test_sp4.py; the direct sums reach the large
points where enumeration is out of reach, and the kernels the package
used before (the g2 loop over i and j, the sp4 loop over i) larger ones
still. The pruned, orbit-cached Weyl sums and the sp4 closed q route are
held equal to the unpruned alternating sums term for term, and the shared
decomposition enumerator to the hand-written loops it replaced.
The sp4 case integers and labels, read off the alternation set, are held
to the affine forms they replaced. The g2 sum kernel adds the closed-form
markers of D·℘_q; it is held to the loop over i it replaced on single
terms, on seeded fused queries, at deep points and at points that reach
every case of its closed form, on both sides of the bound of 2^31 under
which it divides packed markers, and mutants that move one group of
markers show that the packed division refuses them below that bound and
the deep checks see each group past it. The sp4 sum kernel walks the breakpoint
events of all its terms at once; it is held to the difference-array kernel
it replaced on single terms, on seeded signed sums and at deep points. The
sp4 Weyl sum and the closed q route both run it, the unpruned sum builds
each term on its own, and mutants of the shared event builder show that
the grid checks of both catch a lost sign or an unclipped run end.
"""

from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkostant import g2_partition, rootsys, sp4
from qkostant.g2_multiplicity import qmultiplicity_weyl_sum
from qkostant.errors import CoefficientOverflowError, InternalConsistencyError
from qkostant.g2_partition import qpartition
from qkostant.qpoly import QPoly
from qkostant.rootsys import (
    C2,
    G2,
    FundCoord,
    RootCoord,
    alternation_terms,
    decompositions,
    weyl_terms,
)
from qkostant.sp4 import (
    multiplicity_c2_weyl_sum,
    qpartition_c2,
    qpartition_c2_bruteforce,
)
from mutants import (
    c2_events_ignoring_sign,
    c2_events_unclipped,
    g2_marks_adding_d,
    g2_marks_moving,
)
from reference_kernels import (
    c2_sum_markers,
    compute_case_c2_affine,
    g2_closed_form_cases,
    g2_marker_groups,
    g2_sum_bound,
    g2_sum_loop,
    multiplicity_c2_weyl_sum_unpruned,
    partition_witnesses_nested,
    qmultiplicity_weyl_sum_unpruned,
    qpartition_c2_bruteforce_nested,
    qpartition_c2_double_sum,
    qpartition_c2_loop,
    qpartition_double_loop,
    qpartition_triple_sum,
    witnesses_c2_nested,
)

_rng = Random(20030781)
G2_POINTS = sorted((_rng.randint(0, 600), _rng.randint(0, 400)) for _ in range(30))
C2_POINTS = sorted((_rng.randint(0, 3000), _rng.randint(0, 3000)) for _ in range(30))


def _weyl_points(rng, lam_max, count):
    """(m, n, x, y) with lambda up to lam_max; mu ranges past lambda, so some
    pairs have mu not below lambda and a zero multiplicity."""
    points = []
    for _ in range(count):
        m, n = rng.randint(0, lam_max), rng.randint(0, lam_max)
        points.append((m, n, rng.randint(0, m + 4), rng.randint(0, n + 4)))
    return sorted(points)


G2_WEYL_POINTS = _weyl_points(_rng, 40, 30)
C2_WEYL_POINTS = _weyl_points(_rng, 300, 30)


def _deep_c2_points(rng, per_count):
    """(m, n, x, y) with lambda in [1000, 2500]^2, mu <= lambda/4 and m - x
    even: per_count pairs with two nonzero Weyl terms and per_count with
    three, every term of a pair of a different length. Only the terms of
    1, s1 and s2 can be nonzero for sp4, so three is the most there are."""
    found = {2: [], 3: []}
    while min(map(len, found.values())) < per_count:
        m, n = rng.randint(1000, 2500), rng.randint(1000, 2500)
        x, y = rng.randint(1, m // 4), rng.randint(0, n // 4)
        x -= (m - x) % 2
        terms = weyl_terms(C2, (m, n), (x, y))
        count = len({c1 + c2 for _, (c1, c2) in terms})
        if count == len(terms) and count in found and len(found[count]) < per_count:
            found[count].append((m, n, x, y))
    return found[2] + found[3]


C2_DEEP_POINTS = _deep_c2_points(Random(8), 4)

# Seeded points for the kernels the package used before, which reach further.
_loop_rng = Random(6)
G2_LOOP_POINTS = sorted((_loop_rng.randint(0, 3000), _loop_rng.randint(0, 3000)) for _ in range(30))
C2_LOOP_POINTS = sorted((_loop_rng.randint(0, 6000), _loop_rng.randint(0, 6000)) for _ in range(30))

# Points whose (i, j) terms reach every regime of the g2 kernel's k-runs.
G2_REGIME_POINTS = [(0, 0), (5, 9), (6, 6), (12, 9), (8, 4), (9, 4), (20, 3), (1, 0), (0, 1)]


def g2_regimes(m, n):
    """Which regimes the k-runs of qpartition(m, n) pass through.

    For fixed (i, j), A = m-3i-3j, B = n-2i-j, K = min(A//2, B) and
    T = m+n-4i-3j; the run starts move with k only while k < A-B.
    """
    seen = set()
    for i in range(min(m // 3, n // 2) + 1):
        for j in range(min((m - 3 * i) // 3, n - 2 * i) + 1):
            a, b = m - 3 * i - 3 * j, n - 2 * i - j
            k_max, t = min(a // 2, b), m + n - 4 * i - 3 * j
            if t == 2 * k_max:
                seen.add("T = 2K")
            split = a - b
            if split <= 0:
                seen.add("A-B <= 0")
            elif split < k_max:
                seen.add("0 < A-B < K")
            elif split == k_max:
                seen.add("A-B = K")
            else:
                seen.add("A-B > K")
    return seen


# Points whose i-steps reach every j-range and clamp of the loop over i
# that the g2 kernel used before (reference_kernels.g2_sum_loop).
G2_J_RANGE_POINTS = [(0, 0), (1, 0), (12, 6), (15, 7), (300, 130)]


def g2_j_ranges(m, n):
    """Which j-ranges and clamps the i-steps of qpartition(m, n) reach.

    For fixed i, with a0 = m-3i, b0 = n-2i and J = min(a0//3, b0), each
    j = 0..J has a = a0-3j and b = b0-j. The k-runs reach b while a > 2b
    (j < j1); below that the run starts move while a > b (j < j2) and are
    all fixed from there on. The ranges are taken from a and b for every
    j here, not from the kernel's formulas for j1 and j2.
    """
    seen = set()
    for i in range(min(m // 3, n // 2) + 1):
        a0, b0 = m - 3 * i, n - 2 * i
        top = min(a0 // 3, b0)
        parities = {"k runs to b": set(), "moving starts": set(), "fixed starts": set()}
        for j in range(top + 1):
            a, b = a0 - 3 * j, b0 - j
            name = "k runs to b" if a > 2 * b else "moving starts" if a > b else "fixed starts"
            parities[name].add(a % 2)
        for name, found in parities.items():
            seen.update((name, parity) for parity in found)
        if all(parities.values()):
            seen.add("all three at one i")
            if len(parities["moving starts"]) == len(parities["fixed starts"]) == 2:
                seen.add("all three at one i, both parities in the last two")
        if a0 - 2 * b0 <= 0:
            seen.add("j1 = 0")
        if a0 - 2 * b0 >= top + 1:
            seen.add("j1 = J+1")
        if (a0 - b0 + 1) // 2 >= top + 1:
            seen.add("j2 = J+1")
    return seen


class TestG2Kernel:
    def test_equals_triple_sum_on_grid(self):
        for m, n in product(range(45), repeat=2):
            assert qpartition(RootCoord(m, n)) == qpartition_triple_sum(m, n), (m, n)

    @pytest.mark.parametrize("m,n", G2_POINTS)
    def test_equals_triple_sum_at_seeded_points(self, m, n):
        assert qpartition(RootCoord(m, n)) == qpartition_triple_sum(m, n)

    def test_regime_points_cover_every_regime(self):
        covered = set().union(*(g2_regimes(m, n) for m, n in G2_REGIME_POINTS))
        assert covered == {"T = 2K", "A-B <= 0", "0 < A-B < K", "A-B = K", "A-B > K"}

    @pytest.mark.parametrize("m,n", G2_REGIME_POINTS)
    def test_equals_triple_sum_at_regime_points(self, m, n):
        assert qpartition(RootCoord(m, n)) == qpartition_triple_sum(m, n)

    def test_equals_double_loop_on_grid(self):
        for m, n in product(range(45), repeat=2):
            v = RootCoord(m, n)
            assert qpartition(v) == qpartition_double_loop(v), (m, n)

    @pytest.mark.parametrize("m,n", G2_LOOP_POINTS)
    def test_equals_double_loop_at_seeded_points(self, m, n):
        v = RootCoord(m, n)
        assert qpartition(v) == qpartition_double_loop(v)

    def test_j_range_points_cover_every_range_parity_and_clamp(self):
        covered = set().union(*(g2_j_ranges(m, n) for m, n in G2_J_RANGE_POINTS))
        assert covered == {
            ("k runs to b", 0),
            ("k runs to b", 1),
            ("moving starts", 0),
            ("moving starts", 1),
            ("fixed starts", 0),
            ("fixed starts", 1),
            "all three at one i",
            "all three at one i, both parities in the last two",
            "j1 = 0",
            "j1 = J+1",
            "j2 = J+1",
        }

    @pytest.mark.parametrize("m,n", G2_J_RANGE_POINTS)
    def test_equals_double_loop_at_j_range_points(self, m, n):
        v = RootCoord(m, n)
        assert qpartition(v) == g2_sum_loop([(1, (m, n))]) == qpartition_double_loop(v)
        assert qpartition(v) == qpartition_triple_sum(m, n)


# Points that together reach every case of the g2 closed form: each region
# with every residue class its walls' weights depend on, each line between
# two regions, the axes and the origin.
G2_CASE_POINTS = [
    (0, 0), (0, 70), (13, 57), (14, 56), (15, 55), (16, 54), (35, 34), (35, 35),
    (36, 33), (37, 32), (37, 33), (38, 31), (38, 32), (39, 30), (39, 31), (40, 29),
    (40, 30), (41, 27), (41, 29), (42, 26), (42, 27), (42, 28), (43, 26), (43, 27),
    (44, 25), (44, 26), (45, 24), (45, 25), (46, 23), (46, 24), (47, 22), (47, 24),
    (48, 21), (49, 20), (49, 21), (50, 20), (51, 17), (53, 17), (70, 0),
]


def _g2_queries(rng, count):
    """The closed and the Weyl-sum terms of count seeded queries shaped like
    the benchmark's deep g2 ones: lam in [20,80]^2, mu <= lam/4."""
    sums = []
    for _ in range(count):
        m, n = rng.randint(20, 80), rng.randint(20, 80)
        lam, mu = FundCoord(m, n), FundCoord(rng.randint(0, m // 4), rng.randint(0, n // 4))
        sums.append([(sign, v) for _, sign, v in alternation_terms(G2, lam, mu)[2]])
        sums.append(weyl_terms(G2, lam, mu))
    return sums


G2_SEEDED_QUERIES = _g2_queries(Random(21), 200)


class TestG2SumKernel:
    """The closed-form markers of D·℘_q against the loop over i they replaced."""

    def test_equals_loop_on_every_single_term(self):
        for m, n in product(range(61), repeat=2):
            for sign in (1, -1):
                got = g2_partition._g2_sum([(sign, (m, n))])
                assert got == g2_sum_loop([(sign, (m, n))]), (sign, m, n)
                _assert_canonical(got)

    def test_equals_loop_on_seeded_queries(self):
        for terms in G2_SEEDED_QUERIES:
            got = g2_partition._g2_sum(terms)
            assert got == g2_sum_loop(terms), terms
            _assert_canonical(got)

    @pytest.mark.parametrize("m,n", [(3000, 2000), (10000, 10000)])
    def test_equals_loop_at_deep_points(self, m, n):
        assert g2_partition._g2_sum([(1, (m, n))]) == g2_sum_loop([(1, (m, n))])

    def test_case_points_cover_every_case(self):
        every = set().union(*(g2_closed_form_cases(m, n) for m, n in product(range(121), repeat=2)))
        covered = set().union(*(g2_closed_form_cases(m, n) for m, n in G2_CASE_POINTS))
        assert covered == every
        assert len(every) == 62

    @pytest.mark.parametrize("m,n", G2_CASE_POINTS)
    def test_equals_loop_at_case_points(self, m, n):
        got = qpartition(RootCoord(m, n))
        assert got == g2_sum_loop([(1, (m, n))]) == qpartition_triple_sum(m, n)

    def test_marker_weights_divide_exactly(self):
        # (a*x*x + b*x + c) mod den depends on x mod len(rows) * den alone.
        walls = [
            g2_partition._N_WALL_M,
            g2_partition._N_WALL_M_MINUS_N,
            g2_partition._N_WALL_3N_MINUS_M,
            g2_partition._M_MINUS_N_WALL_2M_MINUS_3N,
            g2_partition._M_MINUS_N_WALL_N,
        ]
        for den, rows in walls:
            for x in range(len(rows) * den):
                assert all((a * x * x + b * x + c) % den == 0 for a, b, c in rows[x % len(rows)])

    @pytest.mark.parametrize(
        "wall,point",
        [
            ("lowest", (4700, 4800)),
            ("m-n", (6000, 3500)),
            ("2n-m", (5000, 4000)),
            ("n", (5000, 4000)),
            ("m", (5000, 4000)),
        ],
        ids=["lowest", "m-n", "2n-m", "n", "m"],
    )
    def test_moving_a_group_breaks_the_grid(self, monkeypatch, wall, point):
        """Below the bound of 2^31 a moved group leaves markers that D does not
        divide, so the packed division raises on a single term; past it, at a
        point whose markers include the group, the prefix sums give a wrong
        polynomial that the deep check sees."""
        assert g2_sum_bound([(1, point)]) >> 31
        assert wall in {name for name, _, _ in g2_marker_groups(*point)}
        monkeypatch.setattr(g2_partition, "_g2_marks", g2_marks_moving(wall, 1))
        with pytest.raises(InternalConsistencyError, match="not a multiple of D"):
            self.test_equals_loop_on_every_single_term()
        with pytest.raises(AssertionError):
            self.test_equals_loop_at_deep_points(*point)

    def test_dropping_the_end_group_breaks_the_sums(self, monkeypatch):
        """The +1 at m + n + 10 lies past its own term's degree. The packed
        division reads it, so a single term below the bound raises; past the
        bound the prefix sums never look ahead, so only a sum with a longer
        term sees it."""
        monkeypatch.setattr(g2_partition, "_g2_marks", g2_marks_moving("top", None))
        with pytest.raises(InternalConsistencyError, match="not a multiple of D"):
            self.test_equals_loop_on_every_single_term()
        self.test_equals_loop_at_deep_points(10000, 10000)
        terms = [(1, (10000, 10000)), (-1, (3, 2))]
        assert g2_sum_bound(terms) >> 31
        assert g2_partition._g2_sum(terms) != g2_sum_loop(terms)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_loop_on_both_sides_of_the_bound(self, data):
        """Signed lists of 1-7 terms: narrow ones stay under the bound of 2^31,
        where the markers are divided packed, and wide ones, with one term
        past it, take the prefix sums."""
        wide = data.draw(st.booleans(), label="wide")
        point = st.tuples(st.integers(0, 400), st.integers(0, 300))
        signs = st.sampled_from((1, -1))
        terms = data.draw(
            st.lists(st.tuples(signs, point), min_size=not wide, max_size=7 - wide)
        )
        if wide:
            far = st.tuples(st.integers(4700, 5200), st.integers(2350, 2600))
            at = data.draw(st.integers(0, len(terms)), label="at")
            terms.insert(at, (data.draw(signs), data.draw(far, label="far")))
        assert bool(g2_sum_bound(terms) >> 31) == wide
        got = g2_partition._g2_sum(terms)
        assert got == g2_sum_loop(terms)
        _assert_canonical(got)

    def test_the_bound_holds_every_coefficient(self):
        # It is attained exactly where min(n, m//2) = 0 on this grid.
        for m, n in product(range(121), range(81)):
            bound = g2_sum_bound([(1, (m, n))])
            top = max(qpartition(RootCoord(m, n)).coeffs)
            assert top <= bound and (top == bound) == (min(n, m // 2) == 0), (m, n)

    @pytest.mark.parametrize("scale", [1 << 40, -(1 << 40), 1 << 70])
    def test_a_marker_past_32_bits_takes_the_prefix_sums(self, monkeypatch, scale):
        """Below the bound, a marker outside int32 is divided by the prefix
        sums, and QPoly's range check sees a coefficient outside int64."""
        monkeypatch.setattr(g2_partition, "_g2_marks", g2_marks_adding_d(scale))
        terms = [(1, (3, 2))]
        assert not g2_sum_bound(terms) >> 31
        if abs(scale) >> 63:
            with pytest.raises(CoefficientOverflowError):
                g2_partition._g2_sum(terms)
        else:
            expected = list(g2_sum_loop(terms).coeffs)
            expected[0] += scale
            assert g2_partition._g2_sum(terms).coeffs == tuple(expected)


class TestC2Kernel:
    def test_equals_double_sum_on_grid(self):
        for m, n in product(range(45), repeat=2):
            assert qpartition_c2(RootCoord(m, n)) == qpartition_c2_double_sum(m, n), (m, n)

    @pytest.mark.parametrize("m,n", C2_POINTS)
    def test_equals_double_sum_at_seeded_points(self, m, n):
        assert qpartition_c2(RootCoord(m, n)) == qpartition_c2_double_sum(m, n)

    def test_equals_loop_on_grid(self):
        for m, n in product(range(45), repeat=2):
            v = RootCoord(m, n)
            assert qpartition_c2(v) == qpartition_c2_loop(v), (m, n)

    @pytest.mark.parametrize("m,n", C2_LOOP_POINTS)
    def test_equals_loop_at_seeded_points(self, m, n):
        v = RootCoord(m, n)
        assert qpartition_c2(v) == qpartition_c2_loop(v)


def _seeded_c2_sums(rng, count):
    """Signed sums of 1-8 terms in [0,40]^2. Every third one is followed by
    its own negation, so its whole sum cancels; and every sum but the first
    shares one term's degree m+n with another term, half the time at the
    top degree."""
    sums = []
    for index in range(count):
        terms = [(rng.choice((1, -1)), (rng.randint(0, 40), rng.randint(0, 40)))
                 for _ in range(rng.randint(1, 8))]
        if index:
            _, (m, n) = terms[0] if index % 2 else max(terms, key=lambda term: sum(term[1]))
            shift = rng.randint(-min(m, 40 - n), min(n, 40 - m))
            terms.append((rng.choice((1, -1)), (m + shift, n - shift)))
        if index % 3 == 0:
            terms += [(-sign, v) for sign, v in terms]
        rng.shuffle(terms)
        sums.append(terms)
    return sums


C2_SEEDED_SUMS = _seeded_c2_sums(Random(16), 3000)


def _assert_canonical(poly):
    assert not poly.coeffs or poly.coeffs[-1] != 0


class TestC2SumKernel:
    """The breakpoint walk against the difference-array kernel it replaced."""

    def test_equals_markers_on_every_single_term(self):
        for m, n in product(range(61), repeat=2):
            for sign in (1, -1):
                got = sp4._c2_sum([(sign, (m, n))])
                assert got == c2_sum_markers([(sign, (m, n))]), (sign, m, n)
                _assert_canonical(got)

    def test_equals_markers_on_seeded_sums(self):
        for terms in C2_SEEDED_SUMS:
            got = sp4._c2_sum(terms)
            assert got == c2_sum_markers(terms), terms
            _assert_canonical(got)

    def test_seeded_sums_cancel_and_share_degrees(self):
        assert all(sp4._c2_sum(terms) == QPoly() for terms in C2_SEEDED_SUMS[::3])
        for terms in C2_SEEDED_SUMS[1:]:
            degrees = [m + n for _, (m, n) in terms]
            assert len(set(degrees)) < len(degrees), terms

    @pytest.mark.parametrize("m,n,x,y", C2_DEEP_POINTS)
    def test_equals_markers_at_deep_points(self, m, n, x, y):
        lam, mu = FundCoord(m, n), FundCoord(x, y)
        closed = [(sign, v) for _, sign, v in rootsys.closed(sp4.ALGEBRA, lam, mu).terms]
        for terms in (list(weyl_terms(C2, lam, mu)), closed):
            got = sp4._c2_sum(terms)
            assert got == c2_sum_markers(terms)
            _assert_canonical(got)


class TestWeylSums:
    def test_g2_equals_unpruned_on_grid(self):
        for m, n, x, y in product(range(8), repeat=4):
            lam, mu = FundCoord(m, n), FundCoord(x, y)
            assert qmultiplicity_weyl_sum(lam, mu) == qmultiplicity_weyl_sum_unpruned(
                lam, mu
            ), (m, n, x, y)

    def test_c2_equals_unpruned_on_grid(self):
        for m, n, x, y in product(range(8), repeat=4):
            lam, mu = FundCoord(m, n), FundCoord(x, y)
            assert multiplicity_c2_weyl_sum(lam, mu) == multiplicity_c2_weyl_sum_unpruned(
                lam, mu
            ), (m, n, x, y)

    @pytest.mark.parametrize("m,n,x,y", G2_WEYL_POINTS)
    def test_g2_equals_unpruned_at_seeded_points(self, m, n, x, y):
        lam, mu = FundCoord(m, n), FundCoord(x, y)
        assert qmultiplicity_weyl_sum(lam, mu) == qmultiplicity_weyl_sum_unpruned(lam, mu)

    @pytest.mark.parametrize("m,n,x,y", C2_WEYL_POINTS)
    def test_c2_equals_unpruned_at_seeded_points(self, m, n, x, y):
        lam, mu = FundCoord(m, n), FundCoord(x, y)
        assert multiplicity_c2_weyl_sum(lam, mu) == multiplicity_c2_weyl_sum_unpruned(lam, mu)

    @pytest.mark.parametrize("m,n,x,y", C2_DEEP_POINTS)
    def test_c2_equals_unpruned_at_deep_points(self, m, n, x, y):
        lam, mu = FundCoord(m, n), FundCoord(x, y)
        unpruned = multiplicity_c2_weyl_sum_unpruned(lam, mu)
        assert multiplicity_c2_weyl_sum(lam, mu) == unpruned
        assert rootsys.closed(sp4.ALGEBRA, lam, mu).mq == unpruned

    def test_c2_closed_route_equals_unpruned_on_grid(self):
        for m, n, x, y in product(range(8), repeat=4):
            lam, mu = FundCoord(m, n), FundCoord(x, y)
            assert rootsys.closed(sp4.ALGEBRA, lam, mu).mq == multiplicity_c2_weyl_sum_unpruned(
                lam, mu
            ), (m, n, x, y)

    @pytest.mark.parametrize(
        "mutant", [c2_events_ignoring_sign, c2_events_unclipped], ids=["sign", "clip"]
    )
    def test_c2_marker_details_are_load_bearing(self, monkeypatch, mutant):
        """Both mutants agree with the builder on qpartition_c2's own calls
        (sign 1, no event past the degree m+n), so only the fused sums
        change: the Weyl sum's and the closed q route's, each caught on its
        own."""
        monkeypatch.setattr(sp4, "_c2_events", mutant)
        with pytest.raises(AssertionError):
            self.test_c2_equals_unpruned_on_grid()
        with pytest.raises(AssertionError):
            self.test_c2_closed_route_equals_unpruned_on_grid()

    def test_seeded_points_include_zero_and_nonzero_results(self):
        g2 = [not qmultiplicity_weyl_sum(FundCoord(m, n), FundCoord(x, y))
              for m, n, x, y in G2_WEYL_POINTS]
        c2 = [not multiplicity_c2_weyl_sum(FundCoord(m, n), FundCoord(x, y))
              for m, n, x, y in C2_WEYL_POINTS]
        assert any(g2) and not all(g2)
        assert any(c2) and not all(c2)


def test_sp4_case_integers_equal_the_affine_forms():
    # The records carry the case label, which the affine form reads off its
    # decision tree and the package off the terms on the positive cone.
    for m, n, x, y in product(range(11), repeat=4):
        lam, mu = FundCoord(m, n), FundCoord(x, y)
        assert rootsys.case(sp4.ALGEBRA, lam, mu) == compute_case_c2_affine(lam, mu), (m, n, x, y)


@given(st.tuples(*[st.integers(0, 400)] * 4))
@settings(max_examples=300, deadline=None)
def test_sp4_case_integers_equal_the_affine_forms_at_large_weights(point):
    m, n, x, y = point
    lam, mu = FundCoord(m, n), FundCoord(x, y)
    assert rootsys.case(sp4.ALGEBRA, lam, mu) == compute_case_c2_affine(lam, mu)


class TestEnumerator:
    """The shared enumerator against the hand-written loops it replaced."""

    def test_g2_witnesses_match_nested_loops_in_order(self):
        for m, n in product(range(21), repeat=2):
            v = RootCoord(m, n)
            assert list(decompositions(G2.positive_roots, v)) == list(
                partition_witnesses_nested(v)
            ), (m, n)

    def test_c2_witnesses_match_nested_loops_in_order(self):
        for m, n in product(range(21), repeat=2):
            assert list(decompositions(C2.positive_roots, RootCoord(m, n))) == list(
                witnesses_c2_nested(m, n)
            ), (m, n)

    def test_c2_bruteforce_matches_nested_loops(self):
        for m, n in product(range(21), repeat=2):
            v = RootCoord(m, n)
            assert qpartition_c2_bruteforce(v) == qpartition_c2_bruteforce_nested(v), (m, n)

    @pytest.mark.parametrize("roots", [G2.positive_roots, C2.positive_roots], ids=["g2", "c2"])
    def test_every_witness_sums_to_its_target(self, roots):
        for m, n in product(range(13), repeat=2):
            for counts in decompositions(roots, RootCoord(m, n)):
                assert min(counts) >= 0
                assert sum(k * r.c1 for k, r in zip(counts, roots)) == m
                assert sum(k * r.c2 for k, r in zip(counts, roots)) == n
