"""Direct, unoptimised forms of the package's sums, kept as second oracles.

``qpartition`` and ``qpartition_c2`` in the package evaluate the q-partition
sums with O(1) Python work per term and O(N) C-level work, with no loop
over the copies of any root. The loops below walk the sums term by term
instead: O(N^3) for g2 and O(N^2) for sp4, still far cheaper than
enumerating decompositions, so they can check the kernels at points where
brute force is out of reach. Between the two sit the kernels the package
used before: ``qpartition_double_loop`` (g2, O(N^2), loops over i and j)
and ``qpartition_c2_loop`` (sp4, O(N), loops over i), kept verbatim with
their caches dropped; they reach larger points still. ``c2_sum_markers``
is the sp4 sum kernel that the breakpoint walk replaced, kept verbatim:
every term adds its signed run markers into one difference array, whose
one prefix sum is the result. ``g2_sum_loop`` is the g2 sum kernel that
the closed-form markers of D·℘_q replaced, kept verbatim: its builder
``_g2_marks`` loops over the copies i of 3a1+2a2 with O(1) work per i.
``g2_marker_groups`` and ``g2_closed_form_cases`` say, from m and n
alone, where the new builder's marker groups sit and which case of its
closed form each reaches.

The package's Weyl sums build the shifted orbit of lambda once per call
and skip the terms that are zero. The unpruned sums below evaluate every term of the
alternating sum as written: all 12 ``sigma_shift`` terms for g2 and all 8
matrix terms for sp4, dropping only those off the root lattice.

The package reads the case integers of both algebras off the alternation
terms of the shifted Weyl orbit, and their case labels off the terms whose
shifted weight lies on the positive cone. ``compute_case_c2_affine`` is the
hand-written sp4 affine form, labels included, that this replaced, and
``case_label_g2_tree`` the g2 decision tree over the signs of a..f; both
are kept verbatim.

``decompositions`` enumerates decompositions with one recursive walk over
any list of positive roots, and ``qpartition_enumerated`` counts them by
size: the definitional q-analog, kept here, apart from the package, as the
oracle that its box of q-partitions is held to. The hand-written g2 and sp4
loop nests the walk replaced are kept below, so it can be held to them
witness for witness.
"""

import sys
from itertools import accumulate, repeat
from math import comb
from operator import add, sub
from typing import Iterator, Sequence

from qkostant.g2_partition import qpartition
from qkostant.qpoly import QPoly
from qkostant.rootsys import RootCoord, _as_root, weyl_group
from qkostant.sp4 import Sp4CaseData, fundamental_weights_c2, qpartition_c2, weyl_group_c2

from shift_forms import sigma_shift


def qpartition_triple_sum(m: int, n: int) -> QPoly:
    """g2: loop over the counts (i, j, k) of 3a1+2a2, 3a1+a2, 2a1+a2.

    The count l of a1+a2 contributes the contiguous exponent run
    m+n-4i-3j-2k-l for l = 0..L, added through a difference array.
    """
    if m < 0 or n < 0:
        return QPoly()
    diff = [0] * (m + n + 2)
    for i in range(min(m // 3, n // 2) + 1):
        mi, ni = m - 3 * i, n - 2 * i
        for j in range(min(mi // 3, ni) + 1):
            mj, nj = mi - 3 * j, ni - j
            for k in range(min(mj // 2, nj) + 1):
                top = m + n - 4 * i - 3 * j - 2 * k
                span = min(mj - 2 * k, nj - k)
                diff[top - span] += 1
                diff[top + 1] -= 1
    coeffs = []
    acc = 0
    for d in diff[:-1]:
        acc += d
        coeffs.append(acc)
    return QPoly(coeffs)


def qpartition_double_loop(v: RootCoord) -> QPoly:
    """q-analog of Kostant's partition function for g2, closed form.

    Evaluates the quadruple sum over counts (i, j, k, l) of the roots
    3a1+2a2, 3a1+a2, 2a1+a2, a1+a2 in O(N^2) time for N = m + n. For
    fixed (i, j), with A = m-3i-3j, B = n-2i-j and T = m+n-4i-3j, each
    k = 0..min(A//2, B) contributes the exponent run [start(k), T-2k]
    over l. The run ends step by -2 in k; the starts are T-B-k while
    k < A-B and T-A from then on. Both progressions go into strided
    second-difference arrays, so no loop over k or l is run.
    """
    m, n = v
    if m < 0 or n < 0:
        return QPoly()
    size = m + n + 4
    flat = [0] * size  # first differences: runs starting at one fixed exponent
    unit = [0] * size  # second differences, unit stride: the moving run starts
    even = [0] * size  # second differences, stride 2: the run ends
    for i in range(min(m // 3, n // 2) + 1):
        a, b, t = m - 3 * i, n - 2 * i, m + n - 4 * i
        while a >= 0 and b >= 0:
            k_max = a // 2 if a // 2 < b else b  # min() is a slower call here
            # -1 just past each run end t - 2k; the lowest, t - 2*k_max + 1, is >= 1.
            even[t - 2 * k_max + 1] -= 1
            even[t + 3] += 1
            split = a - b
            if split > 0:
                last = k_max if k_max < split else split - 1
                unit[t - b - last] += 1
                unit[t - b + 1] -= 1
                if k_max >= split:
                    flat[t - a] += k_max - split + 1
            else:
                flat[t - a] += k_max + 1
            a -= 3
            b -= 1
            t -= 3
    even[0::2] = accumulate(even[0::2])
    even[1::2] = accumulate(even[1::2])
    return QPoly(accumulate(map(add, map(add, flat, accumulate(unit)), even)))


def _g2_marks(
    points: list[int], tops: list[int], runs: list[int], m: int, n: int, sign: int
) -> None:
    """Add sign times the markers of the g2 q-partition at (m, n) >= 0 into three lists.

    The lists must hold at least m + n + 7 entries; g2_sum_loop turns them
    into the coefficients. Evaluates the quadruple sum over counts
    (i, j, k, l) of the roots 3a1+2a2, 3a1+a2, 2a1+a2, a1+a2 with O(1)
    work per i. For fixed (i, j), with a = m-3i-3j, b = n-2i-j and
    t = m+n-4i-3j, each k = 0..min(a//2, b) contributes the exponent run
    [start(k), t-2k] over l; the starts are t-b-k while k < a-b and t-a
    from then on.

    The coefficients are the prefix sums of +1 at each run start and -1
    just past each run end. With S_d the stride-d prefix sum, they are
    S_1(S_2(E)) for a marker list E: w starts at x enter E as +w at x and
    -w at x+2, and the run ends t+1, t-1, ... of one (i, j) as -1 at the
    lowest and +1 at t+3. As j steps, each entry moves in an arithmetic
    progression with two breakpoints: below j1 = a0-2*b0 the k-runs reach
    k = b, and from j2 = ceil((a0-b0)/2) on no start moves. Here a0, b0
    are a, b at j = 0, and j1, j2 are clamped to [0, J+1] for
    J = min(a0//3, b0). So per i, E gets one stride-3 progression (kept in
    ``tops``), up to two unit-stride runs (``runs``) and three closed-form
    weights (``points``): E = points + S_3(tops) + S_1(runs). No loop over
    j, k or l is run. Every marker of one term cancels past its degree
    m + n, so the chain of a longer list gives exact zeros there.
    """
    long_runs = 0  # runs [m-n-j1+1, m-n], one for every i with j1 > 0
    a0, b0, t0 = m, n, m + n  # a, b and t at j = 0 for the current i
    for _ in range(min(m // 3, n // 2) + 1):
        stop = a0 // 3 + 1 if a0 // 3 < b0 else b0 + 1  # J + 1
        j1 = a0 - 2 * b0
        if j1 >= stop:
            j1 = stop
        if j1 > 0:
            # j < j1: a > 2b and k runs to b. The lowest start t-2b and the
            # lowest run end t-2b+1 leave one entry, +1 at t-2b = m-n-j.
            runs[m - n + 1 - j1] += sign
            long_runs += 1
        else:
            j1 = 0
        j2 = (a0 - b0 + 1) // 2
        if j2 < j1:
            j2 = j1
        elif j2 > stop:
            j2 = stop
        if j2:
            # j < j2: the moving starts end at t-b = m-2i-2j, so E has -1 at
            # m-2i-2j+1 and m-2i-2j+2, one run over all these j.
            hi = t0 - b0 + 3
            runs[hi - 2 * j2] -= sign
            runs[hi] += sign
        tops[t0 + 6 - 3 * stop] += sign
        tops[t0 + 6] -= sign
        # j >= j1: k runs to a//2, and the lowest run end is n-i+1 or n-i+2
        # by the parity of a; odd counts the odd a = a0-3j over [j1, J].
        span = stop - j1
        odd = (span + ((a0 + j1) & 1)) // 2
        # j in [j1, j2): the moving starts begin at n-i+1. The fixed starts
        # at t-a = n-i number b-a+1+a//2 there and a//2+1 for j >= j2; the
        # a//2 are summed in closed form over [j1, J].
        moving = j2 - j1
        fixed = (
            moving * (b0 - a0 + j1 + j2)
            + (span * (2 * a0 - 3 * (j1 + stop - 1)) // 2 - odd) // 2
            + stop
            - j2
        )
        p = t0 - a0
        points[p] += sign * fixed
        points[p + 1] += sign * (moving - span + odd)
        points[p + 2] += sign * (moving - odd - fixed)
        a0 -= 3
        b0 -= 2
        t0 -= 4
    runs[m - n + 1] -= sign * long_runs


def g2_sum_loop(terms: Sequence[tuple[int, tuple[int, int]]]) -> QPoly:
    """The sum of sign * qpartition((m, n)) over (sign, (m, n)) pairs with m, n >= 0.

    The polynomial S_1(S_2(points + S_3(tops) + S_1(runs))) of the markers
    that _g2_marks adds for every term, up to the largest degree m + n. A
    degree too large for a list raises ValueError before anything is built.
    """
    if not terms:
        return QPoly()
    degree = max(m + n for _, (m, n) in terms)
    size = degree + 7
    if size > sys.maxsize:
        raise ValueError(f"degree {degree} is too large for a coefficient list")
    points = [0] * size  # entries of E at n-i, n-i+1 and n-i+2
    tops = [0] * size  # second differences, stride 3: the +1 at t+3 over j
    runs = [0] * size  # first differences: unit-stride runs of E
    for sign, (m, n) in terms:
        _g2_marks(points, tops, runs, m, n, sign)
    tops[0::3] = accumulate(tops[0::3])
    tops[1::3] = accumulate(tops[1::3])
    tops[2::3] = accumulate(tops[2::3])
    marks = list(map(add, map(add, points, tops), accumulate(runs)))
    del marks[degree + 1 :]  # prefix sums never look ahead
    marks[0::2] = accumulate(marks[0::2])
    marks[1::2] = accumulate(marks[1::2])
    return QPoly(accumulate(marks))


def g2_sum_bound(terms: Sequence[tuple[int, tuple[int, int]]]) -> int:
    """Σ C(min(n, m//2) + 3, 3) over (sign, (m, n)) terms, which bounds every
    coefficient of their signed sum: a decomposition of (m, n) into d roots
    is fixed by d and by its numbers of 2a1+a2, 3a1+a2 and 3a1+2a2, which
    add up to at most min(n, m//2)."""
    return sum(comb(min(n, m // 2) + 3, 3) for _, (m, n) in terms)


def g2_region(m: int, n: int) -> str:
    """Tarski's region of (m, n) >= 0, a to e, the first that holds."""
    if m <= n:
        return "a"
    if 2 * m <= 3 * n:
        return "b"
    if m <= 2 * n:
        return "c"
    if m <= 3 * n:
        return "d"
    return "e"


def g2_marker_groups(m: int, n: int) -> list[tuple[str, int, int]]:
    """(wall, first index, width) of each group of D·℘_q(m, n), by region.

    The walls are the degrees where the chamber of (m, n, d) changes along
    the support of ℘_q(m, n): its lowest degree, m - n, 2n - m, n and m,
    and its end m + n, past which the group at m + n + 10 cancels the rest.
    """
    region = g2_region(m, n)
    groups = [("top", m + n + 10, 1)]
    if region in "ab":
        groups.append(("lowest", n - m // 3, 7))
    elif region in "cd":
        groups.append(("lowest", -(-m // 3), 8))
    else:
        groups.append(("lowest", m - 2 * n, 3))
    if region != "e":
        groups.append(("n", n + 1, 9))
    if region != "a":
        groups.append(("m", m + 5, 5))
    if region == "b":
        groups.append(("2n-m", 2 * n - m + 1, 5))
    if region in "cde":
        groups.append(("m-n", m - n + 1, 7))
    return groups


def g2_closed_form_cases(m: int, n: int) -> set:
    """Which cases of the closed form of D·℘_q the point (m, n) >= 0 reaches.

    A case is a region with the residue class of each coordinate that a
    wall's weights depend on there: m % 3 at the lowest degree (one case
    for m >= 3n), m % 6, (m - n) % 2 or (3n - m) % 6 at n, and (2m - 3n) % 2
    or n % 2 at m - n. Points on a line between two regions, on an axis or
    at the origin are a case of their own as well.
    """
    region = g2_region(m, n)
    cases = {(region, "lowest", m % 3 if region != "e" else None)}
    if region == "a":
        cases.add((region, "n", (m % 6, None)))
    elif region in "bc":
        cases.add((region, "n", (m % 6, (m - n) % 2)))
    elif region == "d":
        cases.add((region, "n", ((3 * n - m) % 6, None)))
    if region == "c":
        cases.add((region, "m-n", (2 * m - 3 * n) % 2))
    elif region in "de":
        cases.add((region, "m-n", n % 2))
    if m == n == 0:
        return cases | {("line", "origin")}
    lines = {"m = n": m == n, "2m = 3n": 2 * m == 3 * n, "m = 2n": m == 2 * n,
             "m = 3n": m == 3 * n, "m = 0": m == 0, "n = 0": n == 0}
    cases.update(("line", name) for name, on in lines.items() if on)
    return cases


def qpartition_c2_loop(v: RootCoord) -> QPoly:
    """q-analog of Kostant's partition function for sp4, closed double sum.

    For i copies of the long root 2a1+a2, the remaining decompositions
    contribute one q^j for every j from max(m-i, n) to m+n-2i. Each such
    run is one pair of entries in a difference array, so the double sum
    costs O(N) for N = m + n.
    """
    m, n = v
    if m < 0 or n < 0:
        return QPoly()
    diff = [0] * (m + n + 2)
    for i in range(min(m // 2, n) + 1):
        diff[max(m - i, n)] += 1
        diff[m + n - 2 * i + 1] -= 1
    return QPoly(accumulate(diff))


def _c2_marks(diff: list[int], m: int, n: int, sign: int) -> None:
    """Add sign times the run markers of the sp4 q-partition at (m, n) into diff.

    For i = 0..min(m//2, n) copies of the long root 2a1+a2, the remaining
    decompositions contribute one q^j for every j from max(m-i, n) to
    m+n-2i. In a difference array, the run starts m-i (while i <= m-n)
    are one unit-stride slice, the starts at n are one point, and the run
    ends m+n-2i+1 are one stride-2 slice that stops at m+n+1, since diff
    may be longer than m+n+2. Its prefix sum is then the q-partition.
    """
    top = m // 2 if m // 2 < n else n  # min() is a slower call here
    moving = m - n + 1 if m - n < top else top + 1  # how many i start at m-i
    if moving > 0:
        first = m + 1 - moving
        diff[first : m + 1] = map(add, diff[first : m + 1], repeat(sign))
    else:
        moving = 0
    diff[n] += sign * (top + 1 - moving)
    ends, stop = m + n + 1 - 2 * top, m + n + 2
    diff[ends:stop:2] = map(sub, diff[ends:stop:2], repeat(sign))


def c2_sum_markers(terms) -> QPoly:
    """The sum of sign * qpartition_c2((m, n)) over (sign, (m, n)) pairs with m, n >= 0.

    A prefix sum is linear, so each term adds its signed markers into one
    difference array, whose one prefix sum is the result.
    """
    if not terms:
        return QPoly()
    diff = [0] * (max(m + n for _, (m, n) in terms) + 2)
    for sign, (m, n) in terms:
        _c2_marks(diff, m, n, sign)
    return QPoly(accumulate(diff))


def qpartition_c2_double_sum(m: int, n: int) -> QPoly:
    """sp4: one q^j for every j from max(m-i, n) to m+n-2i, i copies of 2a1+a2."""
    if m < 0 or n < 0:
        return QPoly()
    coeffs = [0] * (m + n + 1)
    for i in range(min(m // 2, n) + 1):
        for j in range(max(m - i, n), m + n - 2 * i + 1):
            coeffs[j] += 1
    return QPoly(coeffs)


def qmultiplicity_weyl_sum_unpruned(lam, mu) -> QPoly:
    """g2: m_q(lam, mu) as the alternating sum over all 12 Weyl elements."""
    return QPoly.signed_sum(
        (sigma.sign, qpartition(sigma_shift(sigma, lam, mu))) for sigma in weyl_group()
    )


def _doubled_shifted(w) -> tuple[int, int]:
    """2 * (w + rho) in root coordinates."""
    w1, w2, rho = fundamental_weights_c2()
    return (
        w.m * w1[0] + w.n * w2[0] + rho[0],
        w.m * w1[1] + w.n * w2[1] + rho[1],
    )


def multiplicity_c2_weyl_sum_unpruned(lam, mu) -> QPoly:
    """sp4: m_q(lam, mu) as the alternating sum over its 8 Weyl elements.

    Terms whose shifted weight has an odd doubled coordinate lie outside
    the root lattice and contribute nothing.
    """
    lam2 = _doubled_shifted(lam)
    mu2 = _doubled_shifted(mu)
    terms = []
    for matrix, length in weyl_group_c2():
        (p, q), (r, s) = matrix
        u = p * lam2[0] + q * lam2[1] - mu2[0]
        v = r * lam2[0] + s * lam2[1] - mu2[1]
        if u % 2 or v % 2:
            continue
        terms.append(((-1) ** length, qpartition_c2(RootCoord(u // 2, v // 2))))
    return QPoly.signed_sum(terms)


def _decompose(roots, m: int, n: int, counts: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    if not roots:
        yield (m, n, *counts)
        return
    (a, b), rest = roots[0], roots[1:]
    for k in range(min(m // a, n // b) + 1):
        yield from _decompose(rest, m - k * a, n - k * b, (k, *counts))


def decompositions(roots: tuple[RootCoord, ...], v: RootCoord) -> Iterator[tuple[int, ...]]:
    """Yield the count of each root in every decomposition of v into roots.

    ``roots`` starts with the simple roots a1, a2, and the counts come in
    the same order. Loops run over the non-simple roots highest first; the
    simple-root counts are then forced by the target coordinates. The loop
    bounds keep every remainder nonnegative, so each tuple yielded is a
    genuine decomposition.
    """
    m, n = _as_root(v)
    if m >= 0 and n >= 0:
        yield from _decompose(roots[:1:-1], m, n, ())


def qpartition_enumerated(roots: tuple[RootCoord, ...], v: RootCoord) -> QPoly:
    """Definitional q-analog: one q^(number of roots) per decomposition."""
    m, n = _as_root(v)
    if m < 0 or n < 0:
        return QPoly()
    counts = [0] * (m + n + 1)
    for witness in decompositions(roots, v):
        counts[sum(witness)] += 1
    return QPoly(counts)


def partition_witnesses_nested(v):
    """g2: every decomposition of v into positive roots, as nested loops.

    Yields the count of each root in G2.positive_roots order. Loops run
    over the non-simple roots highest first; the simple-root counts n1, n2
    are then forced by the target coordinates. The loop bounds keep every
    intermediate remainder nonnegative, so each tuple yielded is a genuine
    witness.
    """
    m, n = v
    if m < 0 or n < 0:
        return
    for n6 in range(min(m // 3, n // 2) + 1):
        m6, r6 = m - 3 * n6, n - 2 * n6
        for n5 in range(min(m6 // 3, r6) + 1):
            m5, r5 = m6 - 3 * n5, r6 - n5
            for n4 in range(min(m5 // 2, r5) + 1):
                m4, r4 = m5 - 2 * n4, r5 - n4
                for n3 in range(min(m4, r4) + 1):
                    yield (m4 - n3, r4 - n3, n3, n4, n5, n6)


def qpartition_c2_bruteforce_nested(v: RootCoord) -> QPoly:
    """sp4: enumerate decompositions into the four roots, as nested loops."""
    m, n = v
    if m < 0 or n < 0:
        return QPoly()
    counts = [0] * (m + n + 1)
    for n4 in range(min(m // 2, n) + 1):  # copies of 2a1+a2
        for n3 in range(min(m - 2 * n4, n - n4) + 1):  # copies of a1+a2
            n1 = m - 2 * n4 - n3
            n2 = n - n4 - n3
            counts[n1 + n2 + n3 + n4] += 1
    return QPoly(counts)


def witnesses_c2_nested(m: int, n: int):
    """sp4: the loops of qpartition_c2_bruteforce_nested, yielding each
    decomposition as (n1, n2, n3, n4) instead of counting it."""
    if m < 0 or n < 0:
        return
    for n4 in range(min(m // 2, n) + 1):  # copies of 2a1+a2
        for n3 in range(min(m - 2 * n4, n - n4) + 1):  # copies of a1+a2
            yield (m - 2 * n4 - n3, n - n4 - n3, n3, n4)


def compute_case_c2_affine(lam, mu) -> Sp4CaseData:
    m, n = lam
    x, y = mu
    a = m + n - x - y
    two_b = 2 * n - 2 * y + m - x
    c = n - x - y - 1
    two_d = m - x - 2 * y - 2
    a_ok = a >= 0
    b_ok = two_b >= 0 and two_b % 2 == 0
    c_ok = c >= 0
    d_ok = two_d >= 0 and two_d % 2 == 0
    if not (a_ok and b_ok):
        label = "ZERO"
    elif c_ok and d_ok:
        label = "PQR"
    elif c_ok:
        label = "PQ"
    elif d_ok:
        label = "PR"
    else:
        label = "P"
    return Sp4CaseData(a, two_b, c, two_d, (a_ok, b_ok, c_ok, d_ok), label)


def case_label_g2_tree(in_n: tuple[bool, ...]) -> str:
    a_ok, b_ok, c_ok, d_ok, e_ok, f_ok = in_n
    if not (a_ok and b_ok):
        return "ZERO"
    if c_ok and d_ok:
        if e_ok and f_ok:
            return "PQRST"
        if e_ok:
            return "PQRS"
        if f_ok:
            return "PQRT"
        return "PQR"
    if c_ok and not d_ok and not e_ok and not f_ok:
        return "PQ"
    if d_ok and not c_ok and not e_ok and not f_ok:
        return "PR"
    if not c_ok and not d_ok and not e_ok and not f_ok:
        return "P"
    # No dominant pair realizes the remaining sign patterns; should one ever
    # appear, all five terms are provably trivial there.
    return "ZERO"
