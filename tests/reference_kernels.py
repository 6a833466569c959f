"""Direct, unoptimised forms of the package's sums, kept as second oracles.

``qpartition`` and ``qpartition_c2`` in the package evaluate the q-partition
sums in O(N) through strided difference arrays, with a loop over i only
for g2 and no loop for sp4. The loops below walk the sums term by term
instead: O(N^3) for g2 and O(N^2) for sp4, still far cheaper than
enumerating decompositions, so they can check the kernels at points where
brute force is out of reach. Between the two sit the kernels the package
used before: ``qpartition_double_loop`` (g2, O(N^2), loops over i and j)
and ``qpartition_c2_loop`` (sp4, O(N), loops over i), kept verbatim with
their caches dropped; they reach larger points still.

The package's Weyl sums cache the shifted orbit of lambda and skip the
terms that are zero. The unpruned sums below evaluate every term of the
alternating sum as written: all 12 ``sigma_shift`` terms for g2 and all 8
matrix terms for sp4, dropping only those off the root lattice.

The package reads the sp4 case integers off the alternation terms of the
cached Weyl orbit. ``compute_case_c2_affine`` is the hand-written affine
form it replaced, kept verbatim.

The package enumerates decompositions with one recursive walk over any
list of positive roots. The hand-written g2 and sp4 loop nests it replaced
are kept below, so the walk can be held to them witness for witness.
"""

from itertools import accumulate
from operator import add

from qkostant.g2_partition import PartitionWitness, qpartition
from qkostant.qpoly import QPoly
from qkostant.rootsys import RootCoord, weyl_group
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


def partition_witnesses_nested(v):
    """g2: every decomposition of v into positive roots, as nested loops.

    Loops run over the non-simple roots highest first; the simple-root
    counts n1, n2 are then forced by the target coordinates. The loop
    bounds keep every intermediate remainder nonnegative, so each tuple
    yielded is a genuine witness.
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
                    yield PartitionWitness(m4 - n3, r4 - n3, n3, n4, n5, n6)


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
    return Sp4CaseData(a, two_b, c, two_d, a_ok, b_ok, c_ok, d_ok, label)
