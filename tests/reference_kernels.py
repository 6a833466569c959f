"""The direct q-partition sums, kept as a second oracle for the fast kernels.

``qpartition`` and ``qpartition_c2`` in the package evaluate these same
sums through strided difference arrays. The loops below walk the sums
term by term instead: O(N^3) for g2 and O(N^2) for sp4, still far cheaper
than enumerating decompositions, so they can check the kernels at points
where brute force is out of reach.
"""

from qkostant.qpoly import QPoly


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


def qpartition_c2_double_sum(m: int, n: int) -> QPoly:
    """sp4: one q^j for every j from max(m-i, n) to m+n-2i, i copies of 2a1+a2."""
    if m < 0 or n < 0:
        return QPoly()
    coeffs = [0] * (m + n + 1)
    for i in range(min(m // 2, n) + 1):
        for j in range(max(m - i, n), m + n - 2 * i + 1):
            coeffs[j] += 1
    return QPoly(coeffs)
