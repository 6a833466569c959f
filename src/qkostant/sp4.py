"""Corrected partition and multiplicity formulas for sp4.

Positive roots in the simple-root basis: a1, a2, a1+a2, 2a1+a2. The
fundamental weights live outside the root lattice (w1 = a1 + a2/2), so the
Weyl-sum oracle tracks weights in doubled root coordinates and drops any
term whose shifted weight fails to land back on the root lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import accumulate, combinations

from .errors import InternalConsistencyError
from .qpoly import QPoly
from .rootsys import IDENTITY, ORBIT_CACHE_SIZE, FundCoord, Mat, RootCoord, mat_det, mat_mul

POSITIVE_ROOTS_C2: tuple[RootCoord, ...] = (
    RootCoord(1, 0),
    RootCoord(0, 1),
    RootCoord(1, 1),
    RootCoord(2, 1),
)

# Simple reflections, columns = images of the simple roots:
# s1: a1 -> -a1, a2 -> 2a1 + a2;  s2: a1 -> a1 + a2, a2 -> -a2.
_S1: Mat = ((-1, 2), (0, 1))
_S2: Mat = ((1, 0), (1, -1))


@lru_cache(maxsize=None)
def qpartition_c2(v: RootCoord) -> QPoly:
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


def qpartition_c2_bruteforce(v: RootCoord) -> QPoly:
    """Definitional oracle: enumerate decompositions into the four roots."""
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


def _closed_form(m: int, n: int, edge_region: bool = True) -> int:
    """Four-region closed form of the sp4 partition count.

    edge_region=False removes the m = 2n-1 region, collapsing the dispatch
    to three regions; the regression tests use this mutant to show the
    extra region is load-bearing.
    """
    half = m // 2
    if n >= m:
        return (half + 1) * (m - half + 1)
    if 2 * n - 1 > m > n:
        quad, rem = divmod(2 * m * n - m * m - n * n + m + n, 2)
        if rem:
            raise InternalConsistencyError(f"odd quadratic term at ({m}, {n})")
        return quad + half * (m - half) + 1
    if edge_region and 2 * n > m >= 2 * n - 1 > n:
        value, rem = divmod((half + 1) * (2 * n - half + 2), 2)
        if rem:
            raise InternalConsistencyError(f"odd edge-region value at ({m}, {n})")
        return value
    return (n + 1) * (n + 2) // 2  # m >= 2n


def partition_c2_closed(v: RootCoord) -> int:
    """Partition count at q = 1 for sp4; requires nonnegative coordinates."""
    m, n = v
    if m < 0 or n < 0:
        raise ValueError(f"partition_c2_closed needs nonnegative coordinates, got {tuple(v)}")
    return _closed_form(m, n)


@dataclass(frozen=True)
class Sp4CaseData:
    """Case integers for an sp4 weight pair; b and d are stored doubled.

    b = n - y + (m - x)/2 and d = -y - 1 + (m - x)/2 are half-integers when
    m - x is odd, so membership in N means "doubled value nonnegative and
    even". All arithmetic stays in plain integers this way.
    """

    a: int
    two_b: int
    c: int
    two_d: int
    a_in_n: bool
    b_in_n: bool
    c_in_n: bool
    d_in_n: bool
    case_label: str


def compute_case_c2(lam: FundCoord, mu: FundCoord) -> Sp4CaseData:
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


@dataclass(frozen=True)
class Sp4MultiplicityResult:
    lam: FundCoord
    mu: FundCoord
    case: Sp4CaseData
    value: int


def multiplicity_c2_closed(lam: FundCoord, mu: FundCoord) -> Sp4MultiplicityResult:
    """Classical multiplicity m(lam, mu) for sp4 via the corrected cases.

    Each contributing term is the regional partition count at that term's
    own coordinates: P at (a, b), Q at (c, b), R at (a, d). Since b > c and
    a > 2d whenever those terms are selected, Q always reduces to
    floor((c+2)/2) * ceil((c+2)/2) and R to (d+1)(d+2)/2.
    """
    case = compute_case_c2(lam, mu)
    label = case.case_label
    if label == "ZERO":
        value = 0
    else:
        b = case.two_b // 2
        value = partition_c2_closed(RootCoord(case.a, b))
        if "Q" in label:
            value -= partition_c2_closed(RootCoord(case.c, b))
        if "R" in label:
            value -= partition_c2_closed(RootCoord(case.a, case.two_d // 2))
    if value < 0:
        raise InternalConsistencyError(
            f"negative multiplicity {value} for ({tuple(lam)}, {tuple(mu)})"
        )
    return Sp4MultiplicityResult(lam, mu, case, value)


@cache
def weyl_group_c2() -> tuple[tuple[Mat, int], ...]:
    """The 8 sp4 Weyl elements as (matrix, length), grown from the reflections.

    Breadth-first closure assigns each matrix its reduced length; the result
    is checked for order 8 and det = (-1)^length.
    """
    lengths: dict[Mat, int] = {IDENTITY: 0}
    frontier: list[Mat] = [IDENTITY]
    depth = 0
    while frontier:
        depth += 1
        grown: list[Mat] = []
        for matrix in frontier:
            for generator in (_S1, _S2):
                product = mat_mul(generator, matrix)
                if product not in lengths:
                    lengths[product] = depth
                    grown.append(product)
        frontier = grown
    if len(lengths) != 8:
        raise InternalConsistencyError(f"sp4 Weyl group has order {len(lengths)}, not 8")
    for matrix, length in lengths.items():
        if mat_det(matrix) != (-1) ** length:
            raise InternalConsistencyError("sp4 element with det != (-1)^length")
    return tuple(sorted(lengths.items(), key=lambda item: (item[1], item[0])))


def _solve_weight(rhs1: tuple[int, int], rhs2: tuple[int, int]) -> tuple[int, int]:
    """Solve (s_i - 1) w = rhs_i for w in doubled root coordinates.

    The four scalar equations are overdetermined; Cramer's rule on any
    independent pair must satisfy the rest exactly and integrally.
    """
    equations: list[tuple[int, int, int]] = []
    for matrix, rhs in ((_S1, rhs1), (_S2, rhs2)):
        (p, q), (r, s) = matrix
        equations.append((p - 1, q, rhs[0]))
        equations.append((r, s - 1, rhs[1]))
    for (a1, b1, c1), (a2, b2, c2) in combinations(equations, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        p_num = c1 * b2 - c2 * b1
        q_num = a1 * c2 - a2 * c1
        if p_num % det or q_num % det:
            raise InternalConsistencyError("fundamental weight is not half-integral")
        w = (p_num // det, q_num // det)
        for (ea, eb, ec) in equations:
            if ea * w[0] + eb * w[1] != ec:
                raise InternalConsistencyError("inconsistent reflection equations")
        return w
    raise InternalConsistencyError("degenerate reflection data")


@cache
def fundamental_weights_c2() -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """(w1, w2, rho) in doubled root coordinates, derived from the reflections.

    w_i is pinned down by s_i(w_i) = w_i - a_i and s_j(w_i) = w_i for j != i;
    rho = w1 + w2 must equal the plain sum of the positive roots, which is
    the doubled half-sum.
    """
    w1 = _solve_weight((-2, 0), (0, 0))
    w2 = _solve_weight((0, 0), (0, -2))
    rho = (w1[0] + w2[0], w1[1] + w2[1])
    pos_sum = (
        sum(root.c1 for root in POSITIVE_ROOTS_C2),
        sum(root.c2 for root in POSITIVE_ROOTS_C2),
    )
    if rho != pos_sum:
        raise InternalConsistencyError(
            f"w1 + w2 = {rho} but the positive roots sum to {pos_sum}"
        )
    return w1, w2, rho


def fund_to_root_c2(w: FundCoord) -> RootCoord | None:
    """Root coordinates of m*w1 + n*w2, or None when m is odd.

    Odd m puts the weight off the root lattice (its a2-coordinate is a
    half-integer), where the partition count is zero by definition.
    """
    w1, w2, _ = fundamental_weights_c2()
    u = w.m * w1[0] + w.n * w2[0]
    v = w.m * w1[1] + w.n * w2[1]
    if u % 2 or v % 2:
        return None
    return RootCoord(u // 2, v // 2)


def root_to_fund_c2(v: RootCoord) -> FundCoord:
    """Fundamental coordinates of a root-lattice weight.

    Raises ValueError when the weight is not dominant; the solve itself is
    always exact because the root lattice sits inside the weight lattice.
    """
    w1, w2, _ = fundamental_weights_c2()
    det = w1[0] * w2[1] - w2[0] * w1[1]
    m_num = 2 * v.c1 * w2[1] - 2 * v.c2 * w2[0]
    n_num = w1[0] * 2 * v.c2 - w1[1] * 2 * v.c1
    if m_num % det or n_num % det:
        raise InternalConsistencyError(f"non-integral fundamental coordinates for {tuple(v)}")
    return FundCoord(m_num // det, n_num // det)


def _doubled_shifted(w: FundCoord) -> tuple[int, int]:
    """2 * (w + rho) in root coordinates."""
    m, n = w
    w1, w2, rho = fundamental_weights_c2()
    return (
        m * w1[0] + n * w2[0] + rho[0],
        m * w1[1] + n * w2[1] + rho[1],
    )


@lru_cache(maxsize=ORBIT_CACHE_SIZE, typed=True)
def _doubled_orbit(m: int, n: int) -> tuple[tuple[int, int, int], ...]:
    """(sign, u, v) of sigma(2 * (lam + rho)) for all 8 Weyl elements.

    Doubled root coordinates, lam = m*w1 + n*w2. The orbit depends on lam
    alone, so a grid sweep computes it once per lam instead of once per
    (lam, mu).
    """
    lam2 = _doubled_shifted(FundCoord(m, n))
    orbit = []
    for ((p, q), (r, s)), length in weyl_group_c2():
        sign = -1 if length % 2 else 1
        orbit.append((sign, p * lam2[0] + q * lam2[1], r * lam2[0] + s * lam2[1]))
    return tuple(orbit)


def multiplicity_c2_weyl_sum(lam: FundCoord, mu: FundCoord) -> QPoly:
    """m_q(lam, mu) for sp4 as the alternating sum over its 8 Weyl elements.

    The term of sigma is the q-partition of sigma(lam + rho) - (mu + rho).
    It is zero when that weight has a negative coordinate, or an odd
    doubled one (it then lies outside the root lattice); only the other
    terms are evaluated.
    """
    mu1, mu2 = _doubled_shifted(mu)
    return QPoly.signed_sum(
        (sign, qpartition_c2(RootCoord((u - mu1) // 2, (v - mu2) // 2)))
        for sign, u, v in _doubled_orbit(*lam)
        if u >= mu1 and v >= mu2 and not (u - mu1) % 2 and not (v - mu2) % 2
    )
