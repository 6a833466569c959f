"""Kostant's partition function for g2 and its q-analog.

``qpartition`` builds the q-analog from the closed form of D·℘_q, D =
(1-q)(1-q^2)(1-q^3)(1-q^4): at most 30 coefficients per term, each a
quasi-polynomial in (m, n), and one exact division of their packed int by
D(2^w), lanes of w bits read off a bound on the coefficients, divides D out
in O(N) time. ``qpartition_bruteforce`` reads ℘_q off its definition, the
box of ``rootsys.qpartition_defined``, and ``tarski_g``/``tarski_h``/
``partition_tarski`` give Tarski's classical piecewise values at q = 1. The
three agree everywhere; the test suite holds them to that.
"""

from __future__ import annotations

import sys
from struct import Struct
from typing import Iterable, Sequence

from .errors import InternalConsistencyError
from .qpoly import QPoly, checked_int
from .rootsys import G2, RootCoord, _as_root, qpartition_defined


def qpartition_bruteforce(v: RootCoord) -> QPoly:
    """Definitional q-analog, read off the box up to v (rootsys.qpartition_defined)."""
    return qpartition_defined(G2.positive_roots, v)


# The markers of D·℘_q(m, n) for D = (1-q)(1-q^2)(1-q^3)(1-q^4), see _g2_marks.
# A wall's weights are the quasi-polynomial (a*x*x + b*x + c) // den in one
# coordinate x of (m, n): `_quasi` stores one (a, b, c) triple per marker,
# with c read off x's residue class, and the division is exact on every class.


def _quasi(den: int, quad: tuple, lin: tuple, *consts: tuple) -> tuple:
    """(den, rows): rows[r] holds the (a, b, c) of each marker for x % len(consts) == r."""
    return den, tuple(tuple(zip(quad, lin, c)) for c in consts)


# The wall at degree n: markers at n+1..n+9. x = m for m <= 2n, where for
# m > n the part in x = m - n is added, and x = 3n - m for 2n <= m <= 3n.
_N_WALL_M = _quasi(
    12,
    (-1, -1, 0, 1, 2, 1, 0, -1, -1),
    (-12, -16, -8, 4, 20, 16, 8, -4, -8),
    (-36, -72, -72, -84, -24, -24, 0, -12, -12),
    (-35, -67, -88, -65, -46, -5, -8, -7, -15),
    (-32, -72, -80, -84, -24, -24, 8, -12, -16),
    (-39, -63, -84, -69, -42, -9, -12, -3, -15),
    (-32, -76, -76, -80, -28, -20, 4, -16, -12),
    (-35, -63, -92, -69, -42, -9, -4, -3, -19),
)
_N_WALL_M_MINUS_N = _quasi(
    4,
    (1, 1, 0, -1, -2, -1, 0, 1, 1),
    (4, 4, 0, -4, -8, -4, 0, 4, 4),
    (4, 4, 8, 4, 8, 4, 8, 4, 4),
    (3, 7, 4, 9, 2, 9, 4, 7, 3),
)
_N_WALL_3N_MINUS_M = _quasi(
    12,
    (-1, -1, 0, 1, 2, 1, 0, -1, -1),
    (-12, -20, -16, -4, 16, 20, 16, 4, -4),
    (-36, -96, -132, -168, -108, -72, -12, 0, 0),
    (-35, -87, -152, -153, -126, -57, -16, 9, -7),
    (-32, -100, -136, -164, -112, -68, -8, -4, 0),
    (-39, -87, -144, -153, -126, -57, -24, 9, -3),
    (-32, -96, -140, -168, -108, -72, -4, 0, -4),
    (-35, -91, -148, -149, -130, -53, -20, 5, -3),
)
# The wall at degree m - n: markers at m-n+1..m-n+7, for m >= 3n/2; x =
# 2m - 3n up to m = 2n and x = n from there on.
_M_MINUS_N_WALL_2M_MINUS_3N = _quasi(
    2,
    (0, 0, 0, 0, 0, 0, 0),
    (-1, -1, -1, 0, 1, 1, 1),
    (-4, -10, -14, -16, -12, -8, -2),
    (-5, -7, -17, -14, -15, -5, -3),
)
_M_MINUS_N_WALL_N = _quasi(
    2,
    (0, 0, 0, 0, 0, 0, 0),
    (-1, -1, -1, 0, 1, 1, 1),
    (-2, -4, 0, 0, 6, 2, 4),
    (-3, -1, -3, 2, 3, 5, 3),
)
# The lowest degree, by m % 3: from n - m//3 for m <= 3n/2, from ceil(m/3)
# for 3n/2 <= m <= 3n; and from m - 2n for m >= 3n.
_LOW_NARROW = ((1, 2, 5, 6, 7, 4, 2), (1, 4, 5, 7, 5, 4, 1), (2, 4, 7, 6, 5, 2, 1))
_LOW_MIDDLE = ((1, 3, 9, 11, 14, 9, 6, 1), (3, 6, 12, 12, 12, 6, 3), (1, 6, 9, 14, 11, 9, 3, 1))
_LOW_WIDE = (1, 0, 1)
# The walls at degree m for m > n and at 2n - m for n < m <= 3n/2: from m+5
# and 2n-m+1.
_FLAT_WALL = (-1, -1, -2, -1, -1)


def _packed_groups(width: int) -> tuple:
    """The marker groups of _g2_marks packed at `width` bits per degree: each
    _quasi wall as (den, a, b, c by residue class), then the fixed groups."""
    def pack(values: Iterable[int]) -> int:  # Σ values[j]·2^(width·j)
        return sum(v << width * j for j, v in enumerate(values))

    def wall(den: int, rows: tuple) -> tuple:
        a, b, _ = zip(*rows[0])
        return den, pack(a), pack(b), tuple(pack(c for _, _, c in row) for row in rows)

    return (
        wall(*_N_WALL_M), wall(*_N_WALL_M_MINUS_N), wall(*_N_WALL_3N_MINUS_M),
        wall(*_M_MINUS_N_WALL_2M_MINUS_3N), wall(*_M_MINUS_N_WALL_N),
        tuple(map(pack, _LOW_NARROW)), tuple(map(pack, _LOW_MIDDLE)),
        pack(_LOW_WIDE), pack(_FLAT_WALL),
    )


# The groups at the lane widths of every sum whose coefficients fit int64.
_PACKED = {width: _packed_groups(width) for width in (32, 64)}


def _wall(wall: tuple, x: int) -> int:
    """A packed wall's weights at x, all lanes in one exact division."""
    den, a, b, cs = wall
    return (a * x * x + b * x + cs[x % len(cs)]) // den


def _g2_marks(m: int, n: int, sign: int, width: int) -> int:
    """sign times the coefficients of D·℘_q(m, n) at (m, n) >= 0, packed at
    `width` bits per degree: Σ sign·c_d·2^(width·d).

    D = (1-q)(1-q^2)(1-q^3)(1-q^4), which _g2_sum divides out again. The
    coefficient of q^d in ℘_q(m, n) counts the decompositions of (m, n)
    into d positive roots, a vector partition function of (m, n, d). On
    each chamber it is a quasi-polynomial (Sturmfels 1995, Brion-Vergne
    1997) that D annihilates in d, so D·℘_q is zero except next to the
    walls that cut the line of fixed (m, n): at most 30 coefficients in at
    most five groups. Which walls the support [lowest degree, m + n] meets
    is set by Tarski's five regions of (m, n) (see _partition_tarski), and
    next to each wall the coefficients are quasi-polynomials of degree at
    most 2 in one coordinate of (m, n). The +1 at m + n + 10 is the same
    in every region. The weights were read off the previous kernel, which
    looped over the copies of 3a1+2a2, by exact interpolation inside each
    region; the tests hold this builder to it on whole grids, on sums and
    at points that reach every region, wall and residue class. The Python
    work per term is O(1): a region test, at most three packed wall
    evaluations and five shifted groups.
    """
    groups = _PACKED.get(width) or _packed_groups(width)
    n_m, n_m_minus_n, n_3n_minus_m, mn_2m_minus_3n, mn_n, narrow, middle, wide, flat = groups
    if m <= n:  # m <= n
        low, at = narrow[m % 3], n - m // 3
        marks = _wall(n_m, m) << (n + 1) * width
    else:
        marks = flat << (m + 5) * width
        if m <= 2 * n:
            if 2 * m <= 3 * n:  # n <= m <= 3n/2
                low, at = narrow[m % 3], n - m // 3
                marks += flat << (2 * n - m + 1) * width
            else:  # 3n/2 <= m <= 2n
                low, at = middle[m % 3], -(-m // 3)
                marks += _wall(mn_2m_minus_3n, 2 * m - 3 * n) << (m - n + 1) * width
            marks += (_wall(n_m, m) + _wall(n_m_minus_n, m - n)) << (n + 1) * width
        else:
            marks += _wall(mn_n, n) << (m - n + 1) * width
            if m <= 3 * n:  # 2n <= m <= 3n
                low, at = middle[m % 3], -(-m // 3)
                marks += _wall(n_3n_minus_m, 3 * n - m) << (n + 1) * width
            else:  # 3n <= m
                low, at = wide, m - 2 * n
    return sign * (marks + (low << at * width) + (1 << (m + n + 10) * width))


def _lane_width(bound: int) -> int:
    """_g2_sum's lanes for coefficients within ±bound: 32 or 64k bits, with a sign bit to spare."""
    return 32 if bound >> 31 == 0 else 64 * (bound.bit_length() // 64 + 1)


def _g2_sum(terms: Sequence[tuple[int, tuple[int, int]]]) -> QPoly:
    """The sum of sign * qpartition((m, n)) over (sign, (m, n)) pairs with m, n >= 0.

    The terms' packed markers of D·℘_q (see _g2_marks) are added and D is
    divided out once; a degree too large for a coefficient list raises
    ValueError first. B = Σ C(min(n, m//2) + 3, 3) over the terms bounds
    every coefficient of the sum: a decomposition of (m, n) into d roots is
    fixed by d and by its numbers of 2a1+a2, 3a1+a2 and 3a1+2a2, which add
    up to at most min(n, m//2). The lanes are w = _lane_width(B) bits wide.
    Packing is Kronecker substitution q -> 2^w: the markers add up to
    D(2^w)·S for S = Σ s_i·2^(w·i), and one exact division yields S; a
    remainder means markers that D does not divide, a fault of _g2_marks,
    and raises InternalConsistencyError. With E the int with 2^(w-1) in
    each of the degree + 1 lanes, every lane of S + E lies in [0, 2^w) as
    B < 2^(w-1), none carries, and the signed lanes of (S + E) ^ E are the
    s_i. At 32 and 64 bits they fit int64 unchecked; wider lanes go through
    QPoly's range check.
    """
    if not terms:
        return QPoly()
    degree = max(m + n for _, (m, n) in terms)
    if degree + 11 > sys.maxsize:
        raise ValueError(f"degree {degree} is too large for a coefficient list")
    bound = 0
    for _, (m, n) in terms:
        k = (n if 2 * n <= m else m >> 1) + 3  # min() is a slower call here
        bound += k * (k - 1) * (k - 2) // 6
    width = _lane_width(bound)
    packed = 0
    for sign, (m, n) in terms:
        packed += _g2_marks(m, n, sign, width)
    q = 1 << width
    packed, rem = divmod(packed, (1 - q) * (1 - q**2) * (1 - q**3) * (1 - q**4))
    if rem:
        raise InternalConsistencyError(f"g2 markers up to degree {degree} are not a multiple of D")
    size = width >> 3  # bytes per lane
    ones = int.from_bytes((bytes(size - 1) + b"\x80") * (degree + 1), "little")  # E
    try:
        lanes = ((packed + ones) ^ ones).to_bytes(size * (degree + 1), "little")
    except OverflowError:  # S + E outside its lanes: markers off by a multiple of D
        raise InternalConsistencyError(f"g2 sum up to degree {degree} leaves its lanes") from None
    if width <= 64:
        lane = "i" if width == 32 else "q"
        return QPoly._from_checked(Struct(f"<{degree + 1}{lane}").unpack(lanes))
    return QPoly(int.from_bytes(lanes[i : i + size], "little", signed=True)
                 for i in range(0, len(lanes), size))


def qpartition(v: RootCoord) -> QPoly:
    """q-analog of Kostant's partition function for g2, closed form.

    The one-term _g2_sum: O(1) Python work and O(N) C-level work (one packed
    division) for N = m + n.
    """
    m, n = _as_root(v)
    if m < 0 or n < 0:
        return QPoly()
    return _g2_sum([(1, (m, n))])


def _tarski_g(k: int) -> int:
    """Tarski's g without the 64-bit check.

    The division by 432 is performed last and must be exact; a remainder
    means the polynomial data was mistranscribed.
    """
    if type(k) is not int or k < -2:  # bool is rejected too
        raise ValueError(f"tarski_g is defined for integers k >= -2, got {k!r}")
    r = k % 6
    if r == 0:
        num = (k + 6) * (k**3 + 14 * k * k + 54 * k + 72)
    elif r == 1:
        num = (k + 5) ** 2 * (k * k + 10 * k + 13)
    elif r == 2:
        num = (k + 4) * (k**3 + 16 * k * k + 74 * k + 68)
    elif r == 3:
        num = (k + 3) ** 2 * (k + 5) * (k + 9)
    elif r == 4:
        num = (k + 2) * (k + 8) * (k * k + 10 * k + 22)
    else:
        num = (k + 1) * (k + 5) * (k + 7) ** 2
    value, rem = divmod(num, 432)
    if rem:
        raise InternalConsistencyError(f"g({k}) = {num}/432 is not an integer")
    if value < 0:
        raise InternalConsistencyError(f"g({k}) = {value} is negative")
    return value


def _tarski_h(k: int) -> int:
    """Tarski's h without the 64-bit check."""
    if type(k) is not int or k < -2:  # bool is rejected too
        raise ValueError(f"tarski_h is defined for integers k >= -2, got {k!r}")
    if k % 2 == 0:
        num = (k + 2) * (k + 4) * (k * k + 6 * k + 6)
    else:
        num = (k + 1) * (k + 3) ** 2 * (k + 5)
    value, rem = divmod(num, 48)
    if rem:
        raise InternalConsistencyError(f"h({k}) = {num}/48 is not an integer")
    if value < 0:
        raise InternalConsistencyError(f"h({k}) = {value} is negative")
    return value


def tarski_g(k: int) -> int:
    """Tarski's g: the partition count in the region m <= n, by residue mod 6.

    A value outside the signed 64-bit range raises CoefficientOverflowError.
    """
    return checked_int(_tarski_g(k))


def tarski_h(k: int) -> int:
    """Tarski's h: the partition count in the region m >= 3n, by parity of k.

    A value outside the signed 64-bit range raises CoefficientOverflowError.
    """
    return checked_int(_tarski_h(k))


def _partition_tarski(m: int, n: int) -> int:
    """Tarski's count at m, n >= 0, without the 64-bit check.

    Adjacent regions overlap on their boundary lines (m = n, 2m = 3n,
    m = 2n, m = 3n) and agree there; dispatch takes the first match.
    """
    if m <= n:
        return _tarski_g(m)
    if 2 * m <= 3 * n:  # n <= m <= 3n/2
        return _tarski_g(m) - _tarski_h(m - n - 1)
    if m <= 2 * n:  # 3n/2 <= m <= 2n
        return _tarski_h(n) - _tarski_g(3 * n - m - 1) + _tarski_h(2 * n - m - 2)
    if m <= 3 * n:  # 2n <= m <= 3n
        return _tarski_h(n) - _tarski_g(3 * n - m - 1)
    return _tarski_h(n)  # 3n <= m


def partition_tarski(v: RootCoord) -> int:
    """Kostant's partition function at q = 1 via Tarski's five regions.

    Non-integer coordinates raise ValueError, and a count outside the
    signed 64-bit range raises CoefficientOverflowError.
    """
    m, n = _as_root(v)
    if m < 0 or n < 0:
        return 0
    return checked_int(_partition_tarski(m, n))
