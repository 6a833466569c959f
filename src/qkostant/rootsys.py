"""The rank-2 root-system core shared by g2 and sp4, and their records G2 and C2.

All weights live in the simple-root basis: c1*a1 + c2*a2 is the pair
(c1, c2), and a group element acts as a 2x2 integer matrix on such pairs.
A :class:`RootSystem` record holds the data that tells g2 and sp4 apart.
The Weyl group, the box of q-partitions filled from their definition (and
qpartition_defined, one entry of it), the coordinate conversions, the
nonzero Weyl-sum terms and the alternation-set terms that the closed
formulas read are written once against it. An
:class:`Algebra` record adds the algebra's partition kernel, case builder
and q = 1 count; the closed q route, the Weyl sum, the case and the integer
route are written once against that.
"""

from __future__ import annotations

import collections
from functools import cache
from struct import Struct
from typing import Callable, Iterator, NamedTuple

from .errors import InternalConsistencyError
from .qpoly import QPoly, checked_int

Mat = tuple[tuple[int, int], tuple[int, int]]

IDENTITY: Mat = ((1, 0), (0, 1))


def mat_mul(a: Mat, b: Mat) -> Mat:
    (a11, a12), (a21, a22) = a
    (b11, b12), (b21, b22) = b
    return (
        (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22),
        (a21 * b11 + a22 * b21, a21 * b12 + a22 * b22),
    )


def mat_det(a: Mat) -> int:
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


# Builds a named tuple from a tuple of its fields in one C call, skipping the
# Python-level __new__ of typing.NamedTuple; the sweeps' per-point code uses it.
_new_tuple = tuple.__new__

_ZERO = QPoly()  # what a sum of no terms returns; a QPoly is immutable


class RootCoord(NamedTuple):
    """A weight in the simple-root basis; either coordinate may be negative."""

    c1: int
    c2: int


class FundCoord(collections.namedtuple("FundCoord", ("m", "n"))):
    """A dominant weight m*w1 + n*w2 in the fundamental-weight basis.

    Dominance is part of the type: non-integer and negative coordinates are
    rejected, so a FundCoord always names a genuine highest weight.
    """

    __slots__ = ()

    def __new__(cls, m: int, n: int) -> "FundCoord":
        if type(m) is not int or type(n) is not int:  # bool is rejected too
            raise ValueError(f"fundamental coordinates must be integers, got ({m!r}, {n!r})")
        if m < 0 or n < 0:
            raise ValueError(f"fundamental coordinates must be nonnegative, got ({m}, {n})")
        return super().__new__(cls, m, n)


class RootSystem(NamedTuple):
    """The data of one rank-2 algebra, in the simple-root basis.

    ``positive_roots`` lists a1, a2 first and the other roots lowest to
    highest. ``s1`` and ``s2`` are the simple reflections, their columns the
    images of a1 and a2. ``two_w1`` and ``two_w2`` are the fundamental
    weights doubled, which keeps sp4's half-integral weights integral.
    ``alternation`` names the terms of the closed formulas by Weyl word:
    no other element shifts a dominant pair into the positive cone.
    A record compares and hashes by identity, so a cache keyed on one never
    hashes its fields.
    """

    name: str
    positive_roots: tuple[RootCoord, ...]
    s1: Mat
    s2: Mat
    two_w1: tuple[int, int]
    two_w2: tuple[int, int]
    alternation: tuple[tuple[str, str], ...]  # (term name, Weyl word)

    __hash__ = object.__hash__

    # Both answer outright: object.__eq__ would decline against a plain
    # tuple, and the reflected tuple.__eq__ would then compare fields.
    def __eq__(self, other: object) -> bool:
        return self is other

    def __ne__(self, other: object) -> bool:
        return self is not other


G2 = RootSystem(
    name="g2",
    positive_roots=(
        RootCoord(1, 0),
        RootCoord(0, 1),
        RootCoord(1, 1),
        RootCoord(2, 1),
        RootCoord(3, 1),
        RootCoord(3, 2),
    ),
    # s1: a1 -> -a1, a2 -> 3a1 + a2;  s2: a1 -> a1 + a2, a2 -> -a2.
    s1=((-1, 3), (0, 1)),
    s2=((1, 0), (1, -1)),
    two_w1=(4, 2),  # w1 = 2a1 + a2
    two_w2=(6, 4),  # w2 = 3a1 + 2a2
    alternation=(("P", "1"), ("Q", "s1"), ("R", "s2"), ("S", "s2s1"), ("T", "s1s2")),
)

C2 = RootSystem(
    name="c2",
    positive_roots=(RootCoord(1, 0), RootCoord(0, 1), RootCoord(1, 1), RootCoord(2, 1)),
    # s1: a1 -> -a1, a2 -> 2a1 + a2;  s2: a1 -> a1 + a2, a2 -> -a2.
    s1=((-1, 2), (0, 1)),
    s2=((1, 0), (1, -1)),
    two_w1=(2, 1),  # w1 = a1 + a2/2
    two_w2=(2, 2),  # w2 = a1 + a2
    alternation=(("P", "1"), ("Q", "s1"), ("R", "s2")),
)

def doubled(rs: RootSystem, w: tuple[int, int]) -> tuple[int, int]:
    """2 * (m*w1 + n*w2) in root coordinates, for w = (m, n)."""
    m, n = w
    (p, r), (q, s) = rs.two_w1, rs.two_w2
    return (p * m + q * n, r * m + s * n)


def _as_fund(w: tuple[int, int]) -> FundCoord:
    """w as a FundCoord; anything but a pair of nonnegative integers raises ValueError."""
    if type(w) is FundCoord:
        return w
    try:
        m, n = w
    except (TypeError, ValueError):
        raise ValueError(f"a weight must be an (m, n) pair, got {w!r}") from None
    return FundCoord(m, n)


def _as_root(v: tuple[int, int]) -> tuple[int, int]:
    """v as two ints, negative ones included; anything but a pair of integers raises ValueError."""
    try:
        c1, c2 = v
    except (TypeError, ValueError):
        raise ValueError(f"a root-basis weight must be a (c1, c2) pair, got {v!r}") from None
    if type(c1) is not int or type(c2) is not int:  # bool is rejected too
        raise ValueError(f"root coordinates must be integers, got {(c1, c2)!r}")
    return c1, c2


def to_root(rs: RootSystem, w: tuple[int, int]) -> RootCoord | None:
    """Root coordinates of m*w1 + n*w2, or None off the root lattice.

    Only sp4 has such weights: odd m gives a half-integral a2-coordinate,
    where the partition count is zero by definition. A w that is not a
    dominant weight raises ValueError.
    """
    u, v = doubled(rs, _as_fund(w))
    if u % 2 or v % 2:
        return None
    return RootCoord(u // 2, v // 2)


def to_fund(rs: RootSystem, v: RootCoord) -> FundCoord:
    """Fundamental coordinates of a root-lattice weight.

    Raises ValueError, naming v and its fundamental coordinates, when the
    weight is not dominant; the solve itself is always exact because the
    root lattice sits inside the weight lattice.
    """
    c1, c2 = _as_root(v)
    (p, r), (q, s) = rs.two_w1, rs.two_w2
    det = p * s - q * r
    m_num = 2 * (s * c1 - q * c2)
    n_num = 2 * (p * c2 - r * c1)
    if m_num % det or n_num % det:
        raise InternalConsistencyError(f"non-integral fundamental coordinates for {(c1, c2)}")
    m, n = m_num // det, n_num // det
    if m < 0 or n < 0:
        raise ValueError(
            f"root-basis weight ({c1}, {c2}) is not dominant: its fundamental"
            f" coordinates ({m}, {n}) must be nonnegative"
        )
    return FundCoord(m, n)


class WeylElement(NamedTuple):
    """One Weyl group element: reduced word, length, and root-basis matrix.

    The word reads right to left, so "s2s1" applies s1 first and s2 second.
    """

    word: str
    length: int
    matrix: Mat

    @property
    def sign(self) -> int:
        return -1 if self.length % 2 else 1

    def apply(self, v: RootCoord) -> RootCoord:
        (p, q), (r, s) = self.matrix
        return RootCoord(p * v.c1 + q * v.c2, r * v.c1 + s * v.c2)


def _word(letters: tuple[int, ...]) -> str:
    """Name of a reduced word: "1", "s2s1", "s1s2s1", "(s1s2)^2", "s1(s2s1)^2"."""
    if not letters:
        return "1"
    pairs, odd = divmod(len(letters), 2)
    if pairs < 2:
        return "".join(f"s{letter}" for letter in letters)
    head = f"s{letters[0]}" if odd else ""
    return f"{head}(s{letters[odd]}s{letters[odd + 1]})^{pairs}"


@cache
def weyl_elements(rs: RootSystem) -> tuple[WeylElement, ...]:
    """The Weyl group of rs in length order, grown from the simple reflections.

    A breadth-first closure that multiplies on the right reaches each
    element first through a reduced word, whose letters name the factors
    left to right. The group of a rank-2 root system has twice as many
    elements as positive roots; that order and det = (-1)^length are checked.
    """
    words: dict[Mat, tuple[int, ...]] = {IDENTITY: ()}
    queue = [IDENTITY]
    for matrix in queue:  # the loop also visits the elements appended below
        for letter, generator in ((1, rs.s1), (2, rs.s2)):
            product = mat_mul(matrix, generator)
            if product not in words:
                words[product] = words[matrix] + (letter,)
                queue.append(product)
    elements = tuple(WeylElement(_word(w), len(w), m) for m, w in words.items())
    if len(elements) != 2 * len(rs.positive_roots):
        raise InternalConsistencyError(
            f"{rs.name} Weyl group has order {len(elements)}, not {2 * len(rs.positive_roots)}"
        )
    for elem in elements:
        if mat_det(elem.matrix) != elem.sign:
            raise InternalConsistencyError(f"det of {rs.name} {elem.word} is not (-1)^length")
    return elements


def weyl_group() -> tuple[WeylElement, ...]:
    """All 12 elements of the g2 Weyl group in length order."""
    return weyl_elements(G2)


# The most bytes of 64-bit lanes a QPartitionBox may hold: 8 * sum(c1 + c2 + 1)
# over the box, about 0.6 MB for a g2 sweep of --max 10 and 248 MB for --max 80.
BOX_BYTE_BUDGET = 1 << 28


class QPartitionBox:
    """℘_q(c1, c2) at every 0 <= c1 <= top1, 0 <= c2 <= top2, from its definition alone.

    ℘_q(v) is the coefficient of x^v in the product over the positive roots
    α of 1/(1 - q·x^α). Multiplying a series by one factor is one ascending
    pass P[v] += q·P[v - α] over the box (the unbounded-knapsack recurrence),
    so one pass per root, started from P[0] = 1, fills the whole box. The box
    reads nothing but ``roots``: it shares no code with the kernels or the
    Weyl sums. Each polynomial is one Python int with one 64-bit lane per
    coefficient (Kronecker packing), so q· is a shift by 64 bits, and a sum
    of L lanes is decoded by one little-endian struct unpack. A first
    pass at q = 1 fills the counts ℘(c1, c2), which the box keeps beside the
    polynomials, and one signed loop sums either: term_sum and box[v] the
    polynomials, sum_at_one the counts.

    A box past BOX_BYTE_BUDGET (so also one of more than sys.maxsize points)
    raises ValueError before anything is allocated. The counts bound every
    coefficient, and a box with a count of at least 2^63 / (2 * len(roots))
    raises ValueError: a rank-2 Weyl group has 2 * len(roots) elements, so a
    signed sum of one entry per element keeps every coefficient inside
    (-2^63, 2^63) (see term_sum).
    """

    def __init__(self, roots, top1: int, top2: int) -> None:
        if top1 < 0 or top2 < 0:
            raise ValueError(f"a box needs nonnegative bounds, got ({top1}, {top2})")
        cells = (top1 + 1) * (top2 + 1)
        lane_bytes = 8 * ((top2 + 1) * top1 * (top1 + 1) // 2
                          + (top1 + 1) * top2 * (top2 + 1) // 2 + cells)
        if lane_bytes > BOX_BYTE_BUDGET:
            raise ValueError(
                f"a partition box up to ({top1}, {top2}) needs {lane_bytes} bytes,"
                f" more than the budget of {BOX_BYTE_BUDGET}"
            )
        order = 2 * len(roots)  # of the Weyl group
        self._counts = self._fill(roots, top1, top2, 0)
        if max(map(max, self._counts)) * order >> 63:
            raise ValueError(
                f"a count of the box up to ({top1}, {top2}) times {order} Weyl terms"
                " does not fit a signed 64-bit lane"
            )
        self._rows = self._fill(roots, top1, top2, 64)
        # 2^63 in each lane of the widest entry, ℘_q(top1, top2), and so of any sum.
        self._bias = int.from_bytes(b"\0\0\0\0\0\0\0\x80" * (top1 + top2 + 1), "little")
        # The decoder of a sum of L lanes, L = 0 ... top1 + top2 + 1.
        self._unpack = [Struct(f"<{lanes}q").unpack for lanes in range(top1 + top2 + 2)]

    @staticmethod
    def _fill(roots, top1: int, top2: int, shift: int) -> list[list[int]]:
        """One ascending pass per root: rows[c1][c2] += q·rows[c1 - a1][c2 - a2]."""
        rows = [[0] * (top2 + 1) for _ in range(top1 + 1)]
        rows[0][0] = 1
        for a1, a2 in roots:
            for c1 in range(a1, top1 + 1):
                row, back = rows[c1], rows[c1 - a1]
                for c2 in range(a2, top2 + 1):
                    row[c2] += back[c2 - a2] << shift
        return rows

    def __getitem__(self, v: tuple[int, int]) -> QPoly:
        return self.term_sum([(1, v)])

    @staticmethod
    def _signed(terms, table: list[list[int]]) -> int:
        """Σ sign·table[c1][c2] over (sign, (c1, c2)) terms; a sign other than 1 or -1,
        or a term outside the box, raises ValueError. Over the q-lane rows this is the
        packed sum Σ s_i·2^(64i), s_i the sum's true coefficients: packing is linear."""
        total = 0
        try:
            for sign, (c1, c2) in terms:
                if c1 | c2 < 0:  # a negative index would read a row from its far end
                    raise IndexError
                if sign == 1:
                    total += table[c1][c2]
                elif sign == -1:
                    total -= table[c1][c2]
                else:
                    raise ValueError(f"sign must be 1 or -1, got {sign!r}")
        except IndexError:
            raise ValueError(f"the term {(sign, (c1, c2))} lies outside the box up to"
                             f" ({len(table) - 1}, {len(table[0]) - 1})") from None
        return total

    def term_sum(self, terms) -> QPoly:
        """Σ sign·℘_q(v) over (sign, (c1, c2)) terms inside the box, at most one per
        Weyl element, each sign 1 or -1; no terms give the zero polynomial at once.

        The box bounds every count, so each s_i of the packed sum S lies in
        (-2^63, 2^63). With B the int that holds 2^63 in each lane of the box,
        every lane of S + B lies in (0, 2^64): no lane carries, and the lanes of
        (S + B) ^ B are the s_i as signed 64-bit ints. Its lanes past the top
        nonzero s_i are zero, so its L lanes up to its bit length, read as
        little-endian int64s in one unpack, are the coefficients, which need no
        range check. Other terms raise ValueError.
        """
        if not terms:
            return _ZERO
        bias = self._bias
        packed = (self._signed(terms, self._rows) + bias) ^ bias
        lanes = (packed.bit_length() + 63) >> 6
        return QPoly._from_checked(self._unpack[lanes](packed.to_bytes(8 * lanes, "little")))

    def sum_at_one(self, terms) -> int:
        """Σ sign·℘(v) at q = 1 over (sign, (c1, c2)) terms inside the box, each
        sign 1 or -1; only the total is range-checked. Other terms raise ValueError."""
        return checked_int(self._signed(terms, self._counts))


def qpartition_defined(roots, v: tuple[int, int]) -> QPoly:
    """℘_q(v) by its definition: the entry at v of the box up to v over roots.

    A v off the positive cone gives the zero polynomial. A v that is not a
    pair of integers, and one whose box passes BOX_BYTE_BUDGET (near (400,
    240) for g2), raise ValueError, the latter before anything is allocated.
    """
    c1, c2 = _as_root(v)
    if c1 < 0 or c2 < 0:
        return QPoly()
    return QPartitionBox(roots, c1, c2)[c1, c2]


@cache
def _orbit_order(rs: RootSystem) -> tuple[WeylElement, ...]:
    """The Weyl elements of rs: those of rs.alternation first, in its order."""
    by_word = {elem.word: elem for elem in weyl_elements(rs)}
    first = [by_word.pop(word) for _, word in rs.alternation]
    return (*first, *by_word.values())


def shifted_orbit(rs: RootSystem, m: int, n: int) -> tuple[tuple[int, int, int], ...]:
    """(sign, u, v) of sigma(2 * (lam + rho)) for every Weyl element sigma.

    Doubled root coordinates, lam = m*w1 + n*w2 and rho = w1 + w2. The
    orbit depends on lam alone, so grid_points computes it once per lam,
    not once per (lam, mu), and no call keeps it for the next: its 8 or 12
    matrix products take a few microseconds. rs.alternation comes first.
    """
    u, v = doubled(rs, (m + 1, n + 1))
    orbit = []
    for elem in _orbit_order(rs):
        (p, q), (r, s) = elem.matrix
        orbit.append((elem.sign, p * u + q * v, r * u + s * v))
    return tuple(orbit)


def _alternation_row(rs: RootSystem, orbit: tuple) -> list:
    """(name, sign, u, v) of each term of rs.alternation, off orbit = shifted_orbit of lam."""
    return [(name, sign, u, v) for (name, _), (sign, u, v) in zip(rs.alternation, orbit)]


def _point(rs: RootSystem, lam: tuple[int, int], mu: tuple[int, int]) -> tuple:
    """(lam, mu, orbit, mu_shift) of one pair: orbit is shifted_orbit of lam and
    mu_shift = 2 * (mu + rho) in root coordinates, as grid_points yields them.

    A non-dominant lam or mu raises ValueError, lam first.
    """
    lam, mu = _as_fund(lam), _as_fund(mu)
    return lam, mu, shifted_orbit(rs, lam.m, lam.n), doubled(rs, (mu.m + 1, mu.n + 1))


def grid_points(rs: RootSystem, top: int) -> Iterator[tuple]:
    """(lam, mu, row, orbit, mu_shift) at every (lam, mu) of [0, top]^4, in lexicographic order.

    lam and mu are FundCoords, orbit is shifted_orbit of lam, row zips its
    first len(rs.alternation) elements with their names as (name, sign, u, v),
    and mu_shift = 2 * (mu + rho) in root coordinates: the arguments of the
    *_at cores. Each weight is validated once, each lam's orbit is looked up
    and its row zipped once, and each mu's shift is computed once per call,
    not once per point.
    """
    weights = [FundCoord(m, n) for m in range(top + 1) for n in range(top + 1)]
    mus = [(mu, doubled(rs, (mu.m + 1, mu.n + 1))) for mu in weights]
    for lam in weights:
        orbit = shifted_orbit(rs, lam.m, lam.n)
        row = _alternation_row(rs, orbit)
        for mu, mu_shift in mus:
            yield lam, mu, row, orbit, mu_shift


def alternation_terms_at(row: list, mu_shift: tuple[int, int]) -> tuple:
    """alternation_terms of the lam of row (see grid_points) and the mu of mu_shift."""
    mu1, mu2 = mu_shift
    shifts = []
    label = ""
    terms = []
    for name, sign, u, v in row:
        u -= mu1
        v -= mu2
        shifts.append((sign, u, v))
        if u >= 0 and v >= 0 and not (u | v) & 1:
            label += name
            terms.append((sign, _new_tuple(RootCoord, (u >> 1, v >> 1))))
    return shifts, label or "ZERO", terms


def alternation_terms(rs: RootSystem, lam: tuple[int, int], mu: tuple[int, int]) -> tuple:
    """(shifts, label, terms) of the alternation set of (lam, mu), off lam's shifted orbit.

    shifts holds (sign, u, v) for each term of rs.alternation, in order: the
    sign is (-1)^length(sigma) and (u, v) = 2 * (sigma(lam + rho) - (mu + rho))
    in root coordinates. A term contributes exactly when its shifted weight
    lies on the positive cone and the root lattice, that is when u and v are
    nonnegative and even, as in weyl_terms. label spells the contributing
    names in order, or is "ZERO"; terms holds (sign, RootCoord) of each, as
    term_sum takes them, so the name of terms[i] is label[i]. A non-dominant
    lam or mu raises ValueError.
    """
    _, _, orbit, mu_shift = _point(rs, lam, mu)
    return alternation_terms_at(_alternation_row(rs, orbit), mu_shift)


def weyl_terms_at(orbit: tuple, mu_shift: tuple[int, int]) -> list:
    """weyl_terms of the lam whose shifted_orbit is orbit and the mu of mu_shift."""
    mu1, mu2 = mu_shift
    return [
        (sign, _new_tuple(RootCoord, ((u - mu1) >> 1, (v - mu2) >> 1)))
        for sign, u, v in orbit
        if u >= mu1 and v >= mu2 and not (u - mu1) % 2 and not (v - mu2) % 2
    ]


def weyl_terms(rs: RootSystem, lam: tuple[int, int], mu: tuple[int, int]) -> list:
    """(sign, sigma(lam + rho) - (mu + rho)) of each nonzero term of the Weyl sum.

    The q-partition of that weight is zero when it has a negative coordinate
    or an odd doubled one (off the root lattice, for sp4 only), so only the
    other elements sigma are listed, with sign (-1)^length(sigma). lam and mu
    are (m, n) pairs in the fundamental basis; a non-dominant one raises ValueError.
    """
    _, _, orbit, mu_shift = _point(rs, lam, mu)
    return weyl_terms_at(orbit, mu_shift)


class MultiplicityResult(NamedTuple):
    """One closed q-route evaluation of either algebra: its case record, and in
    terms (sign, RootCoord) of each term, whose q-partition it sums; the case
    label spells the terms' names in order."""

    lam: FundCoord
    mu: FundCoord
    case: tuple
    terms: tuple[tuple[int, RootCoord], ...]
    mq: QPoly
    m_at_one: int


class Algebra(NamedTuple):
    """What the shared routes need from one algebra besides its root system.

    ``term_sum`` maps (sign, RootCoord) pairs with nonnegative coordinates,
    each sign 1 or -1 (the box raises ValueError for any other; the kernels
    do not check), to the signed sum of their q-partitions. ``case_data``
    builds the case record from alternation_terms' shifts and label.
    ``count`` is the exact partition count at q = 1 of one term (m, n) >= 0,
    with no 64-bit check.
    """

    rs: RootSystem
    term_sum: Callable[[list], QPoly]
    case_data: Callable[[list, str], tuple]
    count: Callable[[int, int], int]


def count_sum(alg: Algebra, terms) -> int:
    """The signed sum of alg.count over (sign, RootCoord) terms: m(lam, mu) at q = 1.

    Only the exact total is range-checked, so a term outside the signed 64-bit
    range is fine when the multiplicity is not. A negative total raises
    InternalConsistencyError.
    """
    count = alg.count
    value = 0
    for sign, (m, n) in terms:  # a plain loop: sum() over a generator is slower here
        value += sign * count(m, n)
    if value < 0:
        raise InternalConsistencyError(f"negative multiplicity {value} from the terms {terms}")
    return checked_int(value)


def closed_mq(alg: Algebra, lam: FundCoord, mu: FundCoord, terms) -> QPoly:
    """m_q(lam, mu), alg.term_sum of its alternation terms, even where its value at q = 1
    leaves 64 bits; a negative coefficient raises InternalConsistencyError."""
    mq = alg.term_sum(terms)
    if mq.coeffs and min(mq.coeffs) < 0:
        raise InternalConsistencyError(f"negative coefficient in m_q({lam}, {mu}) = {mq!r}")
    return mq


def closed_at(alg: Algebra, lam: FundCoord, mu: FundCoord, row: list,
              mu_shift: tuple[int, int]) -> MultiplicityResult:
    """closed at one point (lam, mu, row, mu_shift) of grid_points: the per-point
    core of table and verify. A point with no alternation term sums nothing."""
    shifts, label, terms = alternation_terms_at(row, mu_shift)
    if not terms:
        data = (lam, mu, alg.case_data(shifts, label), (), _ZERO, 0)
        return _new_tuple(MultiplicityResult, data)
    mq = closed_mq(alg, lam, mu, terms)
    data = (lam, mu, alg.case_data(shifts, label), tuple(terms), mq, mq.eval_at_one())
    return _new_tuple(MultiplicityResult, data)


def closed(alg: Algebra, lam: tuple[int, int], mu: tuple[int, int]) -> MultiplicityResult:
    """m_q(lam, mu) as the term_sum of the alternation terms its case combines.

    A negative coefficient raises InternalConsistencyError.
    """
    lam, mu, orbit, mu_shift = _point(alg.rs, lam, mu)
    return closed_at(alg, lam, mu, _alternation_row(alg.rs, orbit), mu_shift)


def weyl_sum(alg: Algebra, lam: tuple[int, int], mu: tuple[int, int]) -> QPoly:
    """m_q(lam, mu) as the alternating sum over the whole Weyl group (weyl_terms)."""
    return alg.term_sum(weyl_terms(alg.rs, lam, mu))


def case(alg: Algebra, lam: tuple[int, int], mu: tuple[int, int]) -> tuple:
    """The case record of (lam, mu), read off the alternation set."""
    shifts, label, *_ = alternation_terms(alg.rs, lam, mu)
    return alg.case_data(shifts, label)
