"""The rank-2 root-system core shared by g2 and sp4, and their records G2 and C2.

All weights live in the simple-root basis: c1*a1 + c2*a2 is the pair
(c1, c2), and a group element acts as a 2x2 integer matrix on such pairs.
A :class:`RootSystem` record holds the data that tells g2 and sp4 apart.
The Weyl group, the box of q-partitions filled from their definition (and
qpartition_defined, one entry of it), the coordinate conversions, the
nonzero Weyl-sum terms, the alternation-set terms that the closed
formulas read and the row core of the sweeps (grid_rows) are written once
against it. An
:class:`Algebra` record adds the algebra's partition kernel, case builder
and q = 1 count; the closed q route, the Weyl sum, the case and the integer
route are written once against that.
"""

from __future__ import annotations

import collections
from functools import cache
from itertools import islice, repeat
from math import gcd
from operator import getitem
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

    The coordinates are read off the reflections: s_i(v) = v - <v, a_i^v>a_i,
    so m = c1 - s1(v)_1 and n = c2 - s2(v)_2. Raises ValueError, naming v
    and its fundamental coordinates, when the weight is not dominant.
    """
    c1, c2 = _as_root(v)
    ((p1, q1), _), (_, (p2, q2)) = rs.s1, rs.s2
    m, n = c1 - (p1 * c1 + q1 * c2), c2 - (p2 * c1 + q2 * c2)
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


# The most bytes a QPartitionBox may hold: (4 * (top1 + top2 + 1) + 8) per point, a
# slot of 32-bit lanes and a 64-bit count (twice the lane bytes where the counts need
# 64-bit lanes), about 0.5 MB for a g2 sweep of --max 10 and 268 MB for --max 82.
BOX_BYTE_BUDGET = 1 << 28


class QPartitionBox:
    """℘_q(c1, c2) at every 0 <= c1 <= top1, 0 <= c2 <= top2, from its definition alone.

    ℘_q(v) is the coefficient of x^v in the product over the positive roots
    α of 1/(1 - q·x^α). Multiplying a series by one factor is one ascending
    pass P[v] += q·P[v - α] over the box (the unbounded-knapsack recurrence),
    so one pass per root, started from P[0] = 1, fills the whole box. The box
    reads nothing but ``roots``: it shares no code with the kernels or the
    Weyl sums. A first pass at q = 1 fills the counts ℘(c1, c2).

    The box keeps its entries on the lines of direction ``step``: each line
    is one Python int that holds its points highest first, one slot per
    point (Kronecker packing). A count takes a 64-bit slot; a polynomial a
    slot of top1 + top2 + 1 lanes, one per coefficient, of 32 bits when the
    largest count times the Weyl group's order 2 * len(roots) is below 2^31
    and of 64 bits otherwise. So q· is a shift by one lane, the entries of
    v, v - step, v - 2 step, ... are the line of v shifted right to v's slot,
    and one signed loop, _Lines.signed, serves term_sum and box[v] (``polys``,
    read one slot at a time), sum_at_one (``counts``, likewise) and the rows of
    both (their run(k), k slots at a time): the sweeps read a row of tuples at once.

    Bounds that are not nonnegative ints (bool included), roots that are not
    an iterable of pairs of nonnegative ints other than (0, 0), a step that
    is not a pair of coprime positive ints, and a box past BOX_BYTE_BUDGET (so also
    one of more than sys.maxsize points) raise ValueError before anything is
    allocated. The counts bound every coefficient, and a box with a count of
    at least 2^63 / (2 * len(roots)) raises ValueError: a rank-2 Weyl group
    has 2 * len(roots) elements, so a signed sum of one entry per element
    keeps every coefficient inside the signed range of a lane (see term_sum,
    which refuses more terms).
    """

    def __init__(self, roots, top1: int, top2: int, step: tuple[int, int] = (1, 1)) -> None:
        if type(top1) is not int or type(top2) is not int or top1 < 0 or top2 < 0:
            raise ValueError(f"a box needs nonnegative bounds of type int, got {(top1, top2)!r}")
        try:
            roots = tuple(map(_as_root, roots))
        except TypeError:
            raise ValueError(f"box roots must be an iterable of pairs, got {roots!r}") from None
        if any(a1 < 0 or a2 < 0 or a1 == a2 == 0 for a1, a2 in roots):
            raise ValueError(f"box roots must be nonzero nonnegative pairs, got {roots}")
        a, b = _as_root(step)
        if a <= 0 or b <= 0 or gcd(a, b) != 1:  # so b*c1 - a*c2 tells the lines apart
            raise ValueError(f"a box step must be a pair of coprime positive ints, got {step!r}")
        lanes = top1 + top2 + 1  # of a polynomial slot: the degree of ℘_q(top1, top2), plus one
        self._check_budget(top1, top2, 4 * lanes + 8)
        order = 2 * len(roots)  # of the Weyl group
        counts = self._fill(roots, top1, top2, 0)
        peak = max(map(max, counts)) * order
        if peak >> 63:
            raise ValueError(
                f"a count of the box up to ({top1}, {top2}) times {order} Weyl terms"
                " does not fit a signed 64-bit lane"
            )
        width = 32 if peak < 1 << 31 else 64
        if width == 64:
            self._check_budget(top1, top2, 8 * lanes + 8)
        self._top, self._step, self._order = (top1, top2), (a, b), order
        self.counts = _Lines(self._pack(counts, 64), 64, 1, self._top, self._step)
        polys = self._pack(self._fill(roots, top1, top2, width), width * lanes)
        self.polys = _Lines(polys, width, lanes, self._top, self._step)

    @staticmethod
    def _check_budget(top1: int, top2: int, point_bytes: int) -> None:
        need = (top1 + 1) * (top2 + 1) * point_bytes
        if need > BOX_BYTE_BUDGET:
            raise ValueError(
                f"a partition box up to ({top1}, {top2}) needs {need} bytes,"
                f" more than the budget of {BOX_BYTE_BUDGET}"
            )

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

    def _pack(self, rows: list[list[int]], slot_bits: int) -> list[int]:
        """One int per line of direction step, its points highest first, slot_bits
        apiece; the line of (c1, c2) is number b*c1 - a*c2 + a*top2. A line's points
        lie in its top's row of rows and below, so the rows are packed from the top
        down, one line at a time in C, and each row is dropped once its lines are:
        the box is not held twice. A row whose every point is a line of one slot
        (each point of qpartition_defined's box) is taken as it is."""
        (top1, top2), (a, b) = self._top, self._step
        size = slot_bits >> 3
        lines = [0] * (b * top1 + a * top2 + 1)
        for c1 in range(top1, -1, -1):
            if c1 < a and c1 + a > top1:  # each point of the row is a line of one slot
                lines[b * c1:b * c1 + a * top2 + 1:a] = reversed(rows[c1])
                continue
            # The highest points of their lines: a row at the right edge, or the top.
            for c2 in range(top2 + 1) if c1 + a > top1 else range(max(0, top2 + 1 - b), top2 + 1):
                points = min(c1 // a, c2 // b) + 1
                entries = map(getitem, map(rows.__getitem__, range(c1, c1 - points * a, -a)),
                              range(c2, c2 - points * b, -b))
                packed = b"".join(map(int.to_bytes, entries, repeat(size), repeat("little")))
                lines[b * c1 - a * c2 + a * top2] = int.from_bytes(packed, "little")
            rows[c1] = None
        return lines

    def __getitem__(self, v: tuple[int, int]) -> QPoly:
        return self.term_sum([(1, v)])

    def term_sum(self, terms) -> QPoly:
        """Σ sign·℘_q(v) over (sign, (c1, c2)) terms inside the box, at most one per
        Weyl element, each sign 1 or -1; no terms give the zero polynomial at once.

        The box bounds every count, so each s_i of the packed sum S lies in
        (-2^(w-1), 2^(w-1)) for its lane width w. With B the int that holds
        2^(w-1) in each lane of a slot, every lane of the first slot of S + B lies
        in (0, 2^w): no lane carries, and the lanes of the slot of S + B, xor B,
        are the s_i as signed w-bit ints. Its lanes past the top nonzero s_i are
        zero, so its lanes up to its bit length, read as little-endian ints in
        one unpack, are the coefficients, which need no range check. More terms
        than the Weyl group has elements, counted as they are read, terms that
        are not an iterable, and other terms raise ValueError.
        """
        terms = list(islice(_iter_terms(terms), self._order + 1))  # one past the bound at most
        if not terms:
            return _ZERO
        if len(terms) > self._order:
            raise ValueError(f"a term sum of the box takes at most {self._order} terms,"
                             " one per Weyl element")
        polys = self.polys
        row = polys.row(terms)
        lanes = -(-(row ^ polys.bias).bit_length() // polys.lane_bits)
        [coeffs] = polys.decode(row, [lanes])
        return QPoly._from_checked(coeffs)

    def sum_at_one(self, terms) -> int:
        """Σ sign·℘(v) at q = 1 over (sign, (c1, c2)) terms inside the box, each
        sign 1 or -1; only the total is range-checked. Other terms, and terms that
        are not an iterable, raise ValueError."""
        counts = self.counts
        return checked_int(counts.signed(list(_iter_terms(terms)), counts.mask))


def _iter_terms(terms) -> Iterator:
    """iter(terms), checked once per call: anything but an iterable raises ValueError."""
    try:
        return iter(terms)
    except TypeError:
        raise ValueError(f"terms must be an iterable of (sign, (c1, c2)) pairs,"
                         f" got {terms!r}") from None


class _Lines:
    """One kind of a box's entries on its lines, read ``slots`` slots at a time:
    ``ints`` holds one int per line of direction ``step`` in the box up to ``top``,
    a slot of ``lanes`` lanes of ``lane_bits`` bits per point, highest point first.
    ``bias`` holds 2^(w-1) in each lane of the slots read and ``mask`` all their
    bits. A box's ``polys`` and ``counts`` read one slot, and a sweep its run(k)."""

    __slots__ = ("ints", "lane_bits", "lanes", "slot_bits", "bias", "mask", "_top", "_step",
                 "_structs", "_bytes", "_offsets")

    def __init__(self, ints: list[int], lane_bits: int, lanes: int, top: tuple[int, int],
                 step: tuple[int, int], slots: int = 1, structs: list | None = None) -> None:
        self.ints, self.lane_bits, self.lanes = ints, lane_bits, lanes
        self._top, self._step, self.slot_bits = top, step, lane_bits * lanes
        code, size = "i" if lane_bits == 32 else "q", self.slot_bits >> 3
        # The decoder of 0 ... lanes lanes, made once per box.
        self._structs = structs or [Struct(f"<{count}{code}") for count in range(lanes + 1)]
        lane = (1 << lane_bits - 1).to_bytes(lane_bits >> 3, "little")
        self.bias = int.from_bytes(lane * (lanes * slots), "little")
        self.mask = (1 << self.slot_bits * slots) - 1
        self._bytes, self._offsets = slots * size, range(0, slots * size, size)

    def run(self, slots: int) -> "_Lines":
        """These lines read slots slots at a time, as a sweep row reads them; one per command."""
        return _Lines(self.ints, self.lane_bits, self.lanes, self._top, self._step, slots,
                      self._structs)

    def signed(self, terms, mask: int = 0) -> int:
        """Σ sign·(the line of v shifted right to v's slot) over a list of (sign,
        (c1, c2)) terms, each run cut to its first slot by mask when mask is given;
        a term outside the box, of a sign other than 1 or -1, or not a sign and a
        pair of ints raises ValueError that names it. Slot y of the sum is Σ
        sign·entry(v - y·step): past a line's end, where its points leave the box,
        a run is zero. Packing is linear, so each lane of a slot holds the true
        signed sum of its coefficients, but for the borrows of the lanes below it."""
        (top1, top2), (a, b) = self._top, self._step
        lines, width, offset = self.ints, self.slot_bits, a * top2
        total = 0
        try:
            for term in terms:
                sign, (c1, c2) = term
                if c1 | c2 < 0:  # a negative index would read a line from its far end
                    raise IndexError
                up, high = (top1 - c1) // a, (top2 - c2) // b  # slots above v on its line
                if high < up:
                    up = high
                if up < 0:
                    raise IndexError
                run = lines[b * c1 - a * c2 + offset] >> up * width
                if mask:
                    run &= mask
                if sign == 1:
                    total += run
                elif sign == -1:
                    total -= run
                else:
                    break
            else:
                return total
        except IndexError:
            raise ValueError(f"the term {(sign, (c1, c2))} lies outside the box up to"
                             f" ({top1}, {top2})") from None
        except (TypeError, ValueError):  # not a pair, or a coordinate that is not an int
            raise ValueError(f"a term must be (sign, (c1, c2)) with int coordinates,"
                             f" got {term!r}") from None
        raise ValueError(f"sign must be 1 or -1, got {sign!r} in the term {term!r}")

    def row(self, terms) -> int:
        """The sums of a sweep row: Σ sign·entry(v - y·step) in slot y < slots, over
        (sign, v) terms, at most one per Weyl element (see term_sum), biased by
        bias and kept to the slots read. A lane whose bias bit is clear is
        negative."""
        return (self.signed(terms) + self.bias) & self.mask

    def negative(self, row: int) -> bool:
        """Whether a lane of row, as row() gives it, is negative: whether a bias
        bit of row is clear."""
        return row & self.bias != self.bias

    def decode(self, row: int, lanes) -> Iterator[tuple[int, ...]]:
        """The lowest lanes[y] lanes of slot y of row, as row() gives it, as signed
        ints, for each y < min(len(lanes), slots); decoded in C."""
        raw = (row ^ self.bias).to_bytes(self._bytes, "little")
        return map(Struct.unpack_from, map(self._structs.__getitem__, lanes), repeat(raw),
                   self._offsets)


def qpartition_defined(roots, v: tuple[int, int]) -> QPoly:
    """℘_q(v) by its definition: the entry at v of the box up to v over roots.

    A v off the positive cone gives the zero polynomial. A v that is not a
    pair of integers, and one whose box passes BOX_BYTE_BUDGET (near (400,
    240) for g2), raise ValueError, the latter before anything is allocated.
    The box's step, (c1 + 1, 1), leaves every point on a line of its own,
    which packs as it is: one entry is read, so no line is worth building.
    """
    c1, c2 = _as_root(v)
    if c1 < 0 or c2 < 0:
        return QPoly()
    return QPartitionBox(roots, c1, c2, (c1 + 1, 1))[c1, c2]


@cache
def _orbit_order(rs: RootSystem) -> tuple[WeylElement, ...]:
    """The Weyl elements of rs: those of rs.alternation first, in its order."""
    by_word = {elem.word: elem for elem in weyl_elements(rs)}
    first = [by_word.pop(word) for _, word in rs.alternation]
    return (*first, *by_word.values())


def shifted_orbit(rs: RootSystem, m: int, n: int) -> tuple[tuple[int, int, int], ...]:
    """(sign, u, v) of sigma(2 * (lam + rho)) for every Weyl element sigma.

    Doubled root coordinates, lam = m*w1 + n*w2 and rho = w1 + w2. The
    orbit depends on lam alone, so grid_rows computes it once per lam, not
    once per (lam, mu), and no call keeps it for the next: its 8 or 12
    matrix products take a few microseconds. rs.alternation comes first.
    """
    u, v = doubled(rs, (m + 1, n + 1))
    orbit = []
    for elem in _orbit_order(rs):
        (p, q), (r, s) = elem.matrix
        orbit.append((elem.sign, p * u + q * v, r * u + s * v))
    return tuple(orbit)


def _mu_shift(rs: RootSystem, x: int, y: int) -> tuple[int, int]:
    """2 * (mu + rho) in root coordinates, for mu = x*w1 + y*w2."""
    return doubled(rs, (x + 1, y + 1))


def _alternation_row(rs: RootSystem, orbit: tuple) -> list:
    """(name, sign, u, v) of each term of rs.alternation, off orbit = shifted_orbit of lam."""
    return [(name, sign, u, v) for (name, _), (sign, u, v) in zip(rs.alternation, orbit)]


def _point(rs: RootSystem, lam: tuple[int, int], mu: tuple[int, int]) -> tuple:
    """(lam, mu, orbit, mu_shift) of one pair: orbit is shifted_orbit of lam and
    mu_shift = 2 * (mu + rho) in root coordinates.

    A non-dominant lam or mu raises ValueError, lam first.
    """
    lam, mu = _as_fund(lam), _as_fund(mu)
    return lam, mu, shifted_orbit(rs, lam.m, lam.n), _mu_shift(rs, mu.m, mu.n)


def alternation_terms_at(row: list, mu_shift: tuple[int, int]) -> tuple:
    """alternation_terms of the lam whose _alternation_row is row and the mu of mu_shift."""
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


def line_step(rs: RootSystem) -> tuple[int, int]:
    """w2 in root coordinates: how far every term of a sweep row moves, against
    its sign, from one tuple to the next. A w2 off the root lattice raises ValueError."""
    u, v = rs.two_w2
    if u % 2 or v % 2:
        raise ValueError(f"{rs.name}'s w2 is off the root lattice, so its sweep rows do not"
                         " follow the lines of a box")
    return u >> 1, v >> 1


def sweep_box(rs: RootSystem, top: int) -> QPartitionBox:
    """The box of every Weyl term of [0, top]^4, on the lines of line_step that
    the sweep rows follow. The largest term is lam = (top, top) itself: (5 top,
    3 top) for g2. A box past BOX_BYTE_BUDGET raises ValueError up front."""
    top1, top2 = doubled(rs, (top, top))
    return QPartitionBox(rs.positive_roots, top1 >> 1, top2 >> 1, line_step(rs))


class GridRow(NamedTuple):
    """One (lam, x) row of a sweep of [0, top]^4: the tuples (lam, (x, y)), y = 0 ... top.

    orbit is shifted_orbit of lam and mu_shift is that of mu = (x, 0), so
    shifts and terms are alternation_terms_at's of the row's first tuple,
    and weyl_terms_at(orbit, mu_shift) its Weyl terms. Raising y by one moves
    every term by -w2 (line_step), which keeps the parity of its doubled
    coordinates: each term lies on the positive cone and the root lattice for
    a prefix of the row, the first spans[i] tuples for terms[i]. So the term
    sums of the whole row are runs of the lines of a box with step w2
    (sweep_box, read by _Lines.row), and the name of terms[i] is in the label
    at y exactly while y < spans[i]. labels is row_labels(label, spans, top),
    one tuple shared by the rows of a sweep with the same shape (label,
    *spans); labels[0] is the label of the first tuple.
    """

    lam: FundCoord
    x: int
    orbit: tuple
    mu_shift: tuple[int, int]
    shifts: list
    terms: list
    spans: list
    labels: tuple[str, ...]


def spans_of(step: tuple[int, int], terms, top: int) -> list[int]:
    """For each (sign, v) term of a row's first tuple, how many tuples of the row it
    reaches: min(c1 // a, c2 // b) + 1 for v = (c1, c2) and step = w2 = (a, b),
    at most top + 1."""
    a, b = step
    stop = top + 1
    return [min(stop, c1 // a + 1, c2 // b + 1) for _, (c1, c2) in terms]


def row_labels(label: str, spans, top: int) -> tuple[str, ...]:
    """The alternation label of each tuple (lam, (x, y)) of a row whose first tuple
    has label and spans, y = 0 ... top: the names whose spans pass y, or "ZERO"."""
    labels = []
    y = 0
    for end in sorted(set(spans)):  # the first y that one or more names have left
        names = "".join([name for name, span in zip(label, spans) if span >= end])
        labels += [names] * (end - y)
        y = end
    return tuple(labels + ["ZERO"] * (top + 1 - y))


def grid_rows(rs: RootSystem, top: int) -> Iterator[GridRow]:
    """The GridRow of every (lam, x) of [0, top]^2, in lexicographic order: the
    row core of table and verify. Each weight is validated once, each lam's
    orbit and each mu_shift are computed once, and each row runs
    alternation_terms_at once, at y = 0. The step is read once per call, and
    row_labels runs once per distinct shape (label, *spans): a memo of this
    call, a few hundred shapes at top = 10, dropped with it."""
    step = line_step(rs)
    weights = [FundCoord(m, n) for m in range(top + 1) for n in range(top + 1)]
    mu_shifts = [_mu_shift(rs, x, 0) for x in range(top + 1)]
    shapes: dict[tuple, tuple[str, ...]] = {}
    for lam in weights:
        orbit = shifted_orbit(rs, lam.m, lam.n)
        alternation = _alternation_row(rs, orbit)
        for x, mu_shift in enumerate(mu_shifts):
            shifts, label, terms = alternation_terms_at(alternation, mu_shift)
            spans = spans_of(step, terms, top)
            shape = (label, *spans)
            labels = shapes.get(shape)
            if labels is None:
                labels = shapes[shape] = row_labels(label, spans, top)
            data = (lam, x, orbit, mu_shift, shifts, terms, spans, labels)
            yield _new_tuple(GridRow, data)


def row_cases(alg: "Algebra", row: GridRow, top: int) -> list[tuple[int, int, tuple]]:
    """(y0, y1, case) for each run y0 <= y < y1 of the row's tuples over which every
    alternation shift keeps the signs of its coordinates; case is alg.case_data at
    (lam, (x, y0)), with the row's label at y0. A shift moves by -2 w2 per y, so
    each coordinate changes sign at most once: a row has at most 2 len(shifts) + 1
    runs, and over each the label and every membership flag of the case hold."""
    du, dv = alg.rs.two_w2
    cuts = {top + 1}
    for _, u, v in row.shifts:  # the first y at which u, or v, is negative
        if 0 <= u < top * du:
            cuts.add(u // du + 1)
        if 0 <= v < top * dv:
            cuts.add(v // dv + 1)
    labels = row.labels
    runs = []
    y0 = 0
    for y1 in sorted(cuts):
        shifts = [(sign, u - y0 * du, v - y0 * dv) for sign, u, v in row.shifts]
        runs.append((y0, y1, alg.case_data(shifts, labels[y0])))
        y0 = y1
    return runs


def case_steps(alg: "Algebra", width: int) -> tuple[int, ...]:
    """How much each of the first width fields of alg's case record moves from one
    tuple of a sweep row to the next: the fields are affine in the shifts, which
    all move by -2 w2."""
    du, dv = alg.rs.two_w2
    count = len(alg.rs.alternation)
    here = alg.case_data([(1, 0, 0)] * count, "ZERO")[:width]
    there = alg.case_data([(1, -du, -dv)] * count, "ZERO")[:width]
    return tuple(b - a for a, b in zip(here, there))


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
    range is fine when the multiplicity is not. A sign other than 1 or -1 raises
    ValueError, and a negative total InternalConsistencyError.
    """
    count = alg.count
    value = 0
    for sign, (m, n) in terms:  # a plain loop: sum() over a generator is slower here
        if sign != 1 and sign != -1:
            raise ValueError(f"sign must be 1 or -1, got {sign!r}")
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


def closed(alg: Algebra, lam: tuple[int, int], mu: tuple[int, int]) -> MultiplicityResult:
    """m_q(lam, mu) as the term_sum of the alternation terms its case combines; a
    pair with no alternation term sums nothing.

    A negative coefficient raises InternalConsistencyError.
    """
    lam, mu, orbit, mu_shift = _point(alg.rs, lam, mu)
    shifts, label, terms = alternation_terms_at(_alternation_row(alg.rs, orbit), mu_shift)
    mq = closed_mq(alg, lam, mu, terms) if terms else _ZERO
    data = (lam, mu, alg.case_data(shifts, label), tuple(terms), mq, mq.eval_at_one())
    return _new_tuple(MultiplicityResult, data)


def weyl_sum(alg: Algebra, lam: tuple[int, int], mu: tuple[int, int]) -> QPoly:
    """m_q(lam, mu) as the alternating sum over the whole Weyl group (weyl_terms)."""
    return alg.term_sum(weyl_terms(alg.rs, lam, mu))


def case(alg: Algebra, lam: tuple[int, int], mu: tuple[int, int]) -> tuple:
    """The case record of (lam, mu), read off the alternation set."""
    shifts, label, *_ = alternation_terms(alg.rs, lam, mu)
    return alg.case_data(shifts, label)
