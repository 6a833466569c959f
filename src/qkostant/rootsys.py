"""The rank-2 root-system core shared by g2 and sp4, and the g2 constants.

All weights live in the simple-root basis: c1*a1 + c2*a2 is the pair
(c1, c2), and a group element acts as a 2x2 integer matrix on such pairs.
A :class:`RootSystem` record holds the data that tells g2 and sp4 apart.
The Weyl group, the brute-force partition enumerator, the coordinate
conversions, the alternating Weyl sum and the alternation-set terms that
the closed formulas read are written once against it.
"""

from __future__ import annotations

import collections
from functools import cache, lru_cache
from typing import Callable, Iterator, NamedTuple

from .errors import InternalConsistencyError
from .qpoly import QPoly

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

# Positive roots of g2 as (c1, c2), lowest to highest.
POSITIVE_ROOTS: tuple[RootCoord, ...] = G2.positive_roots


def doubled(rs: RootSystem, w: tuple[int, int]) -> tuple[int, int]:
    """2 * (m*w1 + n*w2) in root coordinates, for w = (m, n)."""
    m, n = w
    (p, r), (q, s) = rs.two_w1, rs.two_w2
    return (p * m + q * n, r * m + s * n)


def to_root(rs: RootSystem, w: tuple[int, int]) -> RootCoord | None:
    """Root coordinates of m*w1 + n*w2, or None off the root lattice.

    Only sp4 has such weights: odd m gives a half-integral a2-coordinate,
    where the partition count is zero by definition.
    """
    u, v = doubled(rs, w)
    if u % 2 or v % 2:
        return None
    return RootCoord(u // 2, v // 2)


def to_fund(rs: RootSystem, v: RootCoord) -> FundCoord:
    """Fundamental coordinates of a root-lattice weight.

    Raises ValueError when the weight is not dominant; the solve itself is
    always exact because the root lattice sits inside the weight lattice.
    """
    c1, c2 = v
    if type(c1) is not int or type(c2) is not int:  # bool is rejected too
        raise ValueError(f"root coordinates must be integers, got {tuple(v)!r}")
    (p, r), (q, s) = rs.two_w1, rs.two_w2
    det = p * s - q * r
    m_num = 2 * (s * c1 - q * c2)
    n_num = 2 * (p * c2 - r * c1)
    if m_num % det or n_num % det:
        raise InternalConsistencyError(f"non-integral fundamental coordinates for {tuple(v)}")
    return FundCoord(m_num // det, n_num // det)


def fund_to_root(w: FundCoord) -> RootCoord:
    """(m, n) in the fundamental basis -> (2m+3n, m+2n) in the g2 root basis."""
    return to_root(G2, w)


def root_to_fund(v: RootCoord) -> FundCoord:
    """Inverse conversion; raises ValueError when the weight is not dominant."""
    return to_fund(G2, v)


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
    m, n = v
    if m >= 0 and n >= 0:
        yield from _decompose(roots[:1:-1], m, n, ())


def qpartition_enumerated(roots: tuple[RootCoord, ...], v: RootCoord) -> QPoly:
    """Definitional q-analog: one q^(number of roots) per decomposition."""
    m, n = v
    if m < 0 or n < 0:
        return QPoly()
    counts = [0] * (m + n + 1)
    for witness in decompositions(roots, v):
        counts[sum(witness)] += 1
    return QPoly(counts)


# Distinct (algebra, highest weight) pairs whose shifted Weyl orbit the Weyl
# sum keeps cached; 512 covers every lambda of a [0,15]^2 grid for both algebras.
ORBIT_CACHE_SIZE = 512


@cache
def _orbit_order(rs: RootSystem) -> tuple[WeylElement, ...]:
    """The Weyl elements of rs: those of rs.alternation first, in its order."""
    by_word = {elem.word: elem for elem in weyl_elements(rs)}
    first = [by_word.pop(word) for _, word in rs.alternation]
    return (*first, *by_word.values())


@lru_cache(maxsize=ORBIT_CACHE_SIZE, typed=True)
def shifted_orbit(rs: RootSystem, m: int, n: int) -> tuple[tuple[int, int, int], ...]:
    """(sign, u, v) of sigma(2 * (lam + rho)) for every Weyl element sigma.

    Doubled root coordinates, lam = m*w1 + n*w2 and rho = w1 + w2. The
    orbit depends on lam alone, so a grid sweep computes it once per lam
    instead of once per (lam, mu). rs.alternation comes first, in order.
    """
    u, v = doubled(rs, (m + 1, n + 1))
    orbit = []
    for elem in _orbit_order(rs):
        (p, q), (r, s) = elem.matrix
        orbit.append((elem.sign, p * u + q * v, r * u + s * v))
    return tuple(orbit)


def alternation_shifts(rs: RootSystem, lam: tuple[int, int], mu: tuple[int, int]) -> list:
    """(sign, u, v) of each term of rs.alternation, in order, off the cached orbit.

    The sign is (-1)^length(sigma) and (u, v) = 2 * (sigma(lam + rho) - (mu + rho))
    in root coordinates. A non-dominant lam or mu raises ValueError.
    """
    m, n = lam if type(lam) is FundCoord else FundCoord(*lam)
    x, y = mu if type(mu) is FundCoord else FundCoord(*mu)
    mu1, mu2 = doubled(rs, (x + 1, y + 1))
    orbit = shifted_orbit(rs, m, n)
    return [(sign, u - mu1, v - mu2) for sign, u, v in orbit[: len(rs.alternation)]]


def weyl_sum(
    rs: RootSystem,
    qpartition: Callable[[RootCoord], QPoly],
    lam: tuple[int, int],
    mu: tuple[int, int],
) -> QPoly:
    """m_q(lam, mu) as the alternating sum over the Weyl group of rs.

    The term of sigma is qpartition(sigma(lam + rho) - (mu + rho)). It is
    zero when that weight has a negative coordinate, or an odd doubled one
    (it then lies outside the root lattice, which happens for sp4 only);
    only the other terms are evaluated. lam and mu are (m, n) pairs in the
    fundamental basis; a non-dominant one raises ValueError.
    """
    m, n = lam if type(lam) is FundCoord else FundCoord(*lam)
    x, y = mu if type(mu) is FundCoord else FundCoord(*mu)
    mu1, mu2 = doubled(rs, (x + 1, y + 1))
    return QPoly.signed_sum(
        (sign, qpartition(RootCoord((u - mu1) // 2, (v - mu2) // 2)))
        for sign, u, v in shifted_orbit(rs, m, n)
        if u >= mu1 and v >= mu2 and not (u - mu1) % 2 and not (v - mu2) % 2
    )
