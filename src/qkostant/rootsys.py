"""g2 root-system constants and its Weyl group as exact integer matrices.

All weights live in the simple-root basis: c1*a1 + c2*a2 is the pair
(c1, c2), and a group element acts as a 2x2 integer matrix on such pairs.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

from .errors import InternalConsistencyError

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

    Dominance is part of the type: negative coordinates are rejected, so a
    FundCoord always names a genuine highest weight.
    """

    __slots__ = ()

    def __new__(cls, m: int, n: int) -> "FundCoord":
        if m < 0 or n < 0:
            raise ValueError(f"fundamental coordinates must be nonnegative, got ({m}, {n})")
        return super().__new__(cls, m, n)


# Positive roots of g2 as (c1, c2), lowest to highest.
POSITIVE_ROOTS: tuple[RootCoord, ...] = (
    RootCoord(1, 0),
    RootCoord(0, 1),
    RootCoord(1, 1),
    RootCoord(2, 1),
    RootCoord(3, 1),
    RootCoord(3, 2),
)

# Half-sum of the positive roots; also w1 + w2.
RHO = RootCoord(5, 3)

# Columns are w1 = 2a1 + a2 and w2 = 3a1 + 2a2.
FUND_TO_ROOT: Mat = ((2, 3), (1, 2))
_ROOT_TO_FUND: Mat = ((2, -3), (-1, 2))  # exact inverse, determinant 1


def fund_to_root(w: FundCoord) -> RootCoord:
    """(m, n) in the fundamental basis -> (2m+3n, m+2n) in the root basis."""
    m, n = w
    (p, q), (r, s) = FUND_TO_ROOT
    return RootCoord(p * m + q * n, r * m + s * n)


def root_to_fund(v: RootCoord) -> FundCoord:
    """Inverse conversion; raises ValueError when the weight is not dominant."""
    (p, q), (r, s) = _ROOT_TO_FUND
    return FundCoord(p * v.c1 + q * v.c2, r * v.c1 + s * v.c2)


@dataclass(frozen=True)
class WeylElement:
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


# Distinct highest weights whose shifted Weyl orbit the Weyl-sum oracles keep
# cached (g2 and sp4 each); 256 covers every lambda of a [0,15]^2 grid.
ORBIT_CACHE_SIZE = 256

# Generator matrices, columns = images of the simple roots:
# s1: a1 -> -a1, a2 -> 3a1 + a2;  s2: a1 -> a1 + a2, a2 -> -a2.
_S1: Mat = ((-1, 3), (0, 1))
_S2: Mat = ((1, 0), (1, -1))
_GENERATORS: dict[int, Mat] = {1: _S1, 2: _S2}

# Reduced words in length order; the letters list the factors left to right.
_WORDS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("1", ()),
    ("s1", (1,)),
    ("s2", (2,)),
    ("s2s1", (2, 1)),
    ("s1s2", (1, 2)),
    ("s1s2s1", (1, 2, 1)),
    ("s2s1s2", (2, 1, 2)),
    ("(s1s2)^2", (1, 2, 1, 2)),
    ("(s2s1)^2", (2, 1, 2, 1)),
    ("s1(s2s1)^2", (1, 2, 1, 2, 1)),
    ("s2(s1s2)^2", (2, 1, 2, 1, 2)),
    ("(s1s2)^3", (1, 2, 1, 2, 1, 2)),
)

# Independently transcribed action of every element on the simple roots,
# as (image of a1, image of a2). The composed matrices must reproduce this;
# a mismatch means one of the two transcriptions is damaged.
_EXPECTED_ACTION: dict[str, tuple[RootCoord, RootCoord]] = {
    "1": (RootCoord(1, 0), RootCoord(0, 1)),
    "s1": (RootCoord(-1, 0), RootCoord(3, 1)),
    "s2": (RootCoord(1, 1), RootCoord(0, -1)),
    "s2s1": (RootCoord(-1, -1), RootCoord(3, 2)),
    "s1s2": (RootCoord(2, 1), RootCoord(-3, -1)),
    "s1s2s1": (RootCoord(-2, -1), RootCoord(3, 2)),
    "s2s1s2": (RootCoord(2, 1), RootCoord(-3, -2)),
    "(s1s2)^2": (RootCoord(1, 1), RootCoord(-3, -2)),
    "(s2s1)^2": (RootCoord(-2, -1), RootCoord(3, 1)),
    "s1(s2s1)^2": (RootCoord(-1, -1), RootCoord(0, 1)),
    "s2(s1s2)^2": (RootCoord(1, 0), RootCoord(-3, -1)),
    "(s1s2)^3": (RootCoord(-1, 0), RootCoord(0, -1)),
}


@cache
def weyl_group() -> tuple[WeylElement, ...]:
    """All 12 elements in length order, built by composing the generators.

    Construction re-derives every matrix from the generator action and
    checks it against the transcribed per-element action, pairwise
    distinctness, closure under multiplication, and det = (-1)^length.
    """
    elements: list[WeylElement] = []
    for word, letters in _WORDS:
        matrix = IDENTITY
        for letter in letters:
            matrix = mat_mul(matrix, _GENERATORS[letter])
        elem = WeylElement(word, len(letters), matrix)
        expected = _EXPECTED_ACTION[word]
        composed = (elem.apply(RootCoord(1, 0)), elem.apply(RootCoord(0, 1)))
        if composed != expected:
            raise InternalConsistencyError(
                f"composed action of {word} is {composed}, transcription says {expected}"
            )
        if mat_det(matrix) != elem.sign:
            raise InternalConsistencyError(f"det of {word} is not (-1)^length")
        elements.append(elem)

    matrices = {e.matrix for e in elements}
    if len(matrices) != 12:
        raise InternalConsistencyError("Weyl matrices are not pairwise distinct")
    for a in elements:
        for b in elements:
            if mat_mul(a.matrix, b.matrix) not in matrices:
                raise InternalConsistencyError(
                    f"product {a.word} * {b.word} escapes the group"
                )
    return tuple(elements)


def sigma_shift(sigma: WeylElement, lam: FundCoord, mu: FundCoord) -> RootCoord:
    """sigma(lam + rho) - (mu + rho), everything in root coordinates."""
    lr = fund_to_root(lam)
    mr = fund_to_root(mu)
    moved = sigma.apply(RootCoord(lr.c1 + RHO.c1, lr.c2 + RHO.c2))
    return RootCoord(moved.c1 - mr.c1 - RHO.c1, moved.c2 - mr.c2 - RHO.c2)
