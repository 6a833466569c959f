"""Exact univariate polynomials in the formal variable q.

Coefficients are signed integers kept within the 64-bit range; anything
larger raises :class:`CoefficientOverflowError` instead of growing silently.
Only addition, subtraction, and evaluation are provided -- partition counts
and multiplicities never need products of polynomials.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, sub
from typing import Iterable

from .errors import CoefficientOverflowError

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
# About 300 digits: always printable, as Python's int-to-str limit is at least 640 digits.
_MAX_SHOWN_BITS = 1024


def checked_int(value: int) -> int:
    """Return an exact integer result unchanged, or raise if it leaves 64 bits.

    The integer partition and multiplicity results pass through here, as
    every QPoly coefficient does, so both share one range and one error.
    A value too long to print (Python refuses int-to-str conversion past a
    few thousand digits) is reported by its bit length instead.
    """
    if not INT64_MIN <= value <= INT64_MAX:
        bits = value.bit_length()
        shown = str(value) if bits <= _MAX_SHOWN_BITS else f"of {bits} bits"
        raise CoefficientOverflowError(f"exact value {shown} is outside the signed 64-bit range")
    return value


def _raise_first_bad(cs: tuple) -> None:
    """Raise for the first coefficient that is not an int in the 64-bit range."""
    for c in cs:
        if not isinstance(c, int):
            raise TypeError(f"coefficients must be integers, got {type(c).__name__}")
        checked_int(c)


def _stripped(cs: tuple) -> tuple:
    """cs without its trailing zeros."""
    if cs and cs[-1] == 0:
        end = len(cs) - 1
        while end and cs[end - 1] == 0:
            end -= 1
        cs = cs[:end]
    return cs


class QPoly:
    """Immutable polynomial in q, stored as ascending coefficients.

    The representation is canonical: the last stored coefficient is nonzero
    and the zero polynomial stores nothing, so two values are equal exactly
    when their coefficient tuples are.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = tuple(coeffs)
        # One pass: the unbound int.bit_length takes exactly the int instances
        # (bool and subclasses too) and raises TypeError for anything else, and
        # a bit length of at most 63 means |c| <= INT64_MAX. A failing tuple,
        # or one holding INT64_MIN (64 bits, in range), is walked again to
        # name its first bad coefficient.
        try:
            wide = cs and max(map(int.bit_length, cs)) > 63
        except TypeError:
            wide = True
        if wide:
            _raise_first_bad(cs)
        self._coeffs: tuple[int, ...] = _stripped(cs)

    @classmethod
    def _from_checked(cls, cs: tuple[int, ...]) -> "QPoly":
        """A QPoly of a tuple of ints that the caller has range-checked."""
        poly = cls.__new__(cls)
        poly._coeffs = _stripped(cs)
        return poly

    @classmethod
    def monomial(cls, degree: int) -> "QPoly":
        """The polynomial q**degree."""
        if degree < 0:
            raise ValueError(f"monomial degree must be nonnegative, got {degree}")
        return cls([0] * degree + [1])

    @classmethod
    def signed_sum(cls, terms: Iterable[tuple[int, "QPoly"]]) -> "QPoly":
        """The sum of sign * poly over (sign, poly) pairs, each sign +1 or -1.

        Every term is added into one list and the result is range-checked
        once, so intermediate sums may leave the 64-bit range as long as
        the result does not.
        """
        acc: list[int] = []
        for sign, poly in terms:
            if sign == 1:
                op = add
            elif sign == -1:
                op = sub
            else:
                raise ValueError(f"sign must be 1 or -1, got {sign!r}")
            cs = poly._coeffs
            if len(cs) > len(acc):
                acc.extend(repeat(0, len(cs) - len(acc)))
            acc[: len(cs)] = map(op, acc, cs)
        return cls(acc)

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients in ascending degree, canonical form."""
        return self._coeffs

    def eval_at_one(self) -> int:
        """Sum of coefficients: recovers the plain count from a q-count."""
        return checked_int(sum(self._coeffs))

    def eval_at(self, value: int) -> int:
        """Exact value at an integer point; the result must fit in 64 bits.

        For |value| >= 2 Horner's rule stops once |acc| >= 2**64: every
        |c| <= 2**63, so each later step gives |acc * value + c| >=
        2|acc| - 2**63 > |acc|, and the result is bound to overflow.
        """
        if not isinstance(value, int):
            raise TypeError(f"evaluation point must be an integer, got {type(value).__name__}")
        can_stop = not -1 <= value <= 1
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * value + c
            if can_stop and acc.bit_length() > 64:
                break
        return checked_int(acc)

    def __add__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        return QPoly.signed_sum(((1, self), (1, other)))

    def __sub__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        return QPoly.signed_sum(((1, self), (-1, other)))

    def __neg__(self) -> "QPoly":
        return QPoly.signed_sum(((-1, self),))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def _format(self, exponent: str) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for deg in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[deg]
            if c == 0:
                continue
            mag = abs(c)
            if deg == 0:
                body = str(mag)
            else:
                power = "q" if deg == 1 else "q" + exponent.format(deg)
                body = power if mag == 1 else f"{mag}{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __str__(self) -> str:
        """Descending powers, zero terms omitted, e.g. ``q^5 + q``."""
        return self._format("^{}")

    def latex(self) -> str:
        """Same layout as ``str`` with braced exponents, e.g. ``q^{5} + q``."""
        return self._format("^{{{}}}")

    def __repr__(self) -> str:
        return f"QPoly({list(self._coeffs)!r})"
