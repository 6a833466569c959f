"""Deliberately wrong variants of library formulas, for the mutation tests.

A test that runs one of these and sees it disagree with an oracle shows
that the part it removes is load-bearing.
"""

from operator import add

from qkostant.g2_partition import _g2_marks, _g2_sum
from qkostant.qpoly import QPoly
from qkostant.rootsys import _mu_shift, shifted_orbit
from qkostant.sp4 import _c2_events, _c2_sum, _closed_form

from reference_kernels import g2_marker_groups


def closed_form_without_edge_region(m: int, n: int) -> int:
    """sp4's closed partition count with its m = 2n-1 region removed.

    The dispatch collapses to three regions: points on that line fall
    through to the m >= 2n formula, every other point keeps its value.
    """
    if 2 * n > m >= 2 * n - 1 > n:
        return (n + 1) * (n + 2) // 2
    return _closed_form(m, n)


def g2_marks_ignoring_sign(m: int, n: int, sign: int, width: int) -> int:
    """g2's marker builder with every term added as if its sign were +1."""
    return _g2_marks(m, n, 1, width)


def _reshaping_deep_terms(shift):
    """A g2 term sum that hands every one-term result of degree > 12, that is
    every term past the pair box of verify --max 6, to shift(coeffs)."""

    def mutant(terms: list) -> QPoly:
        result = _g2_sum(terms)
        if len(terms) == 1 and len(result.coeffs) > 13:
            coeffs = list(result.coeffs)
            shift(coeffs)
            return QPoly(coeffs)
        return result

    return mutant


def _move_the_top_unit_down(coeffs: list[int]) -> None:
    coeffs[-1] -= 1
    coeffs[-2] += 1


def _dip_in_the_middle(coeffs: list[int]) -> None:
    half = len(coeffs) // 2
    coeffs[half] += 1
    coeffs[half + 1] -= 1


# Moves one unit from the top coefficient of each deep term to the one below:
# no coefficient goes negative and the value at q = 1 does not change.
g2_sum_moving_the_top_unit = _reshaping_deep_terms(_move_the_top_unit_down)
# Moves one unit from the middle coefficient + 1 of each deep term to the
# middle one: the value at q = 1 does not change, but some closed results of
# one term get a negative coefficient.
g2_sum_with_a_dip = _reshaping_deep_terms(_dip_in_the_middle)


def _lanes(packed: int, width: int, count: int) -> list[int]:
    """The first `count` signed lanes of a packed int, each within 2^(width-1)."""
    size = width >> 3
    ones = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
    data = (packed + ones).to_bytes(size * count, "little")
    return [int.from_bytes(data[i : i + size], "little") - (1 << width - 1)
            for i in range(0, len(data), size)]


def _packed(lanes: list[int], width: int) -> int:
    """The lanes packed again, the inverse of _lanes."""
    size = width >> 3
    ones = int.from_bytes((bytes(size - 1) + b"\x80") * len(lanes), "little")
    half = 1 << width - 1
    return int.from_bytes(b"".join((v + half).to_bytes(size, "little") for v in lanes),
                          "little") - ones


def g2_marks_moving(wall: str, by: int | None):
    """g2's marker builder with the group at one wall moved by `by` degrees,
    or dropped for None. g2_marker_groups says where each group sits."""

    def mutant(m: int, n: int, sign: int, width: int) -> int:
        own = _lanes(_g2_marks(m, n, sign, width), width, m + n + 12)
        for name, at, size in g2_marker_groups(m, n):
            if name == wall:
                group = own[at : at + size]
                own[at : at + size] = [0] * size
                if by is not None:
                    at += by
                    own[at : at + size] = map(add, own[at : at + size], group)
        return _packed(own, width)

    return mutant


def g2_marks_adding_d(scale: int):
    """g2's marker builder that also adds sign * scale * D from degree 0 on,
    D = (1-q)(1-q^2)(1-q^3)(1-q^4): every term's polynomial gains
    sign * scale in its constant coefficient. With |scale| past the lanes
    the quotient's lanes carry into one another."""

    def mutant(m: int, n: int, sign: int, width: int) -> int:
        d = _packed([1, -1, -1, 0, 0, 2, 0, 0, -1, -1, 1], width)
        return _g2_marks(m, n, sign, width) + sign * scale * d

    return mutant


def c2_events_ignoring_sign(events: list, m: int, n: int, sign: int) -> None:
    """sp4's event builder with every term added as if its sign were +1."""
    _c2_events(events, m, n, 1)


def c2_events_unclipped(events: list, m: int, n: int, sign: int) -> None:
    """sp4's event builder without the event at m+n+3 that cancels its run ends.

    The run ends then go on lowering every coefficient past m+n+2, which
    shows only in a sum with a longer term.
    """
    _c2_events(events, m, n, sign)
    events.remove((m + n + 3, sign, 0, 0))


def _c2_deep(v) -> bool:
    """Whether a term lies past the pair box of verify --max 6: c1 + c2 > 12."""
    return v[0] + v[1] > 12


def c2_count_one_too_high(m: int, n: int) -> int:
    """sp4's q = 1 count, one too high on every deep term."""
    return _closed_form(m, n) + _c2_deep((m, n))


def c2_sum_one_too_high(terms: list) -> QPoly:
    """sp4's term sum whose one-term result on a deep term has its constant
    coefficient one too high: at q = 1 it agrees with c2_count_one_too_high."""
    result = _c2_sum(terms)
    if len(terms) == 1 and _c2_deep(terms[0][1]):
        return QPoly((result.coeffs[0] + 1,) + result.coeffs[1:])
    return result


def _shifted_orbit_with_a_wrong_rho(rs, m: int, n: int) -> tuple:
    """shifted_orbit with rho taken as 2w1 + w2: sigma(2 * (lam + w1 + rho))."""
    return shifted_orbit(rs, m + 1, n)


def _mu_shift_with_a_wrong_rho(rs, x: int, y: int) -> tuple[int, int]:
    """2 * (mu + 2w1 + w2) in root coordinates, for mu = x*w1 + y*w2."""
    return _mu_shift(rs, x + 1, y)


# rho taken as 2w1 + w2 instead of w1 + w2, in lam + rho and in mu + rho alike:
# replacements for the two rootsys names through which the one-off routes
# (by way of _point) and the sweep rows (grid_rows) read both shifts, so both
# sides of every comparison verify makes move together.
RHO_AS_2W1_PLUS_W2 = {
    "shifted_orbit": _shifted_orbit_with_a_wrong_rho,
    "_mu_shift": _mu_shift_with_a_wrong_rho,
}
