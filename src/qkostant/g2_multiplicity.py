"""Weight q-multiplicities for g2.

The closed route evaluates at most five partition terms P, Q, R, S, T,
those of the Weyl alternation set 1, s1, s2, s2s1, s1s2; a term is
combined exactly when its shifted weight lies on the positive cone
(rootsys.alternation_terms). The oracle route runs the full 12-term
alternating Weyl sum. Both are the shared rootsys routes fed ALGEBRA, whose
term sum _g2_sum adds a query's packed markers of D·℘_q, divided by D once;
the sweeps read whole rows of ℘_q sums off the command's QPartitionBox
instead (rootsys.grid_rows). Both recover the classical
multiplicity at q = 1, and rootsys.count_sum gives it from Tarski's counts.
"""

from __future__ import annotations

from typing import NamedTuple

from .g2_partition import _g2_sum, _partition_tarski
from .qpoly import QPoly
from .rootsys import (
    G2,
    Algebra,
    FundCoord,
    MultiplicityResult,
    _new_tuple,
    alternation_terms,
    closed,
    count_sum,
    weyl_sum,
)

# The eight case labels that occur; each spells the terms it combines, and
# verify's case_audit checks that no other set of terms reaches the positive cone.
CASE_LABELS = ("PQRST", "PQRS", "PQRT", "PQR", "PQ", "PR", "P", "ZERO")


class CaseData(NamedTuple):
    """The six case integers for a weight pair, with their sign pattern."""

    a: int
    b: int
    c: int
    d: int
    e: int
    f: int
    in_n: tuple[bool, bool, bool, bool, bool, bool]
    case_label: str

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)


def _case_data(shifts: list[tuple[int, int, int]], label: str) -> CaseData:
    # P = (a, b), Q = (c, b), R = (a, d), S = (c, e), T = (f, d), halved:
    # g2 weights lie in the root lattice.
    (_, a, b), (_, c, _), (_, _, d), (_, _, e), (_, f, _) = shifts
    a, b, c, d, e, f = a >> 1, b >> 1, c >> 1, d >> 1, e >> 1, f >> 1
    in_n = (a >= 0, b >= 0, c >= 0, d >= 0, e >= 0, f >= 0)
    return _new_tuple(CaseData, (a, b, c, d, e, f, in_n, label))


ALGEBRA = Algebra(G2, _g2_sum, _case_data, _partition_tarski)


def qmultiplicity_closed(lam: FundCoord, mu: FundCoord) -> MultiplicityResult:
    """m_q(lam, mu) as the signed sum of the partition terms its case combines."""
    return closed(ALGEBRA, lam, mu)


def qmultiplicity_weyl_sum(lam: FundCoord, mu: FundCoord) -> QPoly:
    """m_q(lam, mu) as the alternating sum over all 12 Weyl elements.

    The term of sigma is the q-partition of sigma(lam + rho) - (mu + rho),
    which is zero unless both root coordinates are nonnegative; only the
    terms inside that cone are evaluated.
    """
    return weyl_sum(ALGEBRA, lam, mu)


def multiplicity(lam: FundCoord, mu: FundCoord, method: str = "qpoly") -> int:
    """Classical weight multiplicity m(lam, mu).

    method="qpoly" evaluates the q-polynomial route at q = 1; "tarski"
    combines Tarski's integer partition values case by case instead
    (rootsys.count_sum). A value outside the signed 64-bit range raises
    CoefficientOverflowError.
    """
    if method == "qpoly":
        return qmultiplicity_closed(lam, mu).m_at_one
    if method == "tarski":
        return count_sum(ALGEBRA, alternation_terms(G2, lam, mu)[2])
    raise ValueError(f"unknown method {method!r}, expected 'qpoly' or 'tarski'")
