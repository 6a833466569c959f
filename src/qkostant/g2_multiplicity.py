"""Weight q-multiplicities for g2.

The closed route evaluates at most five partition terms P, Q, R, S, T,
those of the Weyl alternation set 1, s1, s2, s2s1, s1s2, as selected by the
signs of their coordinates a..f; the oracle route runs the full 12-term
alternating Weyl sum. Both recover the classical multiplicity at q = 1.
"""

from __future__ import annotations

from itertools import product
from typing import Mapping, NamedTuple

from .errors import InternalConsistencyError
from .g2_partition import partition_tarski, qpartition
from .qpoly import QPoly, checked_int
from .rootsys import G2, FundCoord, RootCoord, alternation_shifts, weyl_sum

TERM_NAMES = tuple(name for name, _ in G2.alternation)
TERM_SIGNS: Mapping[str, int] = {"P": 1, "Q": -1, "R": -1, "S": 1, "T": 1}

# Each term's root coordinates as CaseData indices: P = (a, b), Q = (c, b), and so on.
# s_i moves only the a_i-coordinate, so the term of s_i w keeps the other one of w's.
TERM_FIELDS = {"P": (0, 1), "Q": (2, 1), "R": (0, 3), "S": (2, 4), "T": (5, 3)}

# The eight admissible case labels; each spells the terms it combines.
CASE_TERMS: Mapping[str, tuple[str, ...]] = {
    label: tuple(label) if label != "ZERO" else ()
    for label in ("PQRST", "PQRS", "PQRT", "PQR", "PQ", "PR", "P", "ZERO")
}


def signature(terms: tuple[str, ...]) -> str:
    """Render a term subset as a signed formula string, e.g. "P-Q-R+S+T"."""
    if not terms:
        return "0"
    parts = []
    for name in terms:
        if TERM_SIGNS[name] > 0:
            parts.append(f"+{name}" if parts else name)
        else:
            parts.append(f"-{name}")
    return "".join(parts)


ALLOWED_SIGNATURES = frozenset(signature(terms) for terms in CASE_TERMS.values())


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


def _case_label(in_n: tuple[bool, ...]) -> str:
    a_ok, b_ok, c_ok, d_ok, e_ok, f_ok = in_n
    if not (a_ok and b_ok):
        return "ZERO"
    if c_ok and d_ok:
        if e_ok and f_ok:
            return "PQRST"
        if e_ok:
            return "PQRS"
        if f_ok:
            return "PQRT"
        return "PQR"
    if c_ok and not d_ok and not e_ok and not f_ok:
        return "PQ"
    if d_ok and not c_ok and not e_ok and not f_ok:
        return "PR"
    if not c_ok and not d_ok and not e_ok and not f_ok:
        return "P"
    # No dominant pair realizes the remaining sign patterns; should one ever
    # appear, all five terms are provably trivial there.
    return "ZERO"


def _case_data(shifts: list[tuple[int, int, int]]) -> CaseData:
    # The fields of TERM_FIELDS, halved: g2 weights lie in the root lattice.
    (_, a, b), (_, c, _), (_, _, d), (_, _, e), (_, f, _) = shifts
    a, b, c, d, e, f = a >> 1, b >> 1, c >> 1, d >> 1, e >> 1, f >> 1
    in_n = (a >= 0, b >= 0, c >= 0, d >= 0, e >= 0, f >= 0)
    return CaseData(a, b, c, d, e, f, in_n, _case_label(in_n))


def compute_abcdef(lam: FundCoord, mu: FundCoord) -> CaseData:
    """The case integers of (lam, mu), read off the alternation set, and their case."""
    return _case_data(alternation_shifts(G2, lam, mu))


def active_terms(case: CaseData) -> tuple[str, ...]:
    """Terms whose partition argument has both coordinates nonnegative.

    Exactly these terms contribute a nonzero polynomial, since any weight
    with nonnegative root coordinates has at least its all-simple-roots
    decomposition.
    """
    in_n = case.in_n
    return tuple(name for name, (i, j) in TERM_FIELDS.items() if in_n[i] and in_n[j])


def _selected_terms(lam: FundCoord, mu: FundCoord) -> tuple[CaseData, list]:
    """The case of (lam, mu) and (name, sign, partition argument) of each term it combines."""
    shifts = alternation_shifts(G2, lam, mu)
    case = _case_data(shifts)
    picked = ((name, shifts[TERM_NAMES.index(name)]) for name in CASE_TERMS[case.case_label])
    return case, [(name, sign, RootCoord(u >> 1, v >> 1)) for name, (sign, u, v) in picked]


class MultiplicityResult(NamedTuple):
    """Full provenance of one closed-formula evaluation."""

    lam: FundCoord
    mu: FundCoord
    case: CaseData
    terms: Mapping[str, QPoly]
    mq: QPoly
    m_at_one: int


def qmultiplicity_closed(lam: FundCoord, mu: FundCoord) -> MultiplicityResult:
    """m_q(lam, mu) via the case-selected combination of partition terms."""
    case, selected = _selected_terms(lam, mu)
    terms = {name: qpartition(v) for name, _, v in selected}
    mq = QPoly.signed_sum((sign, terms[name]) for name, sign, _ in selected)
    if mq.coeffs and min(mq.coeffs) < 0:
        raise InternalConsistencyError(
            f"negative coefficient in m_q({tuple(lam)}, {tuple(mu)}) = {mq!r}"
        )
    return MultiplicityResult(lam, mu, case, terms, mq, mq.eval_at_one())


def qmultiplicity_weyl_sum(lam: FundCoord, mu: FundCoord) -> QPoly:
    """m_q(lam, mu) as the alternating sum over all 12 Weyl elements.

    The term of sigma is the q-partition of sigma(lam + rho) - (mu + rho),
    which is zero unless both root coordinates are nonnegative; only the
    terms inside that cone are evaluated.
    """
    return weyl_sum(G2, qpartition, lam, mu)


def multiplicity(lam: FundCoord, mu: FundCoord, method: str = "qpoly") -> int:
    """Classical weight multiplicity m(lam, mu).

    method="qpoly" evaluates the q-polynomial route at q = 1; "tarski"
    combines Tarski's integer partition values case by case instead. A
    value outside the signed 64-bit range raises CoefficientOverflowError.
    """
    if method == "qpoly":
        return qmultiplicity_closed(lam, mu).m_at_one
    if method == "tarski":
        _, selected = _selected_terms(lam, mu)
        return checked_int(sum(sign * partition_tarski(v) for _, sign, v in selected))
    raise ValueError(f"unknown method {method!r}, expected 'qpoly' or 'tarski'")


class AuditReport(NamedTuple):
    """Which signed term combinations actually occur on a dominant grid."""

    grid_max: int
    observed_signatures: tuple[str, ...]
    counterexamples: tuple[tuple[tuple[int, int, int, int], str], ...]

    def to_json_dict(self) -> dict:
        return {
            "grid_max": self.grid_max,
            "observed_signatures": list(self.observed_signatures),
            "counterexamples": [
                {"tuple": list(point), "signature": sig}
                for point, sig in self.counterexamples
            ],
        }


def audit_cases(grid_max: int) -> AuditReport:
    """Scan all (m, n, x, y) in [0, grid_max]^4 for realized signatures.

    For each tuple the report records which of P, Q, R, S, T contribute a
    nonzero polynomial; any signed combination outside the eight admissible
    ones is returned as a counterexample.
    """
    if grid_max < 0:
        raise ValueError("grid_max must be nonnegative")
    observed: set[str] = set()
    bad: list[tuple[tuple[int, int, int, int], str]] = []
    for m, n, x, y in product(range(grid_max + 1), repeat=4):
        case = compute_abcdef(FundCoord(m, n), FundCoord(x, y))
        sig = signature(active_terms(case))
        observed.add(sig)
        if sig not in ALLOWED_SIGNATURES:
            bad.append(((m, n, x, y), sig))
    return AuditReport(grid_max, tuple(sorted(observed)), tuple(bad))
