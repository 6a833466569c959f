"""Weight q-multiplicities for g2.

The closed route evaluates at most five partition terms P, Q, R, S, T,
those of the Weyl alternation set 1, s1, s2, s2s1, s1s2; a term is
combined exactly when its shifted weight lies on the positive cone
(rootsys.alternation_terms). The oracle route runs the full 12-term
alternating Weyl sum. Both recover the classical multiplicity at q = 1.
"""

from __future__ import annotations

from itertools import product
from typing import Mapping, NamedTuple

from .errors import InternalConsistencyError
from .g2_partition import _g2_chain, _g2_marks, partition_tarski, qpartition
from .qpoly import QPoly, checked_int
from .rootsys import G2, FundCoord, RootCoord, alternation_terms, weyl_elements, weyl_terms

TERM_NAMES = tuple(name for name, _ in G2.alternation)
_WORD_SIGNS = {elem.word: elem.sign for elem in weyl_elements(G2)}
# (-1)^length of each term's Weyl word.
TERM_SIGNS: Mapping[str, int] = {name: _WORD_SIGNS[word] for name, word in G2.alternation}

# The eight case labels that occur; each spells the terms it combines.
# audit_cases checks that no other set of terms reaches the positive cone.
CASE_LABELS = ("PQRST", "PQRS", "PQRT", "PQR", "PQ", "PR", "P", "ZERO")


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


def label_signature(label: str) -> str:
    """The signed formula a case label spells: "PQR" -> "P-Q-R", "ZERO" -> "0"."""
    return signature(() if label == "ZERO" else tuple(label))


ALLOWED_SIGNATURES = frozenset(map(label_signature, CASE_LABELS))


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
    return CaseData(a, b, c, d, e, f, (a >= 0, b >= 0, c >= 0, d >= 0, e >= 0, f >= 0), label)


def compute_abcdef(lam: FundCoord, mu: FundCoord) -> CaseData:
    """The case integers of (lam, mu), read off the alternation set, and their case."""
    shifts, label, _ = alternation_terms(G2, lam, mu)
    return _case_data(shifts, label)


class MultiplicityResult(NamedTuple):
    """Full provenance of one closed-formula evaluation.

    terms holds (name, sign, RootCoord) of each contributing term; the
    term's polynomial is qpartition of its RootCoord.
    """

    lam: FundCoord
    mu: FundCoord
    case: CaseData
    terms: tuple[tuple[str, int, RootCoord], ...]
    mq: QPoly
    m_at_one: int


# Every term qmultiplicity_closed has met; keys only, unbounded like the
# qpartition cache.
_met_terms: set[RootCoord] = set()


def qmultiplicity_closed(lam: FundCoord, mu: FundCoord) -> MultiplicityResult:
    """m_q(lam, mu) as the signed sum of the partition terms its case combines.

    A query none of whose terms was met before adds every term's markers
    into one set of lists and runs one chain, with no per-term polynomial
    and no qpartition cache entry. A query that meets a term again sums
    the cached qpartition polynomials instead, so a sweep over many
    overlapping queries computes each term once.
    """
    shifts, label, terms = alternation_terms(G2, lam, mu)
    keys = [v for _, _, v in terms]
    if keys and _met_terms.isdisjoint(keys):
        degree = max(m + n for m, n in keys)
        size = degree + 7
        points, tops, runs = [0] * size, [0] * size, [0] * size
        for _, sign, (m, n) in terms:
            _g2_marks(points, tops, runs, m, n, sign)
        mq = _g2_chain(points, tops, runs, degree)
    else:
        mq = QPoly.signed_sum((sign, qpartition(v)) for _, sign, v in terms)
    _met_terms.update(keys)
    if mq.coeffs and min(mq.coeffs) < 0:
        raise InternalConsistencyError(
            f"negative coefficient in m_q({tuple(lam)}, {tuple(mu)}) = {mq!r}"
        )
    return MultiplicityResult(
        lam, mu, _case_data(shifts, label), tuple(terms), mq, mq.eval_at_one()
    )


def qmultiplicity_weyl_sum(lam: FundCoord, mu: FundCoord) -> QPoly:
    """m_q(lam, mu) as the alternating sum over all 12 Weyl elements.

    The term of sigma is the q-partition of sigma(lam + rho) - (mu + rho),
    which is zero unless both root coordinates are nonnegative; only the
    terms inside that cone are evaluated.
    """
    return QPoly.signed_sum((sign, qpartition(v)) for sign, v in weyl_terms(G2, lam, mu))


def multiplicity(lam: FundCoord, mu: FundCoord, method: str = "qpoly") -> int:
    """Classical weight multiplicity m(lam, mu).

    method="qpoly" evaluates the q-polynomial route at q = 1; "tarski"
    combines Tarski's integer partition values case by case instead. A
    value outside the signed 64-bit range raises CoefficientOverflowError.
    """
    if method == "qpoly":
        return qmultiplicity_closed(lam, mu).m_at_one
    if method == "tarski":
        _, _, selected = alternation_terms(G2, lam, mu)
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
    ones is returned as a counterexample. grid_max must be a nonnegative
    int; anything else raises ValueError.
    """
    if type(grid_max) is not int or grid_max < 0:  # bool is rejected too
        raise ValueError(f"grid_max must be a nonnegative integer, got {grid_max!r}")
    observed: set[str] = set()
    bad: list[tuple[tuple[int, int, int, int], str]] = []
    for m, n, x, y in product(range(grid_max + 1), repeat=4):
        sig = label_signature(compute_abcdef(FundCoord(m, n), FundCoord(x, y)).case_label)
        observed.add(sig)
        if sig not in ALLOWED_SIGNATURES:
            bad.append(((m, n, x, y), sig))
    return AuditReport(grid_max, tuple(sorted(observed)), tuple(bad))
