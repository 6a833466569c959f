"""Command-line front end.

Subcommands cover single evaluations (qpartition, partition, qmult, mult,
case), grid self-verification (verify), and CSV table dumps (table), for
both supported algebras. Exit codes: 0 success, 1 usage or domain error,
2 arithmetic overflow.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache, partial
from itertools import product
from operator import add, itemgetter
from typing import Callable, NamedTuple, Sequence

from .errors import CoefficientOverflowError, InternalConsistencyError
from . import g2_multiplicity, sp4
from .g2_multiplicity import CASE_LABELS, CaseData, multiplicity
from .g2_partition import partition_tarski, qpartition
from .qpoly import QPoly
from .rootsys import (
    Algebra,
    FundCoord,
    QPartitionBox,
    RootCoord,
    RootSystem,
    alternation_terms_at,
    case,
    closed,
    closed_at,
    count_sum,
    doubled,
    grid_points,
    qpartition_enumerated,
    to_fund,
    to_root,
    weyl_terms_at,
)
from .sp4 import Sp4CaseData, multiplicity_c2_closed, partition_c2_closed, qpartition_c2

_JSON = {"separators": (",", ":"), "sort_keys": True}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this front end reserves 2 for overflow."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# int() alone would also take "1_0" and non-ASCII digits, such as Arabic-Indic ones.
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def _integer(text: str) -> int:
    """An optional sign and ASCII digits, with surrounding spaces allowed."""
    if _INTEGER.fullmatch(text) is None:
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


_integer.__name__ = "integer"  # argparse names a rejected value's type by it


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated integers, got {text!r}")
    try:
        return _integer(parts[0]), _integer(parts[1])
    except ValueError:
        raise ValueError(f"expected two comma-separated integers, got {text!r}") from None


def _partition_weight(args: argparse.Namespace, rs: RootSystem) -> RootCoord | None:
    """Weight for the partition commands; None when off the root lattice."""
    pair = _parse_pair(args.coords)
    return to_root(rs, pair) if args.basis == "fund" else RootCoord(*pair)


def _weight_pair(args: argparse.Namespace, rs: RootSystem) -> tuple[FundCoord, FundCoord]:
    """lambda and mu for the multiplicity commands, fundamental basis."""
    lam_pair = _parse_pair(args.lam)
    mu_pair = _parse_pair(args.mu)
    if args.basis == "root":
        return to_fund(rs, lam_pair), to_fund(rs, mu_pair)
    return FundCoord(*lam_pair), FundCoord(*mu_pair)


def _value_output(value: int, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"value": value}, **_JSON)
    return str(value)


def _poly_output(poly: QPoly, fmt: str, at_q: int | None) -> str:
    if at_q is not None:
        return _value_output(poly.eval_at(at_q), fmt)
    if fmt == "json":
        return json.dumps({"coeffs": list(poly.coeffs)}, **_JSON)
    if fmt == "latex":
        return poly.latex()
    return str(poly)


def _cmd_qpartition(args: argparse.Namespace) -> int:
    algebra = _ALGEBRAS[args.algebra]
    weight = _partition_weight(args, algebra.record.rs)
    poly = QPoly() if weight is None else algebra.qpartition(weight)
    print(_poly_output(poly, args.fmt, args.at_q))
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    algebra = _ALGEBRAS[args.algebra]
    weight = _partition_weight(args, algebra.record.rs)
    value = 0 if weight is None else algebra.count(weight)
    print(_value_output(value, args.fmt))
    return 0


def _cmd_qmult(args: argparse.Namespace) -> int:
    record = _ALGEBRAS[args.algebra].record
    lam, mu = _weight_pair(args, record.rs)
    print(_poly_output(closed(record, lam, mu).mq, args.fmt, args.at_q))
    return 0


def _cmd_mult(args: argparse.Namespace) -> int:
    lam, mu = _weight_pair(args, _ALGEBRAS[args.algebra].record.rs)
    if args.algebra == "g2":
        value = multiplicity(lam, mu, method=args.method)
    else:
        if args.method == "tarski":
            raise ValueError("--method tarski applies to the g2 algebra only")
        value = multiplicity_c2_closed(lam, mu).value
    print(_value_output(value, args.fmt))
    return 0


def _count_differs(record: Algebra, terms, value: int) -> bool:
    """Whether count_sum of terms differs from value; a count route that raises
    InternalConsistencyError is broken, so it differs."""
    try:
        return count_sum(record, terms) != value
    except InternalConsistencyError:
        return True


def _kernel_differs(kernel: Algebra, box: QPartitionBox, v: RootCoord) -> bool:
    """Whether the kernel's one-term value at v differs from box[v]; a kernel
    that raises InternalConsistencyError is broken, so it differs."""
    try:
        return kernel.term_sum([(1, v)]) != box[v]
    except InternalConsistencyError:
        return True


_term_weight = itemgetter(2)  # the RootCoord of a (name, sign, RootCoord) term


def _g2_tuple_mismatches(kernel_differs: Callable[[RootCoord], bool], record: Algebra,
                         box: QPartitionBox, lam: FundCoord, mu: FundCoord, row: tuple,
                         orbit: tuple, mu_shift: tuple[int, int]) -> tuple[bool, bool, bool]:
    # One closed evaluation off the box serves three checks. Its mq, what
    # table prints, is held to the Weyl sum off the box, and each of its terms
    # to the kernel that qmult runs; its m_at_one is what
    # multiplicity(..., "qpoly") returns and its terms the ones
    # multiplicity(..., "tarski") sums; its case is what case prints. A
    # closed route that raises InternalConsistencyError fails all three.
    try:
        result = closed_at(record, lam, mu, row, mu_shift)
    except InternalConsistencyError:
        return True, True, True
    return (
        any(map(kernel_differs, map(_term_weight, result.terms)))
        or not box.equals_sum(result.mq, weyl_terms_at(orbit, mu_shift)),
        _count_differs(record, result.terms, result.m_at_one),
        result.case.case_label not in CASE_LABELS,
    )


def _c2_tuple_mismatches(kernel_differs: Callable[[RootCoord], bool], record: Algebra,
                         box: QPartitionBox, lam: FundCoord, mu: FundCoord, row: tuple,
                         orbit: tuple, mu_shift: tuple[int, int]) -> tuple[bool, bool]:
    # The count route over the alternation terms is what multiplicity_c2_closed
    # returns, held to the Weyl sum at one read off the box's counts. An odd
    # m - x puts mu off lam's root-lattice coset, where the case flags must be
    # off and no Weyl term may reach the positive cone on the root lattice.
    # Both checks run at q = 1, so neither reads the kernel.
    shifts, label, terms, _ = alternation_terms_at(row, mu_shift)
    weyl = weyl_terms_at(orbit, mu_shift)
    in_n = record.case_data(shifts, label).in_n
    return (
        _count_differs(record, terms, box.sum_at_one(weyl)),
        bool((lam.m - mu.m) % 2 and (in_n[1] or in_n[3] or weyl)),
    )


class _Algebra(NamedTuple):
    """What every subcommand needs from one algebra.

    The one-off routes take ``record``, whose term sum is the kernel. table
    and verify build one QPartitionBox per command, refused up front past its
    byte budget, and take a copy of record that sums ℘_q off it and caches
    each count. g2's verify compares polynomials and holds the kernel to the
    box at each distinct alternation term; c2's counts at q = 1. The
    callables look the library functions up as module globals when they
    run, so a traced or patched function is the one called.
    """

    record: Algebra
    qpartition: Callable[[RootCoord], QPoly]  # the q-analog kernel
    count: Callable[[RootCoord], int]  # closed partition count at q = 1
    case_fields: tuple[str, ...]  # names of the values in case.as_tuple()
    pair_checks: tuple[str, ...]  # the two flags of pair_mismatches
    tuple_checks: tuple[str, ...]  # one mismatch flag each per (lam, mu)
    tuple_mismatches: Callable[..., tuple[bool, ...]]  # (kernel_differs, record, box, *point)

    def pair_mismatches(self, m: int, n: int) -> tuple[bool, bool]:
        """The kernel at (m, n) against the enumerator, and at q = 1 against the count."""
        v = RootCoord(m, n)
        poly = self.qpartition(v)
        enumerated = qpartition_enumerated(self.record.rs.positive_roots, v)
        return poly != enumerated, poly.eval_at_one() != self.count(v)


_ALGEBRAS = {
    "g2": _Algebra(
        g2_multiplicity.ALGEBRA,
        lambda v: qpartition(v),
        lambda v: partition_tarski(v),
        CaseData._fields[:-2],
        ("qpartition_vs_bruteforce", "tarski_vs_qpartition_at_one"),
        ("qmult_closed_vs_weyl_sum", "multiplicity_qpoly_vs_tarski", "case_audit"),
        _g2_tuple_mismatches,
    ),
    "c2": _Algebra(
        sp4.ALGEBRA,
        lambda v: qpartition_c2(v),
        lambda v: partition_c2_closed(v),
        Sp4CaseData._fields[:-2],
        ("qpartition_vs_bruteforce", "partition_closed_vs_qpartition_at_one"),
        ("mult_closed_vs_weyl_sum_at_one", "odd_parity_vanishing"),
        _c2_tuple_mismatches,
    ),
}


def _cmd_case(args: argparse.Namespace) -> int:
    algebra = _ALGEBRAS[args.algebra]
    lam, mu = _weight_pair(args, algebra.record.rs)
    data = case(algebra.record, lam, mu)
    fields = dict(zip(algebra.case_fields, data.as_tuple()))
    if args.fmt == "json":
        payload = {
            "algebra": args.algebra,
            "lambda": [lam.m, lam.n],
            "mu": [mu.m, mu.n],
            **fields,
            "in_n": list(data.in_n),
            "case": data.case_label,
        }
        print(json.dumps(payload, **_JSON))
    else:
        print(f"case {data.case_label}: " + " ".join(f"{k}={v}" for k, v in fields.items()))
    return 0


def _grid(args: argparse.Namespace) -> tuple[_Algebra, Algebra, QPartitionBox]:
    """The algebra row, the sweep record and the box of every Weyl term of
    [0, --max]^4 that the record sums ℘_q off, once --max is checked. The
    largest term is lam = (top, top) itself: (5 top, 3 top) for g2."""
    if args.max < 0:
        raise ValueError("--max must be nonnegative")
    spec = _ALGEBRAS[args.algebra]
    top1, top2 = doubled(spec.record.rs, (args.max, args.max))
    box = QPartitionBox(spec.record.rs.positive_roots, top1 >> 1, top2 >> 1)
    return spec, spec.record._replace(term_sum=box.term_sum, count=cache(spec.record.count)), box


def _cmd_verify(args: argparse.Namespace) -> int:
    spec, record, box = _grid(args)
    kernel_differs = cache(partial(_kernel_differs, spec.record, box))
    side = args.max + 1
    checks = []
    for names, cases, points, mismatches in (
        (spec.pair_checks, side**2, product(range(side), repeat=2), spec.pair_mismatches),
        (spec.tuple_checks, side**4, grid_points(record.rs, args.max),
         partial(spec.tuple_mismatches, kernel_differs, record, box)),
    ):
        totals = [0] * len(names)
        for point in points:
            flags = mismatches(*point)
            if True in flags:
                totals = list(map(add, totals, flags))
        checks += (
            {"name": name, "cases": cases, "mismatches": total}
            for name, total in zip(names, totals)
        )
    if args.fmt == "json":
        report = {"algebra": args.algebra, "grid_max": args.max, "checks": checks}
        print(json.dumps(report, **_JSON))
    else:
        for check in checks:
            print(f"{check['name']}: {check['cases']} cases, {check['mismatches']} mismatches")
    return 0 if all(check["mismatches"] == 0 for check in checks) else 1


def _cmd_table(args: argparse.Namespace) -> int:
    spec, record, _ = _grid(args)
    lines = [f"m,n,x,y,{','.join(spec.case_fields)},case,mq_coeffs,m_at_1"]
    width = len(spec.case_fields)
    case_template = ",".join(["%d"] * width)
    coords = {(m, n): f"{m},{n}" for m, n in product(range(args.max + 1), repeat=2)}
    for lam, mu, row, _, mu_shift in grid_points(record.rs, args.max):
        _, _, data, _, mq, m_at_one = closed_at(record, lam, mu, row, mu_shift)
        values = case_template % data[:width]  # the fields of data.as_tuple()
        coeffs = "|".join(map(str, mq.coeffs))
        lines.append(f"{coords[lam]},{coords[mu]},{values},{data.case_label},{coeffs},{m_at_one}")
    text = "\n".join(lines) + "\n"
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="ascii", newline="") as handle:
            handle.write(text)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="qkostant", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: argparse.ArgumentParser, formats=("text", "json", "latex")) -> None:
        p.add_argument("--algebra", choices=("g2", "c2"), default="g2")
        if formats:
            p.add_argument("--format", choices=formats, default="text", dest="fmt")

    p = sub.add_parser("qpartition", help="q-analog of the partition count of one weight")
    p.add_argument("coords", help="weight as 'c1,c2' in the root basis (see --basis)")
    p.add_argument("--basis", choices=("root", "fund"), default="root")
    p.add_argument("--at-q", dest="at_q", type=_integer, default=None, metavar="V",
                   help="evaluate the polynomial at the integer V")
    common(p)
    p.set_defaults(handler=_cmd_qpartition)

    p = sub.add_parser("partition", help="partition count of one weight (closed form)")
    p.add_argument("coords", help="weight as 'c1,c2' in the root basis (see --basis)")
    p.add_argument("--basis", choices=("root", "fund"), default="root")
    common(p)
    p.set_defaults(handler=_cmd_partition)

    for name, handler, extra in (
        ("qmult", _cmd_qmult, "q-multiplicity polynomial of mu in L(lambda)"),
        ("mult", _cmd_mult, "classical multiplicity of mu in L(lambda)"),
        ("case", _cmd_case, "case integers and selected formula for (lambda, mu)"),
    ):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--lambda", dest="lam", required=True, metavar="M,N",
                       help="highest weight in the fundamental basis (see --basis)")
        p.add_argument("--mu", required=True, metavar="X,Y",
                       help="target weight in the fundamental basis (see --basis)")
        p.add_argument("--basis", choices=("fund", "root"), default="fund")
        if name == "qmult":
            p.add_argument("--at-q", dest="at_q", type=_integer, default=None, metavar="V",
                           help="evaluate the polynomial at the integer V")
        if name == "mult":
            p.add_argument("--method", choices=("qpoly", "tarski"), default="qpoly")
        common(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("verify", help="run the oracle-equivalence grids")
    p.add_argument("--max", type=_integer, required=True, metavar="N",
                   help="grid bound: pairs in [0,N]^2, tuples in [0,N]^4")
    common(p, formats=("text", "json"))
    p.set_defaults(handler=_cmd_verify, fmt="json")

    p = sub.add_parser("table", help="CSV of case data and multiplicities on a grid")
    p.add_argument("--max", type=_integer, required=True, metavar="N",
                   help="one row per (m,n,x,y) in [0,N]^4, lexicographic")
    p.add_argument("--output", "-o", default=None, metavar="PATH",
                   help="output file; '-' or omitted writes to stdout")
    common(p, formats=())  # always CSV
    p.set_defaults(handler=_cmd_table)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 0 if exc.code is None else 1
    try:
        return args.handler(args)
    except CoefficientOverflowError as exc:
        print(f"qkostant: arithmetic overflow: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"qkostant: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
