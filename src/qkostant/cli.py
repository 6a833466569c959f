"""Command-line front end.

Subcommands cover single evaluations (qpartition, partition, qmult, mult,
case), grid self-verification (verify), and CSV table dumps (table), for
both supported algebras. Exit codes: 0 success, 1 usage or domain error,
2 arithmetic overflow.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import product
from operator import add
from typing import Callable, NamedTuple, Sequence

from .errors import CoefficientOverflowError
from .g2_multiplicity import (
    ALLOWED_SIGNATURES,
    CaseData,
    active_terms,
    compute_abcdef,
    multiplicity,
    qmultiplicity_closed,
    qmultiplicity_weyl_sum,
    signature,
)
from .g2_partition import partition_tarski, qpartition, qpartition_bruteforce
from .qpoly import QPoly
from .rootsys import FundCoord, RootCoord, fund_to_root, root_to_fund
from .sp4 import (
    Sp4CaseData,
    compute_case_c2,
    fund_to_root_c2,
    multiplicity_c2_closed,
    multiplicity_c2_weyl_sum,
    partition_c2_closed,
    qpartition_c2,
    qpartition_c2_bruteforce,
    root_to_fund_c2,
)

_JSON = {"separators": (",", ":"), "sort_keys": True}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this front end reserves 2 for overflow."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated integers, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"expected two comma-separated integers, got {text!r}") from None


def _partition_weight(args: argparse.Namespace) -> RootCoord | None:
    """Weight for the partition commands; None when off the root lattice."""
    c1, c2 = _parse_pair(args.coords)
    if args.basis == "fund":
        w = FundCoord(c1, c2)
        if args.algebra == "g2":
            return fund_to_root(w)
        return fund_to_root_c2(w)
    return RootCoord(c1, c2)


def _weight_pair(args: argparse.Namespace) -> tuple[FundCoord, FundCoord]:
    """lambda and mu for the multiplicity commands, fundamental basis."""
    lam_pair = _parse_pair(args.lam)
    mu_pair = _parse_pair(args.mu)
    if args.basis == "root":
        convert = root_to_fund if args.algebra == "g2" else root_to_fund_c2
        return convert(RootCoord(*lam_pair)), convert(RootCoord(*mu_pair))
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
    weight = _partition_weight(args)
    if weight is None:
        poly = QPoly()
    elif args.algebra == "g2":
        poly = qpartition(weight)
    else:
        poly = qpartition_c2(weight)
    print(_poly_output(poly, args.fmt, args.at_q))
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    weight = _partition_weight(args)
    if weight is None or weight.c1 < 0 or weight.c2 < 0:
        value = 0
    elif args.algebra == "g2":
        value = partition_tarski(weight)
    else:
        value = partition_c2_closed(weight)
    print(_value_output(value, args.fmt))
    return 0


def _cmd_qmult(args: argparse.Namespace) -> int:
    lam, mu = _weight_pair(args)
    if args.algebra == "g2":
        poly = qmultiplicity_closed(lam, mu).mq
    else:
        poly = multiplicity_c2_weyl_sum(lam, mu)
    print(_poly_output(poly, args.fmt, args.at_q))
    return 0


def _cmd_mult(args: argparse.Namespace) -> int:
    lam, mu = _weight_pair(args)
    if args.algebra == "g2":
        value = multiplicity(lam, mu, method=args.method)
    else:
        if args.method == "tarski":
            raise ValueError("--method tarski applies to the g2 algebra only")
        value = multiplicity_c2_closed(lam, mu).value
    print(_value_output(value, args.fmt))
    return 0


def _g2_row(lam: FundCoord, mu: FundCoord) -> tuple[CaseData, QPoly, int]:
    res = qmultiplicity_closed(lam, mu)
    return res.case, res.mq, res.m_at_one


def _c2_row(lam: FundCoord, mu: FundCoord) -> tuple[Sp4CaseData, QPoly, int]:
    closed = multiplicity_c2_closed(lam, mu)
    return closed.case, multiplicity_c2_weyl_sum(lam, mu), closed.value


def _g2_pair_mismatches(m: int, n: int) -> tuple[bool, ...]:
    v = RootCoord(m, n)
    poly = qpartition(v)
    return poly != qpartition_bruteforce(v), poly.eval_at_one() != partition_tarski(v)


def _c2_pair_mismatches(m: int, n: int) -> tuple[bool, ...]:
    v = RootCoord(m, n)
    poly = qpartition_c2(v)
    return poly != qpartition_c2_bruteforce(v), partition_c2_closed(v) != poly.eval_at_one()


def _g2_tuple_mismatches(lam: FundCoord, mu: FundCoord) -> tuple[bool, ...]:
    # One closed evaluation serves three checks: its m_at_one is exactly
    # what multiplicity(..., "qpoly") returns, and its case is the one
    # audit_cases reads.
    closed = qmultiplicity_closed(lam, mu)
    return (
        closed.mq != qmultiplicity_weyl_sum(lam, mu),
        closed.m_at_one != multiplicity(lam, mu, "tarski"),
        signature(active_terms(closed.case)) not in ALLOWED_SIGNATURES,
    )


def _c2_tuple_mismatches(lam: FundCoord, mu: FundCoord) -> tuple[bool, ...]:
    # One Weyl sum serves both checks; an odd m - x puts mu off lam's
    # root-lattice coset, where the case flags and the sum must vanish.
    closed = multiplicity_c2_closed(lam, mu)
    weyl = multiplicity_c2_weyl_sum(lam, mu)
    return (
        closed.value != weyl.eval_at_one(),
        bool((lam.m - mu.m) % 2 and (closed.case.b_in_n or closed.case.d_in_n or weyl)),
    )


class _Algebra(NamedTuple):
    """What `case`, `verify` and `table` need from one algebra.

    The callables look the library functions up as module globals when
    they run, so a traced or patched function is the one called.
    """

    case_fields: tuple[str, ...]  # names of the values in case.as_tuple()
    case: Callable[[FundCoord, FundCoord], object]
    row: Callable[[FundCoord, FundCoord], tuple]  # (case, m_q, m at q = 1)
    pair_checks: tuple[str, ...]  # one mismatch flag each per (m, n)
    pair_mismatches: Callable[[int, int], tuple[bool, ...]]
    tuple_checks: tuple[str, ...]  # one mismatch flag each per (lam, mu)
    tuple_mismatches: Callable[[FundCoord, FundCoord], tuple[bool, ...]]


_ALGEBRAS = {
    "g2": _Algebra(
        ("a", "b", "c", "d", "e", "f"),
        lambda lam, mu: compute_abcdef(lam, mu),
        _g2_row,
        ("qpartition_vs_bruteforce", "tarski_vs_qpartition_at_one"),
        _g2_pair_mismatches,
        ("qmult_closed_vs_weyl_sum", "multiplicity_qpoly_vs_tarski", "case_audit"),
        _g2_tuple_mismatches,
    ),
    "c2": _Algebra(
        ("a", "two_b", "c", "two_d"),
        lambda lam, mu: compute_case_c2(lam, mu),
        _c2_row,
        ("qpartition_vs_bruteforce", "partition_closed_vs_qpartition_at_one"),
        _c2_pair_mismatches,
        ("mult_closed_vs_weyl_sum_at_one", "odd_parity_vanishing"),
        _c2_tuple_mismatches,
    ),
}


def _cmd_case(args: argparse.Namespace) -> int:
    lam, mu = _weight_pair(args)
    algebra = _ALGEBRAS[args.algebra]
    case = algebra.case(lam, mu)
    fields = dict(zip(algebra.case_fields, case.as_tuple()))
    if args.fmt == "json":
        payload = {
            "algebra": args.algebra,
            "lambda": [lam.m, lam.n],
            "mu": [mu.m, mu.n],
            **fields,
            "in_n": list(case.in_n),
            "case": case.case_label,
        }
        print(json.dumps(payload, **_JSON))
    else:
        print(f"case {case.case_label}: " + " ".join(f"{k}={v}" for k, v in fields.items()))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max < 0:
        raise ValueError("--max must be nonnegative")
    algebra = _ALGEBRAS[args.algebra]
    axis = range(args.max + 1)
    weights = [FundCoord(m, n) for m, n in product(axis, repeat=2)]
    checks = []
    for names, dim, points, mismatches in (
        (algebra.pair_checks, 2, product(axis, repeat=2), algebra.pair_mismatches),
        (algebra.tuple_checks, 4, product(weights, repeat=2), algebra.tuple_mismatches),
    ):
        totals = [0] * len(names)
        for point in points:
            totals = list(map(add, totals, mismatches(*point)))
        checks += (
            {"name": name, "cases": len(axis) ** dim, "mismatches": total}
            for name, total in zip(names, totals)
        )
    if args.fmt == "json":
        report = {"algebra": args.algebra, "grid_max": args.max, "checks": checks}
        print(json.dumps(report, **_JSON))
    else:
        for check in checks:
            print(f"{check['name']}: {check['cases']} cases, {check['mismatches']} mismatches")
    return 0 if all(check["mismatches"] == 0 for check in checks) else 1


def _table_lines(algebra: str, grid_max: int) -> list[str]:
    spec = _ALGEBRAS[algebra]
    lines = [f"m,n,x,y,{','.join(spec.case_fields)},case,mq_coeffs,m_at_1"]
    case_template = ",".join(["%d"] * len(spec.case_fields))
    weights = [(FundCoord(m, n), f"{m},{n}") for m, n in product(range(grid_max + 1), repeat=2)]
    for (lam, lam_text), (mu, mu_text) in product(weights, repeat=2):
        case, mq, m_at_one = spec.row(lam, mu)
        values = case_template % case.as_tuple()
        coeffs = "|".join(map(str, mq.coeffs))
        lines.append(f"{lam_text},{mu_text},{values},{case.case_label},{coeffs},{m_at_one}")
    return lines


def _cmd_table(args: argparse.Namespace) -> int:
    if args.max < 0:
        raise ValueError("--max must be nonnegative")
    data = "\n".join(_table_lines(args.algebra, args.max)) + "\n"
    if args.output in (None, "-"):
        sys.stdout.write(data)
    else:
        with open(args.output, "w", encoding="ascii", newline="") as handle:
            handle.write(data)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="qkostant", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--algebra", choices=("g2", "c2"), default="g2")
        p.add_argument(
            "--format", choices=("text", "json", "latex"), default="text", dest="fmt"
        )

    p = sub.add_parser("qpartition", help="q-analog of the partition count of one weight")
    p.add_argument("coords", help="weight as 'c1,c2' in the root basis (see --basis)")
    p.add_argument("--basis", choices=("root", "fund"), default="root")
    p.add_argument("--at-q", dest="at_q", type=int, default=None, metavar="V",
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
            p.add_argument("--at-q", dest="at_q", type=int, default=None, metavar="V",
                           help="evaluate the polynomial at the integer V")
        if name == "mult":
            p.add_argument("--method", choices=("qpoly", "tarski"), default="qpoly")
        common(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("verify", help="run the oracle-equivalence grids")
    p.add_argument("--max", type=int, required=True, metavar="N",
                   help="grid bound: pairs in [0,N]^2, tuples in [0,N]^4")
    common(p)
    p.set_defaults(handler=_cmd_verify, fmt="json")

    p = sub.add_parser("table", help="CSV of case data and multiplicities on a grid")
    p.add_argument("--max", type=int, required=True, metavar="N",
                   help="one row per (m,n,x,y) in [0,N]^4, lexicographic")
    p.add_argument("--output", "-o", default=None, metavar="PATH",
                   help="output file; '-' or omitted writes to stdout")
    common(p)
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
