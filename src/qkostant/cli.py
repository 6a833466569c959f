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
from itertools import chain, count, product, repeat
from operator import add
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import CoefficientOverflowError, InternalConsistencyError
from . import g2_multiplicity, sp4
from .g2_multiplicity import CASE_LABELS, CaseData
from .qpoly import QPoly, checked_int
from .rootsys import (
    Algebra,
    FundCoord,
    GridRow,
    QPartitionBox,
    RootCoord,
    RootSystem,
    alternation_terms,
    case,
    case_steps,
    closed,
    closed_mq,
    count_sum,
    grid_rows,
    line_step,
    row_cases,
    spans_of,
    sweep_box,
    to_fund,
    to_root,
    weyl_terms_at,
)
from .sp4 import Sp4CaseData

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
    """Weight for the partition commands; None off the root lattice or the
    positive cone, where the partition function is zero."""
    pair = _parse_pair(args.coords)
    v = to_root(rs, pair) if args.basis == "fund" else RootCoord(*pair)
    return None if v is None or min(v) < 0 else v


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
    record = _ALGEBRAS[args.algebra].record
    weight = _partition_weight(args, record.rs)
    poly = QPoly() if weight is None else record.term_sum([(1, weight)])
    print(_poly_output(poly, args.fmt, args.at_q))
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    record = _ALGEBRAS[args.algebra].record
    weight = _partition_weight(args, record.rs)
    value = 0 if weight is None else checked_int(record.count(*weight))
    print(_value_output(value, args.fmt))
    return 0


def _cmd_qmult(args: argparse.Namespace) -> int:
    record = _ALGEBRAS[args.algebra].record
    lam, mu = _weight_pair(args, record.rs)
    # m_q alone: the closed route's value at one may overflow where no coefficient does.
    mq = closed_mq(record, lam, mu, alternation_terms(record.rs, lam, mu)[2])
    print(_poly_output(mq, args.fmt, args.at_q))
    return 0


def _cmd_mult(args: argparse.Namespace) -> int:
    record = _ALGEBRAS[args.algebra].record
    lam, mu = _weight_pair(args, record.rs)
    if args.algebra == "c2" and args.method == "tarski":
        raise ValueError("--method tarski applies to the g2 algebra only")
    if args.algebra == "g2" and args.method == "qpoly":
        value = closed(record, lam, mu).m_at_one
    else:  # the count route, O(1) per term
        value = count_sum(record, alternation_terms(record.rs, lam, mu)[2])
    print(_value_output(value, args.fmt))
    return 0


def _count_differs(record: Algebra, terms, value: int) -> bool:
    """Whether count_sum of terms differs from value; a count route that raises
    InternalConsistencyError is broken, so it differs."""
    try:
        return count_sum(record, terms) != value
    except InternalConsistencyError:
        return True


def _kernel_mismatches(record: Algebra, box: QPartitionBox, m: int, n: int) -> tuple[bool, bool]:
    """The kernel's one-term value at (m, n) against box[m, n], and at q = 1
    against the record's count; a kernel that raises InternalConsistencyError
    fails both, a count that raises it the second."""
    v = RootCoord(m, n)
    try:
        poly = record.term_sum([(1, v)])
    except InternalConsistencyError:
        return True, True
    try:
        return poly != box[v], poly.eval_at_one() != record.count(m, n)
    except InternalConsistencyError:
        return poly != box[v], True


def _reach(rs: RootSystem, bad: Callable[[int, int], bool]) -> Callable[[GridRow], bool]:
    """Whether a term of a sweep row meets, over the tuples it spans, a point that
    fails ``bad``; each term is looked up by (term, span), and bad runs once per point.

    Where no term of a row meets a failing point, each count the row's count
    routes read is the box's count, so they equal the box's count row."""
    a, b = line_step(rs)
    bad = cache(bad)

    @cache
    def term_fails(v: RootCoord, span: int) -> bool:
        c1, c2 = v
        return True in [bad(c1 - y * a, c2 - y * b) for y in range(span)]

    return lambda row: True in [term_fails(v, span) for (_, v), span in zip(row.terms, row.spans)]


def _g2_row_checks(record: Algebra, box: QPartitionBox, top: int,
                   kernel_mismatches: Callable[[int, int], tuple]) -> list[int]:
    # One closed row off the box serves three checks per tuple. Its m_q, what
    # table prints, is held to the Weyl row off the box, and each alternation
    # term to the kernel that qmult runs; its value at one, what mult prints,
    # to the count route that mult --method tarski sums; its case label, what
    # case prints, to CASE_LABELS. A negative coefficient, where the closed
    # route raises InternalConsistencyError, fails all three. A row decodes
    # tuple by tuple only where one of them fails.
    rs, slots = record.rs, top + 1
    polys = box.polys.run(slots)
    # A point fails where the kernel differs from the box or the count from the
    # box's count. Where the kernel equals the box, its value at one is the box's
    # count, so the memo's second flag then says whether the count differs from
    # it; a raising kernel sets both flags, a raising count the second. So either
    # flag marks a failing point, and no box count is read.
    reach = _reach(rs, lambda m, n: True in kernel_mismatches(m, n))
    valid = {}  # whether every label of a row is a case label, by the row's labels
    totals = [0, 0, 0]
    for row in grid_rows(rs, top):
        closed = polys.row(row.terms)
        weyl_terms = weyl_terms_at(row.orbit, row.mu_shift)
        weyl = closed if weyl_terms == row.terms else polys.row(weyl_terms)
        labels = row.labels
        labelled = valid.get(labels)
        if labelled is None:
            labelled = valid[labels] = set(labels).issubset(CASE_LABELS)
        if reach(row) or closed != weyl or polys.negative(closed) or not labelled:
            full = [box.polys.lanes] * slots
            for y, label, mq, mq_weyl in zip(
                range(slots), labels, polys.decode(closed, full), polys.decode(weyl, full),
            ):
                if min(mq) < 0:
                    flags = (True, True, True)
                else:
                    terms = alternation_terms(rs, row.lam, (row.x, y))[2]
                    flags = (
                        mq != mq_weyl or any(kernel_mismatches(*v)[0] for _, v in terms),
                        _count_differs(record, terms, sum(mq)),
                        label not in CASE_LABELS,
                    )
                totals = list(map(add, totals, flags))
    return totals


def _c2_row_checks(record: Algebra, box: QPartitionBox, top: int,
                   kernel_mismatches: Callable[[int, int], tuple]) -> list[int]:
    # The count route over the alternation terms is what mult prints, held
    # to the Weyl row at one read off the box's counts. An odd m - x puts mu
    # off lam's root-lattice coset, where the case flags must be off and no
    # Weyl term may reach the positive cone on the root lattice. Both checks
    # run at q = 1, so neither reads the kernel.
    rs, slots, step = record.rs, top + 1, line_step(record.rs)
    counts = box.counts.run(slots)
    reach = _reach(rs, lambda *v: _count_differs(record, [(1, v)], box.sum_at_one([(1, v)])))
    totals = [0, 0]
    for row in grid_rows(rs, top):
        weyl_terms = weyl_terms_at(row.orbit, row.mu_shift)
        if (row.lam.m - row.x) % 2:
            odd = set(range(max(spans_of(step, weyl_terms, top), default=0)))
            for y0, y1, case in row_cases(record, row, top):
                if case.in_n[1] or case.in_n[3]:
                    odd.update(range(y0, y1))
            totals[1] += len(odd)
        closed = counts.row(row.terms)
        weyl = closed if weyl_terms == row.terms else counts.row(weyl_terms)
        if reach(row) or closed != weyl or counts.negative(closed):
            for y, (at_one,) in enumerate(counts.decode(weyl, [1] * slots)):
                terms = alternation_terms(rs, row.lam, (row.x, y))[2]
                totals[0] += _count_differs(record, terms, at_one)
    return totals


class _Algebra(NamedTuple):
    """What every subcommand needs from one algebra.

    ``record`` is the only way in to the algebra's kernel and count: the
    one-off routes take it as it is, so its term sum is the kernel. table
    and verify build one rootsys.sweep_box per command, refused up front past
    its byte budget, whose lines the rows of rootsys.grid_rows follow: each
    (lam, x) row of tuples sums its terms off the box as one packed int.
    verify holds the kernel to the box, and to the count at q = 1, once per
    distinct point of the pair box and of the alternation terms (g2; c2 holds
    there the count to the box); g2's tuple checks compare polynomial rows,
    c2's count rows.
    """

    record: Algebra
    case_fields: tuple[str, ...]  # names of the values in case.as_tuple()
    pair_checks: tuple[str, ...]  # the two flags of _kernel_mismatches
    tuple_checks: tuple[str, ...]  # one mismatch flag each per (lam, mu)
    # The totals of tuple_checks: (record, box, top, kernel_mismatches).
    tuple_mismatches: Callable[..., list[int]]


_ALGEBRAS = {
    "g2": _Algebra(
        g2_multiplicity.ALGEBRA,
        CaseData._fields[:-2],
        ("qpartition_vs_bruteforce", "tarski_vs_qpartition_at_one"),
        ("qmult_closed_vs_weyl_sum", "multiplicity_qpoly_vs_tarski", "case_audit"),
        _g2_row_checks,
    ),
    "c2": _Algebra(
        sp4.ALGEBRA,
        Sp4CaseData._fields[:-2],
        ("qpartition_vs_bruteforce", "partition_closed_vs_qpartition_at_one"),
        ("mult_closed_vs_weyl_sum_at_one", "odd_parity_vanishing"),
        _c2_row_checks,
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


def _grid(args: argparse.Namespace) -> tuple[_Algebra, QPartitionBox]:
    """The algebra row and its sweep_box of [0, --max]^4, once --max is checked."""
    if args.max < 0:
        raise ValueError("--max must be nonnegative")
    spec = _ALGEBRAS[args.algebra]
    return spec, sweep_box(spec.record.rs, args.max)


def _cmd_verify(args: argparse.Namespace) -> int:
    spec, box = _grid(args)
    # One record per command, whose count runs once per distinct point, and one
    # kernel check per distinct point, shared by the pair box and g2's tuples.
    record = spec.record._replace(count=cache(spec.record.count))
    kernel_mismatches = cache(partial(_kernel_mismatches, record, box))
    side = args.max + 1
    totals = [0, 0]
    for m, n in product(range(side), repeat=2):
        flags = kernel_mismatches(m, n)
        if True in flags:
            totals = list(map(add, totals, flags))
    tuple_totals = spec.tuple_mismatches(record, box, args.max, kernel_mismatches)
    checks = [
        {"name": name, "cases": cases, "mismatches": total}
        for names, cases, counts in ((spec.pair_checks, side**2, totals),
                                     (spec.tuple_checks, side**4, tuple_totals))
        for name, total in zip(names, counts)
    ]
    if args.fmt == "json":
        report = {"algebra": args.algebra, "grid_max": args.max, "checks": checks}
        print(json.dumps(report, **_JSON))
    else:
        for check in checks:
            print(f"{check['name']}: {check['cases']} cases, {check['mismatches']} mismatches")
    return 0 if all(check["mismatches"] == 0 for check in checks) else 1


class _Text(dict):
    """Each int's decimal text, made on its first lookup."""

    def __missing__(self, value: int) -> str:
        text = self[value] = str(value)
        return text


def _table_blocks(spec: _Algebra, box: QPartitionBox, top: int) -> Iterator[str]:
    """The CSV of table --max top: its header, then one block of rows per lam.

    Each (lam, x) row of tuples is one closed row off the box, decoded once, and
    its lines are joined in C. A tuple has a term exactly while P does, and then
    its m_q has degree ht(lam - mu), the height of P, with top coefficient 1: it
    is that many lanes plus one of the tuple's slot. The case fields of the row's
    first tuple move by case_steps per y."""
    yield f"m,n,x,y,{','.join(spec.case_fields)},case,mq_coeffs,m_at_1\n"
    record = spec.record
    text = _Text().__getitem__  # str runs once per distinct coefficient of the command
    width = len(spec.case_fields)
    steps = case_steps(record, width)
    a, b = line_step(record.rs)
    slots = top + 1
    polys = box.polys.run(slots)
    mus = [[f"{x},{y}" for y in range(slots)] for x in range(slots)]
    block = []
    for row in grid_rows(record.rs, top):
        closed = polys.row(row.terms)
        if polys.negative(closed):
            raise InternalConsistencyError(
                f"negative coefficient in m_q({row.lam}, ({row.x}, y)) for some y <= {top}")
        reach = row.spans[0] if row.terms else 0  # P's span: no other term outlasts it
        _, u, v = row.shifts[0]
        degree = (u + v) >> 1  # of P at y = 0, where P lies on the root lattice
        mqs = list(polys.decode(closed, range(degree + 1, degree + 1 - reach * (a + b), -(a + b))))
        fields = map(count, record.case_data(row.shifts, row.labels[0])[:width], steps)
        coeffs = chain(map("|".join, map(map, repeat(text), mqs)), repeat("", slots - reach))
        at_one = chain(map(sum, mqs), repeat(0, slots - reach))
        if not row.x:  # lam's first mu
            line = f"{row.lam.m},{row.lam.n},%s,{'%d,' * width}%s,%s,%d\n".__mod__
        block += map(line, zip(mus[row.x], *fields, row.labels, coeffs, at_one))
        if row.x == top:  # lam's last mu
            yield "".join(block)
            block.clear()


def _cmd_table(args: argparse.Namespace) -> int:
    spec, box = _grid(args)  # checks --max and the box budget before any file opens
    blocks = _table_blocks(spec, box, args.max)
    if args.output in (None, "-"):
        sys.stdout.writelines(blocks)
    else:
        with open(args.output, "w", encoding="ascii", newline="") as handle:
            handle.writelines(blocks)
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
