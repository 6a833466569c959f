"""Command-line interface tests, driven through run() for speed."""

import ast
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from qkostant import cli, g2_partition, rootsys, sp4
from qkostant.cli import run
from qkostant.errors import InternalConsistencyError
from qkostant.g2_multiplicity import qmultiplicity_weyl_sum
from qkostant.qpoly import QPoly
from qkostant.rootsys import (
    C2,
    G2,
    FundCoord,
    RootCoord,
    _alternation_row,
    _point,
    alternation_terms,
    to_root,
)
from qkostant.g2_partition import qpartition

from mutants import (
    c2_count_one_too_high,
    c2_sum_one_too_high,
    g2_marks_adding_d,
    g2_sum_moving_the_top_unit,
    g2_sum_with_a_dip,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Recorded from the CLI before the verify loops were fused; any change to
# the checks, their order or their counts shows up here.
TABLE_MAX6_SHA256 = {
    "g2": "3d89a33398f92e26cf545b4c32dab2ecdd64103b607f00c28a4a7fc71311be90",
    "c2": "3933187990f30d6e738fa8d69b243de4290f36cadf1b4b867a71274a500d9fdf",
}
# table --max 2 and --max 10, the grid sizes the benchmark runs, recorded at
# the same commit as the benchmark's own copy of these digests,
# bench/workloads.py::TABLE_SHA256, which they must equal.
TABLE_MAX2_SHA256 = {
    "g2": "72b6c410ee623786a5091da53a20413759e9e5c5e9db496a37bbc0a277b5d575",
    "c2": "5db9753815c693671458675eeb51c3d3756dc8d807ba2101ad4e254718a82735",
}
TABLE_MAX10_SHA256 = {
    "g2": "00b0a4baa51beca9b2c0353d16a48d1e2e3c0822bd5461da255f13da710e8e3d",
    "c2": "a34d7d02e44588ad936907cb1076df2053fdfef81323904848b71dc7050be107",
}
# table --algebra c2 --max 12, written with --output one lam block at a time.
C2_TABLE_MAX12_SHA256 = "7d27616a44fcdf3f2507e3a65174483a76803cf8b264d8d37db87e244a42f229"
# SHA-256 of the concatenated `case --format json` stdout over every tuple
# of [0,4]^4 in lexicographic order; it covers in_n, including the sp4
# parity flags that the table CSV leaves out.
CASE_JSON_GRID4_SHA256 = {
    "g2": "cdd34f0e9afd0a75d2367b06859515081b0d93ab197321e7d3c1365736a87ed9",
    "c2": "b4b737dc9171b401ab54ac6a41ec918d38c7373863700d5be7ebff83c0447c9e",
}
# SHA-256 of the stdout of deep g2 queries, recorded before the marker
# builder's loop over i was replaced (the first four) and before every sum
# was divided in lanes of a width read off its bound (the last); each output
# also equals the O(N^2) qpartition_double_loop reference. The first three
# sums take 32-bit lanes, and the last two, whose coefficients need more
# than 31 bits, 64-bit lanes: one term, and five terms.
DEEP_G2_SHA256 = {
    ("qmult", "--lambda", "600,600", "--mu", "100,50"):
        "768fb8ea4c7003484a14d9c07af1f3b5e1587a824b086e9b2f028f8386acb5d5",
    ("qmult", "--lambda", "80,80", "--mu", "10,10"):
        "b151c38dd4616c64bf07e4f70f9c086035a6659a0c10178efc151f2fcd2a63cd",
    ("qpartition", "3000,2000"):
        "d4391de5d8d932c4e49b7e7780ef9b67878308043b3fdf53ae0d75a3e4f4e907",
    ("qpartition", "10000,10000"):
        "fa0f3df58ddd56a737a13ffbabfd9e20be3ee5de0ad77626b4ebed2c05526079",
    ("qmult", "--lambda", "1000,1000", "--mu", "100,50"):
        "e03b2d45984ecc403a71210709ee368f3cdfd37aa34e644ad337d4db22234ee0",
}
# SHA-256 of the stdout of deep sp4 queries, recorded before the walk wrote
# its pieces from one list of their values.
DEEP_C2_SHA256 = {
    ("qmult", "--algebra", "c2", "--lambda", "2500,2500", "--mu", "624,312"):
        "3febb025a3e79caa7eb5c9396733fc0583648f352c053dbf811e55b45b766646",
    ("qpartition", "--algebra", "c2", "5000,3750"):
        "8d5bba6c9b147e051f609e35e1d476902a2e42c39711f9fb6778877cd17c90ed",
}
VERIFY_MAX3_TEXT = {
    "g2": (
        "qpartition_vs_bruteforce: 16 cases, 0 mismatches\n"
        "tarski_vs_qpartition_at_one: 16 cases, 0 mismatches\n"
        "qmult_closed_vs_weyl_sum: 256 cases, 0 mismatches\n"
        "multiplicity_qpoly_vs_tarski: 256 cases, 0 mismatches\n"
        "case_audit: 256 cases, 0 mismatches\n"
    ),
    "c2": (
        "qpartition_vs_bruteforce: 16 cases, 0 mismatches\n"
        "partition_closed_vs_qpartition_at_one: 16 cases, 0 mismatches\n"
        "mult_closed_vs_weyl_sum_at_one: 256 cases, 0 mismatches\n"
        "odd_parity_vanishing: 256 cases, 0 mismatches\n"
    ),
}
VERIFY_MAX6_STDOUT = {
    "g2": (
        '{"algebra":"g2","checks":['
        '{"cases":49,"mismatches":0,"name":"qpartition_vs_bruteforce"},'
        '{"cases":49,"mismatches":0,"name":"tarski_vs_qpartition_at_one"},'
        '{"cases":2401,"mismatches":0,"name":"qmult_closed_vs_weyl_sum"},'
        '{"cases":2401,"mismatches":0,"name":"multiplicity_qpoly_vs_tarski"},'
        '{"cases":2401,"mismatches":0,"name":"case_audit"}'
        '],"grid_max":6}\n'
    ),
    "c2": (
        '{"algebra":"c2","checks":['
        '{"cases":49,"mismatches":0,"name":"qpartition_vs_bruteforce"},'
        '{"cases":49,"mismatches":0,"name":"partition_closed_vs_qpartition_at_one"},'
        '{"cases":2401,"mismatches":0,"name":"mult_closed_vs_weyl_sum_at_one"},'
        '{"cases":2401,"mismatches":0,"name":"odd_parity_vanishing"}'
        '],"grid_max":6}\n'
    ),
}


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSingleEvaluations:
    def test_qmult_latex(self, capsys):
        code, out, _ = invoke(
            capsys, "qmult", "--algebra", "g2", "--lambda", "0,1", "--mu", "0,0",
            "--format", "latex",
        )
        assert code == 0
        assert out == "q^{5} + q\n"

    def test_qmult_text_default(self, capsys):
        code, out, _ = invoke(capsys, "qmult", "--lambda", "0,3", "--mu", "1,2")
        assert code == 0
        assert out == "q^2\n"
        assert invoke(capsys, "qmult", "--lambda", "1,0", "--mu", "0,0") == (0, "q^3\n", "")

    def test_qpartition_json(self, capsys):
        code, out, _ = invoke(
            capsys, "qpartition", "--algebra", "g2", "3,2", "--format", "json"
        )
        assert code == 0
        assert out == '{"coeffs":[0,1,2,2,1,1]}\n'
        # sp4's at the same weight, as text.
        assert invoke(capsys, "qpartition", "--algebra", "c2", "3,2") == (
            0, "q^5 + q^4 + 2q^3 + q^2\n", "",
        )

    def test_json_output_round_trips(self, capsys):
        _, out, _ = invoke(capsys, "qpartition", "7,4", "--format", "json")
        coeffs = json.loads(out)["coeffs"]
        assert QPoly(coeffs) == qpartition(RootCoord(7, 4))

    def test_at_q_reproduces_classical_count(self, capsys):
        code, out, _ = invoke(capsys, "qpartition", "3,2", "--at-q", "1")
        assert (code, out) == (0, "7\n")
        assert invoke(capsys, "qpartition", " 3, +2 ", "--at-q", " 1 ")[:2] == (0, "7\n")
        code, out, _ = invoke(
            capsys, "qmult", "--lambda", "0,1", "--mu", "0,0", "--at-q", "1",
            "--format", "json",
        )
        assert (code, out) == (0, '{"value":2}\n')

    def test_partition_closed_forms(self, capsys):
        assert invoke(capsys, "partition", "3,2")[:2] == (0, "7\n")
        assert invoke(capsys, "partition", "--algebra", "c2", "3,2")[:2] == (0, "5\n")
        assert invoke(capsys, "partition", "--", "-1,5")[:2] == (0, "0\n")
        assert invoke(capsys, "partition", "9,5")[:2] == (0, "60\n")
        assert invoke(capsys, "partition", "--algebra", "c2", "9,5")[:2] == (0, "20\n")

    @pytest.mark.parametrize(
        "argv",
        [("qpartition", "--", "-1,2"), ("partition", "--algebra", "c2", "--", "-1,2"),
         ("qpartition", "--", "-1,0"), ("partition", "--algebra", "c2", "--", "-1,0")],
        ids=["g2-qpartition", "c2-partition", "g2-qpartition-minus-a1", "c2-partition-minus-a1"],
    )
    def test_negative_root_coordinates_follow_a_double_dash(self, capsys, argv):
        # Without "--", argparse reads -1,2 as an option and the weight is missing.
        assert invoke(capsys, *argv)[:2] == (0, "0\n")
        code, out, err = invoke(capsys, *(arg for arg in argv if arg != "--"))
        assert (code, out) == (1, "") and "required: coords" in err

    def test_partition_fundamental_basis(self, capsys):
        # w2 = 3a1 + 2a2, so the fundamental pair (0,1) names the same weight
        assert invoke(capsys, "partition", "--basis", "fund", "0,1")[:2] == (0, "7\n")

    def test_c2_fundamental_weight_off_lattice(self, capsys):
        code, out, _ = invoke(
            capsys, "qpartition", "--algebra", "c2", "--basis", "fund", "1,0",
            "--format", "json",
        )
        assert (code, out) == (0, '{"coeffs":[]}\n')
        text = invoke(capsys, "qpartition", "--algebra", "c2", "--basis", "fund", "1,0")
        assert text == (0, "0\n", "")

    def test_mult_methods(self, capsys):
        assert invoke(capsys, "mult", "--lambda", "0,1", "--mu", "0,0")[:2] == (0, "2\n")
        assert invoke(
            capsys, "mult", "--lambda", "0,1", "--mu", "0,0", "--method", "tarski"
        )[:2] == (0, "2\n")
        assert invoke(capsys, "mult", "--algebra", "c2", "--lambda", "2,1", "--mu", "0,0")[
            :2
        ] == (0, "3\n")
        # A deep one-off g2 query runs the fused q route, which Tarski's O(1)
        # count matches.
        for option in ((), ("--method", "tarski")):
            argv = ("mult", "--lambda", "80,80", "--mu", "10,10", *option)
            assert invoke(capsys, *argv) == (0, "9419753\n", ""), option

    @pytest.mark.parametrize("algebra", ["g2", "c2"])
    @pytest.mark.parametrize("command", ["qmult", "mult", "case", "qpartition"])
    def test_root_basis_multiplicity(self, capsys, command, algebra):
        # Every dominant weight of [0,3]^2, except sp4's with odd m, which
        # are off the root lattice and have no root-basis name.
        rs = {"g2": G2, "c2": C2}[algebra]
        names = {
            (m, n): (f"{m},{n}", "%d,%d" % to_root(rs, (m, n)))
            for m, n in product(range(4), repeat=2)
            if algebra == "g2" or m % 2 == 0
        }
        if command == "qpartition":
            argvs = [([w], [r]) for w, r in names.values()]
        else:
            argvs = [
                (["--lambda", lam_w, "--mu", mu_w], ["--lambda", lam_r, "--mu", mu_r])
                for (lam_w, lam_r), (mu_w, mu_r) in product(names.values(), repeat=2)
            ]
        for fund, root in argvs:
            head = [command, "--algebra", algebra]
            via_fund = invoke(capsys, *head, "--basis", "fund", *fund)
            assert via_fund[0] == 0
            assert invoke(capsys, *head, "--basis", "root", *root) == via_fund, (fund, root)

    def test_case_json(self, capsys):
        code, out, _ = invoke(
            capsys, "case", "--lambda", "5,6", "--mu", "0,0", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "PQRST"
        assert [payload[k] for k in "abcdef"] == [28, 17, 22, 10, 4, 1]
        # The text form, of a weight named in the root basis: (3, 2) is w2.
        text = invoke(capsys, "case", "--basis", "root", "--lambda", "3,2", "--mu", "0,0")
        assert text == (0, "case PQR: a=3 b=2 c=2 d=0 e=-1 f=-4\n", "")

    def test_case_text_c2(self, capsys):
        code, out, _ = invoke(capsys, "case", "--algebra", "c2", "--lambda", "0,2", "--mu", "0,0")
        assert code == 0
        assert out == "case PQ: a=2 two_b=4 c=1 two_d=-2\n"
        code, out, _ = invoke(capsys, "case", "--algebra", "c2", "--lambda", "3,2", "--mu", "1,0")
        assert (code, out) == (0, "case PQR: a=4 two_b=6 c=0 two_d=0\n")


class TestErrors:
    def test_unknown_command(self, capsys):
        code, _, err = invoke(capsys, "bogus")
        assert code == 1 and err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("qpartition", "1,2,3"), "comma-separated"),
            (("qmult", "--lambda", "1_0,0", "--mu", "0,0"), "comma-separated"),
            (("qmult", "--lambda", "\u0663,0", "--mu", "0,0"), "comma-separated"),
            (("partition", "3,\uff12"), "comma-separated"),
            (("qpartition", "3,2", "--at-q", "1_0"), "invalid integer value"),
            (("qmult", "--lambda", "0,1", "--mu", "0,0", "--at-q", "\u0663"), "invalid integer"),
        ],
        ids=["three-values", "underscore", "arabic-indic-digit", "fullwidth-digit",
             "at-q-underscore", "at-q-arabic-indic-digit"],
    )
    def test_malformed_coordinates(self, capsys, argv, message):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "") and message in err

    def test_root_basis_error_names_the_typed_weight(self, capsys):
        code, out, err = invoke(
            capsys, "mult", "--lambda", "0,1", "--mu", "1,0", "--basis", "root"
        )
        assert (code, out) == (1, "")
        assert "(0, 1)" in err and err.index("(0, 1)") < err.index("(-3, 2)")

    def test_negative_fundamental_coordinates(self, capsys):
        code, _, err = invoke(capsys, "qmult", "--lambda=-1,0", "--mu", "0,0")
        assert code == 1 and "nonnegative" in err

    def test_tarski_method_is_g2_only(self, capsys):
        code, _, err = invoke(
            capsys, "mult", "--algebra", "c2", "--lambda", "1,1", "--mu", "0,0",
            "--method", "tarski",
        )
        assert code == 1 and "g2" in err

    def test_overflow_exits_two(self, capsys):
        code, _, err = invoke(capsys, "qpartition", "3,2", "--at-q", "100000")
        assert code == 2 and "overflow" in err

    @pytest.mark.parametrize(
        "argv", [("qpartition", "3,2"), ("qmult", "--lambda", "1,1", "--mu", "0,0")]
    )
    def test_g2_coefficient_outside_int64_exits_two(self, capsys, monkeypatch, argv):
        # Real g2 coefficients leave int64 only at degrees in the millions,
        # where the lanes are wider than 64 bits; a marker builder that adds
        # 2^70 * D makes one at (3, 2). With its lanes forced to 128 bits, as
        # at those degrees, QPoly's range check refuses the result.
        monkeypatch.setattr(g2_partition, "_g2_marks", g2_marks_adding_d(1 << 70))
        monkeypatch.setattr(g2_partition, "_lane_width", lambda bound: 128)
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "") and "overflow" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("partition", "100000000,100000000"),
            ("mult", "--algebra", "c2", "--lambda", "10000000000,10000000000", "--mu", "0,0"),
            ("mult", "--lambda", "1000000,1000000", "--mu", "0,0", "--method", "tarski"),
        ],
        ids=["g2-partition", "c2-mult", "g2-mult-tarski"],
    )
    def test_integer_result_outside_int64_exits_two(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "") and "overflow" in err

    @pytest.mark.parametrize(
        "argv,value",
        [
            (("mult", "--algebra", "c2", "--lambda", "0,6074000998", "--mu", "0,0"), 3037000500),
            (("mult", "--method", "tarski", "--lambda", "0,86249", "--mu", "0,0"), 53469191637500),
            (("mult", "--lambda", "0,86249", "--mu", "0,0"), 53469191637500),
        ],
        ids=["c2-mult", "g2-mult-tarski", "g2-mult-qpoly"],
    )
    def test_integer_result_inside_int64_with_a_term_outside(self, capsys, argv, value):
        # The P term's count is past INT64_MAX (9223372037000250000 for c2,
        # 9223542489342780625 for g2); only the multiplicity is range-checked.
        assert invoke(capsys, *argv)[:2] == (0, f"{value}\n")

    def test_qmult_prints_coefficients_whose_value_at_one_is_outside_int64(self, capsys):
        # m(lam, mu) = 23612055571388994445 has 65 bits, but no coefficient of
        # m_q has more than 47: qmult prints them, while mult and the value at
        # q = 1 still overflow.
        pair = ("--lambda", "100000,100000", "--mu", "0,0")
        code, out, err = invoke(capsys, "qmult", *pair, "--format", "json")
        assert (code, err) == (0, "")
        coeffs = json.loads(out)["coeffs"]
        lam, mu = FundCoord(100000, 100000), FundCoord(0, 0)
        assert coeffs == list(qmultiplicity_weyl_sum(lam, mu).coeffs)
        assert (sum(coeffs), max(coeffs).bit_length()) == (23612055571388994445, 47)
        for argv in (("mult", *pair), ("qmult", *pair, "--at-q", "1")):
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (2, "") and "23612055571388994445" in err

    @pytest.mark.parametrize(
        "argv,degree",
        [
            (("qpartition", "99999999999999999999,0"), 99999999999999999999),
            (("qpartition", "--algebra", "c2", "99999999999999999998,0"), 99999999999999999998),
            (("qmult", "--lambda", "99999999999999999999,0", "--mu", "0,0"),
             299999999999999999997),
            (("qmult", "--algebra", "c2", "--lambda", "99999999999999999998,0", "--mu", "0,0"),
             149999999999999999997),
        ],
        ids=["g2-qpartition", "c2-qpartition", "g2-qmult", "c2-qmult"],
    )
    def test_degree_past_any_list_is_a_value_error(self, capsys, argv, degree):
        # The coefficient list would need more than sys.maxsize entries; the
        # kernels refuse before allocating instead of raising OverflowError,
        # with one error line and no traceback.
        assert invoke(capsys, *argv) == (
            1, "", f"qkostant: error: degree {degree} is too large for a coefficient list\n",
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("qpartition", "20000,10000", "--at-q", "3"),
            ("partition", ",".join(["9" * 1100] * 2)),
        ],
        ids=["qpartition-at-q", "g2-partition-1100-digits"],
    )
    def test_overflow_too_long_to_print_exits_two(self, capsys, argv):
        # Both values are past Python's 4300-digit int-to-str limit; the
        # overflow must still exit 2, not fail while formatting its message.
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "") and "arithmetic overflow" in err

    @pytest.mark.parametrize("command", ["verify", "table"])
    @pytest.mark.parametrize("bound", ["1_0", "\u0663"], ids=["underscore", "arabic-indic-digit"])
    def test_lenient_grid_bound_rejected(self, capsys, command, bound):
        code, out, _ = invoke(capsys, command, "--max", bound)
        assert (code, out) == (1, "")

    def test_negative_grid_rejected(self, capsys):
        for command in ("verify", "table"):
            code, out, err = invoke(capsys, command, "--max", "-1")
            assert (code, out, err) == (1, "", "qkostant: error: --max must be nonnegative\n")

    def test_help_exits_zero(self, capsys):
        assert invoke(capsys, "--help")[0] == 0


class TestVerify:
    def test_g2_report_is_clean(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--algebra", "g2", "--max", "3")
        assert code == 0
        report = json.loads(out)
        assert report["algebra"] == "g2" and report["grid_max"] == 3
        assert {c["name"] for c in report["checks"]} == {
            "qpartition_vs_bruteforce",
            "tarski_vs_qpartition_at_one",
            "qmult_closed_vs_weyl_sum",
            "multiplicity_qpoly_vs_tarski",
            "case_audit",
        }
        assert all(c["mismatches"] == 0 for c in report["checks"])
        assert any(c["cases"] == 256 for c in report["checks"])

    def test_c2_report_is_clean(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--algebra", "c2", "--max", "3")
        assert code == 0
        report = json.loads(out)
        assert all(c["mismatches"] == 0 for c in report["checks"])

    def test_text_format(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--max", "1", "--format", "text")
        assert code == 0
        assert "0 mismatches" in out
        for algebra, text in VERIFY_MAX3_TEXT.items():
            argv = ("verify", "--max", "3", "--algebra", algebra, "--format", "text")
            assert invoke(capsys, *argv) == (0, text, ""), algebra

    def test_latex_format_rejected(self, capsys):
        # The report has no LaTeX form.
        code, out, err = invoke(capsys, "verify", "--max", "1", "--format", "latex")
        assert (code, out) == (1, "") and "--format" in err


class TestTable:
    def test_single_row_grid(self, capsys):
        code, out, _ = invoke(capsys, "table", "--max", "0")
        assert code == 0
        assert out.splitlines() == [
            "m,n,x,y,a,b,c,d,e,f,case,mq_coeffs,m_at_1",
            "0,0,0,0,0,0,-1,-1,-2,-4,P,1,1",
        ]

    def test_known_rows_at_max_one(self, capsys):
        _, out, _ = invoke(capsys, "table", "--max", "1")
        rows = out.splitlines()
        assert "0,1,0,0,3,2,2,0,-1,-4,PQR,0|1|0|0|0|1,2" in rows

    def test_stdout_runs_are_identical(self, capsys, monkeypatch):
        first = invoke(capsys, "table", "--max", "2")
        second = invoke(capsys, "table", "--max", "2")
        assert first == second
        # Each coefficient's text is made once per command and then reused:
        # large values, and a value repeated within a row, print as str does.
        big = QPoly([0, 7, 2**31, 2**40, 2**61, 7])
        suffix = ",0|7|2147483648|1099511627776|2305843009213693952|7,2305844110872805390"
        for algebra in ("g2", "c2"):
            text = invoke(capsys, "table", "--algebra", algebra, "--max", "2")[1]
            assert hashlib.sha256(text.encode("ascii")).hexdigest() == TABLE_MAX2_SHA256[algebra]
            plain = text.splitlines()
            with monkeypatch.context() as patch:
                # The decode of each row's slots hands table the coefficients.
                patch.setattr(rootsys._Lines, "decode",
                              lambda self, row, lanes: [big.coeffs] * len(lanes))
                code, out, _ = invoke(capsys, "table", "--algebra", algebra, "--max", "2")
            rows = out.splitlines()
            assert code == 0 and len(rows) == len(plain) == 82
            zero = [row.split(",")[-3] == "ZERO" for row in rows[1:]]
            assert any(zero) and not all(zero)
            for is_zero, row, plain_row in zip(zero, rows[1:], plain[1:]):
                if is_zero:
                    assert row == plain_row
                else:
                    assert row.endswith(suffix)
                    assert row.rsplit(",", 2)[0] == plain_row.rsplit(",", 2)[0]

    def test_file_output_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert invoke(capsys, "table", "--max", "2", "--output", str(path))[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        code, out, _ = invoke(capsys, "table", "--max", "2")
        assert code == 0 and paths[0].read_bytes() == out.encode("ascii")

    def test_a_written_table_is_streamed(self, tmp_path, capsys):
        # Rows go out one lam block at a time: the peak holds the box and one
        # block, less than the file itself, not the whole CSV.
        path = tmp_path / "t.csv"
        tracemalloc.start()
        try:
            code = run(["table", "--algebra", "c2", "--max", "12", "--output", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and capsys.readouterr() == ("", "")
        assert peak < path.stat().st_size
        assert hashlib.sha256(path.read_bytes()).hexdigest() == C2_TABLE_MAX12_SHA256

    def test_c2_table_columns(self, capsys):
        _, out, _ = invoke(capsys, "table", "--algebra", "c2", "--max", "1")
        rows = out.splitlines()
        assert rows[0] == "m,n,x,y,a,two_b,c,two_d,case,mq_coeffs,m_at_1"
        assert "0,1,0,1,0,0,-1,-4,P,1,1" in rows

    def test_format_option_rejected(self, capsys):
        # The table is always CSV.
        code, out, err = invoke(capsys, "table", "--max", "1", "--format", "json")
        assert (code, out) == (1, "") and "--format" in err

    def test_unwritable_path_fails(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.csv"
        code, _, err = invoke(capsys, "table", "--max", "0", "--output", str(target))
        assert code == 1 and err


class TestPinnedOutput:
    @pytest.mark.parametrize("algebra", ["g2", "c2"])
    def test_table_max6_hash(self, capsys, algebra):
        code, out, _ = invoke(capsys, "table", "--algebra", algebra, "--max", "6")
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == TABLE_MAX6_SHA256[algebra]

    @pytest.mark.parametrize("algebra", ["g2", "c2"])
    def test_table_max10_hash(self, capsys, algebra):
        code, out, _ = invoke(capsys, "table", "--algebra", algebra, "--max", "10")
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == TABLE_MAX10_SHA256[algebra]

    @pytest.mark.parametrize("algebra", ["g2", "c2"])
    def test_case_json_grid_hash(self, capsys, algebra):
        digest = hashlib.sha256()
        for m, n, x, y in product(range(5), repeat=4):
            code, out, _ = invoke(
                capsys, "case", "--algebra", algebra, "--lambda", f"{m},{n}",
                "--mu", f"{x},{y}", "--format", "json",
            )
            assert code == 0
            digest.update(out.encode("ascii"))
        assert digest.hexdigest() == CASE_JSON_GRID4_SHA256[algebra]

    def test_c2_qmult_and_table_do_not_run_the_weyl_sum(self, capsys, monkeypatch):
        # They print the closed q route; only verify runs the oracle, whose
        # terms come from weyl_terms_at in one-pair and sweep routes alike.
        def oracle(orbit, mu_shift):
            raise AssertionError("the Weyl sum ran")

        monkeypatch.setattr(cli, "weyl_terms_at", oracle)
        monkeypatch.setattr(rootsys, "weyl_terms_at", oracle)
        qmult = ["qmult", "--algebra", "c2", "--lambda", "2,0", "--mu", "0,0"]
        assert invoke(capsys, *qmult) == (0, "q^3 + q\n", "")
        assert invoke(capsys, *qmult, "--format", "json") == (0, '{"coeffs":[0,1,0,1]}\n', "")
        latex = invoke(capsys, *qmult[:4], "0,2", "--mu", "0,0", "--format", "latex")
        assert latex == (0, "q^{4} + q^{2}\n", "")
        code, out, _ = invoke(capsys, "table", "--algebra", "c2", "--max", "6")
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == TABLE_MAX6_SHA256["c2"]

    @pytest.mark.parametrize("args", sorted(DEEP_G2_SHA256), ids=" ".join)
    def test_deep_g2_output_hash(self, capsys, args):
        code, out, _ = invoke(capsys, *args)
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == DEEP_G2_SHA256[args]

    @pytest.mark.parametrize("args", sorted(DEEP_C2_SHA256), ids=" ".join)
    def test_deep_c2_output_hash(self, capsys, args):
        code, out, _ = invoke(capsys, *args)
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == DEEP_C2_SHA256[args]

    def test_pins_shared_with_the_benchmark_agree(self):
        # The benchmark keeps its own copies: the table digests it checks each
        # run against, and the check names a verify run must print.
        tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
        bench = {
            node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("TABLE_SHA256", "VERIFY_CHECKS")
        }
        assert bench["TABLE_SHA256"] == {
            (algebra, top): pins[algebra]
            for top, pins in ((2, TABLE_MAX2_SHA256), (10, TABLE_MAX10_SHA256))
            for algebra in ("g2", "c2")
        }
        assert bench["VERIFY_CHECKS"] == {
            name: spec.pair_checks + spec.tuple_checks for name, spec in cli._ALGEBRAS.items()
        }

    @pytest.mark.parametrize("algebra", ["g2", "c2"])
    def test_verify_max6_stdout(self, capsys, algebra):
        assert invoke(capsys, "verify", "--algebra", algebra, "--max", "6") == (
            0,
            VERIFY_MAX6_STDOUT[algebra],
            "",
        )


def _mismatch_counts(capsys, algebra, top=3):
    code, out, err = invoke(capsys, "verify", "--algebra", algebra, "--max", str(top))
    assert err == ""
    counts = {check["name"]: check["mismatches"] for check in json.loads(out)["checks"]}
    return code, counts


def _g2_counts(weyl, tarski, case):
    return {
        "qpartition_vs_bruteforce": 0,
        "tarski_vs_qpartition_at_one": 0,
        "qmult_closed_vs_weyl_sum": weyl,
        "multiplicity_qpoly_vs_tarski": tarski,
        "case_audit": case,
    }


def _with_record(monkeypatch, algebra, **fields):
    """Hand verify the algebra's record with the given fields replaced."""
    spec = cli._ALGEBRAS[algebra]
    record = spec.record._replace(**fields)
    monkeypatch.setitem(cli._ALGEBRAS, algebra, spec._replace(record=record))


# One-off commands that read the kernel or the count: at lam = mu the only
# alternation term is P at 0, so mult sums one term and a shifted count shows.
RECORD_PROBES = (
    ("qpartition", "3,2"),
    ("partition", "3,2"),
    ("qmult", "--lambda", "1,1", "--mu", "1,1"),
    ("mult", "--lambda", "1,1", "--mu", "1,1"),
)


@pytest.mark.parametrize("algebra", ["g2", "c2"])
def test_every_command_reaches_the_algebra_through_its_row_record(capsys, monkeypatch,
                                                                  algebra):
    # A record whose kernel adds 1 and whose count adds 2, put in the row
    # alone, changes every one-off output and fails both pair checks at every
    # pair: the kernel against the box, and its value at one against the count.
    plain = [invoke(capsys, *probe, "--algebra", algebra) for probe in RECORD_PROBES]
    record = cli._ALGEBRAS[algebra].record
    _with_record(monkeypatch, algebra,
                 term_sum=lambda terms: record.term_sum(terms) + QPoly([1]),
                 count=lambda m, n: record.count(m, n) + 2)
    for probe, before in zip(RECORD_PROBES, plain):
        code, out, err = invoke(capsys, *probe, "--algebra", algebra)
        assert (code, err) == (0, "") and out != before[1], probe
    code, counts = _mismatch_counts(capsys, algebra)
    assert code == 1
    assert [counts[name] for name in cli._ALGEBRAS[algebra].pair_checks] == [16, 16]


class TestFusedChecksStayIndependent:
    """verify sums each (lam, x) row of tuples once; each check must still count
    each tuple on its own.

    Each test corrupts one seam of the row core at one tuple: the Weyl terms
    of a row (weyl_terms_at as cli names it, handed the orbit and the shift of
    the row's first tuple), the count that the count route reads, the label
    that the row's alternation terms spell (rootsys.alternation_terms_at), and
    the case builder of the record, which c2's parity check reads once per run
    of a row over which the case's flags hold. A term added to a row's first
    tuple at a point where its line ends reaches that tuple alone.
    """

    def test_wrong_weyl_sum_counts_once(self, capsys, monkeypatch):
        real = cli.weyl_terms_at
        target = _point(G2, (2, 1), (1, 0))[2:]  # (orbit, mu_shift)

        def corrupted(orbit, mu_shift):
            terms = real(orbit, mu_shift)
            # One more term at weight 0 adds qpartition(0, 0) = 1 to the sum.
            return terms + [(1, RootCoord(0, 0))] if (orbit, mu_shift) == target else terms

        monkeypatch.setattr(cli, "weyl_terms_at", corrupted)
        code, counts = _mismatch_counts(capsys, "g2")
        assert code == 1
        assert counts == {
            "qpartition_vs_bruteforce": 0,
            "tarski_vs_qpartition_at_one": 0,
            "qmult_closed_vs_weyl_sum": 1,
            "multiplicity_qpoly_vs_tarski": 0,
            "case_audit": 0,
        }

    def test_wrong_tarski_multiplicity_counts_once(self, capsys, monkeypatch):
        # (15, 9) is lam = (3, 3) itself: the P term of (lam, 0), of no other
        # tuple of [0, 3]^4, and past the pair box.
        real = cli._ALGEBRAS["g2"].record.count
        assert _tuples_with_a_term(lambda v: v == (15, 9), G2, 3) == 1
        _with_record(monkeypatch, "g2", count=lambda m, n: real(m, n) + ((m, n) == (15, 9)))
        code, counts = _mismatch_counts(capsys, "g2")
        assert code == 1
        assert counts == {
            "qpartition_vs_bruteforce": 0,
            "tarski_vs_qpartition_at_one": 0,
            "qmult_closed_vs_weyl_sum": 0,
            "multiplicity_qpoly_vs_tarski": 1,
            "case_audit": 0,
        }

    def test_forbidden_case_label_counts_once(self, capsys, monkeypatch):
        real = rootsys.alternation_terms_at
        _, _, orbit, mu_shift = _point(G2, (2, 1), (1, 0))
        target = (_alternation_row(G2, orbit), mu_shift)

        def corrupted(row, shift):
            shifts, label, terms = real(row, shift)
            if (row, shift) != target:
                return shifts, label, terms
            # P and S without Q: a term set no case combines. Q and R leave the
            # row after its first tuple, where the label is P again.
            assert label == "PQR"
            return shifts, "PSR", terms

        monkeypatch.setattr(rootsys, "alternation_terms_at", corrupted)
        code, counts = _mismatch_counts(capsys, "g2")
        assert code == 1
        assert counts == {
            "qpartition_vs_bruteforce": 0,
            "tarski_vs_qpartition_at_one": 0,
            "qmult_closed_vs_weyl_sum": 0,
            "multiplicity_qpoly_vs_tarski": 0,
            "case_audit": 1,
        }

    def test_wrong_c2_weyl_sum_at_odd_parity_counts_in_both(self, capsys, monkeypatch):
        real = cli.weyl_terms_at
        odd = _point(C2, (3, 1), (0, 0))[2:]  # m - x = 3 is odd: the true sum is zero

        def corrupted(orbit, mu_shift):
            terms = real(orbit, mu_shift)
            # One more term at a1 adds qpartition_c2(1, 0) = q to the sum.
            return terms + [(1, RootCoord(1, 0))] if (orbit, mu_shift) == odd else terms

        monkeypatch.setattr(cli, "weyl_terms_at", corrupted)
        code, counts = _mismatch_counts(capsys, "c2")
        assert code == 1
        assert counts == {
            "qpartition_vs_bruteforce": 0,
            "partition_closed_vs_qpartition_at_one": 0,
            "mult_closed_vs_weyl_sum_at_one": 1,
            "odd_parity_vanishing": 1,
        }

    def test_wrong_c2_case_flag_at_odd_parity_counts_in_parity_only(self, capsys, monkeypatch):
        spec = cli._ALGEBRAS["c2"]
        real = spec.record.case_data
        # The first run of the row lam = (3, 1), x = 0 is its first tuple alone:
        # c = -y is nonnegative there only.
        odd = alternation_terms(C2, (3, 1), (0, 0))[0]

        def corrupted(shifts, label):
            data = real(shifts, label)
            if shifts != odd:
                return data
            a_ok, _, c_ok, d_ok = data.in_n
            return data._replace(in_n=(a_ok, True, c_ok, d_ok))

        record = spec.record._replace(case_data=corrupted)
        monkeypatch.setitem(cli._ALGEBRAS, "c2", spec._replace(record=record))
        code, counts = _mismatch_counts(capsys, "c2")
        assert code == 1
        assert counts == {
            "qpartition_vs_bruteforce": 0,
            "partition_closed_vs_qpartition_at_one": 0,
            "mult_closed_vs_weyl_sum_at_one": 0,
            "odd_parity_vanishing": 1,
        }


def _lane_bytes(top1, top2):
    """The bytes of the box [0, top1]x[0, top2] at 32-bit lanes: a slot of
    top1 + top2 + 1 lanes and a 64-bit count per point."""
    return (top1 + 1) * (top2 + 1) * (4 * (top1 + top2 + 1) + 8)


def _assert_refused_at_once(capsys, command, algebra, box, *extra):
    """command --max 10^10, with the arguments extra, exits 1 with one error
    line naming box, nothing on stdout and under 1 MiB allocated."""
    tracemalloc.start()
    try:
        code, out, err = invoke(capsys, command, "--algebra", algebra, "--max", "10000000000",
                                *extra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err.startswith(f"qkostant: error: a partition box up to {box}")
    assert err.endswith(", more than the budget of 268435456\n")
    assert err.count("\n") == 1
    assert peak < 1 << 20


def _assert_largest_grid(capsys, monkeypatch, command, algebra, top, refused, fits):
    """BOX_BYTE_BUDGET takes the box of --max top (fits) but not that of
    top + 1 (refused), which command refuses before it fills any box."""
    assert _lane_bytes(*refused) > rootsys.BOX_BYTE_BUDGET >= _lane_bytes(*fits)

    def no_fill(*args):
        raise AssertionError("the box was filled")

    monkeypatch.setattr(rootsys.QPartitionBox, "_fill", staticmethod(no_fill))
    code, out, err = invoke(capsys, command, "--algebra", algebra, "--max", str(top + 1))
    assert (code, out) == (1, "")
    assert f"a partition box up to {refused} needs" in err
    with pytest.raises(AssertionError, match="was filled"):
        run([command, "--algebra", algebra, "--max", str(top)])


def _pairs(top):
    """(lam, mu) at every tuple of [0, top]^4, in the order table prints them."""
    return [((m, n), (x, y)) for m, n, x, y in product(range(top + 1), repeat=4)]


def _tuples_with_a_term(deep, rs=G2, top=6):
    """The number of tuples of verify --max top with an alternation term v for which deep(v)."""
    return sum(
        any(deep(v) for _, v in alternation_terms(rs, lam, mu)[2]) for lam, mu in _pairs(top)
    )


class TestVerifyOracles:
    """verify reads ℘_q off one box per command, filled from the definition:
    it shares no polynomial with the kernels, g2 holds the kernel to it at
    each distinct alternation term, each count runs once per distinct term,
    and a box past its budget is refused before anything is allocated, for
    both algebras and for table too."""

    def test_the_box_sees_a_kernel_fault_that_keeps_every_count(self, capsys, monkeypatch):
        # Every one-term result of degree > 12 moves one unit from its top
        # coefficient to the one below: past the pair box of --max 6, and the
        # same at q = 1. Each tuple with such a term fails the kernel's
        # one-term check against the box.
        _with_record(monkeypatch, "g2", term_sum=g2_sum_moving_the_top_unit)
        expected = _tuples_with_a_term(lambda v: sum(v) > 12)
        assert expected == 561
        assert _mismatch_counts(capsys, "g2", 6) == (1, _g2_counts(expected, 0, 0))

    def test_a_kernel_raising_at_one_term_fails_the_tuples_of_that_term(self, capsys,
                                                                        monkeypatch):
        # The closed route reads the box, so only the one-term check sees it.
        real = cli._ALGEBRAS["g2"].record.term_sum
        broken = RootCoord(8, 5)

        def term_sum(terms):
            if terms == [(1, broken)]:
                raise InternalConsistencyError("not a multiple of D")
            return real(terms)

        _with_record(monkeypatch, "g2", term_sum=term_sum)
        expected = _tuples_with_a_term(lambda v: v == broken)
        assert expected == 30
        assert _mismatch_counts(capsys, "g2", 6) == (1, _g2_counts(expected, 0, 0))

    def test_the_box_sees_a_c2_count_fault_the_kernel_shares(self, capsys, monkeypatch):
        # Count and one-term kernel are both one too high at q = 1 past the
        # pair box of --max 6, so a Weyl side summed from the kernel's values
        # at one would agree with the count route. The box does not: a tuple
        # fails where the signs of its deep alternation terms do not cancel.
        _with_record(monkeypatch, "c2", count=c2_count_one_too_high,
                     term_sum=c2_sum_one_too_high)
        expected = sum(
            sum(sign for sign, v in alternation_terms(C2, lam, mu)[2] if sum(v) > 12) != 0
            for lam, mu in _pairs(6)
        )
        assert expected == 46
        assert _mismatch_counts(capsys, "c2", 6) == (1, {
            "qpartition_vs_bruteforce": 0,
            "partition_closed_vs_qpartition_at_one": 0,
            "mult_closed_vs_weyl_sum_at_one": expected,
            "odd_parity_vanishing": 0,
        })

    def test_a_refused_box_exits_one_at_once_with_nothing_allocated(self, capsys):
        _assert_refused_at_once(capsys, "verify", "g2", (50000000000, 30000000000))

    def test_a_refused_c2_box_exits_one_at_once_with_nothing_allocated(self, capsys):
        _assert_refused_at_once(capsys, "verify", "c2", (20000000000, 15000000000))

    @pytest.mark.parametrize("algebra,box", [("g2", (50000000000, 30000000000)),
                                             ("c2", (20000000000, 15000000000))])
    def test_a_refused_table_exits_one_at_once_with_nothing_allocated(self, capsys, tmp_path,
                                                                      algebra, box):
        _assert_refused_at_once(capsys, "table", algebra, box)
        # The box is refused before the output file is opened.
        path = tmp_path / "none.csv"
        _assert_refused_at_once(capsys, "table", algebra, box, "--output", str(path))
        assert not path.exists()

    def test_the_byte_budget_takes_g2_grids_up_to_82(self, capsys, monkeypatch):
        _assert_largest_grid(capsys, monkeypatch, "verify", "g2", 82, (415, 249), (410, 246))

    def test_the_byte_budget_takes_c2_grids_up_to_185(self, capsys, monkeypatch):
        _assert_largest_grid(capsys, monkeypatch, "verify", "c2", 185, (372, 279), (370, 277))

    @pytest.mark.parametrize("algebra,top,refused,fits", [("g2", 82, (415, 249), (410, 246)),
                                                          ("c2", 185, (372, 279), (370, 277))])
    def test_the_byte_budget_takes_the_same_table_grids(self, capsys, monkeypatch,
                                                        algebra, top, refused, fits):
        _assert_largest_grid(capsys, monkeypatch, "table", algebra, top, refused, fits)

    @pytest.mark.parametrize("algebra", ["g2", "c2"])
    def test_each_count_runs_once_per_distinct_term(self, capsys, monkeypatch, algebra):
        spec = cli._ALGEBRAS[algebra]
        calls = Counter()

        def count(m, n):
            calls[RootCoord(m, n)] += 1
            return spec.record.count(m, n)

        _with_record(monkeypatch, algebra, count=count)
        assert invoke(capsys, "verify", "--algebra", algebra, "--max", "6") == (
            0, VERIFY_MAX6_STDOUT[algebra], "",
        )
        rs = spec.record.rs
        terms = {
            v for lam, mu in _pairs(6) for _, v in alternation_terms(rs, lam, mu)[2]
        }
        assert set(calls) == terms
        assert set(calls.values()) == {1}

    @pytest.mark.parametrize("algebra", ["g2", "c2"])
    @pytest.mark.parametrize("command", ["table", "verify"])
    def test_a_sweep_builds_its_one_box_through_sweep_box(self, capsys, monkeypatch,
                                                          command, algebra):
        built, made = [], []
        real_init = rootsys.QPartitionBox.__init__

        def init(self, *args):
            made.append(self)
            real_init(self, *args)

        def sweep_box(rs, top):
            built.append(rootsys.sweep_box(rs, top))
            return built[-1]

        monkeypatch.setattr(rootsys.QPartitionBox, "__init__", init)
        monkeypatch.setattr(cli, "sweep_box", sweep_box)
        assert invoke(capsys, command, "--algebra", algebra, "--max", "4")[0] == 0
        assert len(built) == 1 and made == built

    def test_g2_verify_reads_no_box_count(self, capsys, monkeypatch):
        # A row's count routes are held to the box's counts through the kernel
        # memo: where the kernel equals the box, its value at one is the box's
        # count, so the memo's count flag already compares the count with it.
        def sum_at_one(*args):
            raise AssertionError("sum_at_one ran")

        monkeypatch.setattr(rootsys.QPartitionBox, "sum_at_one", sum_at_one)
        assert invoke(capsys, "verify", "--max", "6") == (0, VERIFY_MAX6_STDOUT["g2"], "")

    def test_c2_verify_makes_no_term_sum_call(self, capsys, monkeypatch):
        # Its tuple checks run at q = 1, the count route against the box's
        # count rows, so neither the kernel nor the box's term sum may run
        # there. The pair checks run the kernel once per point, against box
        # entries, which keep the box's own one-term sum.
        kernel = cli._ALGEBRAS["c2"].record.term_sum
        calls = Counter()

        def spy(terms):
            ((_, v),) = terms
            calls[v] += 1
            return kernel(terms)

        def term_sum(*args):
            raise AssertionError("term_sum ran")

        entry = rootsys.QPartitionBox.term_sum
        _with_record(monkeypatch, "c2", term_sum=spy)
        monkeypatch.setattr(rootsys.QPartitionBox, "__getitem__",
                            lambda box, v: entry(box, [(1, v)]))
        monkeypatch.setattr(rootsys.QPartitionBox, "term_sum", term_sum)
        assert invoke(capsys, "verify", "--algebra", "c2", "--max", "6") == (
            0, VERIFY_MAX6_STDOUT["c2"], "",
        )
        assert calls == Counter(product(range(7), repeat=2))


class TestBrokenRoutes:
    """A route that raises InternalConsistencyError at a tuple counts one
    mismatch in each tuple check that reads it; the sweep goes on, exits 1
    and writes its report."""

    def test_a_kernel_fault_that_makes_a_coefficient_negative(self, capsys, monkeypatch):
        # Every one-term result of degree > 12 moves one unit from its middle
        # coefficient + 1 to the middle one, some of them below zero. The
        # closed route reads the box, so it does not raise; each tuple with
        # such a term fails the kernel's one-term check against the box.
        _with_record(monkeypatch, "g2", term_sum=g2_sum_with_a_dip)
        expected = _tuples_with_a_term(lambda v: sum(v) > 12)
        assert expected == 561
        assert _mismatch_counts(capsys, "g2", 6) == (1, _g2_counts(expected, 0, 0))

    def test_a_raising_closed_route_counts_in_all_three_g2_checks(self, capsys, monkeypatch):
        # The closed route raises at a negative coefficient; in a closed row
        # that is a negative lane. One more term -℘_q(0, 0) = -1, among both the
        # alternation and the Weyl terms, puts one in the constant lane of the
        # first tuple of the row lam = (2, 1), x = 1, whose m_q has no constant
        # term, and nowhere else: the line of (0, 0) ends there.
        real_alternation, real_weyl = rootsys.alternation_terms_at, cli.weyl_terms_at
        _, _, orbit, mu_shift = _point(G2, (2, 1), (1, 0))
        extra = [(-1, RootCoord(0, 0))]

        def alternation(row, shift):
            shifts, label, terms = real_alternation(row, shift)
            if (row, shift) == (_alternation_row(G2, orbit), mu_shift):
                terms = terms + extra
            return shifts, label, terms

        def weyl(row_orbit, shift):
            terms = real_weyl(row_orbit, shift)
            return terms + extra if (row_orbit, shift) == (orbit, mu_shift) else terms

        monkeypatch.setattr(rootsys, "alternation_terms_at", alternation)
        monkeypatch.setattr(cli, "weyl_terms_at", weyl)
        assert _mismatch_counts(capsys, "g2") == (1, _g2_counts(1, 1, 1))

    # Each second parameter names the library function that wraps the
    # record's field; verify does not call it, so it keeps its value.
    @pytest.mark.parametrize("algebra,kernel", [("g2", "qpartition"), ("c2", "qpartition_c2")])
    def test_a_raising_kernel_counts_in_both_pair_checks(self, capsys, monkeypatch,
                                                         algebra, kernel):
        # The kernel runs once per distinct point, so g2's tuple check also
        # counts each tuple with the alternation term (2, 1); c2's tuple
        # checks read no kernel.
        real = cli._ALGEBRAS[algebra].record.term_sum

        def broken(terms):
            if terms == [(1, (2, 1))]:
                raise InternalConsistencyError("not a multiple of D")
            return real(terms)

        _with_record(monkeypatch, algebra, term_sum=broken)
        code, counts = _mismatch_counts(capsys, algebra)
        assert code == 1
        spec = cli._ALGEBRAS[algebra]
        expected = dict.fromkeys(counts, 0)
        expected.update(dict.fromkeys(spec.pair_checks, 1))
        if algebra == "g2":
            tuples = _tuples_with_a_term(lambda v: v == (2, 1), G2, 3)
            assert tuples == 12
            expected["qmult_closed_vs_weyl_sum"] = tuples
        assert counts == expected
        library = {"qpartition": g2_partition.qpartition, "qpartition_c2": sp4.qpartition_c2}
        assert library[kernel](RootCoord(2, 1)) == real([(1, RootCoord(2, 1))])

    @pytest.mark.parametrize(
        "algebra,count", [("g2", "partition_tarski"), ("c2", "partition_c2_closed")]
    )
    def test_a_raising_pair_count_counts_in_the_pair_count_check(self, capsys, monkeypatch,
                                                                 algebra, count):
        # verify's cached count serves the pair check and the tuple count
        # route alike, so each tuple with the alternation term (2, 1) counts
        # in the tuple count check too.
        real = cli._ALGEBRAS[algebra].record.count

        def broken(m, n):
            if (m, n) == (2, 1):
                raise InternalConsistencyError("negative count")
            return real(m, n)

        _with_record(monkeypatch, algebra, count=broken)
        code, counts = _mismatch_counts(capsys, algebra)
        assert code == 1
        spec = cli._ALGEBRAS[algebra]
        tuples = _tuples_with_a_term(lambda v: v == (2, 1), spec.record.rs, 3)
        assert tuples == {"g2": 12, "c2": 8}[algebra]
        expected = dict.fromkeys(counts, 0)
        expected[spec.pair_checks[1]] = 1
        expected[spec.tuple_checks[0] if algebra == "c2" else spec.tuple_checks[1]] = tuples
        assert counts == expected
        library = {"partition_tarski": g2_partition.partition_tarski,
                   "partition_c2_closed": sp4.partition_c2_closed}
        assert library[count](RootCoord(2, 1)) == real(2, 1)

    @pytest.mark.parametrize(
        "algebra,lam,mu,counts",
        [
            ("g2", (3, 3), (0, 0), _g2_counts(0, 1, 0)),
            ("c2", (3, 3), (1, 0), {
                "qpartition_vs_bruteforce": 0,
                "partition_closed_vs_qpartition_at_one": 0,
                "mult_closed_vs_weyl_sum_at_one": 1,
                "odd_parity_vanishing": 0,
            }),
        ],
    )
    def test_a_raising_count_route_counts_in_its_own_check(self, capsys, monkeypatch,
                                                           algebra, lam, mu, counts):
        # The count route reads each distinct term's count once, so a count
        # that raises fails the count route of each tuple with that alternation
        # term. The first term of (lam, mu) that no other tuple of [0, 3]^4 has
        # lies past the pair box, so nothing else reads its count.
        rs = cli._ALGEBRAS[algebra].record.rs
        real = cli._ALGEBRAS[algebra].record.count
        point = next(v for _, v in alternation_terms(rs, lam, mu)[2]
                     if _tuples_with_a_term(lambda w: w == v, rs, 3) == 1)
        assert max(point) > 3

        def broken(m, n):
            if (m, n) == point:
                raise InternalConsistencyError("negative count")
            return real(m, n)

        _with_record(monkeypatch, algebra, count=broken)
        assert _mismatch_counts(capsys, algebra) == (1, counts)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # A one-shot CLI call pays for every module it imports; these two
    # alone cost more than the rest of the package.
    home = Path(cli.__file__).resolve().parents[1]  # where the suite's qkostant lives
    probe = (
        "import sys; before = set(sys.modules); import qkostant.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(home)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_importing_the_cli_does_not_load_array():
    # The sweeps' box decodes its packed sums with struct, which the g2 kernel
    # loads already: neither importing the CLI nor running table or verify,
    # for either algebra, loads array.
    home = Path(cli.__file__).resolve().parents[1]  # where the suite's qkostant lives
    probe = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "from qkostant.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [run([command, '--max', '2', '--algebra', algebra])\n"
        "             for command in ('table', 'verify') for algebra in ('g2', 'c2')]\n"
        "print(codes, 'array' in set(sys.modules) - before)"
    )
    env = {**os.environ, "PYTHONPATH": str(home)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[0, 0, 0, 0] False\n"
