"""Command-line interface tests, driven through run() for speed."""

import hashlib
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from qkostant import cli
from qkostant.cli import run
from qkostant.qpoly import QPoly
from qkostant.rootsys import RootCoord
from qkostant.g2_partition import qpartition

# Recorded from the CLI before the verify loops were fused; any change to
# the checks, their order or their counts shows up here.
TABLE_MAX6_SHA256 = {
    "g2": "3d89a33398f92e26cf545b4c32dab2ecdd64103b607f00c28a4a7fc71311be90",
    "c2": "3933187990f30d6e738fa8d69b243de4290f36cadf1b4b867a71274a500d9fdf",
}
# table --max 10, the grid size the benchmark runs, recorded at the same
# commit as the benchmark's own copy of these digests.
TABLE_MAX10_SHA256 = {
    "g2": "00b0a4baa51beca9b2c0353d16a48d1e2e3c0822bd5461da255f13da710e8e3d",
    "c2": "a34d7d02e44588ad936907cb1076df2053fdfef81323904848b71dc7050be107",
}
# SHA-256 of the concatenated `case --format json` stdout over every tuple
# of [0,4]^4 in lexicographic order; it covers in_n, including the sp4
# parity flags that the table CSV leaves out.
CASE_JSON_GRID4_SHA256 = {
    "g2": "cdd34f0e9afd0a75d2367b06859515081b0d93ab197321e7d3c1365736a87ed9",
    "c2": "b4b737dc9171b401ab54ac6a41ec918d38c7373863700d5be7ebff83c0447c9e",
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

    def test_qpartition_json(self, capsys):
        code, out, _ = invoke(
            capsys, "qpartition", "--algebra", "g2", "3,2", "--format", "json"
        )
        assert code == 0
        assert out == '{"coeffs":[0,1,2,2,1,1]}\n'

    def test_json_output_round_trips(self, capsys):
        _, out, _ = invoke(capsys, "qpartition", "7,4", "--format", "json")
        coeffs = json.loads(out)["coeffs"]
        assert QPoly(coeffs) == qpartition(RootCoord(7, 4))

    def test_at_q_reproduces_classical_count(self, capsys):
        code, out, _ = invoke(capsys, "qpartition", "3,2", "--at-q", "1")
        assert (code, out) == (0, "7\n")
        code, out, _ = invoke(
            capsys, "qmult", "--lambda", "0,1", "--mu", "0,0", "--at-q", "1",
            "--format", "json",
        )
        assert (code, out) == (0, '{"value":2}\n')

    def test_partition_closed_forms(self, capsys):
        assert invoke(capsys, "partition", "3,2")[:2] == (0, "7\n")
        assert invoke(capsys, "partition", "--algebra", "c2", "3,2")[:2] == (0, "5\n")
        assert invoke(capsys, "partition", "--", "-1,5")[:2] == (0, "0\n")

    def test_partition_fundamental_basis(self, capsys):
        # w2 = 3a1 + 2a2, so the fundamental pair (0,1) names the same weight
        assert invoke(capsys, "partition", "--basis", "fund", "0,1")[:2] == (0, "7\n")

    def test_c2_fundamental_weight_off_lattice(self, capsys):
        code, out, _ = invoke(
            capsys, "qpartition", "--algebra", "c2", "--basis", "fund", "1,0",
            "--format", "json",
        )
        assert (code, out) == (0, '{"coeffs":[]}\n')

    def test_mult_methods(self, capsys):
        assert invoke(capsys, "mult", "--lambda", "0,1", "--mu", "0,0")[:2] == (0, "2\n")
        assert invoke(
            capsys, "mult", "--lambda", "0,1", "--mu", "0,0", "--method", "tarski"
        )[:2] == (0, "2\n")
        assert invoke(capsys, "mult", "--algebra", "c2", "--lambda", "2,1", "--mu", "0,0")[
            :2
        ] == (0, "3\n")

    def test_root_basis_multiplicity(self, capsys):
        direct = invoke(capsys, "qmult", "--lambda", "0,1", "--mu", "0,0")
        via_root = invoke(
            capsys, "qmult", "--basis", "root", "--lambda", "3,2", "--mu", "0,0"
        )
        assert direct == via_root

    def test_case_json(self, capsys):
        code, out, _ = invoke(
            capsys, "case", "--lambda", "5,6", "--mu", "0,0", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "PQRST"
        assert [payload[k] for k in "abcdef"] == [28, 17, 22, 10, 4, 1]

    def test_case_text_c2(self, capsys):
        code, out, _ = invoke(capsys, "case", "--algebra", "c2", "--lambda", "0,2", "--mu", "0,0")
        assert code == 0
        assert out == "case PQ: a=2 two_b=4 c=1 two_d=-2\n"


class TestErrors:
    def test_unknown_command(self, capsys):
        code, _, err = invoke(capsys, "bogus")
        assert code == 1 and err

    def test_malformed_coordinates(self, capsys):
        code, _, err = invoke(capsys, "qpartition", "1,2,3")
        assert code == 1 and "comma-separated" in err

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

    def test_negative_grid_rejected(self, capsys):
        code, _, err = invoke(capsys, "verify", "--max", "-1")
        assert code == 1

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

    def test_stdout_runs_are_identical(self, capsys):
        first = invoke(capsys, "table", "--max", "2")
        second = invoke(capsys, "table", "--max", "2")
        assert first == second

    def test_file_output_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert invoke(capsys, "table", "--max", "2", "--output", str(path))[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_c2_table_columns(self, capsys):
        _, out, _ = invoke(capsys, "table", "--algebra", "c2", "--max", "1")
        rows = out.splitlines()
        assert rows[0] == "m,n,x,y,a,two_b,c,two_d,case,mq_coeffs,m_at_1"
        assert "0,1,0,1,0,0,-1,-4,P,1,1" in rows

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

    @pytest.mark.parametrize("algebra", ["g2", "c2"])
    def test_verify_max6_stdout(self, capsys, algebra):
        assert invoke(capsys, "verify", "--algebra", algebra, "--max", "6") == (
            0,
            VERIFY_MAX6_STDOUT[algebra],
            "",
        )


def _mismatch_counts(capsys, algebra):
    code, out, _ = invoke(capsys, "verify", "--algebra", algebra, "--max", "3")
    counts = {check["name"]: check["mismatches"] for check in json.loads(out)["checks"]}
    return code, counts


class TestFusedChecksStayIndependent:
    """verify evaluates each tuple once; each check must still count on its own."""

    def test_wrong_weyl_sum_counts_once(self, capsys, monkeypatch):
        real = cli.qmultiplicity_weyl_sum

        def corrupted(lam, mu):
            poly = real(lam, mu)
            return poly + QPoly([1]) if (tuple(lam), tuple(mu)) == ((2, 1), (1, 0)) else poly

        monkeypatch.setattr(cli, "qmultiplicity_weyl_sum", corrupted)
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
        real = cli.multiplicity

        def corrupted(lam, mu, method="qpoly"):
            value = real(lam, mu, method)
            wrong = method == "tarski" and (tuple(lam), tuple(mu)) == ((3, 0), (0, 1))
            return value + 1 if wrong else value

        monkeypatch.setattr(cli, "multiplicity", corrupted)
        code, counts = _mismatch_counts(capsys, "g2")
        assert code == 1
        assert counts == {
            "qpartition_vs_bruteforce": 0,
            "tarski_vs_qpartition_at_one": 0,
            "qmult_closed_vs_weyl_sum": 0,
            "multiplicity_qpoly_vs_tarski": 1,
            "case_audit": 0,
        }

    def test_wrong_c2_weyl_sum_at_odd_parity_counts_in_both(self, capsys, monkeypatch):
        real = cli.multiplicity_c2_weyl_sum
        odd = ((3, 1), (0, 2))  # m - x = 3 is odd: the true sum is zero

        def corrupted(lam, mu):
            poly = real(lam, mu)
            return poly + QPoly([0, 1]) if (tuple(lam), tuple(mu)) == odd else poly

        monkeypatch.setattr(cli, "multiplicity_c2_weyl_sum", corrupted)
        code, counts = _mismatch_counts(capsys, "c2")
        assert code == 1
        assert counts == {
            "qpartition_vs_bruteforce": 0,
            "partition_closed_vs_qpartition_at_one": 0,
            "mult_closed_vs_weyl_sum_at_one": 1,
            "odd_parity_vanishing": 1,
        }

    def test_wrong_c2_case_flag_at_odd_parity_counts_in_parity_only(self, capsys, monkeypatch):
        real = cli.multiplicity_c2_closed
        odd = ((3, 1), (0, 2))

        def corrupted(lam, mu):
            result = real(lam, mu)
            if (tuple(lam), tuple(mu)) != odd:
                return result
            return result._replace(case=result.case._replace(b_in_n=True))

        monkeypatch.setattr(cli, "multiplicity_c2_closed", corrupted)
        code, counts = _mismatch_counts(capsys, "c2")
        assert code == 1
        assert counts == {
            "qpartition_vs_bruteforce": 0,
            "partition_closed_vs_qpartition_at_one": 0,
            "mult_closed_vs_weyl_sum_at_one": 0,
            "odd_parity_vanishing": 1,
        }


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # A one-shot CLI call pays for every module it imports; these two
    # alone cost more than the rest of the package.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys; before = set(sys.modules); import qkostant.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
