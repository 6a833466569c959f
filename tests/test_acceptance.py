"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Everything is exact integer arithmetic, so the tolerances are literal
equality; the only numeric budgets are the two wall-clock bounds (1 ms for
the flagship fixture, 10 s for the full equivalence grid, single worker).
"""

import json
import time
from itertools import product

from qkostant import g2_multiplicity, rootsys
from qkostant.cli import run as cli_run
from qkostant.g2_multiplicity import (
    CASE_LABELS,
    qmultiplicity_closed,
    qmultiplicity_weyl_sum,
)
from qkostant.g2_partition import (
    partition_tarski,
    qpartition,
    qpartition_bruteforce,
)
from qkostant.qpoly import QPoly
from qkostant.rootsys import (
    IDENTITY,
    FundCoord,
    RootCoord,
    mat_det,
    mat_mul,
    weyl_group,
)
from qkostant.sp4 import (
    _closed_form,
    multiplicity_c2_closed,
    multiplicity_c2_weyl_sum,
    qpartition_c2,
    qpartition_c2_bruteforce,
)
from mutants import closed_form_without_edge_region
from shift_forms import SHIFT_FORMS, sigma_shift


def report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_01_highest_root_fixture_under_one_ms():
    lam, mu = FundCoord(0, 1), FundCoord(0, 0)
    expected = QPoly([0, 1, 0, 0, 0, 1])  # q + q^5
    closed_times, weyl_times = [], []
    closed = weyl = None
    for _ in range(5):
        start = time.perf_counter()
        closed = qmultiplicity_closed(lam, mu).mq
        closed_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        weyl = qmultiplicity_weyl_sum(lam, mu)
        weyl_times.append(time.perf_counter() - start)
    ok = (
        closed == expected
        and weyl == expected
        and qmultiplicity_closed(lam, mu).m_at_one == 2
        and min(closed_times) < 1e-3
        and min(weyl_times) < 1e-3
    )
    report("1 highest-root fixture q+q^5 in <1ms", ok)


def test_criterion_02_single_power_fixture():
    result = qmultiplicity_closed(FundCoord(0, 3), FundCoord(1, 2))
    report(
        "2 fixture m_q = q^2, m = 1",
        result.mq == QPoly.monomial(2) and result.m_at_one == 1,
    )


def test_criterion_03_theorem_grid_under_ten_seconds():
    start = time.perf_counter()
    mismatches = 0
    for m, n, x, y in product(range(7), repeat=4):
        lam, mu = FundCoord(m, n), FundCoord(x, y)
        if qmultiplicity_closed(lam, mu).mq != qmultiplicity_weyl_sum(lam, mu):
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        f"3 closed == Weyl sum on [0,6]^4 ({elapsed:.2f}s)",
        mismatches == 0 and elapsed < 10.0,
    )


def test_criterion_04_partition_oracle_grids():
    g2_bad = sum(
        1
        for m, n in product(range(31), repeat=2)
        if qpartition(RootCoord(m, n)) != qpartition_bruteforce(RootCoord(m, n))
    )
    c2_bad = sum(
        1
        for m, n in product(range(41), repeat=2)
        if qpartition_c2(RootCoord(m, n)) != qpartition_c2_bruteforce(RootCoord(m, n))
    )
    report("4 partition vs brute force on [0,30]^2 and [0,40]^2", g2_bad == 0 and c2_bad == 0)


def test_criterion_05_tarski_grid():
    mismatches = [
        (m, n)
        for m, n in product(range(61), repeat=2)
        if qpartition(RootCoord(m, n)).eval_at_one() != partition_tarski(RootCoord(m, n))
    ]
    boundary_points = set()
    for t in range(61):
        boundary_points.add((t, t))
        boundary_points.add((2 * t, t))
        boundary_points.add((3 * t, t))
        boundary_points.add((3 * t, 2 * t))  # the 2m = 3n line
    boundary_bad = [
        (m, n)
        for m, n in boundary_points
        if m <= 180 and n <= 120
        and qpartition(RootCoord(m, n)).eval_at_one() != partition_tarski(RootCoord(m, n))
    ]
    fixtures_ok = (
        partition_tarski(RootCoord(3, 2)) == 7
        and partition_tarski(RootCoord(2, 2)) == 4
        and partition_tarski(RootCoord(3, 0)) == 1
    )
    report(
        "5 tarski == q-route at q=1 on [0,60]^2 incl. boundaries",
        not mismatches and not boundary_bad and fixtures_ok,
    )


def test_criterion_06_case_audit():
    # A label spells the terms it combines, so the labels that occur are the
    # signed term sets that occur.
    observed = {
        rootsys.case(g2_multiplicity.ALGEBRA, FundCoord(m, n), FundCoord(x, y)).case_label
        for m, n, x, y in product(range(7), repeat=4)
    }
    witnesses = [
        ((5, 6, 0, 0), (28, 17, 22, 10, 4, 1), "PQRST"),
        ((0, 4, 0, 0), (12, 8, 11, 3, 2, -4), "PQRS"),
        ((5, 0, 0, 0), (10, 5, 4, 4, -2, 1), "PQRT"),
        ((5, 4, 0, 4), (10, 5, 4, 0, -6, -11), "PQR"),
        ((0, 50, 51, 0), (48, 49, 47, -2, -3, -106), "PQ"),
        ((2, 0, 1, 0), (2, 1, -1, 0, -3, -4), "PR"),
        ((0, 0, 0, 0), (0, 0, -1, -1, -2, -4), "P"),
        ((0, 0, 8, 0), (-16, -8, -17, -9, -10, -20), "ZERO"),
    ]
    witnesses_ok = True
    for (m, n, x, y), vector, label in witnesses:
        case = rootsys.case(g2_multiplicity.ALGEBRA, FundCoord(m, n), FundCoord(x, y))
        if case.as_tuple() != vector or case.case_label != label:
            witnesses_ok = False
    ok = observed == set(CASE_LABELS) and witnesses_ok  # all 8 realized, nothing else
    report("6 exactly the 8 case labels on [0,6]^4", ok)


def test_criterion_07_sp4_partition_correction():
    corrected_bad = [
        (m, n)
        for m, n in product(range(61), repeat=2)
        if _closed_form(m, n) != qpartition_c2(RootCoord(m, n)).eval_at_one()
    ]
    mutated_bad = [
        (m, n)
        for m, n in product(range(61), repeat=2)
        if closed_form_without_edge_region(m, n) != qpartition_c2(RootCoord(m, n)).eval_at_one()
    ]
    report(
        "7 sp4 closed partition on [0,60]^2; edge region load-bearing",
        not corrected_bad and len(mutated_bad) > 0 and mutated_bad[0] == (3, 2),
    )


def test_criterion_08_sp4_multiplicity_grid():
    mismatches = 0
    for m, n, x, y in product(range(7), repeat=4):
        lam, mu = FundCoord(m, n), FundCoord(x, y)
        if multiplicity_c2_closed(lam, mu).value != multiplicity_c2_weyl_sum(lam, mu).eval_at_one():
            mismatches += 1
    diagonal_ok = all(
        multiplicity_c2_closed(FundCoord(m, n), FundCoord(m, n)).value == 1
        for m, n in product(range(7), repeat=2)
    )
    report("8 sp4 closed == Weyl sum at q=1 on [0,6]^4; diag = 1", mismatches == 0 and diagonal_ok)


def test_criterion_09_weyl_group_structure():
    group = weyl_group()
    elements = {w.word: w for w in group}
    distinct = len({w.matrix for w in group}) == 12
    dets = all(mat_det(w.matrix) == (-1) ** w.length for w in group)
    s1, s2 = elements["s1"].matrix, elements["s2"].matrix
    involutions = mat_mul(s1, s1) == IDENTITY and mat_mul(s2, s2) == IDENTITY
    rot = mat_mul(s1, s2)
    power = IDENTITY
    for _ in range(6):
        power = mat_mul(power, rot)
    coxeter = power == IDENTITY

    import random

    rng = random.Random(53)
    shifts_ok = True
    for _ in range(50):
        m, n, x, y = (rng.randint(0, 20) for _ in range(4))
        lam, mu = FundCoord(m, n), FundCoord(x, y)
        for word, form in SHIFT_FORMS.items():
            if sigma_shift(elements[word], lam, mu) != RootCoord(*form(m, n, x, y)):
                shifts_ok = False
    report(
        "9 group of 12, det=(-1)^len, relations, all shift rows x50",
        distinct and dets and involutions and coxeter and shifts_ok,
    )


def test_criterion_10_cli_determinism(capsys):
    code_a = cli_run(["table", "--max", "3"])
    out_a = capsys.readouterr().out
    code_b = cli_run(["table", "--max", "3"])
    out_b = capsys.readouterr().out
    deterministic = code_a == code_b == 0 and out_a == out_b and len(out_a.splitlines()) == 257

    code_c = cli_run(["qpartition", "3,2", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    round_trips = (
        code_c == 0
        and QPoly(payload["coeffs"]) == qpartition(RootCoord(3, 2))
        and payload["coeffs"] == [0, 1, 2, 2, 1, 1]
    )
    with capsys.disabled():
        report("10 CLI table determinism and JSON round-trip", deterministic and round_trips)
