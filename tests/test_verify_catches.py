"""verify's kill matrix: each mutant of mutants.py, patched in, run through
the shipped command.

A mutant is patched in wherever the program reaches the function it
replaces: its module, and the algebra's record where the record holds that
function itself. Each entry first shows that the mutant is not equivalent:
it changes at least one printed output of a one-off command on a fixed
probe list. Then `verify --max 6` must exit 1 with its report on stdout.
The known misses are strict xfails naming the ROADMAP item that closes
them; when that item lands, its entries XPASS and fail, and their marks go
in the same change.
"""

import json

import pytest

from qkostant import cli, g2_multiplicity, g2_partition, rootsys, sp4
from qkostant.cli import run
from qkostant.errors import InternalConsistencyError

from mutants import (
    RHO_AS_2W1_PLUS_W2,
    c2_count_one_too_high,
    c2_events_ignoring_sign,
    c2_events_unclipped,
    c2_sum_one_too_high,
    closed_form_without_edge_region,
    g2_marks_adding_d,
    g2_marks_ignoring_sign,
    g2_marks_moving,
    g2_sum_moving_the_top_unit,
    g2_sum_with_a_dip,
)

# One-off commands whose outputs the mutants must change. The pair box of
# verify --max 6 stops at c1 + c2 = 12, so the deep-term mutants need terms
# past it (qpartition 9,5, and the alternation terms of the deep qmult);
# (5, 3) lies on sp4's line m = 2n - 1, and g2's qmult at lam = (1, 0),
# mu = 0 prints q^3 + q, not q^3, under the rho fault.
PROBES = {
    "g2": (
        ("qpartition", "3,2"),
        ("qpartition", "9,5"),
        ("qmult", "--lambda", "1,0", "--mu", "0,0"),
        ("qmult", "--lambda", "3,2", "--mu", "1,0"),
        ("mult", "--lambda", "3,2", "--mu", "1,0"),
    ),
    "c2": (
        ("qpartition", "--algebra", "c2", "9,5"),
        ("partition", "--algebra", "c2", "5,3"),
        ("partition", "--algebra", "c2", "9,5"),
        ("qmult", "--algebra", "c2", "--lambda", "1,0", "--mu", "0,0"),
        ("qmult", "--algebra", "c2", "--lambda", "3,2", "--mu", "1,0"),
        ("mult", "--algebra", "c2", "--lambda", "3,2", "--mu", "1,0"),
    ),
}


def _in_module(module, name, mutant, field=None):
    """Patch module.name; with field, also that field of the algebra's record,
    which holds the function itself."""

    def apply(monkeypatch, algebra):
        monkeypatch.setattr(module, name, mutant)
        if field:
            record_module = {"g2": g2_multiplicity, "c2": sp4}[algebra]
            record = record_module.ALGEBRA._replace(**{field: mutant})
            monkeypatch.setattr(record_module, "ALGEBRA", record)
            spec = cli._ALGEBRAS[algebra]
            monkeypatch.setitem(cli._ALGEBRAS, algebra, spec._replace(record=record))

    return apply


def _rho_fault(monkeypatch, algebra):
    for name, mutant in RHO_AS_2W1_PLUS_W2.items():
        monkeypatch.setattr(rootsys, name, mutant)


ITEM_1 = "ROADMAP item 1: verify does not run the kernels' multi-term path"
ITEM_2 = "ROADMAP item 2: every check of verify reads the same orbit and mu shift"

MUTANTS = [
    ("g2", "g2_marks_adding_d(1)", _in_module(g2_partition, "_g2_marks", g2_marks_adding_d(1)),
     None),
    # Past the 32-bit lanes of a small sum: the quotient's lanes carry into one
    # another, so qpartition 3,2 prints "... + 257q", and at (0, 0) the carry
    # leaves the top lane, where the kernel raises InternalConsistencyError.
    ("g2", "g2_marks_adding_d(1<<40)",
     _in_module(g2_partition, "_g2_marks", g2_marks_adding_d(1 << 40)), None),
    ("g2", "g2_marks_moving(top,None)",
     _in_module(g2_partition, "_g2_marks", g2_marks_moving("top", None)), None),
    ("g2", "g2_marks_moving(lowest,1)",
     _in_module(g2_partition, "_g2_marks", g2_marks_moving("lowest", 1)), None),
    ("g2", "g2_sum_moving_the_top_unit",
     _in_module(g2_partition, "_g2_sum", g2_sum_moving_the_top_unit, "term_sum"), None),
    ("g2", "g2_sum_with_a_dip",
     _in_module(g2_partition, "_g2_sum", g2_sum_with_a_dip, "term_sum"), None),
    ("c2", "c2_count_one_too_high",
     _in_module(sp4, "_closed_form", c2_count_one_too_high, "count"), None),
    ("c2", "closed_form_without_edge_region",
     _in_module(sp4, "_closed_form", closed_form_without_edge_region, "count"), None),
    ("g2", "g2_marks_ignoring_sign", _in_module(g2_partition, "_g2_marks", g2_marks_ignoring_sign),
     ITEM_1),
    ("c2", "c2_events_ignoring_sign", _in_module(sp4, "_c2_events", c2_events_ignoring_sign),
     ITEM_1),
    ("c2", "c2_events_unclipped", _in_module(sp4, "_c2_events", c2_events_unclipped), ITEM_1),
    ("c2", "c2_sum_one_too_high",
     _in_module(sp4, "_c2_sum", c2_sum_one_too_high, "term_sum"), ITEM_1),
    ("g2", "rho_as_2w1_plus_w2", _rho_fault, ITEM_2),
    ("c2", "rho_as_2w1_plus_w2", _rho_fault, ITEM_2),
]
IDS = [f"{algebra}-{name}" for algebra, name, *_ in MUTANTS]


def _outputs(capsys, algebra):
    """(exit code, stdout) of each probe; an InternalConsistencyError, which
    the one-off commands let through as a traceback, in place of the code."""
    outputs = []
    for argv in PROBES[algebra]:
        try:
            code = run(list(argv))
        except InternalConsistencyError as exc:
            code = repr(exc)
        outputs.append((code, capsys.readouterr().out))
    return outputs


@pytest.mark.parametrize("algebra,name,apply,miss", MUTANTS, ids=IDS)
def test_the_mutant_changes_a_printed_output(capsys, monkeypatch, algebra, name, apply, miss):
    clean = _outputs(capsys, algebra)
    apply(monkeypatch, algebra)
    assert _outputs(capsys, algebra) != clean


@pytest.mark.parametrize(
    "algebra,name,apply",
    [
        pytest.param(algebra, name, apply,
                     marks=[pytest.mark.xfail(raises=AssertionError, strict=True, reason=miss)]
                     if miss else [])
        for algebra, name, apply, miss in MUTANTS
    ],
    ids=IDS,
)
def test_verify_catches_the_mutant(capsys, monkeypatch, algebra, name, apply):
    apply(monkeypatch, algebra)
    code = run(["verify", "--max", "6", "--algebra", algebra])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert captured.err == ""
    assert code == 1, report


@pytest.mark.parametrize("algebra", ["g2", "c2"])
def test_the_rho_fault_reaches_the_sweep_rows(capsys, monkeypatch, algebra):
    # The sweeps read their orbits and mu shifts through the names the fault
    # replaces: table prints other rows under it. So verify's pass under the
    # fault (a strict xfail above) is a miss of its checks, not of the patch.
    argv = ["table", "--max", "3", "--algebra", algebra]
    assert run(argv) == 0
    clean = capsys.readouterr().out
    _rho_fault(monkeypatch, algebra)
    assert run(argv) == 0
    faulty = capsys.readouterr().out
    assert faulty != clean and len(faulty.splitlines()) == len(clean.splitlines()) == 257
