"""Bad input raises ValueError at the Python entry points, as in the CLI.

Each call below once returned a float, a silent zero, a TypeError, an
IndexError or an InternalConsistencyError instead, or built a box.
"""

import re

import pytest

from qkostant import g2_multiplicity, rootsys, sp4
from qkostant.g2_multiplicity import qmultiplicity_closed, qmultiplicity_weyl_sum
from qkostant.g2_partition import (
    partition_tarski,
    qpartition,
    qpartition_bruteforce,
    tarski_g,
    tarski_h,
)
from qkostant.rootsys import C2, G2, QPartitionBox, RootCoord, to_fund, to_root
from qkostant.sp4 import (
    multiplicity_c2_closed,
    multiplicity_c2_weyl_sum,
    partition_c2_closed,
    qpartition_c2,
)


def _small_box():
    return QPartitionBox(G2.positive_roots, 4, 4)


# The fund_to_root and root_to_fund ids name the direction of to_root and to_fund,
# and the compute_case_c2 ids name rootsys.case on sp4.ALGEBRA.
BAD_CALLS = {
    "tarski_g-float": lambda: tarski_g(2.0),
    "tarski_h-float": lambda: tarski_h(2.0),
    "qmultiplicity_closed-negative": lambda: qmultiplicity_closed((-2, 0), (0, 0)),
    "multiplicity_c2_closed-negative": lambda: multiplicity_c2_closed((-2, 0), (0, 0)),
    "qmultiplicity_weyl_sum-negative": lambda: qmultiplicity_weyl_sum((-3, 0), (0, 0)),
    "compute_case_c2-float": lambda: rootsys.case(sp4.ALGEBRA, (2.0, 0), (0, 0)),
    "qmultiplicity_closed-float": lambda: qmultiplicity_closed((1.0, 0), (0, 0)),
    "qpartition-float": lambda: qpartition(RootCoord(2.0, 1)),
    "qpartition-bool": lambda: qpartition((True, 0)),
    "qpartition_c2-float": lambda: qpartition_c2(RootCoord(2.0, 1)),
    "root_to_fund-half": lambda: to_fund(G2, RootCoord(1.5, 1)),
    "qmultiplicity_closed-triple": lambda: qmultiplicity_closed((1, 2, 3), (0, 0)),
    "qmultiplicity_closed-scalar": lambda: qmultiplicity_closed(5, (0, 0)),
    "qmultiplicity_weyl_sum-scalar-mu": lambda: qmultiplicity_weyl_sum((1, 1), 5),
    "multiplicity_c2_weyl_sum-triple": lambda: multiplicity_c2_weyl_sum((1, 2, 3), (0, 0)),
    "compute_case_c2-single": lambda: rootsys.case(sp4.ALGEBRA, (2,), (0, 0)),
    "fund_to_root-float": lambda: to_root(G2, (2.0, 0)),
    "fund_to_root-bool": lambda: to_root(G2, (True, 0)),
    "fund_to_root_c2-float": lambda: to_root(C2, (2.0, 0)),
    "fund_to_root_c2-bool": lambda: to_root(C2, (0, True)),
    "root_to_fund-scalar": lambda: to_fund(G2, 5),
    "qpartition-scalar": lambda: qpartition(5),
    "qpartition_c2-scalar": lambda: qpartition_c2(5),
    "partition_c2_closed-scalar": lambda: partition_c2_closed(5),
    "partition_tarski-scalar": lambda: partition_tarski(5),
    "qpartition_bruteforce-float": lambda: qpartition_bruteforce((2.0, 1)),
    "qpartition_bruteforce-bool": lambda: qpartition_bruteforce((True, 1)),
    "QPartitionBox-float-bound": lambda: QPartitionBox(G2.positive_roots, 1.5, 2),
    "QPartitionBox-str-bound": lambda: QPartitionBox(G2.positive_roots, "3", 2),
    "QPartitionBox-bool-bound": lambda: QPartitionBox(G2.positive_roots, True, 2),
    "QPartitionBox-zero-root": lambda: QPartitionBox([(0, 0), (1, 0)], 2, 0)[0, 0],
    "QPartitionBox-negative-root": lambda: QPartitionBox([(1, -1), (0, 1)], 2, 2),
    "QPartitionBox-int-roots": lambda: QPartitionBox(5, 2, 2),
    "QPartitionBox-none-roots": lambda: QPartitionBox(None, 2, 2),
    "QPartitionBox-zero-step": lambda: QPartitionBox(G2.positive_roots, 2, 2, (0, 1)),
    "QPartitionBox-step-sharing-a-factor": lambda: QPartitionBox(G2.positive_roots, 2, 2, (2, 2)),
    # Not an iterable of terms: checked once per call, before any term is read.
    "QPartitionBox-term_sum-none": lambda: _small_box().term_sum(None),
    "QPartitionBox-term_sum-zero": lambda: _small_box().term_sum(0),
    "QPartitionBox-term_sum-int": lambda: _small_box().term_sum(5),
    "QPartitionBox-sum_at_one-none": lambda: _small_box().sum_at_one(None),
    "QPartitionBox-sum_at_one-zero": lambda: _small_box().sum_at_one(0),
    # 1758 copies of ℘_q(40, 3), whose top coefficient is 1221759, would pass the
    # 32-bit lanes that a box of 7 roots takes for at most 14 terms.
    "QPartitionBox-terms-past-the-weyl-group": lambda: QPartitionBox(
        [RootCoord(1, 0)] * 6 + [RootCoord(0, 1)], 40, 3).term_sum([(1, (40, 3))] * 1758),
}


@pytest.mark.parametrize("call", list(BAD_CALLS.values()), ids=list(BAD_CALLS))
def test_bad_input_raises_value_error(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("kernel", [qpartition, qpartition_c2], ids=lambda f: f.__name__)
def test_a_list_pair_is_a_weight(kernel):
    # A list pair, which no cache could key, is taken like the tuple it spells.
    assert kernel(RootCoord(3, 2))
    assert kernel([3, 2]) == kernel((3, 2)) == kernel(RootCoord(3, 2))


# Terms that are not a sign and a pair of ints, the last one of each list the
# bad one: the box names it, through the one try around its signed loop.
BAD_TERMS = {
    "scalar": [5],
    "scalar-weight": [(1, 5)],
    "float-coordinate": [(1, (2.0, 1))],
    "triple-weight": [(1, (1, 2, 3))],
    "after-a-good-term": [(1, (0, 0)), (-1, (1, 2, 3))],
}


@pytest.mark.parametrize("terms", list(BAD_TERMS.values()), ids=list(BAD_TERMS))
@pytest.mark.parametrize("method", ["term_sum", "sum_at_one"])
def test_a_term_that_is_not_a_sign_and_a_pair_of_ints_is_named(method, terms):
    message = re.escape(f"a term must be (sign, (c1, c2)) with int coordinates, got {terms[-1]!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        getattr(_small_box(), method)(terms)


@pytest.mark.parametrize("v", [5, (2.0, 1), (1, 2, 3)], ids=["scalar", "float", "triple"])
def test_a_box_entry_that_is_not_a_pair_of_ints_is_named(v):
    with pytest.raises(ValueError, match=re.escape(f"got {(1, v)!r}")):
        _small_box()[v]


@pytest.mark.parametrize("sign", [2, 0])
@pytest.mark.parametrize("alg", [g2_multiplicity.ALGEBRA, sp4.ALGEBRA], ids=["g2", "c2"])
def test_count_sum_refuses_a_sign_other_than_one_or_minus_one(alg, sign):
    # Both once summed sign * count: 2 gave twice the count (4 at (1, 1)), 0 gave 0.
    with pytest.raises(ValueError, match=f"^sign must be 1 or -1, got {sign}$"):
        rootsys.count_sum(alg, [(sign, RootCoord(1, 1))])
