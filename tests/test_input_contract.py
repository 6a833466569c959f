"""Bad input raises ValueError at the Python entry points, as in the CLI.

Each call below once returned a float, a silent zero, a TypeError, an
IndexError or an InternalConsistencyError instead, or built a box.
"""

import pytest

from qkostant import rootsys, sp4
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
