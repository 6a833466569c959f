"""Bad input raises ValueError at the Python entry points, as in the CLI.

Each call below once returned a float, a silent zero, a TypeError or an
InternalConsistencyError instead.
"""

import pytest

from qkostant.g2_multiplicity import qmultiplicity_closed, qmultiplicity_weyl_sum
from qkostant.g2_partition import qpartition, tarski_g, tarski_h
from qkostant.rootsys import RootCoord, root_to_fund
from qkostant.sp4 import compute_case_c2, multiplicity_c2_closed, qpartition_c2


def _uncached(kernel, v):
    # The kernels check their argument on a cache miss; an equal integer
    # key cached earlier would answer for it.
    kernel.cache_clear()
    return kernel(v)


BAD_CALLS = {
    "tarski_g-float": lambda: tarski_g(2.0),
    "tarski_h-float": lambda: tarski_h(2.0),
    "qmultiplicity_closed-negative": lambda: qmultiplicity_closed((-2, 0), (0, 0)),
    "multiplicity_c2_closed-negative": lambda: multiplicity_c2_closed((-2, 0), (0, 0)),
    "qmultiplicity_weyl_sum-negative": lambda: qmultiplicity_weyl_sum((-3, 0), (0, 0)),
    "compute_case_c2-float": lambda: compute_case_c2((2.0, 0), (0, 0)),
    "qmultiplicity_closed-float": lambda: qmultiplicity_closed((1.0, 0), (0, 0)),
    "qpartition-float": lambda: _uncached(qpartition, RootCoord(2.0, 1)),
    "qpartition_c2-float": lambda: _uncached(qpartition_c2, RootCoord(2.0, 1)),
    "root_to_fund-half": lambda: root_to_fund(RootCoord(1.5, 1)),
}


@pytest.mark.parametrize("call", list(BAD_CALLS.values()), ids=list(BAD_CALLS))
def test_bad_input_raises_value_error(call):
    with pytest.raises(ValueError):
        call()
