"""Exact Kostant partition functions, q-analogs, and weight multiplicities
for the Lie algebras g2 and sp4, with built-in definitional and Weyl-sum
oracles for every closed formula."""

from .errors import CoefficientOverflowError, InternalConsistencyError
from .g2_multiplicity import (
    CaseData,
    MultiplicityResult,
    multiplicity,
    qmultiplicity_closed,
    qmultiplicity_weyl_sum,
)
from .g2_partition import (
    partition_tarski,
    qpartition,
    qpartition_bruteforce,
    tarski_g,
    tarski_h,
)
from .qpoly import QPoly
from .rootsys import C2, G2, FundCoord, RootCoord, WeylElement, to_fund, to_root, weyl_group
from .sp4 import (
    Sp4CaseData,
    Sp4MultiplicityResult,
    fundamental_weights_c2,
    multiplicity_c2_closed,
    multiplicity_c2_weyl_sum,
    partition_c2_closed,
    qpartition_c2,
    qpartition_c2_bruteforce,
    weyl_group_c2,
)

__version__ = "0.1.0"

__all__ = [
    "C2",
    "CaseData",
    "CoefficientOverflowError",
    "FundCoord",
    "G2",
    "InternalConsistencyError",
    "MultiplicityResult",
    "QPoly",
    "RootCoord",
    "Sp4CaseData",
    "Sp4MultiplicityResult",
    "WeylElement",
    "fundamental_weights_c2",
    "multiplicity",
    "multiplicity_c2_closed",
    "multiplicity_c2_weyl_sum",
    "partition_c2_closed",
    "partition_tarski",
    "qmultiplicity_closed",
    "qmultiplicity_weyl_sum",
    "qpartition",
    "qpartition_bruteforce",
    "qpartition_c2",
    "qpartition_c2_bruteforce",
    "tarski_g",
    "tarski_h",
    "to_fund",
    "to_root",
    "weyl_group",
    "weyl_group_c2",
]
