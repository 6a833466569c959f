"""Exact Kostant partition functions, q-analogs, and weight multiplicities
for the Lie algebras g2 and sp4, with built-in brute-force and Weyl-sum
oracles for every closed formula."""

from .errors import CoefficientOverflowError, InternalConsistencyError
from .g2_multiplicity import (
    ALLOWED_SIGNATURES,
    AuditReport,
    CaseData,
    MultiplicityResult,
    audit_cases,
    compute_abcdef,
    multiplicity,
    qmultiplicity_closed,
    qmultiplicity_weyl_sum,
)
from .g2_partition import (
    PartitionWitness,
    partition_tarski,
    partition_witnesses,
    qpartition,
    qpartition_bruteforce,
    tarski_g,
    tarski_h,
)
from .qpoly import QPoly
from .rootsys import (
    POSITIVE_ROOTS,
    FundCoord,
    RootCoord,
    WeylElement,
    fund_to_root,
    root_to_fund,
    weyl_group,
)
from .sp4 import (
    POSITIVE_ROOTS_C2,
    Sp4CaseData,
    Sp4MultiplicityResult,
    compute_case_c2,
    fund_to_root_c2,
    fundamental_weights_c2,
    multiplicity_c2_closed,
    multiplicity_c2_weyl_sum,
    partition_c2_closed,
    qpartition_c2,
    qpartition_c2_bruteforce,
    root_to_fund_c2,
    weyl_group_c2,
)

__version__ = "0.1.0"

__all__ = [
    "ALLOWED_SIGNATURES",
    "AuditReport",
    "CaseData",
    "CoefficientOverflowError",
    "FundCoord",
    "InternalConsistencyError",
    "MultiplicityResult",
    "POSITIVE_ROOTS",
    "POSITIVE_ROOTS_C2",
    "PartitionWitness",
    "QPoly",
    "RootCoord",
    "Sp4CaseData",
    "Sp4MultiplicityResult",
    "WeylElement",
    "audit_cases",
    "compute_abcdef",
    "compute_case_c2",
    "fund_to_root",
    "fund_to_root_c2",
    "fundamental_weights_c2",
    "multiplicity",
    "multiplicity_c2_closed",
    "multiplicity_c2_weyl_sum",
    "partition_c2_closed",
    "partition_tarski",
    "partition_witnesses",
    "qmultiplicity_closed",
    "qmultiplicity_weyl_sum",
    "qpartition",
    "qpartition_bruteforce",
    "qpartition_c2",
    "qpartition_c2_bruteforce",
    "root_to_fund",
    "root_to_fund_c2",
    "tarski_g",
    "tarski_h",
    "weyl_group",
    "weyl_group_c2",
]
