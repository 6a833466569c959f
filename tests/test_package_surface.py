"""The package's public names, and the names the benchmark imports from it."""

import ast
import importlib
from pathlib import Path

import qkostant
from qkostant import rootsys, sp4
from qkostant.qpoly import QPoly

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Removed wrappers and aliases, with what replaces them: to_root(G2 or C2, w),
# to_fund(G2 or C2, v), G2.positive_roots, C2.positive_roots, QPoly() and
# QPoly([1]); verify's case_audit for the case-signature audit, and
# rootsys.decompositions(G2.positive_roots, v) for the g2 witnesses; the
# sweeps' record, whose term sum is QPartitionBox.term_sum, for the g2 sweep
# record, its qpartition cache and rootsys.memoized;
# rootsys.count_sum(ALGEBRA, terms) for tarski_sum; and nothing for
# ORBIT_CACHE_SIZE, as shifted_orbit keeps no orbit between calls.
REMOVED = {
    "qkostant.rootsys": (
        "fund_to_root", "root_to_fund", "POSITIVE_ROOTS", "closed_result", "memoized",
        "ORBIT_CACHE_SIZE",
    ),
    "qkostant.sp4": (
        "fund_to_root_c2",
        "root_to_fund_c2",
        "POSITIVE_ROOTS_C2",
        "compute_case_c2",
        "qmultiplicity_c2_closed",
    ),
    "qkostant.qpoly": ("ZERO", "ONE"),
    "qkostant.g2_multiplicity": (
        "audit_cases",
        "AuditReport",
        "ALLOWED_SIGNATURES",
        "signature",
        "label_signature",
        "TERM_SIGNS",
        "_WORD_SIGNS",
        "TERM_NAMES",
        "SWEEP",
        "_cached_sum",
        "tarski_sum",
        "compute_abcdef",
    ),
    "qkostant.g2_partition": ("partition_witnesses", "PartitionWitness", "_qpartition"),
}


def _bench_imports():
    """(file, module, name) of every `from qkostant... import name` in bench/*.py."""
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module and (
                node.module == "qkostant" or node.module.startswith("qkostant.")
            ):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_public_removed_and_bench_names():
    assert [name for name in qkostant.__all__ if not hasattr(qkostant, name)] == []

    for module, names in REMOVED.items():
        present = [n for n in names if hasattr(importlib.import_module(module), n)]
        assert present == [], module
        assert [n for n in names if hasattr(qkostant, n) or n in qkostant.__all__] == []
    assert not hasattr(QPoly, "is_zero")
    assert not hasattr(qkostant.qpartition, "cache_info")
    # Only weyl_elements and the orbit order, one entry per record, outlive a call.
    assert not hasattr(rootsys.shifted_orbit, "cache_info")
    assert not hasattr(sp4.weyl_group_c2, "cache_info")

    imports = list(_bench_imports())
    assert imports, "no qkostant imports found in bench/"
    unresolved = [
        f"{file}: {module}.{name}"
        for file, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert unresolved == []
