"""The result, case and root-system records: immutable named tuples."""

import pytest

from qkostant.g2_multiplicity import (
    AuditReport,
    CaseData,
    MultiplicityResult,
    audit_cases,
    compute_abcdef,
    qmultiplicity_closed,
)
from qkostant.rootsys import C2, G2, FundCoord, RootSystem, WeylElement, weyl_elements
from qkostant.sp4 import (
    Sp4CaseData,
    Sp4MultiplicityResult,
    compute_case_c2,
    multiplicity_c2_closed,
)

LAM, MU = FundCoord(2, 1), FundCoord(0, 1)

# Field names in the order the records have always had them.
FIELDS = {
    RootSystem: ("name", "positive_roots", "s1", "s2", "two_w1", "two_w2", "alternation"),
    WeylElement: ("word", "length", "matrix"),
    CaseData: ("a", "b", "c", "d", "e", "f", "in_n", "case_label"),
    MultiplicityResult: ("lam", "mu", "case", "terms", "mq", "m_at_one"),
    AuditReport: ("grid_max", "observed_signatures", "counterexamples"),
    Sp4CaseData: (
        "a", "two_b", "c", "two_d", "a_in_n", "b_in_n", "c_in_n", "d_in_n", "case_label",
    ),
    Sp4MultiplicityResult: ("lam", "mu", "case", "value"),
}

INSTANCES = {
    RootSystem: lambda: G2,
    WeylElement: lambda: weyl_elements(G2)[1],
    CaseData: lambda: compute_abcdef(LAM, MU),
    MultiplicityResult: lambda: qmultiplicity_closed(LAM, MU),
    AuditReport: lambda: audit_cases(1),
    Sp4CaseData: lambda: compute_case_c2(LAM, MU),
    Sp4MultiplicityResult: lambda: multiplicity_c2_closed(LAM, MU),
}


@pytest.mark.parametrize("record", list(FIELDS), ids=lambda cls: cls.__name__)
def test_fields_keep_their_names_and_order(record):
    assert record._fields == FIELDS[record]


@pytest.mark.parametrize("record", list(FIELDS), ids=lambda cls: cls.__name__)
def test_setting_an_attribute_raises(record):
    instance = INSTANCES[record]()
    assert type(instance) is record
    for name in FIELDS[record]:
        with pytest.raises(AttributeError):
            setattr(instance, name, None)


def test_repr_names_the_fields():
    assert repr(weyl_elements(G2)[0]) == "WeylElement(word='1', length=0, matrix=((1, 0), (0, 1)))"


@pytest.mark.parametrize("rs", [G2, C2], ids=lambda rs: rs.name)
def test_root_systems_compare_and_hash_by_identity(rs):
    copy = rs._replace()
    assert copy is not rs
    assert copy != rs
    assert not copy == rs
    assert rs == rs
    assert hash(rs) == object.__hash__(rs)
    assert hash(copy) == object.__hash__(copy)
    assert G2 != C2


@pytest.mark.parametrize("rs", [G2, C2], ids=lambda rs: rs.name)
def test_root_systems_differ_from_a_plain_tuple_of_their_fields(rs):
    # The hashes differ, so == must not hold in either operand order.
    fields = tuple(rs)
    assert hash(fields) != hash(rs)
    assert not rs == fields
    assert not fields == rs
    assert rs != fields
    assert fields != rs
