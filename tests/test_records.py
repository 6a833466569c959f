"""The result, case and root-system records: immutable named tuples."""

from functools import partial

import pytest

from qkostant import g2_multiplicity, rootsys, sp4
from qkostant.g2_multiplicity import (
    CaseData,
    MultiplicityResult,
    qmultiplicity_closed,
)
from qkostant.rootsys import C2, G2, Algebra, FundCoord, RootSystem, WeylElement, weyl_elements
from qkostant.sp4 import (
    Sp4CaseData,
    Sp4MultiplicityResult,
    multiplicity_c2_closed,
)

LAM, MU = FundCoord(2, 1), FundCoord(0, 1)

# Field names in the order the records have always had them.
FIELDS = {
    RootSystem: ("name", "positive_roots", "s1", "s2", "two_w1", "two_w2", "alternation"),
    WeylElement: ("word", "length", "matrix"),
    CaseData: ("a", "b", "c", "d", "e", "f", "in_n", "case_label"),
    MultiplicityResult: ("lam", "mu", "case", "terms", "mq", "m_at_one"),
    Algebra: ("rs", "term_sum", "case_data", "count"),
    Sp4CaseData: ("a", "two_b", "c", "two_d", "in_n", "case_label"),
    Sp4MultiplicityResult: ("lam", "mu", "case", "value"),
}

INSTANCES = {
    RootSystem: lambda: G2,
    WeylElement: lambda: weyl_elements(G2)[1],
    CaseData: lambda: rootsys.case(g2_multiplicity.ALGEBRA, LAM, MU),
    MultiplicityResult: lambda: qmultiplicity_closed(LAM, MU),
    Algebra: lambda: g2_multiplicity.ALGEBRA,
    Sp4CaseData: lambda: rootsys.case(sp4.ALGEBRA, LAM, MU),
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


# The last id names the sp4 closed q route that rootsys.closed on sp4.ALGEBRA replaced.
ROUTES = {
    "qmultiplicity_closed": qmultiplicity_closed,
    "multiplicity_c2_closed": multiplicity_c2_closed,
    "qmultiplicity_c2_closed": partial(rootsys.closed, sp4.ALGEBRA),
}


@pytest.mark.parametrize("route", list(ROUTES.values()), ids=list(ROUTES))
@pytest.mark.parametrize("convert", [tuple, list], ids=lambda f: f.__name__)
def test_result_holds_fund_coords_of_plain_inputs(route, convert):
    result = route(convert((2, 1)), convert((0, 1)))
    assert type(result.lam) is FundCoord and type(result.mu) is FundCoord
    assert (result.lam.m, result.mu.n) == (2, 1)
    assert result == route(LAM, MU)
    hash(result)
