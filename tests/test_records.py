"""The value-record contract shared by every public value type.

Each record compares equal only to a record of its own class with equal
fields, hashes as the tuple of its fields, shows its fields in its repr,
refuses assignment and deletion, takes its fields by position or keyword,
and survives pickle, copy and deepcopy.  Every validation message of the
records is pinned in the ``ERRORS`` tables of the module tests.
"""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qranks import (ComplexSeries, DurfeeSymbol, FactorSpec, GaussianSeries,
                    KMarkedDurfeeSymbol, KMarkedSUSymbol, LaurentCoefficient, MarkedPart,
                    Partition, RootOfUnityVector, SUSequence, SUSymbol, TruncatedSeries)
from qranks._record import Record

# (record, its fields in order, its repr)
RECORDS = [
    pytest.param(Partition((3, 1)), ((3, 1),), "Partition(parts=(3, 1))", id="Partition"),
    pytest.param(Partition(), ((),), "Partition(parts=())", id="Partition-empty"),
    pytest.param(DurfeeSymbol(Partition((2,)), Partition((1,)), 2),
                 (Partition((2,)), Partition((1,)), 2),
                 "DurfeeSymbol(top=Partition(parts=(2,)), bottom=Partition(parts=(1,)), side=2)",
                 id="DurfeeSymbol"),
    pytest.param(SUSequence((1, 3, 2)), ((1, 3, 2),), "SUSequence(parts=(1, 3, 2))",
                 id="SUSequence"),
    pytest.param(SUSymbol(Partition((2,)), Partition((1,)), 3),
                 (Partition((2,)), Partition((1,)), 3),
                 "SUSymbol(top=Partition(parts=(2,)), bottom=Partition(parts=(1,)), peak=3)",
                 id="SUSymbol"),
    pytest.param(KMarkedDurfeeSymbol(((2, 1),), ((2, 2),), 2, 2),
                 ((MarkedPart(2, 1),), (MarkedPart(2, 2),), 2, 2),
                 "KMarkedDurfeeSymbol(top=(MarkedPart(value=2, mark=1),), "
                 "bottom=(MarkedPart(value=2, mark=2),), side=2, k=2)",
                 id="KMarkedDurfeeSymbol"),
    pytest.param(KMarkedSUSymbol(((1, 1),), ((2, 2),), 3, 2),
                 ((MarkedPart(1, 1),), (MarkedPart(2, 2),), 3, 2),
                 "KMarkedSUSymbol(top=(MarkedPart(value=1, mark=1),), "
                 "bottom=(MarkedPart(value=2, mark=2),), peak=3, k=2)",
                 id="KMarkedSUSymbol"),
    pytest.param(FactorSpec(1), (1, None, 1, 0, 1),
                 "FactorSpec(sign=1, var_index=None, var_exponent=1, q_offset=0, q_step=1)",
                 id="FactorSpec-defaults"),
    pytest.param(FactorSpec(-1, 2, -1, 3, 2), (-1, 2, -1, 3, 2),
                 "FactorSpec(sign=-1, var_index=2, var_exponent=-1, q_offset=3, q_step=2)",
                 id="FactorSpec"),
    pytest.param(RootOfUnityVector((Fraction(1, 2),)), ((Fraction(1, 2),),),
                 "RootOfUnityVector(entries=(Fraction(1, 2),))", id="RootOfUnityVector"),
    pytest.param(GaussianSeries(1, ((1, 0), (0, -1))), (1, ((1, 0), (0, -1))),
                 "GaussianSeries(truncation_order=1, coeffs=((1, 0), (0, -1)))",
                 id="GaussianSeries"),
    pytest.param(ComplexSeries(0, (1j,), (0.5,)), (0, (1j,), (0.5,)),
                 "ComplexSeries(truncation_order=0, coeffs=(1j,), error_bounds=(0.5,))",
                 id="ComplexSeries"),
]


@pytest.mark.parametrize("record, fields, text", RECORDS)
def test_repr_names_every_field(record, fields, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, fields, text", RECORDS)
def test_hash_is_the_hash_of_the_fields(record, fields, text):
    assert hash(record) == hash(fields)


@pytest.mark.parametrize("record, fields, text", RECORDS)
def test_equal_to_a_rebuilt_record_of_its_class_only(record, fields, text):
    again = type(record)(*fields)
    assert again == record and not again != record and again is not record
    assert record != fields and fields != record


@pytest.mark.parametrize("record, fields, text", RECORDS)
def test_assignment_and_deletion_refused(record, fields, text):
    name = text[text.index("(") + 1:text.index("=")]
    value = getattr(record, name)
    for attack in (lambda: setattr(record, name, value), lambda: delattr(record, name),
                   lambda: setattr(record, "extra", 1), lambda: delattr(record, "extra")):
        with pytest.raises(AttributeError):
            attack()
    assert getattr(record, name) is value and repr(record) == text


@pytest.mark.parametrize("value, name", [
    (LaurentCoefficient(1, {(1,): 2}), "terms"), (TruncatedSeries.one(2, 0), "coeffs")],
    ids=["LaurentCoefficient", "TruncatedSeries"])
def test_series_values_refuse_deletion(value, name):
    with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
        delattr(value, name)
    assert hasattr(value, name)


def test_equal_fields_in_another_class_differ():
    assert Partition((1,)) != SUSequence((1,))
    assert not Partition((1,)) == SUSequence((1,))
    rows = (Partition((1,)), Partition((1,)), 2)
    assert DurfeeSymbol(*rows) != SUSymbol(*rows)
    assert KMarkedDurfeeSymbol(((1, 1),), (), 2, 1) != KMarkedSUSymbol(((1, 1),), (), 2, 1)
    assert GaussianSeries(0, ((1, 0),)) != ComplexSeries(0, ((1, 0),), (0.0,))


def test_keyword_construction_and_defaults():
    assert Partition() == Partition(()) == Partition(parts=())
    assert FactorSpec(1) == FactorSpec(sign=1, var_index=None, var_exponent=1,
                                       q_offset=0, q_step=1)
    assert FactorSpec(-1, q_step=2) == FactorSpec(-1, None, 1, 0, 2)
    assert (KMarkedDurfeeSymbol(top=((2, 2), (1, 1)), bottom=((3, 3),), side=5, k=3)
            == KMarkedDurfeeSymbol(((2, 2), (1, 1)), ((3, 3),), 5, 3))
    assert KMarkedSUSymbol((), (), peak=3, k=1) == KMarkedSUSymbol((), (), 3, 1)
    assert (DurfeeSymbol(Partition(), bottom=Partition((1,)), side=1)
            == DurfeeSymbol(Partition(), Partition((1,)), 1))
    assert SUSymbol(top=Partition(), bottom=Partition(), peak=1).size == 1
    assert SUSequence(parts=(1,)).parts == (1,)
    assert RootOfUnityVector(entries=("1/4",)).entries == (Fraction(1, 4),)
    assert GaussianSeries(truncation_order=0, coeffs=((1, 0),)).real_coefficients() == [1]
    assert ComplexSeries(truncation_order=0, coeffs=(1j,), error_bounds=(0.0,)).coeffs == (1j,)
    with pytest.raises(TypeError):
        FactorSpec()
    with pytest.raises(TypeError):
        Partition((1,), parts=(1,))


# one of every public value type, the records and the series side's own
VALUES = [param.values[0] for param in RECORDS] + [
    MarkedPart(2, 1),
    LaurentCoefficient(0),
    LaurentCoefficient(2, {(1, -1): 3, (0, 0): -2}),
    TruncatedSeries.one(3, 0),
    TruncatedSeries(2, 1, [LaurentCoefficient(1), LaurentCoefficient(1, {(1,): 5}),
                           LaurentCoefficient(1, {(-1,): -1, (0,): 2})]),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_pickle_copy_and_deepcopy_round_trip(value):
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is type(value)
        assert other == value and hash(other) == hash(value) and repr(other) == repr(value)


# small values of every record type, from few enough choices that two draws
# are often equal field by field; nan is equal only to itself
_FLOATS = st.sampled_from([0.0, -0.0, 1.5, math.nan])
_ROWS = st.sampled_from([(), (1,), (2,), (2, 1)])
_LAURENT = st.builds(LaurentCoefficient, st.just(1), st.dictionaries(
    st.tuples(st.integers(-1, 1)), st.integers(-1, 1), max_size=2))
_RECORDS = st.one_of(
    _ROWS.map(Partition),
    st.sampled_from([(1,), (2,), (1, 2), (2, 1)]).map(SUSequence),
    st.builds(DurfeeSymbol, _ROWS.map(Partition), _ROWS.map(Partition), st.integers(2, 3)),
    st.builds(SUSymbol, _ROWS.map(Partition), _ROWS.map(Partition), st.integers(3, 4)),
    st.builds(KMarkedDurfeeSymbol, st.sampled_from([((2, 1),), ((1, 1), (1, 1))]),
              st.sampled_from([(), ((1, 1),)]), st.just(2), st.just(1)),
    st.builds(KMarkedSUSymbol, st.sampled_from([(), ((1, 1),)]), st.just(()),
              st.integers(2, 3), st.just(1)),
    st.builds(FactorSpec, st.sampled_from([1, -1]), st.sampled_from([None, 1]),
              st.sampled_from([1, -1]), st.integers(0, 1), st.integers(1, 2)),
    st.builds(RootOfUnityVector, st.lists(st.sampled_from(["0", "1/2"]), max_size=2)),
    st.builds(GaussianSeries, st.just(0), st.tuples(st.tuples(st.integers(0, 1),
                                                              st.integers(0, 1)))),
    st.builds(ComplexSeries, st.just(0), st.tuples(st.builds(complex, _FLOATS, _FLOATS)),
              st.tuples(_FLOATS)),
    _LAURENT,
    st.builds(TruncatedSeries, st.just(1), st.just(1), st.lists(_LAURENT, min_size=2,
                                                                 max_size=2)),
)


def _plain(value):
    """``value`` with every record in it, nested ones too, replaced by its
    class and its fields: what a record comparison must agree with."""
    if isinstance(value, Record):
        return type(value), tuple(map(_plain, value._values()))
    if type(value) in (tuple, list):
        return type(value)(map(_plain, value))
    return value


@st.composite
def _pairs(draw):
    a = draw(_RECORDS)
    b = draw(st.sampled_from([
        lambda: a,  # the same object
        lambda: type(a)(*a._values()),  # another record sharing a's field objects
        lambda: copy.deepcopy(a),  # equal fields, none of them shared
        lambda: draw(_RECORDS),  # anything, often of another class
    ]))()
    return a, b


@given(_pairs())
def test_equality_agrees_with_the_field_tuples(pair):
    a, b = pair
    if type(a) is not type(b):
        assert a.__eq__(b) is NotImplemented and b.__eq__(a) is NotImplemented
        assert a != b and not a == b
        return
    equal = a._values() == b._values()
    assert equal is (_plain(a) == _plain(b))
    assert (a == b) is equal and (b == a) is equal and (a != b) is not equal
