"""The value types against their frozen-dataclass twins in oracles, and their refusal of
non-integral fields."""

import copy
import pickle
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import DATACLASS_TWINS, GroupDatumTwin, HeckeRingTwin, PlaceContextTwin
from satkit.characters import KostantDatum, KostantEntry, Weight
from satkit.laurent import SIM, tor
from satkit.rootdata import EndoTriple, GroupDatum, PlaceContext, SignedGroupDatum
from satkit.satake import HeckeRing, Substitution

INTS = st.integers(-1, 3)  # valid and invalid sizes, counts and degrees
INT_TUPLES = st.lists(INTS, max_size=3).map(tuple)
PAIRS = st.lists(st.tuples(INTS, INTS), max_size=3).map(tuple)
SPLITS = PAIRS.map(lambda pairs: tuple(zip(*pairs)) or ((), ()))  # (nplus, nminus) of one length
SIZES = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)
RING_ARGS = st.tuples(SIZES, st.booleans(), st.none() | INT_TUPLES)
IMAGES = st.tuples(st.booleans(), INTS, st.just(((SIM, 1),)))
TABLES = st.dictionaries(st.sampled_from([SIM, tor(1, 1), tor(1, 2)]), IMAGES, max_size=2)


def ring(kind, sizes, split, linear):
    return kind(HeckeRing)(kind(GroupDatum)(sizes), split, linear)


def substitution(kind, source, target, table):
    return kind(Substitution)(ring(kind, *source), ring(kind, *target), table)


# class -> (its constructor arguments, built into a record by kind(cls) for each class)
CASES = {
    GroupDatum: (st.tuples(INT_TUPLES), None),
    SignedGroupDatum: (st.tuples(PAIRS), None),
    EndoTriple: (st.tuples(INT_TUPLES, INT_TUPLES) | SPLITS, None),
    PlaceContext: (st.tuples(st.booleans(), INTS), None),
    Weight: (st.tuples(INTS, st.lists(INT_TUPLES, max_size=2).map(tuple)), None),
    KostantDatum: (st.tuples(INTS, INTS, st.frozensets(INTS, max_size=3)), None),
    KostantEntry: (st.tuples(INTS, INT_TUPLES, INT_TUPLES, INT_TUPLES), None),
    HeckeRing: (RING_ARGS, ring),
    Substitution: (st.tuples(RING_ARGS, RING_ARGS, TABLES), substitution),
}


def library(cls):
    return cls


def twin(cls):
    return DATACLASS_TWINS[cls]


def outcome(fn, *args):
    """fn(*args), or the type and message of the exception it raises."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e), str(e)


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.value


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_record_behaves_as_its_dataclass_twin(cls, data):
    strategy, build = CASES[cls]
    build = build or (lambda kind, *args: kind(cls)(*args))
    args, other_args = data.draw(strategy), data.draw(strategy)
    record, reference = outcome(build, library, *args), outcome(build, twin, *args)
    if not isinstance(reference, twin(cls)):
        assert record == reference  # the same exception type and message
        return
    assert type(record) is cls
    assert repr(record) == repr(reference).replace("Twin(", "(")
    assert outcome(hash, record) == outcome(hash, reference)  # a Substitution's dict table is unhashable
    assert record == outcome(build, library, *args)
    other, other_reference = outcome(build, library, *other_args), outcome(build, twin, *other_args)
    if isinstance(other_reference, twin(cls)):
        compared = (record == other, record != other)
        assert compared == (reference == other_reference, reference != other_reference)

    names = [field.name for field in fields(reference)]
    values = tuple(getattr(record, name) for name in names)
    plain = tuple(getattr(reference, name) for name in names)
    assert (record == values, record != values) == (reference == plain, reference != plain) == (False, True)
    assert cls(**dict(zip(names, values))) == record

    for name in names + ["unknown"]:
        for change, reference_change in [
            (raised(setattr, record, name, 0), raised(setattr, reference, name, 0)),
            (raised(delattr, record, name), raised(delattr, reference, name)),
        ]:
            assert isinstance(change, AttributeError) and str(change) == str(reference_change)
    assert repr(record) == repr(reference).replace("Twin(", "(")  # nothing changed

    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is cls and copied == record and repr(copied) == repr(record)


def test_defaults_and_subclasses_as_in_the_twins():
    """The twins' defaults; and a record of a subclass equals no record of its base."""
    g = GroupDatum((4,))
    assert repr(PlaceContext(True)) == repr(PlaceContextTwin(True)).replace("Twin(", "(")
    assert repr(HeckeRing(g, True)) == repr(HeckeRingTwin(GroupDatumTwin((4,)), True)).replace("Twin(", "(")
    assert PlaceContext(split=False) == PlaceContext(False, 1)
    assert HeckeRing(datum=g, split_presentation=True) == HeckeRing(g, True, None)
    for base in (GroupDatum, GroupDatumTwin):
        derived = type("Derived", (base,), {})
        assert (base((4,)) == derived((4,)), derived((4,)) != base((4,))) == (False, True)


@pytest.mark.parametrize(
    "build, field",
    [
        pytest.param(lambda: GroupDatum((2.5,)), "sizes", id="GroupDatum"),
        pytest.param(lambda: SignedGroupDatum(((1, 1.0),)), "sig", id="SignedGroupDatum"),
        pytest.param(lambda: EndoTriple((1.7,), (2.2,)), "nplus", id="EndoTriple"),
        pytest.param(lambda: PlaceContext(True, 2.0), "d", id="PlaceContext"),
        pytest.param(lambda: Weight(Fraction(1), ((1, 0),)), "a", id="Weight-a"),
        pytest.param(lambda: Weight(0, ((1, 0.5),)), "blocks", id="Weight-blocks"),
        pytest.param(lambda: KostantDatum(2.0, 1, {1}), "p", id="KostantDatum-p"),
        pytest.param(lambda: KostantDatum(2, 1, {1.0}), "s_set", id="KostantDatum-s_set"),
        pytest.param(lambda: KostantEntry(1.0, (1,), (0,), (0,)), "degree", id="KostantEntry"),
        pytest.param(lambda: HeckeRing(GroupDatum((4,)), True, (1.0,)), "levi_linear", id="HeckeRing"),
    ],
)
def test_a_non_integral_field_is_refused_not_truncated(build, field):
    with pytest.raises(ValueError, match=f"^{field} takes integers only"):
        build()
