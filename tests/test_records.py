"""The package's immutable records: repr, equality, hash, copying, pickling
and the refusal to assign, as frozen dataclasses gave them."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from radokit import (
    CCCertificate,
    CoefficientSchedule,
    Colouring,
    FirstEntryReport,
    GroundSet,
    PrimeSet,
    RadoNumberResult,
    RatMatrix,
    SystemSpec,
    first_entries,
)


def records():
    """One record of each class, built afresh on each call, with its repr."""
    return [
        (RatMatrix.from_rows([[1, F(1, 2)], [0, -3]]),
         "RatMatrix(rows=2, cols=2, entries=(Fraction(1, 1), Fraction(1, 2), "
         "Fraction(0, 1), Fraction(-3, 1)))"),
        (CCCertificate(((0, 2), (1,)), ((F(1, 2), F(-1)),)),
         "CCCertificate(blocks=((0, 2), (1,)), witnesses=((Fraction(1, 2), "
         "Fraction(-1, 1)),))"),
        (first_entries(RatMatrix.from_rows([[0, 2], [0, 0]])),
         "FirstEntryReport(entries=((0, 1, Fraction(2, 1)),), zero_rows=(1,), "
         "all_equal=True, common_value=Fraction(2, 1))"),
        (PrimeSet.finite([3, 2]),
         "PrimeSet(primes=frozenset({2, 3}), complement=False)"),
        (Colouring.table([1, 2, F(1, 2)], [0, 1, 1]),
         "Colouring(kind='table', assignments=((Fraction(1, 1), 0), "
         "(Fraction(2, 1), 1), (Fraction(1, 2), 1)))"),
        (GroundSet.slice(10, 3), "GroundSet(span=(10, 3))"),
        (RadoNumberResult(5, (0, 1, 1, 0)),
         "RadoNumberResult(number=5, witness=(0, 1, 1, 0))"),
        (CoefficientSchedule.explicit([[1, F(1, 3)]]),
         "CoefficientSchedule(kind='explicit', q=None, table=((Fraction(1, 1), "
         "Fraction(1, 3)),))"),
        (SystemSpec(1, 4, CoefficientSchedule("qpow", 2)),
         "SystemSpec(alpha=1, depth=4, schedule=CoefficientSchedule(kind='qpow', "
         "q=2, table=None))"),
    ]


IDS = [type(rec).__name__ for rec, _ in records()]


FIELDS = {
    RatMatrix: ("rows", "cols", "entries"),
    CCCertificate: ("blocks", "witnesses"),
    FirstEntryReport: ("entries", "zero_rows", "all_equal", "common_value"),
    PrimeSet: ("primes", "complement"),
    Colouring: ("kind", "assignments"),
    GroundSet: ("span",),
    RadoNumberResult: ("number", "witness"),
    CoefficientSchedule: ("kind", "q", "table"),
    SystemSpec: ("alpha", "depth", "schedule"),
}


def fields(rec):
    return tuple(getattr(rec, name) for name in FIELDS[type(rec)])


@pytest.mark.parametrize("i", range(len(IDS)), ids=IDS)
def test_repr(i):
    rec, text = records()[i]
    assert repr(rec) == text


@pytest.mark.parametrize("i", range(len(IDS)), ids=IDS)
def test_equality_and_hash(i):
    rec, other = records()[i][0], records()[i][0]
    assert rec is not other and rec == other and not rec != other
    # the hash is the fields' tuple's, so no derived slot enters it
    assert hash(rec) == hash(other) == hash(fields(rec))
    assert rec != fields(rec) and fields(rec) != rec
    different = records()[(i + 1) % len(IDS)][0]
    assert rec != different and rec.__eq__(different) is NotImplemented


@pytest.mark.parametrize("i", range(len(IDS)), ids=IDS)
def test_slots_only(i):
    rec = records()[i][0]
    assert not hasattr(rec, "__dict__")
    assert set(FIELDS[type(rec)]) <= set(type(rec).__slots__)


def test_derived_attributes_stay_out_of_repr_and_equality():
    s = CoefficientSchedule("qpowpair", 3)
    assert (s.c, s.over_all_primes, s.kernel) == ((-1, 2), False, (2, 1))
    assert repr(s) == "CoefficientSchedule(kind='qpowpair', q=3, table=None)"
    c = Colouring.table([1, 2], [0, 1])
    assert (c._map, c.r) == ({1: 0, 2: 1}, 2)
    assert "_map" not in repr(c) and "r=" not in repr(c)
    # _map is a dict, so a hash that read it would raise
    assert hash(c) == hash(("table", ((F(1), 0), (F(2), 1))))
    assert c == Colouring("table", ((F(1), 0), (F(2), 1)))


@pytest.mark.parametrize("i", range(len(IDS)), ids=IDS)
@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                    lambda rec: pickle.loads(pickle.dumps(rec))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal_records(i, copier):
    rec, text = records()[i]
    twin = copier(rec)
    assert type(twin) is type(rec) and twin == rec and hash(twin) == hash(rec)
    assert repr(twin) == text


def test_copies_rebuild_derived_attributes():
    s = pickle.loads(pickle.dumps(CoefficientSchedule("allprimespair")))
    assert (s.c, s.over_all_primes, s.kernel) == ((-1, 2), True, (2, 1))
    c = copy.deepcopy(Colouring.table([1, 2], [0, 1]))
    assert c.colour_of(F(2)) == 1


@pytest.mark.parametrize("i", range(len(IDS)), ids=IDS)
def test_assignment_and_deletion_refused(i):
    rec, text = records()[i]
    for name in (FIELDS[type(rec)][0], "other"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(rec, name, 1)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(rec, name)
    assert repr(rec) == text


def test_keywords_and_defaults():
    assert CoefficientSchedule("qpow", q=2) == CoefficientSchedule("qpow", 2)
    assert PrimeSet() == PrimeSet(primes=frozenset(), complement=False)
    assert Colouring("log2parity") == Colouring(kind="log2parity", assignments=())
    assert FirstEntryReport(entries=(), zero_rows=(0,), all_equal=True,
                            common_value=None).zero_rows == (0,)


def test_log2parity_colouring_refuses_a_table():
    """log2parity reads no table, so a record holding one would answer as
    log2parity yet compare unequal to Colouring("log2parity")."""
    for assignments in (((F(1), 5),), ((F(1), 0),)):
        with pytest.raises(ValueError, match="^log2parity colouring takes no table$"):
            Colouring("log2parity", assignments)
    assert Colouring("log2parity", ()) == Colouring("log2parity")
