"""The frozen value records: construction, equality, hashing, repr, pickling."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from twodescent.arith import ONE, Factorization, Record, SquareClass, factorize
from twodescent.cli import CremonaLine, parse_cremona_line
from twodescent.curve import INFINITY, Curve, Pt, TorsionGroup, torsion_subgroup
from twodescent.descent import (
    BadSet,
    DescentError,
    DescentReport,
    IsogenyPair,
    SelmerSet,
    descent_report,
    isogenous_curve,
)
from twodescent.families import EpRow, FamilyError, RankResult, ep_table
from twodescent.localsolve import LocalVerdict, QuarticForm, Witness, qp_soluble

RECORDS = {
    Factorization: lambda: factorize(-360),
    SquareClass: lambda: SquareClass(-6),
    Curve: lambda: Curve(0, 17, 0),
    Pt: lambda: Pt(Fraction(1, 2), Fraction(-3)),
    TorsionGroup: lambda: torsion_subgroup(Curve(0, 4, 0)),
    QuarticForm: lambda: QuarticForm((1, 0, 0, 0, -2)),
    Witness: lambda: Witness("real", None, "leading coefficient positive"),
    LocalVerdict: lambda: qp_soluble(QuarticForm((1, 0, 0, 0, -2)), 7),
    IsogenyPair: lambda: isogenous_curve(Curve(0, 17, 0)),
    BadSet: lambda: BadSet((2, 17)),
    SelmerSet: lambda: SelmerSet((ONE, SquareClass(17))),
    DescentReport: lambda: descent_report(Curve(0, 17, 0), 10),
    RankResult: lambda: RankResult("interval", 0, 2, "no points up to 20"),
    EpRow: lambda: ep_table(20)[-1],
    CremonaLine: lambda: parse_cremona_line("18496 k 1 [0,0,0,17,0] 0 [2] [0:0:1]"),
}


@pytest.fixture(params=list(RECORDS), ids=lambda cls: cls.__name__)
def record(request):
    r = RECORDS[request.param]()
    assert type(r) is request.param
    return r


def test_every_record_type_is_covered():
    # the record types of the package are exactly the ones tested here
    def leaves(cls):
        for sub in cls.__subclasses__():
            if sub.__module__.startswith("twodescent."):
                yield sub
            yield from leaves(sub)

    assert set(leaves(Record)) == set(RECORDS)


def test_pickle_and_deepcopy_round_trip(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert twin == record and twin is not record
        assert hash(twin) == hash(record)
        assert repr(twin) == repr(record)


def test_init_and_of_build_equal_records_with_equal_vars(record):
    # both set each field with object.__setattr__, in the object's own values
    cls = type(record)
    values = [getattr(record, n) for n in cls._fields]
    made, unchecked = cls(*values), cls._of(*values)
    assert made == unchecked == record and hash(made) == hash(unchecked)
    assert vars(made) == vars(unchecked) == dict(zip(cls._fields, values))


def test_fields_cannot_be_assigned_or_deleted(record):
    name = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_equal_fields_of_another_record_type_are_unequal(record):
    cls = type(record)
    values = {n: getattr(record, n) for n in cls._fields}
    Twin = type("Twin", (Record,), {"__annotations__": dict.fromkeys(values, "object")})
    twin = Twin(**values)
    assert twin != record and record != twin
    assert Twin(**values) == twin and hash(Twin(**values)) == hash(twin)


def test_construction_by_position_or_keyword_with_trailing_defaults():
    assert Curve(0, 17, 0) == Curve(a2=0, a4=17, a6=0) == Curve(0, a6=0, a4=17)
    assert RankResult("exact", 1, 1) == RankResult(kind="exact", lo=1, hi=1, note="")
    assert RankResult("exact", 1, 1).note == ""
    with pytest.raises(TypeError):
        Curve(0, 17)
    with pytest.raises(TypeError):
        Pt(1, 2, 3)


def test_post_init_validates_every_construction():
    with pytest.raises(FamilyError):
        RankResult("interval", 1, 1)
    with pytest.raises(DescentError):
        BadSet((3, 5))
    with pytest.raises(DescentError):
        SelmerSet((SquareClass(2),))


@pytest.mark.parametrize("primes", [2, [2, 3], (2, 9), (2, 1), (True, 2), (2, 3.0)])
def test_bad_set_refuses_entries_that_are_not_prime_ints(primes):
    # (2, 9) once gave qs2 the classes +-9 and +-18, and (True, 2) each
    # of +-1 and +-2 twice; 2 and (2, 3.0) raised a bare TypeError there
    with pytest.raises(DescentError, match="need a tuple of prime ints"):
        BadSet(primes)


def test_square_classes_order_by_magnitude_then_sign():
    reps = [2, -1, 6, 1, -2, -6]
    assert [int(d) for d in sorted(map(SquareClass, reps))] == [-1, 1, -2, 2, -6, 6]
    assert SquareClass(-1) < SquareClass(1) <= SquareClass(1) < SquareClass(-2)
    assert SquareClass(3) > SquareClass(-3) >= SquareClass(2)
    with pytest.raises(TypeError):
        SquareClass(1) < 2
    assert SquareClass(5) != 5 and {SquareClass(5): 1}[SquareClass(5)] == 1


def test_a_square_class_stores_its_rep_alone():
    # its order key (|rep|, rep) is computed by __lt__, not stored; the
    # comparisons, hash and pickling are checked with the other records above
    assert SquareClass._fields == ("rep",)
    assert vars(SquareClass(-6)) == vars(pickle.loads(pickle.dumps(SquareClass(-6)))) == {"rep": -6}
    reps = [6, -5, 1, -1, 3, -6, 2, -3, 5, -2, 7, -7]
    assert sorted(map(SquareClass, reps)) == [SquareClass(r) for r in sorted(reps, key=lambda r: (abs(r), r))]


def test_repr_is_the_field_by_field_form():
    assert repr(Pt(Fraction(1, 2), Fraction(-3))) == "Pt(x=Fraction(1, 2), y=Fraction(-3, 1))"
    assert repr(INFINITY) == "Pt(x=None, y=None)"
    assert repr(Curve(0, 17, 0)) == "Curve(a2=0, a4=17, a6=0)"
    assert repr(RankResult("exact", 1, 1)) == "RankResult(kind='exact', lo=1, hi=1, note='')"
    assert repr(SquareClass(-6)) == "SquareClass(-6)"
