"""The constructor contract of the three validated value classes.

``ChernVector``, ``Rank2BundleClass`` and ``Rank3BundleClass`` check their
arguments before they store anything.  These tests pin what a caller sees:
the rejections other than the integer rule (``tests/test_integer_rule.py``
covers that), each with its exact message and in its order, and also
``Provenance``'s one rejection; keyword
construction; ``c`` stored as a tuple; re-validation by
``dataclasses.replace``; the generated ``==``, ``hash`` and ``repr``,
with copying and pickling, also on the results the laws build without
the constructor; and the fields held in slots, with no instance dict.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from bundle_arith import rank2, rank3
from bundle_arith.cohomology import MAX_DIM, ChernVector
from bundle_arith.diophantine import Provenance
from bundle_arith.errors import DomainError
from bundle_arith.rank2 import Rank2BundleClass
from bundle_arith.rank3 import Rank3BundleClass

NOT_FEASIBLE = "fails the integrality conditions for rank 3 on CP^5"

REJECTED = [
    (ChernVector, (2, 3, (1,)), "expected 2 Chern classes for rank 2, got 1"),
    (ChernVector, (2, 3, [1, 2, 3]), "expected 2 Chern classes for rank 2, got 3"),
    (ChernVector, (1, MAX_DIM + 1, (0,)), f"dim must be at most {MAX_DIM}, got {MAX_DIM + 1}"),
    # the dimension is checked before the number of classes
    (ChernVector, (2, MAX_DIM + 1, (1,)), f"dim must be at most {MAX_DIM}, got {MAX_DIM + 1}"),
    (ChernVector, (0, 3, ()), "rank must be a positive integer, got 0"),
    (ChernVector, (1, 3, (Fraction(1, 2),)), "c must hold integer Chern classes, got (Fraction(1, 2),)"),
    (Rank2BundleClass, (1, 1), "(c1, c2) = (1, 1) is not realizable: c1*c2 must be even"),
    (Rank2BundleClass, (-3, 5), "(c1, c2) = (-3, 5) is not realizable: c1*c2 must be even"),
    # parity is checked before alpha
    (Rank2BundleClass, (1, 1, 7), "(c1, c2) = (1, 1) is not realizable: c1*c2 must be even"),
    (Rank2BundleClass, (0, 0, 2), "alpha in {0, 1} is required when c1 is even, got 2"),
    (Rank2BundleClass, (2, 3, -1), "alpha in {0, 1} is required when c1 is even, got -1"),
    (Rank2BundleClass, (0, 0), "alpha in {0, 1} is required when c1 is even, got None"),
    # 0.0 == 0 and True == 1, but only the ints 0 and 1 are Z/2 values
    *[(Rank2BundleClass, (c1, c2, alpha), f"alpha in {{0, 1}} is required when c1 is even, got {alpha}")
      for alpha in (0.0, 1.0, False, True) for c1, c2 in ((0, 0), (-4, 3))],
    (Rank2BundleClass, (1, 0, 0), "alpha is not defined for odd c1 = 1"),
    (Rank2BundleClass, (1, 2, 0), "alpha is not defined for odd c1 = 1"),
    (Rank2BundleClass, (-1, 4, 1), "alpha is not defined for odd c1 = -1"),
    (Rank3BundleClass, (0, 0, 1), f"(c1, c2, c3) = (0, 0, 1) {NOT_FEASIBLE}"),
    (Rank3BundleClass, (1, 1, 1), f"(c1, c2, c3) = (1, 1, 1) {NOT_FEASIBLE}"),
    (Rank3BundleClass, (1, 0, 1), f"(c1, c2, c3) = (1, 0, 1) {NOT_FEASIBLE}"),  # off the 12Z lattice
    (Rank3BundleClass, (3, 3, 0), f"(c1, c2, c3) = (3, 3, 0) {NOT_FEASIBLE}"),
    (Provenance, ("nope",), "unknown provenance kind 'nope'"),
]


@pytest.mark.parametrize("cls,args,message", REJECTED, ids=[f"{c.__name__}{a}" for c, a, _ in REJECTED])
def test_rejections_keep_their_messages(cls, args, message):
    with pytest.raises(DomainError) as err:
        cls(*args)
    assert str(err.value) == message


G2 = rank2.GroupDescriptorA1(-4)
G3 = rank3.make_group(3, 0, 24)
V2 = Rank2BundleClass(-4, 3, 1)
W3 = Rank3BundleClass(3, 0, -4)

# (object, keyword arguments that rebuild it, its repr)
VALUES = [
    (ChernVector(2, 3, (1, 2)), {"rank": 2, "dim": 3, "c": (1, 2)}, "ChernVector(rank=2, dim=3, c=(1, 2))"),
    (Rank2BundleClass(2, 3, 1), {"c1": 2, "c2": 3, "alpha": 1}, "Rank2BundleClass(c1=2, c2=3, alpha=1)"),
    (Rank2BundleClass(1, 4), {"c1": 1, "c2": 4}, "Rank2BundleClass(c1=1, c2=4, alpha=None)"),
    (Rank3BundleClass(3, 0, -4), {"c1": 3, "c2": 0, "c3": -4}, "Rank3BundleClass(c1=3, c2=0, c3=-4)"),
    # results of the unchecked builders rank2._class and rank3._class
    (rank2.add(G2, V2, Rank2BundleClass(-4, 5, 1)), {"c1": -4, "c2": 8, "alpha": 1},
     "Rank2BundleClass(c1=-4, c2=8, alpha=1)"),
    (rank2.negate(G2, V2), {"c1": -4, "c2": -3, "alpha": 1}, "Rank2BundleClass(c1=-4, c2=-3, alpha=1)"),
    (rank2.horrocks_sum(Rank2BundleClass(-3, 2), Rank2BundleClass(-3, 4)), {"c1": -3, "c2": 6},
     "Rank2BundleClass(c1=-3, c2=6, alpha=None)"),
    (rank2.tensor_line(V2, 2), {"c1": 0, "c2": -1, "alpha": 1}, "Rank2BundleClass(c1=0, c2=-1, alpha=1)"),
    (list(rank2.realizable_classes(1, 1, 2))[-1], {"c1": 1, "c2": 2},
     "Rank2BundleClass(c1=1, c2=2, alpha=None)"),
    (rank3.add(G3, W3, Rank3BundleClass(3, 0, 8)), {"c1": 3, "c2": 0, "c3": 4},
     "Rank3BundleClass(c1=3, c2=0, c3=4)"),
    (rank3.iterate(G3, W3, 3), {"c1": 3, "c2": 0, "c3": -12}, "Rank3BundleClass(c1=3, c2=0, c3=-12)"),
    (G3.identity, {"c1": 3, "c2": 0, "c3": 0}, "Rank3BundleClass(c1=3, c2=0, c3=0)"),
]


@pytest.mark.parametrize("obj,kwargs,text", VALUES, ids=[text for _, _, text in VALUES])
def test_generated_methods(obj, kwargs, text):
    fields = tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))
    assert type(obj)(**kwargs) == obj
    assert repr(obj) == text
    assert hash(obj) == hash(fields)
    for twin in (copy.copy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj)
        assert twin == obj and hash(twin) == hash(obj) and repr(twin) == text
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, dataclasses.fields(obj)[0].name, 0)


def test_chern_classes_are_stored_as_a_tuple():
    v = ChernVector(rank=2, dim=3, c=[1, 2])
    assert v.c == (1, 2) and type(v.c) is tuple
    assert v == ChernVector(2, 3, (1, 2))
    assert dataclasses.replace(v, c=[5, 6]).c == (5, 6)


@pytest.mark.parametrize("obj,change,message", [
    (ChernVector(2, 3, (1, 2)), {"c": (1,)}, "expected 2 Chern classes for rank 2, got 1"),
    (Rank2BundleClass(2, 3, 1), {"alpha": None}, "alpha in {0, 1} is required when c1 is even, got None"),
    (Rank2BundleClass(2, 3, 1), {"c1": 1}, "(c1, c2) = (1, 3) is not realizable: c1*c2 must be even"),
    (Rank3BundleClass(3, 0, -4), {"c3": 1}, f"(c1, c2, c3) = (3, 0, 1) {NOT_FEASIBLE}"),
], ids=["ChernVector-c", "Rank2BundleClass-alpha", "Rank2BundleClass-c1", "Rank3BundleClass-c3"])
def test_replace_revalidates(obj, change, message):
    with pytest.raises(DomainError) as err:
        dataclasses.replace(obj, **change)
    assert str(err.value) == message


def test_equal_fields_of_different_classes_differ():
    assert Rank2BundleClass(0, 0, 0) != Rank3BundleClass(0, 0, 0)
    assert Rank3BundleClass(0, 0, 0) != Rank2BundleClass(0, 0, 0)
    assert Rank2BundleClass(0, 0, 0) == Rank2BundleClass(0, 0, 0)


@pytest.mark.parametrize("obj", [obj for obj, _, _ in VALUES], ids=[text for _, _, text in VALUES])
def test_fields_live_in_slots(obj):
    assert type(obj).__slots__ == tuple(f.name for f in dataclasses.fields(obj))
    assert not hasattr(obj, "__dict__")
