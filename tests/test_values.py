"""The value classes keep the contract of frozen, ordered records: each
compares, orders and hashes as the tuple of its fields, against its own
class only, and refuses assignment."""

import itertools
import operator
import pickle

import pytest

from ncpark.locus import LocusPoint
from ncpark.nonnesting import FilterChain, RootPoset, build_root_poset
from ncpark.parkspace import ParkClass
from ncpark.reflgroup import DihedralElement, FlatPartition, GroupSpec, SignedPerm
from ncpark.setpart import LabeledPartition, SetPartition

A3 = build_root_poset(GroupSpec("A", 3))
B2 = build_root_poset(GroupSpec("B", 2))
TOP = frozenset(A3.roots)

# each class with its compared fields, in order, and a few instances
CASES = {
    SignedPerm: (
        ("images",),
        [SignedPerm((1, 2)), SignedPerm((2, 1)), SignedPerm((-1, 2)), SignedPerm((1, 2, 3))],
    ),
    DihedralElement: (
        ("m", "refl", "j"),
        [DihedralElement(4, False, 1), DihedralElement(4, True, 0), DihedralElement(4, False, 3)]
        + [DihedralElement(5, False, 0)],
    ),
    GroupSpec: (
        ("family", "param"),
        [GroupSpec("A", 3), GroupSpec("B", 2), GroupSpec("A", 4), GroupSpec("I2", 5)],
    ),
    FlatPartition: (
        ("family", "n", "blocks", "kind", "line"),
        [
            FlatPartition("A", 3, ((1,), (2, 3))),
            FlatPartition("A", 3, ((1, 2), (3,))),
            FlatPartition("I2", 4, kind="line", line=1),
            FlatPartition("I2", 4, kind="origin"),
        ],
    ),
    SetPartition: (
        ("n", "signed", "blocks"),
        [
            SetPartition.of(3, [(1,), (2, 3)]),
            SetPartition.of(3, [(1, 2, 3)]),
            SetPartition.of(1, [(1, -1)], signed=True),
        ],
    ),
    LabeledPartition: (
        ("partition", "labels"),
        [
            LabeledPartition.of(SetPartition.of(2, [(1, 2)]), {(1, 2): (1,)}),
            LabeledPartition.of(SetPartition.of(2, [(1,), (2,)]), {(1,): (1,), (2,): (2,)}),
            LabeledPartition.of(SetPartition.of(2, [(1,), (2,)]), {(1,): (2,), (2,): (1,)}),
        ],
    ),
    ParkClass: (
        ("chain", "rep"),
        [
            ParkClass((SignedPerm((1, 2)),), SignedPerm((2, 1))),
            ParkClass((SignedPerm((1, 2)),), SignedPerm((1, 2))),
            ParkClass((SignedPerm((2, 1)),), SignedPerm((1, 2))),
        ],
    ),
    LocusPoint: (("order", "coords"), [LocusPoint(4, (0, 1)), LocusPoint(4, (3, 0)), LocusPoint(6, (0, 0))]),
    RootPoset: (("spec", "roots"), [A3, B2, RootPoset(GroupSpec("A", 3), ((0, 1),))]),
    FilterChain: (
        ("poset", "filters"),
        [
            FilterChain(A3, (TOP, frozenset())),
            FilterChain(A3, (TOP, TOP)),
            FilterChain(B2, (frozenset(B2.roots),)),
        ],
    ),
}
INSTANCES = [(cls, x) for cls, (_, xs) in CASES.items() for x in xs]
INSTANCE_IDS = [f"{cls.__name__}-{i}" for cls, (_, xs) in CASES.items() for i in range(len(xs))]


def fields_of(x):
    return tuple(getattr(x, f) for f in CASES[type(x)][0])


def test_every_value_class_is_covered():
    assert len(CASES) == 10
    assert all(len(xs) >= 3 for _, xs in CASES.values())


def test_a_value_equals_only_its_own_class():
    assert SignedPerm((1, 2)) != ((1, 2),)
    assert not SignedPerm((1, 2)) == ((1, 2),)
    with pytest.raises(TypeError):
        sorted([SignedPerm((2, 1)), ((1, 2),)])
    with pytest.raises(TypeError):
        SignedPerm((1, 2)) < ParkClass((), SignedPerm((1, 2)))
    for cls, x in INSTANCES:
        assert x != fields_of(x)
        with pytest.raises(TypeError):
            sorted([x, fields_of(x)])


@pytest.mark.parametrize("cls,x", INSTANCES, ids=INSTANCE_IDS)
def test_hash_is_the_hash_of_the_fields(cls, x):
    assert hash(x) == hash(fields_of(x))
    twin = pickle.loads(pickle.dumps(x))
    assert twin == x and twin is not x and hash(twin) == hash(x)


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_order_is_lexicographic_on_the_fields(cls):
    xs = CASES[cls][1]
    for x, y in itertools.product(xs, repeat=2):
        for op in (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge):
            assert op(x, y) == op(fields_of(x), fields_of(y)), (op, x, y)


@pytest.mark.parametrize("cls,x", INSTANCES, ids=INSTANCE_IDS)
def test_fields_are_read_only(cls, x):
    for name in CASES[cls][0]:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)


def test_generated_reprs():
    assert repr(GroupSpec("A", 3)) == "GroupSpec(family='A', param=3)"
    poset = RootPoset(GroupSpec("A", 3), ((0, 1), (1, 0), (1, 1)))
    assert repr(poset) == "RootPoset(spec=GroupSpec(family='A', param=3), roots=((0, 1), (1, 0), (1, 1)))"
    assert repr(FilterChain(poset, ())) == f"FilterChain(poset={poset!r}, filters=())"


def test_root_poset_memos_stay_outside_the_value():
    fresh = RootPoset(A3.spec, A3.roots)
    A3.sums(A3.mask(TOP), A3.mask(TOP))
    assert A3._masks and A3._sums and "_table" in vars(A3)
    assert not fresh._masks and "_table" not in vars(fresh)
    assert fresh == A3 and hash(fresh) == hash(A3)
    assert repr(fresh) == repr(A3)
