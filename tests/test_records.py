"""The record types' contract and the oracle's names in the package.

``SyncMatrix`` is a plain class whose constructor checks the invariants;
``Bound``, ``Constraint``, ``SyncSpec``, ``ImpliedChange``,
``ClosureReport`` and ``PairSet`` are named tuples.  All of them are
immutable, compare and hash by value, keep the field-by-field repr, and
survive pickling and deep copying.
"""

import copy
import pickle

import pytest

import syncalg
from syncalg import Bound, PairSet, Rel, SyncMatrix, close, pairs_of, parse_spec, spec_to_matrix


def pair(labels=("a", "b")):
    return SyncMatrix(labels, [[Rel.ANY, Rel.LT], [Rel.GT, Rel.ANY]])


def test_matrix_refuses_assignment_and_deletion():
    m = pair()
    for name in ("labels", "cells", "extra"):
        with pytest.raises(AttributeError):
            setattr(m, name, ())
        with pytest.raises(AttributeError):
            delattr(m, name)
    assert m == pair()


def test_matrix_equality_and_hash_are_by_value():
    m = pair()
    assert m == pair()
    assert hash(m) == hash(pair())
    assert m != pair(("a", "c"))
    assert m != (m.labels, m.cells)
    assert len({m, pair(), pair(("a", "c"))}) == 2


def test_reprs_keep_the_field_form():
    assert repr(pair()) == (
        "SyncMatrix(labels=('a', 'b'), "
        "cells=((<Rel.ANY: 7>, <Rel.LT: 1>), (<Rel.GT: 4>, <Rel.ANY: 7>)))"
    )
    assert repr(close(pair())) == (
        f"ClosureReport(closed={pair()!r}, "
        "bounds=(Bound(value=<Rel.LT: 1>), Bound(value=<Rel.GT: 4>)), "
        "deadlocked=False, deadlock_pairs=(), implied=(), iterations=1)"
    )
    assert repr(parse_spec("a < b\n")) == (
        "SyncSpec(events=('a', 'b'), "
        "constraints=(Constraint(lhs='a', op='<', rhs='b', line=1),))"
    )
    assert repr(pairs_of(Rel.LT, 2)) == "PairSet(domain_size=2, pairs=frozenset({(0, 1)}))"


RECORDS = {
    "SyncMatrix": pair(),
    "ClosureReport": close(spec_to_matrix(parse_spec("a > b\nb > c\nc > d\n"))),
    "SyncSpec": parse_spec("events a b c\na < b\nb != c\n"),
    "Bound": Bound(Rel.LT),
    "PairSet": PairSet(3, frozenset({(0, 1), (2, 2)})),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_survive_pickle_and_deepcopy(name):
    record = RECORDS[name]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(record, protocol))
        assert type(again) is type(record)
        assert again == record
    assert copy.deepcopy(record) == record
    assert copy.copy(record) == record


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment(name):
    record = RECORDS[name]
    for field in getattr(record, "_fields", ("labels", "cells")) + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_oracle_names_are_package_names():
    assert syncalg.minimal_network is syncalg.oracle.minimal_network
    from syncalg import satisfies

    assert satisfies is syncalg.oracle.satisfies
    for name in syncalg.__all__:
        getattr(syncalg, name)
    namespace = {}
    exec("from syncalg import *", namespace)
    assert set(syncalg.__all__) <= namespace.keys()
    with pytest.raises(AttributeError):
        syncalg.no_such_name
