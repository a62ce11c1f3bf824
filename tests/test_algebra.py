"""Unit tests for the eight-element relation algebra."""

import pytest

from syncalg.algebra import ALL_RELS, ATOMS, CANONICAL_SYMBOLS, Bound, Rel
from syncalg.errors import ValidationError

# Pinned from exhaustive pair-set enumeration; the table is identical over
# domains of three, four, and five time values, so it is domain-independent.
COMPOSE_TABLE = {
    "never": {
        "never": "never", "<": "never", "=": "never", "<=": "never",
        ">": "never", "!=": "never", ">=": "never", "any": "never",
    },
    "<": {
        "never": "never", "<": "<", "=": "<", "<=": "<",
        ">": "any", "!=": "any", ">=": "any", "any": "any",
    },
    "=": {
        "never": "never", "<": "<", "=": "=", "<=": "<=",
        ">": ">", "!=": "!=", ">=": ">=", "any": "any",
    },
    "<=": {
        "never": "never", "<": "<", "=": "<=", "<=": "<=",
        ">": "any", "!=": "any", ">=": "any", "any": "any",
    },
    ">": {
        "never": "never", "<": "any", "=": ">", "<=": "any",
        ">": ">", "!=": "any", ">=": ">", "any": "any",
    },
    "!=": {
        "never": "never", "<": "any", "=": "!=", "<=": "any",
        ">": "any", "!=": "any", ">=": "any", "any": "any",
    },
    ">=": {
        "never": "never", "<": "any", "=": ">=", "<=": "any",
        ">": ">", "!=": "any", ">=": ">=", "any": "any",
    },
    "any": {
        "never": "never", "<": "any", "=": "any", "<=": "any",
        ">": "any", "!=": "any", ">=": "any", "any": "any",
    },
}


def test_eight_distinct_values():
    assert len(ALL_RELS) == 8
    assert len(set(ALL_RELS)) == 8
    assert set(r.value for r in ALL_RELS) == set(range(8))


def test_symbol_mapping_is_a_bijection():
    assert len(set(CANONICAL_SYMBOLS)) == 8
    for rel in ALL_RELS:
        assert Rel.from_symbol(rel.symbol) is rel


def test_symbols_are_the_canonical_spellings():
    assert Rel.NEVER.symbol == "never"
    assert Rel.LT.symbol == "<"
    assert Rel.EQ.symbol == "="
    assert Rel.GT.symbol == ">"
    assert Rel.LE.symbol == "<="
    assert Rel.GE.symbol == ">="
    assert Rel.NE.symbol == "!="
    assert Rel.ANY.symbol == "any"


def test_unknown_symbol_rejected():
    with pytest.raises(ValidationError):
        Rel.from_symbol("==")


def test_atoms():
    assert ATOMS == (Rel.LT, Rel.EQ, Rel.GT)
    assert Rel.NEVER.atoms() == ()
    assert Rel.LE.atoms() == (Rel.LT, Rel.EQ)
    assert Rel.ANY.atoms() == (Rel.LT, Rel.EQ, Rel.GT)
    for rel in ALL_RELS:
        rebuilt = Rel.NEVER
        for atom in rel.atoms():
            rebuilt |= atom
        assert rebuilt == rel


def test_complement():
    assert Rel.LT.complement() == Rel.GE
    assert Rel.ANY.complement() == Rel.NEVER
    assert ~Rel.NE == Rel.EQ
    for rel in ALL_RELS:
        assert rel.complement().complement() == rel
        assert (rel | rel.complement()) == Rel.ANY
        assert (rel & rel.complement()) == Rel.NEVER


def test_converse_swaps_strict_directions():
    assert Rel.LT.converse() == Rel.GT
    assert Rel.LE.converse() == Rel.GE
    assert Rel.EQ.converse() == Rel.EQ
    assert Rel.NE.converse() == Rel.NE
    assert Rel.NEVER.converse() == Rel.NEVER
    assert Rel.ANY.converse() == Rel.ANY
    for rel in ALL_RELS:
        assert rel.converse().converse() == rel


@pytest.mark.parametrize("a", ALL_RELS, ids=lambda r: r.symbol)
def test_composition_matches_pinned_table(a):
    for b in ALL_RELS:
        expected = Rel.from_symbol(COMPOSE_TABLE[a.symbol][b.symbol])
        assert a.compose(b) == expected, f"{a.symbol} o {b.symbol}"


def test_composition_chains_transmit_strict_order():
    assert Rel.LT.compose(Rel.LT) == Rel.LT
    assert Rel.GT.compose(Rel.GT) == Rel.GT
    assert Rel.LT.compose(Rel.LE) == Rel.LT
    assert Rel.GE.compose(Rel.GT) == Rel.GT


def test_composition_with_equality_is_identity_like():
    for rel in ALL_RELS:
        assert Rel.EQ.compose(rel) == rel
        assert rel.compose(Rel.EQ) == rel


def test_composition_through_exclusion_or_full_loses_everything():
    for a in (Rel.NE, Rel.ANY):
        for b in (Rel.LT, Rel.LE, Rel.GT, Rel.GE, Rel.NE, Rel.ANY):
            assert a.compose(b) == Rel.ANY
            assert b.compose(a) == Rel.ANY


def test_composition_annihilated_by_never():
    for rel in ALL_RELS:
        assert Rel.NEVER.compose(rel) == Rel.NEVER
        assert rel.compose(Rel.NEVER) == Rel.NEVER


def test_boundary_classes_partition_the_algebra():
    including = [r for r in ALL_RELS if r.includes_boundary]
    excluding = [r for r in ALL_RELS if r.excludes_boundary]
    assert sorted(r.value for r in including) == [2, 3, 6, 7]
    assert sorted(r.value for r in excluding) == [0, 1, 4, 5]


def test_converse_stays_in_class_and_involutes():
    for rel in ALL_RELS:
        other = rel.converse()
        assert other.includes_boundary == rel.includes_boundary
        assert other.converse() == rel
    assert Rel.LE.converse() == Rel.GE
    assert Rel.LT.converse() == Rel.GT
    assert Rel.EQ.converse() == Rel.EQ
    # Plain complement crosses classes instead.
    assert Rel.LE.complement() == Rel.GT


def test_contains():
    assert Rel.LE.contains(Rel.LT)
    assert Rel.LE.contains(Rel.LE)
    assert not Rel.LE.contains(Rel.GT)
    for rel in ALL_RELS:
        assert Rel.ANY.contains(rel)
        assert rel.contains(Rel.NEVER)


def test_bound_readings():
    assert Bound(Rel.ANY).describe() == "unbounded"
    assert Bound(Rel.GT).describe() == "bounded below (open)"
    assert Bound(Rel.GE).describe() == "bounded below (closed)"
    assert Bound(Rel.LT).describe() == "bounded above (open)"
    assert Bound(Rel.LE).describe() == "bounded above (closed)"
    assert Bound(Rel.EQ).describe() == "bounded above and below (closed)"
    assert Bound(Rel.NEVER).describe() == "bounded above and below (open)"
    assert Bound(Rel.NE).describe() == "unbounded (simultaneity excluded)"


def test_bound_flags():
    b = Bound(Rel.GT)
    assert b.bounded_below and not b.bounded_above and not b.boundary_included
    b = Bound(Rel.LE)
    assert b.bounded_above and not b.bounded_below and b.boundary_included
    assert Bound(Rel.ANY).bounded_below is False
    assert Bound(Rel.ANY).bounded_above is False
    assert Bound(Rel.NEVER).is_empty
    assert Bound(Rel.NEVER).bounded_below and Bound(Rel.NEVER).bounded_above
    assert Bound(Rel.EQ).symbol == "="
