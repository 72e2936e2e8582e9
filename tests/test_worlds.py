"""Core set semantics: universes, propositions, entailment."""

import pytest
from hypothesis import given, strategies as st

import rankrev as rr
from rankrev import InputError

from conftest import U4


def test_auto_universe_labels_and_order(uni):
    assert uni.worlds == ("AB", "Ab", "aB", "ab")
    assert uni.atoms == ("A", "B")
    assert uni.valuations[uni.index("Ab")] == (True, False)
    assert uni.valuations[uni.index("ab")] == (False, False)


def test_atom_masks_are_valuation_columns():
    u = rr.Universe.from_atoms(("A", "B", "C"))
    for j, atom in enumerate(u.atoms):
        assert u.atom_masks()[atom] == sum(1 << i for i, row in enumerate(u.valuations) if row[j])
    assert u.atom_masks() is u.atom_masks()  # computed once per universe
    with pytest.raises(InputError, match="valuations"):
        rr.Universe(("w1", "w2")).atom_masks()


def test_indices_are_the_set_bits_ascending():
    u = rr.Universe(tuple(f"w{i}" for i in range(9)))
    for mask in range(1 << 9):
        assert u.prop_from_mask(mask).indices() == tuple(i for i in range(9) if mask >> i & 1)


@pytest.mark.parametrize("mask", [3.0, "3", True])
def test_non_int_masks_are_rejected(mask):
    # A float mask of the tautology's value once compared equal to it and
    # failed only later, in ``labels()``; a bool is an int subclass, refused too.
    u = rr.Universe(("x", "y"))
    with pytest.raises(InputError, match="^proposition mask must be an int, got "):
        u.prop_from_mask(mask)
    with pytest.raises(InputError, match="^proposition mask must be an int, got "):
        rr.Proposition(u, mask)


def test_universe_validation():
    with pytest.raises(InputError):
        rr.Universe(())
    with pytest.raises(InputError):
        rr.Universe(("w", "w"))
    with pytest.raises(InputError):
        rr.Universe(("w", ""))
    # duplicate valuation rows
    with pytest.raises(InputError):
        rr.Universe(("x", "y"), ("A",), ((True,), (True,)))
    # missing a value for an atom
    with pytest.raises(InputError):
        rr.Universe(("x", "y"), ("A", "B"), ((True,), (False,)))
    with pytest.raises(InputError):
        rr.Universe.from_atoms(("AB",))
    with pytest.raises(InputError, match="^auto worlds need at least one atom$"):
        rr.Universe.from_atoms(())


def test_complement(uni, prop_a):
    assert prop_a.complement() == uni.prop("aB", "ab")


def test_intersect(uni):
    assert uni.prop("AB", "Ab").intersect(uni.prop("AB", "aB")) == uni.prop("AB")


def test_union_identity(uni):
    x = uni.prop("Ab", "ab")
    assert uni.contradiction().union(x) == x


def test_operators_match_methods(uni, prop_a):
    other = uni.prop("AB", "aB")
    assert (prop_a & other) == prop_a.intersect(other)
    assert (prop_a | other) == prop_a.union(other)
    assert ~prop_a == prop_a.complement()


def test_entails(uni):
    assert uni.prop("AB", "Ab").entails(uni.prop("AB", "Ab", "aB"))
    assert uni.contradiction().entails(uni.prop("aB"))
    assert uni.contradiction().entails(uni.contradiction())
    assert not uni.prop("AB", "aB").entails(uni.prop("AB", "Ab"))


def test_mismatched_universes_rejected(uni):
    other = rr.Universe(("x", "y"))
    with pytest.raises(InputError):
        uni.prop("AB").intersect(other.prop("x"))
    with pytest.raises(InputError):
        uni.prop("AB").entails(other.prop("x"))


def test_unknown_world_label(uni):
    with pytest.raises(InputError):
        uni.prop("nope")


def test_believes(uni, prop_a):
    # a content believes exactly what it entails
    assert prop_a.entails(uni.prop("AB", "Ab", "aB"))
    assert not prop_a.entails(uni.prop("aB"))
    # the inconsistent (empty) content believes everything, the contradiction included
    bottom = uni.contradiction()
    assert all(bottom.entails(p) for p in uni.propositions())
    assert bottom.is_empty


def test_expand(uni, prop_a):
    # expansion is intersection with the new proposition
    assert uni.prop("AB", "Ab", "aB").intersect(prop_a) == prop_a
    # expansion may be inconsistent where revision is not
    assert uni.prop("AB").intersect(uni.prop("aB")).is_empty
    # expanding the empty belief state just adopts the new proposition
    assert uni.tautology().intersect(prop_a) == prop_a


def test_entails_is_partial_order(uni):
    props = list(uni.propositions())
    for a in props:
        assert a.entails(a)
        for b in props:
            if a.entails(b) and b.entails(a):
                assert a == b
            for c in props:
                if a.entails(b) and b.entails(c):
                    assert a.entails(c)


def test_belief_set_deductively_closed(uni):
    # the belief set of content t, {a : t entails a}, is closed under entailment
    for t in uni.propositions():
        for a in uni.propositions():
            for b in uni.propositions():
                if t.entails(a) and a.entails(b):
                    assert t.entails(b)


def test_expand_shrinks_content(uni):
    # expanding t by a yields a content that entails t and a, so believes more
    for t in uni.propositions():
        for a in uni.propositions():
            expanded = t.intersect(a)
            assert expanded.entails(t) and expanded.entails(a)


masks = st.integers(0, 15)


@given(masks, masks)
def test_de_morgan(a_mask, b_mask):
    a, b = U4.prop_from_mask(a_mask), U4.prop_from_mask(b_mask)
    assert (a.union(b)).complement() == a.complement().intersect(b.complement())


@given(masks)
def test_double_complement(mask):
    a = U4.prop_from_mask(mask)
    assert a.complement().complement() == a


@given(masks, masks)
def test_entails_via_union(a_mask, b_mask):
    a, b = U4.prop_from_mask(a_mask), U4.prop_from_mask(b_mask)
    assert a.entails(b) == (a.union(b) == b)
