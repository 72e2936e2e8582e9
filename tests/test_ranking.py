"""Ranked models, OCFs, degrees of disbelief, and the conversions between them."""

import pytest
from hypothesis import given

import rankrev as rr
from rankrev import InputError

from conftest import ALL_MODELS_4, U4, collapse, ocfs, ranked_models


def test_rank_of(r2):
    assert r2.rank_of("aB") == 0
    assert r2.rank_of("Ab") == 1
    assert r2.rank_of("ab") == 2


def test_ranked_model_validation(uni):
    with pytest.raises(InputError):
        rr.RankedModel(())
    with pytest.raises(InputError):  # overlap
        rr.RankedModel((uni.prop("AB", "Ab"), uni.prop("Ab", "aB", "ab")))
    with pytest.raises(InputError):  # gap
        rr.RankedModel((uni.prop("AB"), uni.prop("Ab")))
    with pytest.raises(InputError):  # empty block
        rr.RankedModel((uni.tautology(), uni.contradiction()))


def test_first_consistent_block(uni, r2, r3):
    assert r2.first_consistent_block(uni.prop("ab")) == 2
    assert r3.first_consistent_block(uni.tautology()) == 0
    assert r2.first_consistent_block(uni.contradiction()) is None


def test_disbelief_degree(uni, r1, r2, prop_a):
    assert r1.disbelief_degree(prop_a) == 1
    assert r1.disbelief_degree(prop_a.complement()) == 0
    assert r2.disbelief_degree(uni.prop("ab")) == 2
    with pytest.raises(InputError):
        r1.disbelief_degree(uni.contradiction())


def test_kappa_degree(uni, k1):
    assert k1.degree(uni.prop("AB", "Ab")) == 1
    assert k1.degree(uni.tautology()) == 0
    assert k1.degree(uni.prop("ab")) == 2
    with pytest.raises(InputError):
        k1.degree(uni.contradiction())


def test_ocf_validation(uni):
    with pytest.raises(InputError):  # not normalized
        rr.OCF(uni, (1, 1, 1, 2))
    with pytest.raises(InputError):  # negative
        rr.OCF(uni, (0, 1, -1, 2))
    with pytest.raises(InputError):  # wrong arity
        rr.OCF(uni, (0, 1))
    with pytest.raises(InputError):  # not an int, caught before the sign test
        rr.OCF(uni, ("a", 0, 0, 0))
    with pytest.raises(InputError):  # bools are not natural numbers
        rr.OCF(uni, (True, False, False, False))
    with pytest.raises(InputError):  # missing world in map
        rr.OCF.from_map(uni, {"AB": 0})


@pytest.mark.parametrize("ranks", [(0, -1), (0,), (0, 1, 0), (0, True), (0, "1"), (0, 2)],
                         ids=["negative", "short", "long", "bool", "str", "gap"])
def test_from_ranks_rejects_bad_vectors(ranks):
    with pytest.raises(InputError):
        rr.RankedModel.from_ranks(rr.Universe(("w1", "w2")), ranks)


def test_rpm_from_ocf(uni, k1, r2, r3):
    assert rr.rpm_from_ocf(k1) == r2
    gappy = rr.OCF.from_map(uni, {"AB": 0, "Ab": 0, "aB": 1, "ab": 3})
    assert rr.rpm_from_ocf(gappy) == r3  # the gap between 1 and 3 collapses
    flat = rr.OCF(uni, (0, 0, 0, 0))
    assert rr.rpm_from_ocf(flat) == rr.RankedModel((uni.tautology(),))


def test_ocf_from_rpm(uni, r2, r3):
    assert rr.ocf_from_rpm(r2) == rr.OCF.from_map(uni, {"aB": 0, "AB": 1, "Ab": 1, "ab": 2})
    single = rr.RankedModel((uni.tautology(),))
    assert rr.ocf_from_rpm(single) == rr.OCF(uni, (0, 0, 0, 0))
    assert rr.rpm_from_ocf(rr.ocf_from_rpm(r3)) == r3


def test_round_trip_exhaustive():
    for model in ALL_MODELS_4:
        assert rr.rpm_from_ocf(rr.ocf_from_rpm(model)) == model


def test_degree_equals_first_consistent_block_exhaustive():
    for model in ALL_MODELS_4:
        for mask in range(1, 16):
            prop = U4.prop_from_mask(mask)
            assert model.disbelief_degree(prop) == model.first_consistent_block(prop)


def test_preference_agrees_with_pair_revision_exhaustive():
    # Revising by a pair of worlds keeps the lower-ranked one, or both on a tie.
    for model in ALL_MODELS_4:
        ranks = model.ranks()
        for i, w1 in enumerate(U4.worlds):
            for j, w2 in enumerate(U4.worlds):
                if i == j:
                    continue
                pair = U4.prop(w1, w2)
                revised = rr.revise(model, pair)
                if ranks[i] < ranks[j]:
                    assert revised == U4.prop(w1)
                elif ranks[i] > ranks[j]:
                    assert revised == U4.prop(w2)
                else:
                    assert revised == pair


@given(ranked_models())
def test_round_trip_random(model):
    assert rr.rpm_from_ocf(rr.ocf_from_rpm(model)) == model


@given(ocfs())
def test_collapse_preserves_weak_order(ocf):
    back = rr.ocf_from_rpm(rr.rpm_from_ocf(ocf))
    n = len(ocf.universe.worlds)
    for i in range(n):
        for j in range(n):
            assert (ocf.values[i] <= ocf.values[j]) == (back.values[i] <= back.values[j])


@given(ocfs())
def test_collapsed_ranks_are_consecutive(ocf):
    model = rr.rpm_from_ocf(ocf)
    assert sorted(set(model.ranks())) == list(range(len(model.blocks)))


def test_collapse_helper_matches_conversion(uni):
    values = (0, 0, 1, 3)
    assert rr.ocf_from_rpm(rr.rpm_from_ocf(rr.OCF(uni, values))).values == collapse(values)

