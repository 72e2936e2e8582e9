"""Exhaustive checkers: axioms, successor sets, enumeration, irreversibility."""

import math

import pytest

import rankrev as rr
from rankrev import Attitude, EpistemicInput, InputError

from conftest import (ALL_MODELS_4, U4, max_rank_degree, plain_universe,
                      reverse_accepted_rule)

A = U4.prop("AB", "Ab")


# ---------------------------------------------------------------------------
# independent oracles


def ordered_bell(n: int) -> int:
    """Count ordered set partitions by the recursion a(n) = sum C(n,k) a(n-k)."""
    if n == 0:
        return 1
    return sum(math.comb(n, k) * ordered_bell(n - k) for k in range(1, n + 1))


def _residual_chain(model, side, first_block):
    """The side's tie-groups, in rank order, minus worlds already in the first block."""
    out = []
    for block in model.blocks:
        group = block.intersect(side).intersect(first_block.complement())
        if not group.is_empty:
            out.append(group)
    return out


def _interleavings(xs, ys):
    """Every order-preserving arrangement: next block takes the next group of
    one chain, the other, or merges both."""
    if not xs and not ys:
        yield []
        return
    if xs:
        for rest in _interleavings(xs[1:], ys):
            yield [xs[0]] + rest
    if ys:
        for rest in _interleavings(xs, ys[1:]):
            yield [ys[0]] + rest
    if xs and ys:
        for rest in _interleavings(xs[1:], ys[1:]):
            yield [xs[0].union(ys[0])] + rest


def direct_successors(model, epistemic_input):
    """Construct the admissible posteriors without enumerating all models:
    pin the first block, then interleave the two sides' leftover chains."""
    prop = epistemic_input.proposition
    first = rr.required_content(model, epistemic_input).content
    accepted = _residual_chain(model, prop, first)
    rejected = _residual_chain(model, prop.complement(), first)
    return {
        rr.RankedModel(tuple([first] + rest))
        for rest in _interleavings(accepted, rejected)
    }


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts_match_recursion():
    for n in range(1, 6):
        count = sum(1 for _ in rr.enumerate_ranked_models(plain_universe(n)))
        assert count == ordered_bell(n)
    assert [ordered_bell(n) for n in range(1, 6)] == [1, 3, 13, 75, 541]


def test_enumeration_is_duplicate_free():
    models = list(rr.enumerate_ranked_models(plain_universe(4)))
    assert len(set(models)) == len(models) == 75


def test_enumeration_canonical_order():
    u = plain_universe(2)
    got = list(rr.enumerate_ranked_models(u))
    assert got == [
        rr.RankedModel((u.tautology(),)),
        rr.RankedModel((u.prop("w0"), u.prop("w1"))),
        rr.RankedModel((u.prop("w1"), u.prop("w0"))),
    ]


def test_enumeration_bound():
    with pytest.raises(InputError):
        next(rr.enumerate_ranked_models(plain_universe(7)))
    assert sum(1 for _ in rr.enumerate_ranked_models(plain_universe(6))) == ordered_bell(6)


def test_enumerate_ocfs():
    got = list(rr.enumerate_ocfs(plain_universe(2), 2))
    values = [o.values for o in got]
    assert values == [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]


# ---------------------------------------------------------------------------
# single-step axioms


def test_check_agm_fixtures(r1, r2):
    report = rr.check_agm(r2)
    assert report.passed
    assert report.cases == 16 + 256
    assert rr.check_agm(r1).passed


def test_check_agm_single_world():
    u = plain_universe(1)
    assert rr.check_agm(rr.RankedModel((u.tautology(),))).passed


def test_check_agm_bound():
    u = plain_universe(6)
    with pytest.raises(InputError):
        rr.check_agm(rr.RankedModel((u.tautology(),)))


def test_check_degree_conditions(r1, r3):
    assert rr.check_degree_conditions(r1).passed
    assert rr.check_degree_conditions(r3).passed
    u = plain_universe(3)
    flat = rr.RankedModel((u.tautology(),))
    report = rr.check_degree_conditions(flat)
    assert report.passed  # all degrees 0: no strict pair, and the biconditional holds


# ---------------------------------------------------------------------------
# iteration axioms and order preservation


@pytest.mark.parametrize("axiom", ["B9", "B10"])
@pytest.mark.parametrize("rule", [rr.lexicographic_rule, rr.natural_rule, rr.spohn_rule(1)],
                         ids=lambda r: r.name)
def test_iteration_axioms_on_fixtures(rule, axiom, r1, r2, r3):
    for model in (r1, r2, r3):
        assert rr.check_iteration_axiom(rule, axiom, model).passed


def test_iteration_axiom_rejects_unknown_name(r1):
    with pytest.raises(InputError):
        rr.check_iteration_axiom(rr.lexicographic_rule, "B11", r1)


def test_flip_fails_b10_with_replayable_witness(r2):
    report = rr.check_iteration_axiom(rr.flip_rule, "B10", r2)
    assert not report.passed
    w = report.witness
    assert w is not None
    # replay: believe A', then revising by B' must disagree with direct revision
    revised = rr.apply_rule(rr.flip_rule, w.model, EpistemicInput(w.proposition, Attitude.BELIEVE))
    assert rr.revise(revised, w.second).content != rr.revise(w.model, w.second).content


def test_flip_passes_b9(r2):
    assert rr.check_iteration_axiom(rr.flip_rule, "B9", r2).passed


@pytest.mark.parametrize("rule", [rr.lexicographic_rule, rr.natural_rule, rr.spohn_rule(1)],
                         ids=lambda r: r.name)
def test_order_preservation_on_fixtures(rule, r1, r2, r3):
    for model in (r1, r2, r3):
        for attitude in Attitude:
            assert rr.check_order_preservation(rule, model, A, attitude).passed


def test_order_preservation_flip_fails(r2):
    report = rr.check_order_preservation(rr.flip_rule, r2, A)
    assert not report.passed
    w1, w2 = report.witness.world_pair
    revised = rr.apply_rule(rr.flip_rule, r2, EpistemicInput(A, Attitude.BELIEVE))
    assert r2.preference(w1, w2) != revised.preference(w1, w2)


def test_order_preservation_rejects_degenerate(r1, uni):
    with pytest.raises(InputError):
        rr.check_order_preservation(rr.lexicographic_rule, r1, uni.tautology())


# ---------------------------------------------------------------------------
# constrained successors


def test_constrained_successors_examples(r1, r2, r3, uni):
    believe = EpistemicInput(A, Attitude.BELIEVE)
    assert rr.constrained_successors(r1, believe) == (r3,)
    assert rr.constrained_successors(r2, believe) == (r3,)
    disbelieve = EpistemicInput(A, Attitude.DISBELIEVE)
    expected = {r1, r2, rr.RankedModel.from_labels(uni, ["aB"], ["ab"], ["AB", "Ab"])}
    assert set(rr.constrained_successors(r3, disbelieve)) == expected


def test_constrained_successors_match_direct_construction_everywhere():
    for model in ALL_MODELS_4:
        for mask in range(1, 15):
            prop = U4.prop_from_mask(mask)
            for attitude in Attitude:
                epistemic_input = EpistemicInput(prop, attitude)
                filtered = rr.constrained_successors(model, epistemic_input)
                assert len(set(filtered)) == len(filtered)
                assert set(filtered) == direct_successors(model, epistemic_input)


def test_constrained_successors_rejects_degenerate(r1, uni):
    with pytest.raises(InputError):
        rr.constrained_successors(r1, EpistemicInput(uni.contradiction(), Attitude.BELIEVE))


# ---------------------------------------------------------------------------
# reversibility


def test_reversibility_fails_at_paper_step(r1):
    report = rr.check_reversibility(rr.lexicographic_rule, r1,
                                    EpistemicInput(A, Attitude.BELIEVE))
    assert not report.passed
    assert report.witness is not None


def test_reversibility_fixed_point(r3):
    report = rr.check_reversibility(rr.lexicographic_rule, r3,
                                    EpistemicInput(A, Attitude.BELIEVE))
    assert report.passed
    assert report.reversal == EpistemicInput(A, Attitude.BELIEVE)


def test_ocf_reversibility(k1):
    report = rr.check_ocf_reversibility(k1, A, 1)
    assert report.passed
    assert report.reversal == -1  # matches reverse_strength


def test_ocf_reversibility_fails_outside_bound(k1):
    # with strengths capped below the needed magnitude, reversal is unreachable
    strong = rr.spohn_conditionalize(k1, A, 3)
    report = rr.check_ocf_reversibility(strong, A, -3, max_strength=2)
    assert not report.passed


@pytest.mark.parametrize("rule", [rr.lexicographic_rule, rr.natural_rule, rr.spohn_rule(1)],
                         ids=lambda r: r.name)
def test_find_irreversibility_returns_replayable_witness(rule):
    witness = rr.find_irreversibility(rule, U4)
    assert witness is not None
    revised = rr.apply_rule(rule, witness.model, witness.epistemic_input)
    candidates = [EpistemicInput(witness.epistemic_input.proposition, att) for att in Attitude]
    if rule.strength_based:
        prop = witness.epistemic_input.proposition
        candidates = (
            [EpistemicInput(prop, Attitude.DISBELIEVE, s) for s in range(1, 4)]
            + [EpistemicInput(prop, Attitude.SUSPEND)]
            + [EpistemicInput(prop, Attitude.BELIEVE, s) for s in range(1, 4)]
        )
    assert all(rr.apply_rule(rule, revised, c) != witness.model for c in candidates)


def test_find_irreversibility_canonical_first_for_lex(uni):
    witness = rr.find_irreversibility(rr.lexicographic_rule, uni)
    # first two-block model whose second block strictly contains the believed
    # proposition: the earliest irreversible step in canonical order
    assert witness.model == rr.RankedModel.from_labels(uni, ["AB", "Ab"], ["aB", "ab"])
    assert witness.epistemic_input == EpistemicInput(uni.prop("aB"), Attitude.BELIEVE)


def test_find_irreversibility_small_universe_rejected():
    with pytest.raises(InputError):
        rr.find_irreversibility(rr.lexicographic_rule, plain_universe(3))


def test_find_ocf_irreversibility_absent():
    assert rr.find_ocf_irreversibility(U4, max_value=3, max_strength=3) is None


# ---------------------------------------------------------------------------
# the counterexample


def test_counterexample_fixture_shape():
    fx = rr.counterexample_fixture()
    assert fx.universe.worlds == ("AB", "Ab", "aB", "ab")
    assert fx.prop_a == fx.universe.prop("AB", "Ab")
    assert fx.r1 == rr.RankedModel.from_labels(fx.universe, ["aB"], ["AB", "Ab", "ab"])
    assert fx.r2 == rr.RankedModel.from_labels(fx.universe, ["aB"], ["AB", "Ab"], ["ab"])
    assert fx.r3 == rr.RankedModel.from_labels(fx.universe, ["AB", "Ab"], ["aB"], ["ab"])


def test_counterexample_verify_passes():
    report = rr.counterexample_verify()
    assert report.passed
    fx = report.fixture
    assert report.r1_believe == (fx.r3,)
    assert report.r2_believe == (fx.r3,)
    assert fx.r1 not in report.r3_believe + report.r3_suspend
    assert fx.r2 not in report.r3_believe + report.r3_suspend
    assert fx.r1 in report.r3_disbelieve and fx.r2 in report.r3_disbelieve
    assert report.degrees == ((1, 0), (1, 0))
    reached = [out for _, out in report.strength_outputs if out in (fx.r1, fx.r2)]
    assert reached and all(m == reached[0] for m in reached)


def test_counterexample_verify_generalized_five_worlds():
    report = rr.counterexample_verify(rr.counterexample_fixture((2, 1, 1, 1)))
    assert report.passed


def test_counterexample_fixture_validation():
    with pytest.raises(InputError):
        rr.counterexample_fixture((0, 1, 1, 1))


# ---------------------------------------------------------------------------
# representation


def test_representation_round_trip(r2):
    table = rr.revision_table(r2)
    assert rr.representation_check(table) == r2
    # uniqueness: no other model reproduces the same table
    matches = [
        m for m in ALL_MODELS_4
        if all(rr.revise(m, p).content == t.content for p, t in table.items())
    ]
    assert matches == [r2]


def test_representation_rejects_b2_violation(uni, r2):
    table = rr.revision_table(r2)
    # corrupt one entry so the revised content no longer entails the input
    bad = dict(table)
    bad[uni.prop("ab")] = rr.TotalContent(uni.prop("aB"))
    assert rr.representation_check(bad) is None


def test_representation_single_world():
    u = plain_universe(1)
    model = rr.RankedModel((u.tautology(),))
    assert rr.representation_check(rr.revision_table(model)) == model


def test_representation_partial_table_rejected(r2):
    table = rr.revision_table(r2)
    table.pop(U4.prop("AB"))
    with pytest.raises(InputError):
        rr.representation_check(table)
    with pytest.raises(InputError):
        rr.representation_check({})


# ---------------------------------------------------------------------------
# witness soundness: every failing checker's witness replays to a violation


def test_agm_checker_can_fail_and_witness_replays(uni, monkeypatch):
    # break revision via a shim: pretend revision always returns the prior block
    import rankrev.verify as verify

    def broken_revise(model, prop):
        return model.total_content()

    monkeypatch.setattr(verify, "revise", broken_revise)
    report = verify.check_agm(rr.RankedModel.from_labels(uni, ["aB"], ["AB", "Ab", "ab"]))
    assert not report.passed
    assert report.witness is not None
    monkeypatch.undo()
    # replayed through the real operation the axiom holds, confirming the
    # violation came from the broken revision, not the checker
    assert rr.check_agm(report.witness.model).passed


def test_degree_checker_can_fail_and_witness_replays(monkeypatch):
    # break the degree route: the maximum rank over the worlds, not the minimum
    model = rr.RankedModel.from_labels(U4, ["aB"], ["AB", "Ab"], ["ab"])
    monkeypatch.setattr(rr.RankedModel, "disbelief_degree", max_rank_degree)
    report = rr.check_degree_conditions(model)
    assert not report.passed
    w = report.witness
    a, b = w.proposition, w.second

    def condition_holds():
        strictly_less = w.model.disbelief_degree(a) < w.model.disbelief_degree(b)
        first = w.model.blocks[w.model.first_consistent_block(a | b)]
        return strictly_less == (first & b).is_empty

    # replayed through the public API, the broken degrees violate condition (ii) ...
    assert not condition_holds()
    monkeypatch.undo()
    # ... and the real ones satisfy it there and everywhere
    assert condition_holds()
    assert rr.check_degree_conditions(w.model).passed


def test_b9_checker_can_fail_and_witness_replays(r2):
    report = rr.check_iteration_axiom(reverse_accepted_rule, "B9", r2)
    assert not report.passed
    w = report.witness
    assert w.second.entails(w.proposition)  # B9 case: B entails A

    def believe_then_revise(rule):
        revised = rr.apply_rule(rule, w.model, EpistemicInput(w.proposition, Attitude.BELIEVE))
        return rr.revise(revised, w.second).content

    # replay: believing A under the broken rule, then revising by B, misses the
    # beliefs B alone gives; under the lexicographic rule it lands on them
    assert believe_then_revise(reverse_accepted_rule) != rr.revise(w.model, w.second).content
    assert believe_then_revise(rr.lexicographic_rule) == rr.revise(w.model, w.second).content
    assert rr.check_iteration_axiom(rr.lexicographic_rule, "B9", w.model).passed
