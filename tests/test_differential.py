"""Table-driven checkers against the object-level references, report for report.

Equal reports mean equal verdicts, case counts and witnesses, so the first
failing case is compared too.  Broken operations come from ``conftest`` or
are patched in here; the references see every patch the checkers see.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankrev as rr
import rankrev.verify as verify
import reference_checkers as reference

from conftest import (
    ALL_MODELS_5,
    last_consistent_block,
    max_rank_degree,
    ranked_models,
    reverse_accepted_rule,
)

RULES = [rr.lexicographic_rule, rr.natural_rule, rr.spohn_rule(1)]


def _same_iteration_reports(rule, axiom, models, max_worlds=5):
    reports = []
    for model in models:
        report = rr.check_iteration_axiom(rule, axiom, model, max_worlds)
        assert report == reference.check_iteration_axiom(rule, axiom, model, max_worlds)
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# exhaustive over the 541 five-world models


def test_agm_matches_reference_on_all_five_world_models():
    for model in ALL_MODELS_5:
        assert rr.check_agm(model) == reference.check_agm(model, 5)


def test_degrees_match_reference_on_all_five_world_models():
    for model in ALL_MODELS_5:
        assert rr.check_degree_conditions(model) == reference.check_degree_conditions(model, 5)


@pytest.mark.parametrize("axiom", ["B9", "B10"])
@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
def test_iteration_matches_reference_on_all_five_world_models(rule, axiom):
    assert all(r.passed for r in _same_iteration_reports(rule, axiom, ALL_MODELS_5))


# ---------------------------------------------------------------------------
# random models up to six worlds


@settings(max_examples=25, deadline=None)
@given(ranked_models(max_worlds=6),
       st.sampled_from(RULES + [rr.flip_rule, reverse_accepted_rule]))
def test_checkers_match_reference_up_to_six_worlds(model, rule):
    assert rr.check_agm(model, 6) == reference.check_agm(model, 6)
    assert (rr.check_degree_conditions(model, 6)
            == reference.check_degree_conditions(model, 6))
    for axiom in ("B9", "B10"):
        _same_iteration_reports(rule, axiom, [model], max_worlds=6)


# ---------------------------------------------------------------------------
# failing inputs: the same first failure


def test_flip_b10_failures_match_reference():
    reports = _same_iteration_reports(rr.flip_rule, "B10", ALL_MODELS_5)
    assert any(not r.passed for r in reports)


def test_reverse_accepted_b9_failures_match_reference():
    reports = _same_iteration_reports(reverse_accepted_rule, "B9", ALL_MODELS_5)
    assert any(not r.passed for r in reports)


@pytest.mark.parametrize("attr, broken", [("disbelief_degree", max_rank_degree),
                                          ("first_consistent_block", last_consistent_block)])
def test_broken_degree_routes_fail_like_reference(monkeypatch, attr, broken):
    monkeypatch.setattr(rr.RankedModel, attr, broken)
    failed = 0
    for model in ALL_MODELS_5:
        report = rr.check_degree_conditions(model)
        assert report == reference.check_degree_conditions(model, 5)
        failed += not report.passed
    assert failed


def _prior_revise(model, prop):
    return model.total_content()


def _last_block_revise(model, prop):
    i = last_consistent_block(model, prop)
    if i is None:
        return rr.TotalContent(prop)
    return rr.TotalContent(model.blocks[i] & prop)


def _pair_reversing_revise(model, prop):
    """Ranked revision, except that a two-world input outside the prior block
    picks its less plausible world: B1-B6 hold, B7/B8 do not."""
    if prop.size() == 2 and (model.blocks[0] & prop).is_empty:
        w1, w2 = prop.labels()
        if model.rank_of(w1) != model.rank_of(w2):
            worse = w1 if model.rank_of(w1) > model.rank_of(w2) else w2
            return rr.TotalContent(prop.universe.prop(worse))
    return rr.revise(model, prop)


@pytest.mark.parametrize("broken", [_prior_revise, _last_block_revise, _pair_reversing_revise])
def test_broken_revision_fails_agm_like_reference(monkeypatch, broken):
    monkeypatch.setattr(verify, "revise", broken)
    monkeypatch.setattr(reference, "revise", broken)
    axioms = set()
    for model in ALL_MODELS_5:
        report = rr.check_agm(model)
        assert report == reference.check_agm(model, 5)
        if not report.passed:
            axioms.add(report.witness.description.split()[0])
    assert axioms
    if broken is _pair_reversing_revise:
        assert axioms <= {"B7", "B8"}
