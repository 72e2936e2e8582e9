"""Object-level reference checkers: the differential oracle for ``rankrev.verify``.

These are the plain versions of ``check_agm``, ``check_degree_conditions``
and ``check_iteration_axiom``: every case builds its propositions and calls
``revise``, ``disbelief_degree`` and ``first_consistent_block`` afresh, with
no per-model tables.  The library's checkers must return equal reports:
verdict, case count and witness, so also the first failing case.

``revise`` and ``apply_rule`` are looked up in this module, so a test can
break revision here and in ``rankrev.verify`` alike.
"""

from typing import Iterator

from rankrev import (
    Attitude,
    AxiomReport,
    EpistemicInput,
    InputError,
    Proposition,
    RankedModel,
    Witness,
    apply_rule,
    revise,
)


def _check_bound(universe, max_worlds: int):
    if len(universe.worlds) > max_worlds:
        raise InputError(
            f"universe has {len(universe.worlds)} worlds, over the bound of {max_worlds}"
        )


def check_agm(model: RankedModel, max_worlds: int) -> AxiomReport:
    u = model.universe
    _check_bound(u, max_worlds)
    prior = model.blocks[0]
    props = list(u.propositions())
    cases = 0
    for a in props:
        cases += 1
        t_a = revise(model, a).content
        if t_a.universe != u:
            return _agm_fail("B1", model, a, None, cases)
        if not t_a.entails(a):
            return _agm_fail("B2", model, a, None, cases)
        if not prior.intersect(a).entails(t_a):
            return _agm_fail("B3", model, a, None, cases)
        if not prior.intersect(a).is_empty and not t_a.entails(prior.intersect(a)):
            return _agm_fail("B4", model, a, None, cases)
        if t_a.is_empty != a.is_empty:
            return _agm_fail("B5", model, a, None, cases)
        if revise(model, a).content != t_a:
            return _agm_fail("B6", model, a, None, cases)
    for a in props:
        t_a = revise(model, a).content
        for b in props:
            cases += 1
            t_ab = revise(model, a.intersect(b)).content
            if not t_a.intersect(b).entails(t_ab):
                return _agm_fail("B7", model, a, b, cases)
            if not t_a.intersect(b).is_empty and not t_ab.entails(t_a.intersect(b)):
                return _agm_fail("B8", model, a, b, cases)
    return AxiomReport("agm", True, cases)


def _agm_fail(axiom: str, model: RankedModel, a: Proposition,
              b: Proposition | None, cases: int) -> AxiomReport:
    detail = f"{axiom} violated at A={a}" + (f", B={b}" if b is not None else "")
    return AxiomReport("agm", False, cases,
                       Witness(detail, model=model, proposition=a, second=b))


def _nonempty_submasks(mask: int) -> Iterator[int]:
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def check_iteration_axiom(rule, axiom: str, model: RankedModel,
                          max_worlds: int) -> AxiomReport:
    axiom = axiom.upper()
    if axiom not in ("B9", "B10"):
        raise InputError(f"unknown iteration axiom {axiom!r} (expected B9 or B10)")
    u = model.universe
    _check_bound(u, max_worlds)
    full = u.tautology().mask
    cases = 0
    for a_mask in range(1, full):
        a = u.prop_from_mask(a_mask)
        revised = apply_rule(rule, model, EpistemicInput(a, Attitude.BELIEVE))
        side = a_mask if axiom == "B9" else full ^ a_mask
        for b_mask in _nonempty_submasks(side):
            cases += 1
            b = u.prop_from_mask(b_mask)
            if revise(revised, b).content != revise(model, b).content:
                detail = (f"{axiom} violated: believe {a} then revise by {b} "
                          f"gives {revise(revised, b).content}, expected {revise(model, b).content}")
                return AxiomReport(axiom, False, cases,
                                   Witness(detail, model=model, proposition=a, second=b))
    return AxiomReport(axiom, True, cases)


def check_degree_conditions(model: RankedModel, max_worlds: int) -> AxiomReport:
    u = model.universe
    _check_bound(u, max_worlds)
    cases = 0
    for w in u.worlds:
        cases += 1
        if model.disbelief_degree(u.prop(w)) != model.rank_of(w):
            return AxiomReport("degrees", False, cases,
                               Witness(f"degree of {{{w}}} is not its rank", model=model,
                                       proposition=u.prop(w)))
    full = u.tautology().mask
    for a_mask in range(1, full + 1):
        a = u.prop_from_mask(a_mask)
        for b_mask in range(1, full + 1):
            cases += 1
            b = u.prop_from_mask(b_mask)
            strictly_less = model.disbelief_degree(a) < model.disbelief_degree(b)
            first = model.first_consistent_block(a.union(b))
            misses_b = (model.blocks[first].mask & b_mask) == 0
            if strictly_less != misses_b:
                detail = (f"degree condition (ii) violated at A={a}, B={b}: "
                          f"d(A)<d(B) is {strictly_less} but first block of A∪B "
                          f"{'misses' if misses_b else 'meets'} B")
                return AxiomReport("degrees", False, cases,
                                   Witness(detail, model=model, proposition=a, second=b))
    return AxiomReport("degrees", True, cases)
