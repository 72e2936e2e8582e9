"""Object-level reference checkers: the differential oracle for ``rankrev.verify``.

These are the plain versions of ``check_agm``, ``check_degree_conditions``
and ``check_iteration_axiom``: every case builds its propositions and calls
``revise``, ``disbelief_degree`` and ``first_consistent_block`` afresh, with
no per-model tables.  The library's checkers must return equal reports:
verdict, case count and witness, so also the first failing case.

``enumerate_ranked_models`` is the generate-and-filter enumerator: it walks
all k^n world-to-block assignment vectors for each k and drops those that
leave a block empty.  The library's walk over surjective assignments must
yield the same models in the same order.

``constrained_successors`` and ``representation_check`` are the brute-force
versions of the library's constructions: they filter or scan every ranked
model in canonical order, from this module's enumerator.  The library must
return equal results, order included.

``check_order_preservation`` and ``check_ocf_reversibility`` are the
search versions of the library's two read-offs: the first compares every
same-side pair of world labels through ``rank_of``, the second tries every
signed strength in the bound.  The library must return equal reports.

``check_reversibility`` and ``find_irreversibility`` are the object-level
versions of the library's reversal step on block masks: each candidate is
tried through ``apply_rule`` on ranked models, and the search scans models ×
propositions × attitudes through that checker.  The library must return
equal reports and the same first witness.

``enumerate_ocfs`` and ``find_ocf_irreversibility`` walk every bounded OCF
and search it for an irreversible step; the library must build the same
witness, or return ``None`` alike.

``agm_pairs`` and ``degree_pairs`` are the plain pair loops over int-mask
tables that the library's pair phases replace with set algebra: one step per
ordered pair of masks.  The library's phases must return the same case count
and first failing pair for every table.  ``columns`` builds the per-world
sets those phases start from one set bit at a time; the library reads each
set as one binary numeral and must build the same sets.

``iterate_transcript`` is ``rankrev iterate``'s stdout built the slow way:
each step goes through ``apply_rule`` to a ``RankedModel``, and each set is
written by joining ``labels()``, one set bit at a time.  The command, which
runs its rule on block masks and renders each mask once per universe, must
print the same bytes.

``revise`` is the object-level sphere rule: the first consistent block,
found by ``first_consistent_block``, intersected with the input.  The
library's ``revise``, which cuts block masks, must return equal contents.
``required_content`` reads the first block an input forces off ``revise``:
by the input's proposition, its complement, or the union of both for
suspension.  The natural rule and ``constrained_successors`` take it from
there, not from the library.
``revise`` and ``apply_rule`` are looked up in this module, so a test can
break revision here and in ``rankrev.verify`` alike.

The rules and ``ranks`` are the object-level versions of the library's
mask kernel: each side chain is a list of ``Proposition``s, spohn
round-trips through an ``OCF``, and ranks scan every world index of each
block.  The library's rules must return equal posteriors.  A rule's
contract is on block masks, so ``object_rule`` turns each object-level body
into one: it rebuilds the prior as a ``RankedModel`` and returns the
posterior's masks.
"""

from itertools import product
from typing import Iterator, Mapping, Sequence

from rankrev import (
    OCF,
    Attitude,
    AxiomReport,
    EpistemicInput,
    InputError,
    Proposition,
    RankedModel,
    RevisionRule,
    Witness,
    apply_rule,
    ocf_from_rpm,
    rpm_from_ocf,
    spohn_conditionalize,
)


def revise(model: RankedModel, prop: Proposition) -> Proposition:
    i = model.first_consistent_block(prop)
    if i is None:
        return model.universe.contradiction()
    return model.blocks[i].intersect(prop)


def required_content(model: RankedModel, epistemic_input: EpistemicInput) -> Proposition:
    prop = epistemic_input.proposition
    if epistemic_input.attitude is Attitude.BELIEVE:
        return revise(model, prop)
    if epistemic_input.attitude is Attitude.DISBELIEVE:
        return revise(model, prop.complement())
    return revise(model, prop).union(revise(model, prop.complement()))


def check_agm(model: RankedModel) -> AxiomReport:
    u = model.universe
    prior = model.blocks[0]
    props = list(u.propositions())
    cases = 0
    for a in props:
        cases += 1
        t_a = revise(model, a)
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
        if revise(model, a) != t_a:
            return _agm_fail("B6", model, a, None, cases)
    for a in props:
        t_a = revise(model, a)
        for b in props:
            cases += 1
            t_ab = revise(model, a.intersect(b))
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


def check_iteration_axiom(rule, axiom: str, model: RankedModel) -> AxiomReport:
    axiom = axiom.upper()
    if axiom not in ("B9", "B10"):
        raise InputError(f"unknown iteration axiom {axiom!r} (expected B9 or B10)")
    u = model.universe
    full = u.tautology().mask
    cases = 0
    for a_mask in range(1, full):
        a = u.prop_from_mask(a_mask)
        revised = apply_rule(rule, model, EpistemicInput(a, Attitude.BELIEVE))
        side = a_mask if axiom == "B9" else full ^ a_mask
        for b_mask in _nonempty_submasks(side):
            cases += 1
            b = u.prop_from_mask(b_mask)
            if revise(revised, b) != revise(model, b):
                detail = (f"{axiom} violated: believe {a} then revise by {b} "
                          f"gives {revise(revised, b)}, expected {revise(model, b)}")
                return AxiomReport(axiom, False, cases,
                                   Witness(detail, model=model, proposition=a, second=b))
    return AxiomReport(axiom, True, cases)


def check_degree_conditions(model: RankedModel) -> AxiomReport:
    u = model.universe
    cases = 0
    for w in u.worlds:
        cases += 1
        if model.disbelief_degree(u.prop(w)) != model.first_consistent_block(u.prop(w)):
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


def agm_pairs(t: list[int]) -> tuple[int, tuple[str, int, int] | None]:
    """B7/B8 over every ordered pair of masks of the revision table ``t``."""
    size = len(t)
    cases = 0
    for a in range(size):
        t_a = t[a]
        for b in range(size):
            cases += 1
            t_ab = t[a & b]
            expanded = t_a & b
            # B7: revising by the conjunction is contained in expanding the revision.
            if expanded & ~t_ab:
                return cases, ("B7", a, b)
            # B8: guarded converse, when b is compatible with the revised state.
            if expanded and t_ab & ~expanded:
                return cases, ("B8", a, b)
    return cases, None


def columns(table: Sequence[int], n: int) -> list[int]:
    """For each world w, the set of masks m whose entry ``table[m]`` holds w."""
    sets = [0] * n
    for m, entry in enumerate(table):
        bit = 1 << m
        while entry:
            low = entry & -entry
            sets[low.bit_length() - 1] |= bit
            entry ^= low
    return sets


def degree_pairs(degree: list, first_block: list[int]) -> tuple[int, tuple[int, int] | None]:
    """Degree condition (ii) over every ordered pair of non-empty masks."""
    full = len(degree) - 1
    cases = 0
    for a in range(1, full + 1):
        d_a = degree[a]
        for b in range(1, full + 1):
            cases += 1
            strictly_less = d_a < degree[b]
            misses_b = (first_block[a | b] & b) == 0
            if strictly_less != misses_b:
                return cases, (a, b)
    return cases, None


def _preference(model: RankedModel, w1: str, w2: str) -> str:
    r1, r2 = model.rank_of(w1), model.rank_of(w2)
    return "first" if r1 < r2 else "second" if r1 > r2 else "tie"


def check_order_preservation(rule: RevisionRule, model: RankedModel, prop: Proposition,
                             attitude: Attitude = Attitude.BELIEVE) -> AxiomReport:
    if prop.is_empty or prop.is_full:
        raise InputError("order preservation needs a non-degenerate proposition")
    revised = apply_rule(rule, model, EpistemicInput(prop, attitude))
    u = model.universe
    cases = 0
    for i in range(len(u.worlds)):
        for j in range(i + 1, len(u.worlds)):
            if (prop.mask >> i & 1) != (prop.mask >> j & 1):
                continue
            cases += 1
            w1, w2 = u.worlds[i], u.worlds[j]
            before = _preference(model, w1, w2)
            after = _preference(revised, w1, w2)
            if before != after:
                detail = (f"order within a side of {prop} not preserved: "
                          f"{w1} vs {w2} was {before}, now {after}")
                return AxiomReport("order", False, cases,
                                   Witness(detail, model=model, proposition=prop,
                                           epistemic_input=EpistemicInput(prop, attitude),
                                           world_pair=(w1, w2)))
    return AxiomReport("order", True, cases)


def _reversal_candidates(rule: RevisionRule, prop: Proposition,
                         max_strength: int) -> list[EpistemicInput]:
    if not rule.strength_based:
        return [EpistemicInput(prop, attitude) for attitude in Attitude]
    return ([EpistemicInput(prop, Attitude.DISBELIEVE, s) for s in range(max_strength, 0, -1)]
            + [EpistemicInput(prop, Attitude.SUSPEND)]
            + [EpistemicInput(prop, Attitude.BELIEVE, s) for s in range(1, max_strength + 1)])


def check_reversibility(rule: RevisionRule, model: RankedModel, epistemic_input: EpistemicInput,
                        max_strength: int) -> AxiomReport:
    if max_strength < 0:
        raise InputError("max strength must be at least 0")
    revised = apply_rule(rule, model, epistemic_input)
    cases = 0
    for candidate in _reversal_candidates(rule, epistemic_input.proposition, max_strength):
        cases += 1
        if apply_rule(rule, revised, candidate) == model:
            return AxiomReport("R", True, cases, reversal=candidate)
    detail = (f"no attitude toward {epistemic_input.proposition} maps the revised model "
              f"back: {rule.name} is irreversible at ({model}, {epistemic_input})")
    return AxiomReport("R", False, cases,
                       Witness(detail, model=model, epistemic_input=epistemic_input))


def find_irreversibility(rule: RevisionRule, universe, max_strength: int) -> Witness | None:
    full = universe.tautology().mask
    for model in enumerate_ranked_models(universe):
        for a_mask in range(1, full):
            prop = universe.prop_from_mask(a_mask)
            for attitude in Attitude:
                report = check_reversibility(rule, model, EpistemicInput(prop, attitude),
                                             max_strength)
                if not report.passed:
                    return report.witness
    return None


def check_ocf_reversibility(ocf: OCF, prop: Proposition, alpha: int,
                            max_strength: int) -> AxiomReport:
    if max_strength < 0:
        raise InputError("max strength must be at least 0")
    conditioned = spohn_conditionalize(ocf, prop, alpha)
    cases = 0
    for beta in range(-max_strength, max_strength + 1):
        cases += 1
        if spohn_conditionalize(conditioned, prop, beta) == ocf:
            return AxiomReport("R", True, cases, reversal=beta)
    detail = (f"no strength within ±{max_strength} undoes conditionalizing {ocf} "
              f"on {prop} with strength {alpha}")
    return AxiomReport("R", False, cases,
                       Witness(detail, ocf=ocf, proposition=prop, strength=alpha))


def enumerate_ocfs(universe, max_value: int) -> Iterator[OCF]:
    for values in product(range(max_value + 1), repeat=len(universe.worlds)):
        if min(values) == 0:
            yield OCF(universe, values)


def find_ocf_irreversibility(universe, max_value: int, max_strength: int) -> Witness | None:
    if max_strength < 0:
        raise InputError("max strength must be at least 0")
    full = (1 << len(universe.worlds)) - 1
    for ocf in enumerate_ocfs(universe, max_value):
        for a_mask in range(1, full):
            report = check_ocf_reversibility(ocf, universe.prop_from_mask(a_mask),
                                             -max_strength, max_strength)
            if not report.passed:
                return report.witness
    return None


def enumerate_ranked_models(universe) -> Iterator[RankedModel]:
    n = len(universe.worlds)
    for k in range(1, n + 1):
        for assignment in product(range(k), repeat=n):
            if len(set(assignment)) != k:
                continue
            masks = [0] * k
            for i, r in enumerate(assignment):
                masks[r] |= 1 << i
            yield RankedModel(tuple(universe.prop_from_mask(m) for m in masks))


def constrained_successors(model: RankedModel,
                           epistemic_input: EpistemicInput) -> tuple[RankedModel, ...]:
    prop = epistemic_input.proposition
    if prop.universe != model.universe:
        raise InputError("input proposition is over a different universe")
    if prop.is_empty or prop.is_full:
        raise InputError("successor enumeration needs a non-degenerate proposition")
    u = model.universe
    required = required_content(model, epistemic_input)
    before = model.ranks()
    n = len(u.worlds)
    side_pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (prop.mask >> i & 1) == (prop.mask >> j & 1)
    ]

    def keeps_order(candidate: RankedModel) -> bool:
        after = candidate.ranks()
        return all(
            (before[i] < before[j]) == (after[i] < after[j])
            and (before[i] > before[j]) == (after[i] > after[j])
            for i, j in side_pairs
        )

    return tuple(
        candidate
        for candidate in enumerate_ranked_models(u)
        if candidate.blocks[0] == required and keeps_order(candidate)
    )


def representation_check(table: Mapping[Proposition, Proposition]) -> RankedModel | None:
    if not table:
        raise InputError("empty revision table")
    if not all(isinstance(p, Proposition) and isinstance(t, Proposition) for p, t in table.items()):
        raise InputError("table keys and values must be propositions")
    universe = next(iter(table)).universe
    full = universe.tautology().mask
    masks = {p.mask for p in table}
    if any(p.universe != universe for p in table):
        raise InputError("table keys are over different universes")
    if any(t.universe != universe for t in table.values()):
        raise InputError("table values are over a different universe than its keys")
    if masks != set(range(1, full + 1)):
        raise InputError("table must be total over all non-empty propositions")
    wanted = {p.mask: t for p, t in table.items()}
    for model in enumerate_ranked_models(universe):
        if all(
            revise(model, universe.prop_from_mask(mask)) == wanted[mask]
            for mask in range(1, full + 1)
        ):
            return model
    return None


def ranks(model: RankedModel) -> tuple[int, ...]:
    n = len(model.universe.worlds)
    out = [0] * n
    for r, block in enumerate(model.blocks):
        for i in range(n):
            if block.mask >> i & 1:
                out[i] = r
    return tuple(out)


def object_rule(name: str, fn, strength_based: bool = False) -> RevisionRule:
    """The rule whose transform runs ``fn(prior model, epistemic input) -> RankedModel``
    on the prior built from its block masks, and returns the posterior's masks."""
    def transform(blocks, epistemic_input):
        u = epistemic_input.proposition.universe
        prior = RankedModel(tuple(u.prop_from_mask(m) for m in blocks))
        return tuple(block.mask for block in fn(prior, epistemic_input).blocks)

    return RevisionRule(name, transform, strength_based)


def _side_chain(model: RankedModel, side: Proposition) -> list[Proposition]:
    return [b.intersect(side) for b in model.blocks if not b.intersect(side).is_empty]


def _lexicographic(model: RankedModel, epistemic_input: EpistemicInput) -> RankedModel:
    prop = epistemic_input.proposition
    accepted = _side_chain(model, prop)
    rejected = _side_chain(model, prop.complement())
    if epistemic_input.attitude is Attitude.BELIEVE:
        return RankedModel(tuple(accepted + rejected))
    if epistemic_input.attitude is Attitude.DISBELIEVE:
        return RankedModel(tuple(rejected + accepted))
    blocks = []
    for i in range(max(len(accepted), len(rejected))):
        block = model.universe.contradiction()
        if i < len(accepted):
            block = block.union(accepted[i])
        if i < len(rejected):
            block = block.union(rejected[i])
        blocks.append(block)
    return RankedModel(tuple(blocks))


def _natural(model: RankedModel, epistemic_input: EpistemicInput) -> RankedModel:
    front = required_content(model, epistemic_input)
    rest = [b.intersect(front.complement()) for b in model.blocks]
    return RankedModel(tuple([front] + [b for b in rest if not b.is_empty]))


def _flip(model: RankedModel, epistemic_input: EpistemicInput) -> RankedModel:
    prop = epistemic_input.proposition
    accepted = _side_chain(model, prop)
    rejected = _side_chain(model, prop.complement())
    if epistemic_input.attitude is Attitude.BELIEVE:
        return RankedModel(tuple(accepted + rejected[::-1]))
    if epistemic_input.attitude is Attitude.DISBELIEVE:
        return RankedModel(tuple(rejected + accepted[::-1]))
    return _lexicographic(model, epistemic_input)


lexicographic_rule = object_rule("lex", _lexicographic)
natural_rule = object_rule("natural", _natural)
flip_rule = object_rule("flip", _flip)


def spohn_rule(alpha: int) -> RevisionRule:
    def conditionalize(model: RankedModel, epistemic_input: EpistemicInput) -> RankedModel:
        strength = epistemic_input.strength or alpha
        signed = {Attitude.BELIEVE: strength, Attitude.DISBELIEVE: -strength,
                  Attitude.SUSPEND: 0}[epistemic_input.attitude]
        posterior = spohn_conditionalize(ocf_from_rpm(model), epistemic_input.proposition, signed)
        return rpm_from_ocf(posterior)

    return object_rule(f"spohn:{alpha}", conditionalize, strength_based=True)


def prop_text(prop: Proposition) -> str:
    return "{" + " ".join(prop.labels()) + "}"


def ranking_text(model: RankedModel) -> str:
    return " ".join("[" + " ".join(block.labels()) + "]" for block in model.blocks)


def iterate_transcript(rule: RevisionRule, name: str, model: RankedModel,
                       steps: Sequence[EpistemicInput]) -> str:
    lines = [f"state {name} = {ranking_text(model)}"]
    for i, step in enumerate(steps, start=1):
        model = apply_rule(rule, model, step)
        text = f"{step.attitude.value} {prop_text(step.proposition)}"
        if step.strength is not None:
            text += f" strength {step.strength}"
        lines.append(f"step {i}: {text} -> {ranking_text(model)}")
    lines.append(f"final content = {prop_text(model.blocks[0])}")
    return "\n".join(lines) + "\n"
