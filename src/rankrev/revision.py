"""Single-step revision, suspension, and rules for revising whole rankings.

Revising a ranked model by a non-empty proposition A makes the new belief
content E_i ∩ A, where E_i is the first block consistent with A.  Suspending
judgment in A yields the intersection of the belief sets that belief and
disbelief in A would produce, i.e. the union of the two contents.

A revision rule goes further and produces a whole posterior ranking, not just
a belief set: it maps the prior's block masks to the posterior's.  Three
concrete rules are provided:

* ``lexicographic_rule`` stacks the accepted side above the rejected side,
  each side keeping its internal order; suspension merges the two sides level
  by level.
* ``natural_rule`` promotes only the minimal accepted worlds to the front and
  leaves everything else in place.
* ``spohn_rule(alpha)`` shifts each side's ranks as OCF conditionalization
  with the attitude-signed strength would, then regroups.

``flip_rule`` is a deliberately broken variant of the lexicographic rule that
inverts the rejected side's internal order.  It exists so the axiom checkers
can be shown to fail; do not use it for anything else.

Suspension only pins down the posterior belief set, not the posterior
ranking.  The ranking each rule produces for a suspension input is this
implementation's choice, constrained to reproduce the suspended belief set.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Sequence
from enum import Enum
from itertools import zip_longest

from .errors import InputError, _require
from .ranking import OCF, RankedModel, _from_masks, _require_partition
from .worlds import Proposition, _require_same_universe, _Value


class Attitude(Enum):
    BELIEVE = "believe"
    DISBELIEVE = "disbelieve"
    SUSPEND = "suspend"

    @classmethod
    def _missing_(cls, value):
        raise InputError(f"unknown attitude {value!r} (expected believe, disbelieve or suspend)")


class EpistemicInput(_Value):
    """A proposition plus an attitude toward it.

    ``strength`` is an optional magnitude of at least 1 used by strength-based
    rules; the attitude carries the sign (believe +, disbelieve -, suspend 0).
    """

    __slots__ = ("proposition", "attitude", "strength")

    def __init__(self, proposition: Proposition, attitude: Attitude, strength: int | None = None):
        if not isinstance(proposition, Proposition):
            raise InputError(f"proposition must be a Proposition, got {proposition!r}")
        if not isinstance(attitude, Attitude):
            raise InputError(f"attitude must be an Attitude, got {attitude!r}")
        if strength is not None and type(strength) is not int:
            raise InputError(f"strength must be an int, got {strength!r}")
        if strength is not None and attitude is Attitude.SUSPEND:
            raise InputError("suspend takes no strength")
        if strength is not None and strength < 1:
            raise InputError("strength must be at least 1")
        self._fill(proposition, attitude, strength)

    def signed_strength(self, default: int) -> int:
        s = self.strength if self.strength is not None else default
        if self.attitude is Attitude.BELIEVE:
            return s
        if self.attitude is Attitude.DISBELIEVE:
            return -s
        return 0

    def __str__(self) -> str:
        text = f"{self.attitude.value} {self.proposition}"
        if self.strength is not None:
            text += f" strength {self.strength}"
        return text


def revise(model: RankedModel, prop: Proposition) -> Proposition:
    """The belief content after coming to believe ``prop``: E_i ∩ prop.

    The new belief set is every proposition the returned content entails.
    The content is empty exactly when ``prop`` is the contradiction.
    """
    _require(model, RankedModel, "revise")
    _require_same_universe(model, prop, "revise")
    return Proposition(model.universe, _revised(model._masks, prop.mask))


def suspend_content(model: RankedModel, prop: Proposition) -> Proposition:
    """The belief content that remains when judgment in ``prop`` is suspended.

    The union of the two revised contents represents the intersection of the
    post-belief and post-disbelief belief sets.
    """
    return revise(model, prop) | revise(model, ~prop)


def required_content(model: RankedModel, epistemic_input: EpistemicInput) -> Proposition:
    """The belief content any rule must produce for the given input."""
    _require(model, RankedModel, "required_content")
    _require(epistemic_input, EpistemicInput, "required_content")
    prop = epistemic_input.proposition
    if epistemic_input.attitude is Attitude.BELIEVE:
        return revise(model, prop)
    if epistemic_input.attitude is Attitude.DISBELIEVE:
        return revise(model, prop.complement())
    return suspend_content(model, prop)


class RevisionRule(_Value):
    """A named total function ``transform(blocks, epistemic_input)`` from the prior's block
    masks, most believable first, to the posterior's; :func:`apply_rule` applies it to a model."""

    __slots__ = ("name", "transform", "strength_based")

    def __init__(self, name: str, transform: Callable[[tuple, EpistemicInput], Sequence[int]],
                 strength_based: bool = False):
        _require(name, str, "RevisionRule")
        _require(transform, Callable, "RevisionRule")
        _require(strength_based, bool, "RevisionRule")
        self._fill(name, transform, strength_based)

    def __call__(self, model: RankedModel, epistemic_input: EpistemicInput) -> RankedModel:
        return apply_rule(self, model, epistemic_input)


def apply_rule(rule: RevisionRule, model: RankedModel,
               epistemic_input: EpistemicInput) -> RankedModel:
    """Validated rule application: a revisable input, an output partitioning the universe."""
    _require(rule, RevisionRule, "apply_rule")
    _require(model, RankedModel, "apply_rule")
    _require(epistemic_input, EpistemicInput, "apply_rule")
    _require_revisable(model, epistemic_input.proposition, "apply_rule")
    return _from_masks(model.universe, _posterior(rule, model._masks, epistemic_input))


def _posterior(rule: RevisionRule, blocks: tuple[int, ...],
               epistemic_input: EpistemicInput) -> tuple[int, ...]:
    """The rule's posterior block masks for prior ``blocks``, checked to partition their union."""
    masks = rule.transform(blocks, epistemic_input)
    try:  # the output only: a TypeError raised by the transform itself is left as it is
        masks = tuple(masks)
    except TypeError:
        raise InputError(f"rule output must be an iterable of block masks, got {masks!r}") from None
    return _require_partition(masks, sum(blocks))


def _require_revisable(state: RankedModel | OCF, prop: Proposition, where: str):
    """The contract of every revision input: over the state's universe, neither ⊥ nor ⊤."""
    _require_same_universe(state, prop, where)
    if prop.is_empty or prop.is_full:
        raise InputError("revision rules reject the contradiction and the tautology")


def _side_chain(blocks: Iterable[int], side: int) -> list[int]:
    """The side's worlds grouped by their rank under these block masks, most
    believable first."""
    return [m for m in (block & side for block in blocks) if m]


def _revised(blocks: Iterable[int], mask: int) -> int:
    """Revision on block masks: the first block meeting ``mask``, cut to it; 0 if none does."""
    for block in blocks:
        if block & mask:
            return block & mask
    return 0


def _target_side(epistemic_input: EpistemicInput) -> int:
    """The mask of the side an input puts first: the complement for disbelief."""
    mask = epistemic_input.proposition.mask
    return ~mask if epistemic_input.attitude is Attitude.DISBELIEVE else mask


def _lexicographic(blocks: tuple[int, ...], epistemic_input: EpistemicInput) -> list[int]:
    side = _target_side(epistemic_input)
    first, second = _side_chain(blocks, side), _side_chain(blocks, ~side)
    if epistemic_input.attitude is Attitude.SUSPEND:
        # Merge the sides level by level so neither outranks the other.
        return [a | b for a, b in zip_longest(first, second, fillvalue=0)]
    return first + second


def _natural(blocks: tuple[int, ...], epistemic_input: EpistemicInput) -> list[int]:
    side = _target_side(epistemic_input)
    front = _revised(blocks, side)  # the required content, as in ``required_content``
    if epistemic_input.attitude is Attitude.SUSPEND:
        front |= _revised(blocks, ~side)
    return [front] + _side_chain(blocks, ~front)


def _flip(blocks: tuple[int, ...], epistemic_input: EpistemicInput) -> list[int]:
    if epistemic_input.attitude is Attitude.SUSPEND:
        return _lexicographic(blocks, epistemic_input)
    side = _target_side(epistemic_input)
    return _side_chain(blocks, side) + _side_chain(blocks, ~side)[::-1]


lexicographic_rule = RevisionRule("lex", _lexicographic)
natural_rule = RevisionRule("natural", _natural)
flip_rule = RevisionRule("flip", _flip)


def spohn_conditionalize(ocf: OCF, prop: Proposition, alpha: int) -> OCF:
    """Shift the target side to minimum 0 and the other side to minimum |alpha|.

    The target is ``prop`` for alpha >= 0 and its complement for alpha < 0, so
    a negative strength means believing the complement.  The result is
    normalized by construction and assigns the non-target side degree |alpha|.
    """
    _require(ocf, OCF, "spohn_conditionalize")
    if type(alpha) is not int:
        raise InputError(f"strength must be an int, got {alpha!r}")
    _require_revisable(ocf, prop, "spohn_conditionalize")
    target = prop if alpha >= 0 else prop.complement()
    shift_in = ocf.degree(target)
    shift_out = ocf.degree(target.complement()) - abs(alpha)
    values = tuple(
        v - (shift_in if target.mask >> i & 1 else shift_out)
        for i, v in enumerate(ocf.values)
    )
    return OCF(ocf.universe, values)


def reverse_strength(ocf: OCF, prop: Proposition) -> int:
    """The strength whose input undoes any conditionalization of ``ocf`` on ``prop``.

    Conditionalizing any (prop, alpha)-successor of ``ocf`` by (prop, beta)
    with the returned beta restores ``ocf`` exactly.
    """
    _require(ocf, OCF, "reverse_strength")
    _require_revisable(ocf, prop, "reverse_strength")
    return ocf.degree(prop.complement()) - ocf.degree(prop)


def spohn_rule(alpha: int) -> RevisionRule:
    """Rank-level conditionalization with default strength ``alpha``.

    Shifts each side's block ranks, read as an OCF, so the believed side
    starts at 0 and the other at the strength (an input's own strength
    overrides the default), then regroups equal ranks: ``spohn_conditionalize``
    between ``ocf_from_rpm`` and ``rpm_from_ocf``, without building the OCF.
    Gap collapsing in the regrouping makes this rule forget numeric
    distances, which is why it can be irreversible at the ranking level even
    though OCF conditionalization itself is reversible.
    """
    if type(alpha) is not int:
        raise InputError(f"rule strength must be an int, got {alpha!r}")
    if alpha < 1:
        raise InputError("rule strength must be at least 1; strength 0 would turn "
                         "belief into suspension")

    def transform(blocks: tuple[int, ...], epistemic_input: EpistemicInput) -> list[int]:
        target = _target_side(epistemic_input)
        levels: dict[int, int] = {}
        for side, floor in ((target, 0), (~target, abs(epistemic_input.signed_strength(alpha)))):
            chain = [(r, b & side) for r, b in enumerate(blocks) if b & side]
            for r, m in chain:
                level = r - chain[0][0] + floor
                levels[level] = levels.get(level, 0) | m
        return [levels[v] for v in sorted(levels)]

    return RevisionRule(f"spohn:{alpha}", transform, strength_based=True)


def rule_by_name(text: str) -> RevisionRule:
    """Look up ``lex``, ``natural``, ``flip``, or ``spohn:N``."""
    _require(text, str, "rule_by_name")
    if text == "lex":
        return lexicographic_rule
    if text == "natural":
        return natural_rule
    if text == "flip":
        return flip_rule
    if text.startswith("spohn:"):
        m = re.fullmatch(r"spohn:([0-9]+)", text)
        if not m:
            raise InputError(f"bad rule strength in {text!r}")
        return spohn_rule(int(m.group(1)))
    raise InputError(f"unknown rule {text!r} (expected lex, natural, flip, or spohn:N)")
