"""Ranked models, ordinal conditional functions, and degrees of disbelief.

A ranked model is a well-ordered partition of the universe: worlds in the
first block are not disbelieved, worlds in later blocks are disbelieved, and
worlds sharing a block are equally believable.  An OCF attaches a natural
number to every world instead, normalized so the most plausible worlds sit at
zero.  Both induce the same notion of degree for a non-empty proposition: the
minimum over its worlds.

Converting an OCF to a ranked model collapses gaps between occupied levels to
consecutive ranks.  That is deliberate: a ranked model is purely ordinal, and
this loss of numeric distance is exactly what separates the two
representations under iterated change.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import InputError
from .worlds import Proposition, Universe, _indices, _require_same_universe, _set, _Value


class RankedModel(_Value):
    """An ordered partition of the universe; earlier blocks are more believable."""

    __slots__ = ("blocks", "_masks", "_ranks")

    def __init__(self, blocks: Iterable[Proposition]):
        try:
            blocks = tuple(blocks)
        except TypeError:
            raise InputError(f"ranked model blocks must be Propositions, got {blocks!r}") from None
        if not blocks:
            raise InputError("ranked model needs at least one block")
        # A first block that is no Proposition is refused in the loop.
        u = getattr(blocks[0], "universe", None)
        masks = []
        for block in blocks:
            if not isinstance(block, Proposition):
                raise InputError(f"ranked model blocks must be Propositions, got {block!r}")
            if block.universe is not u and block.universe != u:
                raise InputError("blocks are over different universes")
            masks.append(block.mask)
        _set(self, "_masks", tuple(_require_partition(masks, (1 << len(u.worlds)) - 1)))
        _set(self, "blocks", blocks)

    @classmethod
    def from_labels(cls, universe: Universe, *blocks: list[str] | tuple[str, ...]) -> RankedModel:
        return cls(tuple(universe.prop(*b) for b in blocks))

    @classmethod
    def from_ranks(cls, universe: Universe, ranks: tuple[int, ...]) -> RankedModel:
        """Inverse of :meth:`ranks`; rank values must be 0..k each occupied."""
        if len(ranks) != len(universe.worlds) or any(type(r) is not int or r < 0 for r in ranks):
            raise InputError("one non-negative int rank per world required")
        masks = [0] * (max(ranks) + 1)
        for i, r in enumerate(ranks):
            masks[r] |= 1 << i
        return _from_masks(universe, masks)

    @property
    def universe(self) -> Universe:
        return self.blocks[0].universe

    def ranks(self) -> tuple[int, ...]:
        """Rank per world index, computed on the first call."""
        try:
            return self._ranks
        except AttributeError:
            pass
        _set(self, "_ranks", _ranks(self._masks, len(self.universe.worlds)))
        return self._ranks

    def rank_of(self, world: str) -> int:
        return self.ranks()[self.universe.index(world)]

    def first_consistent_block(self, prop: Proposition) -> int | None:
        """Index of the first block meeting ``prop``; None iff ``prop`` is empty."""
        if not isinstance(prop, Proposition):
            raise InputError(f"first_consistent_block needs a Proposition, got {prop!r}")
        _require_same_universe(self.blocks[0], prop)
        for i, block in enumerate(self._masks):
            if block & prop.mask:
                return i
        return None

    def disbelief_degree(self, prop: Proposition) -> int:
        """Minimum rank over the proposition's worlds; undefined for the contradiction.

        Always equals the index of the first block consistent with the
        proposition; computed from world ranks so the two routes stay
        independently checkable.
        """
        if not isinstance(prop, Proposition):
            raise InputError(f"disbelief_degree needs a Proposition, got {prop!r}")
        _require_same_universe(self.blocks[0], prop)
        if prop.is_empty:
            raise InputError("degree of the contradiction is undefined")
        ranks = self.ranks()
        return min(ranks[i] for i in prop.indices())

    def __str__(self) -> str:
        return _format_blocks(self.universe, self._masks)


class OCF(_Value):
    """An ordinal conditional function: world -> natural number, minimum zero.

    Construction rejects non-normalized value vectors instead of shifting
    them; silently renormalizing would hide caller bugs.
    """

    __slots__ = ("universe", "values")
    _unshown = ("universe",)

    def __init__(self, universe: Universe, values: Iterable[int]):
        values = tuple(values)
        if len(values) != len(universe.worlds):
            raise InputError("one value per world required")
        if any(type(v) is not int or v < 0 for v in values):
            raise InputError("values must be natural numbers")
        if min(values) != 0:
            raise InputError("not normalized: minimum value must be 0")
        _set(self, "universe", universe)
        _set(self, "values", values)

    @classmethod
    def from_map(cls, universe: Universe, values: Mapping[str, int]) -> OCF:
        if set(values) != set(universe.worlds):
            raise InputError("value map must cover exactly the universe's worlds")
        return cls(universe, tuple(values[w] for w in universe.worlds))

    def degree(self, prop: Proposition) -> int:
        """Minimum value over the proposition's worlds; undefined for the contradiction."""
        if not isinstance(prop, Proposition):
            raise InputError(f"degree needs a Proposition, got {prop!r}")
        _require_same_universe(self, prop)
        if prop.is_empty:
            raise InputError("degree of the contradiction is undefined")
        return min(self.values[i] for i in prop.indices())

    def __str__(self) -> str:
        return "{" + " ".join(f"{w}:{v}" for w, v in zip(self.universe.worlds, self.values)) + "}"


def _require_partition(masks: Sequence[int], full: int) -> Sequence[int]:
    """The masks, if they are int masks forming an ordered partition of exactly ``full``."""
    union = 0
    for m in masks:
        if type(m) is not int:
            raise InputError("ranked model blocks must be int masks")
        if not m:
            raise InputError("ranked model blocks must be non-empty")
        if union & m:
            raise InputError("ranked model blocks must be disjoint")
        union |= m
    if union != full:
        raise InputError("ranked model blocks must cover the universe")
    return masks


def _format_blocks(universe: Universe, masks: Iterable[int]) -> str:
    """A ranking's text from its block masks: each block's labels in brackets."""
    text = universe._text
    return " ".join(f"[{text(m)}]" for m in masks)


def _ranks(masks: Iterable[int], n: int) -> tuple[int, ...]:
    """The rank per world index, over n worlds, of the ranking with these block masks."""
    out = [0] * n
    for r, m in enumerate(masks):
        for i in _indices(m):
            out[i] = r
    return tuple(out)


def _from_masks(universe: Universe, masks) -> RankedModel:
    return RankedModel(tuple(Proposition(universe, m) for m in masks))


def rpm_from_ocf(ocf: OCF) -> RankedModel:
    """Group worlds by equal value, blocks ascending; gaps collapse to consecutive ranks.

    Each value is replaced by its position among the distinct values, and
    the resulting rank vector is read by :meth:`RankedModel.from_ranks`.
    """
    rank = {v: r for r, v in enumerate(sorted(set(ocf.values)))}
    return RankedModel.from_ranks(ocf.universe, tuple(rank[v] for v in ocf.values))


def ocf_from_rpm(model: RankedModel) -> OCF:
    """Identify each world's degree of disbelief with its rank."""
    if not isinstance(model, RankedModel):
        raise InputError(f"ocf_from_rpm needs a RankedModel, got {model!r}")
    return OCF(model.universe, model.ranks())
