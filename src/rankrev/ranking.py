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

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .errors import InputError
from .worlds import Proposition, TotalContent, Universe, _require_same_universe


class Preference(Enum):
    """Outcome of comparing two worlds by rank."""

    FIRST = "first"
    SECOND = "second"
    TIE = "tie"


@dataclass(frozen=True)
class RankedModel:
    """An ordered partition of the universe; earlier blocks are more believable."""

    blocks: tuple[Proposition, ...]

    def __post_init__(self):
        if not self.blocks:
            raise InputError("ranked model needs at least one block")
        u = self.blocks[0].universe
        union = 0
        for block in self.blocks:
            if block.universe != u:
                raise InputError("blocks are over different universes")
            if block.is_empty:
                raise InputError("ranked model blocks must be non-empty")
            if union & block.mask:
                raise InputError("ranked model blocks must be disjoint")
            union |= block.mask
        if union != u.tautology().mask:
            raise InputError("ranked model blocks must cover the universe")

    @classmethod
    def from_labels(cls, universe: Universe, *blocks: list[str] | tuple[str, ...]) -> RankedModel:
        return cls(tuple(universe.prop(*b) for b in blocks))

    @classmethod
    def from_ranks(cls, universe: Universe, ranks: tuple[int, ...]) -> RankedModel:
        """Inverse of :meth:`ranks`; rank values must be 0..k each occupied."""
        k = max(ranks)
        masks = [0] * (k + 1)
        for i, r in enumerate(ranks):
            masks[r] |= 1 << i
        return cls(tuple(Proposition(universe, m) for m in masks))

    @property
    def universe(self) -> Universe:
        return self.blocks[0].universe

    def ranks(self) -> tuple[int, ...]:
        """Rank per world index."""
        out = [0] * len(self.universe.worlds)
        for r, block in enumerate(self.blocks):
            for i in block.indices():
                out[i] = r
        return tuple(out)

    def rank_of(self, world: str) -> int:
        i = self.universe.index(world)
        for r, block in enumerate(self.blocks):
            if block.mask >> i & 1:
                return r
        raise AssertionError("unreachable: blocks cover the universe")

    def total_content(self) -> TotalContent:
        """What the agent believes outright: the first block."""
        return TotalContent(self.blocks[0])

    def first_consistent_block(self, prop: Proposition) -> int | None:
        """Index of the first block meeting ``prop``; None iff ``prop`` is empty."""
        _require_same_universe(self.blocks[0], prop)
        for i, block in enumerate(self.blocks):
            if block.mask & prop.mask:
                return i
        return None

    def disbelief_degree(self, prop: Proposition) -> int:
        """Minimum rank over the proposition's worlds; undefined for the contradiction.

        Always equals the index of the first block consistent with the
        proposition; computed from world ranks so the two routes stay
        independently checkable.
        """
        _require_same_universe(self.blocks[0], prop)
        if prop.is_empty:
            raise InputError("degree of the contradiction is undefined")
        ranks = self.ranks()
        return min(ranks[i] for i in prop.indices())

    def preference(self, w1: str, w2: str) -> Preference:
        if w1 == w2:
            raise InputError("preference needs two distinct worlds")
        r1, r2 = self.rank_of(w1), self.rank_of(w2)
        if r1 < r2:
            return Preference.FIRST
        if r1 > r2:
            return Preference.SECOND
        return Preference.TIE

    def __str__(self) -> str:
        return " ".join("[" + " ".join(b.labels()) + "]" for b in self.blocks)


@dataclass(frozen=True)
class OCF:
    """An ordinal conditional function: world -> natural number, minimum zero.

    Construction rejects non-normalized value vectors instead of shifting
    them; silently renormalizing would hide caller bugs.
    """

    universe: Universe = field(repr=False)
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.universe.worlds):
            raise InputError("one value per world required")
        if any(v < 0 or not isinstance(v, int) for v in self.values):
            raise InputError("values must be natural numbers")
        if min(self.values) != 0:
            raise InputError("not normalized: minimum value must be 0")

    @classmethod
    def from_map(cls, universe: Universe, values: Mapping[str, int]) -> OCF:
        if set(values) != set(universe.worlds):
            raise InputError("value map must cover exactly the universe's worlds")
        return cls(universe, tuple(values[w] for w in universe.worlds))

    def kappa(self, world: str) -> int:
        return self.values[self.universe.index(world)]

    def degree(self, prop: Proposition) -> int:
        """Minimum value over the proposition's worlds; undefined for the contradiction."""
        if prop.universe != self.universe:
            raise InputError("operands are over different universes")
        if prop.is_empty:
            raise InputError("degree of the contradiction is undefined")
        return min(self.values[i] for i in prop.indices())

    def __str__(self) -> str:
        return "{" + " ".join(f"{w}:{v}" for w, v in zip(self.universe.worlds, self.values)) + "}"


def rpm_from_ocf(ocf: OCF) -> RankedModel:
    """Group worlds by equal value, blocks ascending; gaps collapse to consecutive ranks."""
    levels = sorted(set(ocf.values))
    blocks = []
    for v in levels:
        mask = 0
        for i, val in enumerate(ocf.values):
            if val == v:
                mask |= 1 << i
        blocks.append(Proposition(ocf.universe, mask))
    return RankedModel(tuple(blocks))


def ocf_from_rpm(model: RankedModel) -> OCF:
    """Identify each world's degree of disbelief with its rank."""
    return OCF(model.universe, model.ranks())
