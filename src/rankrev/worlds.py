"""Finite universes of labeled worlds, set-of-worlds propositions, and entailment.

A proposition is identified with the set of worlds in which it holds, stored
as a bitmask over the universe's world indices.  Entailment is subset
inclusion and negation is set complement.  A belief state's content is one
proposition too, the conjunction of everything believed: its belief set is
every proposition the content entails, and the empty content believes all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator

from .errors import InputError


@dataclass(frozen=True)
class Universe:
    """An ordered, finite set of distinct world labels, optionally with atom valuations.

    When ``valuations`` is present it is world-major: ``valuations[i][j]`` is
    the truth value of ``atoms[j]`` at ``worlds[i]``.  No two worlds may share
    an identical valuation row.
    """

    worlds: tuple[str, ...]
    atoms: tuple[str, ...] = ()
    valuations: tuple[tuple[bool, ...], ...] | None = None

    def __post_init__(self):
        if not self.worlds:
            raise InputError("universe needs at least one world")
        if len(set(self.worlds)) != len(self.worlds):
            raise InputError("world labels must be pairwise distinct")
        if any(not w for w in self.worlds):
            raise InputError("world labels must be non-empty strings")
        if self.valuations is not None:
            if len(self.valuations) != len(self.worlds):
                raise InputError("one valuation row per world required")
            if any(len(row) != len(self.atoms) for row in self.valuations):
                raise InputError("every world needs a value for every atom")
            if len(set(self.valuations)) != len(self.valuations):
                raise InputError("no two worlds may share an identical valuation")

    @classmethod
    def from_atoms(cls, atoms: tuple[str, ...] | list[str]) -> Universe:
        """Build the universe of all valuations over ``atoms``.

        Labels concatenate one letter per atom, uppercase for true and
        lowercase for false, in declaration order; the first atom varies
        slowest with true listed first.  Requires single-letter atom names.
        """
        atoms = tuple(atoms)
        if not atoms:
            raise InputError("auto worlds need at least one atom")
        for a in atoms:
            if len(a) != 1 or not a.isalpha():
                raise InputError(f"auto worlds need single-letter atoms, got {a!r}")
        rows = tuple(product((True, False), repeat=len(atoms)))
        labels = tuple(
            "".join(a.upper() if v else a.lower() for a, v in zip(atoms, row))
            for row in rows
        )
        return cls(worlds=labels, atoms=atoms, valuations=rows)

    def index(self, label: str) -> int:
        try:
            return self.worlds.index(label)
        except ValueError:
            raise InputError(f"unknown world {label!r}") from None

    def prop(self, *labels: str) -> Proposition:
        """The proposition holding exactly at the given worlds."""
        mask = 0
        for label in labels:
            mask |= 1 << self.index(label)
        return Proposition(self, mask)

    def prop_from_mask(self, mask: int) -> Proposition:
        return Proposition(self, mask)

    def tautology(self) -> Proposition:
        return Proposition(self, (1 << len(self.worlds)) - 1)

    def contradiction(self) -> Proposition:
        return Proposition(self, 0)

    def propositions(self) -> Iterator[Proposition]:
        """All 2^n propositions in ascending bitmask order (the canonical order)."""
        for mask in range(1 << len(self.worlds)):
            yield Proposition(self, mask)


def _require_same_universe(a, b):
    if a.universe != b.universe:
        raise InputError("operands are over different universes")


@dataclass(frozen=True, order=False)
class Proposition:
    """A set of worlds, stored as a bitmask over the universe's world indices."""

    universe: Universe = field(repr=False)
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << len(self.universe.worlds)):
            raise InputError("proposition mask out of range for its universe")

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_full(self) -> bool:
        return self.mask == (1 << len(self.universe.worlds)) - 1

    def indices(self) -> tuple[int, ...]:
        n = len(self.universe.worlds)
        return tuple(i for i in range(n) if self.mask >> i & 1)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.universe.worlds[i] for i in self.indices())

    def complement(self) -> Proposition:
        return Proposition(self.universe, self.universe.tautology().mask ^ self.mask)

    def intersect(self, other: Proposition) -> Proposition:
        _require_same_universe(self, other)
        return Proposition(self.universe, self.mask & other.mask)

    def union(self, other: Proposition) -> Proposition:
        _require_same_universe(self, other)
        return Proposition(self.universe, self.mask | other.mask)

    def entails(self, other: Proposition) -> bool:
        """Subset inclusion: this proposition holds only where ``other`` does."""
        _require_same_universe(self, other)
        return self.mask & ~other.mask == 0

    __invert__ = complement
    __and__ = intersect
    __or__ = union

    def __str__(self) -> str:
        return "{" + " ".join(self.labels()) + "}"

