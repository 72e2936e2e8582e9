"""Finite universes of labeled worlds, set-of-worlds propositions, and entailment.

A proposition is identified with the set of worlds in which it holds, stored
as a bitmask over the universe's world indices.  Entailment is subset
inclusion and negation is set complement.  A belief state's content is one
proposition too, the conjunction of everything believed: its belief set is
every proposition the content entails, and the empty content believes all.
"""

from __future__ import annotations

from itertools import product
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import InputError

_set = object.__setattr__


class _Value:
    """Base of the immutable value classes, compared field by field.

    A subclass's fields are its public ``__slots__`` after its bases' fields;
    a slot starting with ``_`` is a cache, left out of equality, hashing and
    repr, and the fields named in ``_unshown`` are left out of repr.  Only
    instances of exactly the same class compare equal.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _unshown: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields += tuple(s for s in cls.__dict__.get("__slots__", ()) if s[0] != "_")
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = (f"{f}={getattr(self, f)!r}" for f in self._fields if f not in self._unshown)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __reduce__(self):
        # Rebuilt through the constructor, which takes the fields in order.
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def _fill(self, *values):
        """Set every field, in order.  ``Proposition``, ``RankedModel`` and ``OCF``,
        built in the checkers' loops, call ``_set`` per field instead: it is about
        twice as fast."""
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Universe(_Value):
    """An ordered, finite set of distinct world labels, optionally with atom valuations.

    When ``valuations`` is present it is world-major: ``valuations[i][j]`` is
    the truth value of ``atoms[j]`` at ``worlds[i]``.  No two worlds may share
    an identical valuation row.
    """

    __slots__ = ("worlds", "atoms", "valuations", "_atom_masks", "_hash", "_texts")

    def __init__(self, worlds: Iterable[str], atoms: Iterable[str] = (),
                 valuations: Iterable[Iterable[bool]] | None = None):
        worlds, atoms = tuple(worlds), tuple(atoms)
        if not worlds:
            raise InputError("universe needs at least one world")
        if any(not isinstance(w, str) or not w for w in worlds):
            raise InputError("world labels must be non-empty strings")
        if len(set(worlds)) != len(worlds):
            raise InputError("world labels must be pairwise distinct")
        if valuations is not None:
            valuations = tuple(tuple(row) for row in valuations)
            if len(valuations) != len(worlds):
                raise InputError("one valuation row per world required")
            if any(len(row) != len(atoms) for row in valuations):
                raise InputError("every world needs a value for every atom")
            if len(set(valuations)) != len(valuations):
                raise InputError("no two worlds may share an identical valuation")
        self._fill(worlds, atoms, valuations)
        _set(self, "_atom_masks", None if valuations is None else {
            atom: sum(1 << i for i, true in enumerate(column) if true)
            for atom, column in zip(atoms, zip(*valuations))})
        # Every proposition key hashes its universe, so the hash is taken once.
        _set(self, "_hash", hash((worlds, atoms, valuations)))
        _set(self, "_texts", {})

    def __hash__(self):
        return self._hash

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

    def _text(self, mask: int) -> str:
        """The labels of the worlds in ``mask``, space-separated; rendered once per mask."""
        try:
            return self._texts[mask]
        except KeyError:
            text = self._texts[mask] = " ".join(self.worlds[i] for i in _indices(mask))
            return text

    def atom_masks(self) -> dict[str, int]:
        """Each atom's world mask, the worlds where it is true; shared, so not to be changed."""
        if self._atom_masks is None:
            raise InputError("universe has no atom valuations")
        return self._atom_masks

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


def check_world_bound(worlds: int, max_worlds: int):
    """Refuse a universe of ``worlds`` worlds over the bound, before anything is built."""
    if worlds > max_worlds:
        raise InputError(f"universe has {worlds} worlds, over the bound of {max_worlds}")


def _indices(mask: int) -> tuple[int, ...]:
    """The world indices in a mask, ascending: one step per set bit."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def _require_same_universe(a, b):
    if a.universe != b.universe:
        raise InputError("operands are over different universes")


class Proposition(_Value):
    """A set of worlds, stored as a bitmask over the universe's world indices."""

    __slots__ = ("universe", "mask")
    _unshown = ("universe",)

    def __init__(self, universe: Universe, mask: int):
        _set(self, "universe", universe)
        _set(self, "mask", mask)
        # Validation is looked up on ``self``, so a wrapper on the class (the
        # benchmark's tracer counts constructions so) sees every proposition.
        self.__post_init__()

    def __post_init__(self):
        if type(self.mask) is not int:
            raise InputError(f"proposition mask must be an int, got {self.mask!r}")
        if not 0 <= self.mask < (1 << len(self.universe.worlds)):
            raise InputError("proposition mask out of range for its universe")

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_full(self) -> bool:
        return self.mask == (1 << len(self.universe.worlds)) - 1

    def indices(self) -> tuple[int, ...]:
        return _indices(self.mask)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.universe.worlds[i] for i in self.indices())

    def complement(self) -> Proposition:
        return Proposition(self.universe, ((1 << len(self.universe.worlds)) - 1) ^ self.mask)

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
        return "{" + self.universe._text(self.mask) + "}"

