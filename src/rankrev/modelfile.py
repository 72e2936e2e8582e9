"""Loading, validating, and printing the text format for universes and states.

A model file is line-oriented UTF-8 with ``#`` comments::

    atoms A B
    worlds auto                      # or explicit: world AB { A=true B=true }
    prop A = A & (B | ~B)            # expression form
    prop P = { AB Ab }               # explicit world-set form
    rpm r1 = [aB] [AB Ab ab]         # blocks, most believable first
    ocf k1 = { AB:1 Ab:1 aB:0 ab:2 }

Declarations are ordered: atoms, then worlds, then named propositions,
rankings, and OCFs.  Names are unique per kind.  Everything is validated at
load; diagnostics carry the offending line.  A caller that will walk the
universe exhaustively passes a world bound; every other caller gets
``MAX_MODEL_WORLDS``.  The bound is checked before ``worlds auto`` expands its
2^k rows.
"""

from __future__ import annotations

import os
import re

from .errors import InputError, ParseError
from .expressions import parse_expression
from .ranking import OCF, RankedModel
from .worlds import Proposition, Universe, _Value, check_world_bound

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_WORLD_LINE = re.compile(r"world\s+(\S+)\s*\{([^}]*)\}\s*\Z")
_SET_BODY = re.compile(r"\{([^}]*)\}\s*\Z")
_BLOCK = re.compile(r"\[([^\]]*)\]")

# A ranked state lists every world, so a larger file is of no use, while
# expanding ``worlds auto`` costs time and memory doubling with each atom.
MAX_MODEL_WORLDS = 4096


class ModelFile(_Value):
    """A fully validated model file held in memory."""

    __slots__ = ("universe", "props", "rpms", "ocfs")
    __hash__ = None  # its fields are dicts

    def __init__(self, universe: Universe, props: dict[str, Proposition] | None = None,
                 rpms: dict[str, RankedModel] | None = None, ocfs: dict[str, OCF] | None = None):
        self._fill(universe, {} if props is None else props, {} if rpms is None else rpms,
                   {} if ocfs is None else ocfs)


def read_text(path: str, what: str) -> str:
    """The UTF-8 text of a file; unreadable or undecodable files are input errors."""
    # open() would adopt an int as a file descriptor, and close it when done.
    if not isinstance(path, (str, os.PathLike)):
        raise InputError(f"{what} path must be a str or os.PathLike, got {path!r}")
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {what} {path!r}: not UTF-8 "
                         f"({exc.reason} at offset {exc.start})") from None


def load_model(path: str, max_worlds: int | None = None) -> ModelFile:
    return parse_model(read_text(path, "model file"), max_worlds)


def parse_model(text: str, max_worlds: int | None = None) -> ModelFile:
    """The validated model file.

    A universe over ``max_worlds`` worlds, or over ``MAX_MODEL_WORLDS`` in any
    case, is an input error.
    """
    return _ModelReader(max_worlds).read(text)


class _ModelReader:
    def __init__(self, max_worlds: int | None):
        self.max_worlds = MAX_MODEL_WORLDS
        if max_worlds is not None:
            if type(max_worlds) is not int:
                raise InputError(f"max worlds must be an int or None, got {max_worlds!r}")
            self.max_worlds = min(max_worlds, MAX_MODEL_WORLDS)
        self.atoms: tuple[str, ...] | None = None
        self.auto = False
        self.world_rows: list[tuple[str, tuple[bool, ...]]] = []
        self.universe: Universe | None = None
        self.props: dict[str, Proposition] = {}
        self.rpms: dict[str, RankedModel] = {}
        self.ocfs: dict[str, OCF] = {}

    def read(self, text: str) -> ModelFile:
        line_no = 0
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            self._line(line_no, line.strip(), line)
        if self.universe is None:
            self._finish_universe(line_no=max(1, line_no))
        return ModelFile(self.universe, self.props, self.rpms, self.ocfs)

    def _line(self, line_no: int, line: str, raw: str):
        keyword = line.split(None, 1)[0]
        if keyword == "atoms":
            self._atoms(line_no, line)
        elif keyword == "worlds":
            self._worlds_auto(line_no, line)
        elif keyword == "world":
            self._world(line_no, line)
        elif keyword in ("prop", "rpm", "ocf"):
            if self.universe is None:
                self._finish_universe(line_no)
            name, rest, offset = self._named(line_no, line, raw)
            if keyword == "prop":
                self._prop(line_no, name, rest, offset)
            elif keyword == "rpm":
                self._rpm(line_no, name, rest)
            else:
                self._ocf(line_no, name, rest)
        else:
            raise ParseError(f"unknown declaration {keyword!r}", line_no)

    def _atoms(self, line_no: int, line: str):
        if self.atoms is not None:
            raise ParseError("atoms already declared", line_no)
        names = line.split()[1:]
        if not names:
            raise ParseError("atoms declaration needs at least one name", line_no)
        if len(set(names)) != len(names):
            raise ParseError("duplicate atom name", line_no)
        for n in names:
            if not _NAME.match(n):
                raise ParseError(f"bad atom name {n!r}", line_no)
        self.atoms = tuple(names)

    def _worlds_auto(self, line_no: int, line: str):
        if line.split() != ["worlds", "auto"]:
            raise ParseError("expected 'worlds auto'", line_no)
        if self.universe is not None or self.world_rows or self.auto:
            raise ParseError("worlds already declared", line_no)
        if self.atoms is None:
            raise ParseError("'worlds auto' needs atoms declared first", line_no)
        self.auto = True

    def _world(self, line_no: int, line: str):
        if self.universe is not None:
            raise ParseError("world declarations must precede named entities", line_no)
        if self.auto:
            raise ParseError("cannot mix explicit worlds with 'worlds auto'", line_no)
        if self.atoms is None:
            raise ParseError("world declarations need atoms declared first", line_no)
        m = _WORLD_LINE.fullmatch(line)
        if not m:
            raise ParseError("expected 'world LABEL { atom=true ... }'", line_no)
        label, body = m.group(1), m.group(2)
        assigned: dict[str, bool] = {}
        for token in body.split():
            if "=" not in token:
                raise ParseError(f"expected atom=true|false, got {token!r}", line_no)
            atom, value = token.split("=", 1)
            if atom not in self.atoms:
                raise ParseError(f"unknown atom {atom!r}", line_no)
            if atom in assigned:
                raise ParseError(f"atom {atom!r} assigned twice", line_no)
            if value not in ("true", "false"):
                raise ParseError(f"bad truth value {value!r}", line_no)
            assigned[atom] = value == "true"
        missing = [a for a in self.atoms if a not in assigned]
        if missing:
            raise ParseError(f"world {label!r} missing value for {missing[0]!r}", line_no)
        self.world_rows.append((label, tuple(assigned[a] for a in self.atoms)))

    def _finish_universe(self, line_no: int):
        if not self.auto and not self.world_rows:
            raise ParseError("no worlds declared", line_no)
        count = 2 ** len(self.atoms) if self.auto else len(self.world_rows)
        check_world_bound(count, self.max_worlds)
        try:
            if self.auto:
                self.universe = Universe.from_atoms(self.atoms)
            else:
                self.universe = Universe(
                    worlds=tuple(label for label, _ in self.world_rows),
                    atoms=self.atoms or (),
                    valuations=tuple(row for _, row in self.world_rows),
                )
        except InputError as exc:
            raise ParseError(str(exc), line_no) from None

    def _named(self, line_no: int, line: str, raw: str) -> tuple[str, str, int]:
        parts = line.split("=", 1)
        head = parts[0].split()
        if len(parts) != 2 or len(head) != 2:
            raise ParseError("expected 'KIND NAME = ...'", line_no)
        kind, name = head
        if not _NAME.match(name):
            raise ParseError(f"bad name {name!r}", line_no)
        existing = {"prop": self.props, "rpm": self.rpms, "ocf": self.ocfs}[kind]
        if name in existing:
            raise ParseError(f"duplicate {kind} name {name!r}", line_no)
        rest = parts[1].strip()
        offset = raw.index("=") + 1 + (len(parts[1]) - len(parts[1].lstrip()))
        return name, rest, offset

    def _labels_to_prop(self, line_no: int, labels: list[str]) -> Proposition:
        try:
            return self.universe.prop(*labels)
        except InputError as exc:
            raise ParseError(str(exc), line_no) from None

    def _prop(self, line_no: int, name: str, rest: str, offset: int):
        if rest.startswith("{"):
            m = _SET_BODY.fullmatch(rest)
            if not m:
                raise ParseError("expected '{ LABEL ... }'", line_no)
            self.props[name] = self._labels_to_prop(line_no, m.group(1).split())
            return
        try:
            self.props[name] = parse_expression(rest, self.universe)
        except ParseError as exc:
            raise ParseError(exc.message, line_no, exc.column + offset) from None

    def _rpm(self, line_no: int, name: str, rest: str):
        blocks = _BLOCK.findall(rest)
        if not blocks or _BLOCK.sub("", rest).strip():
            raise ParseError("expected '[LABEL ...] [LABEL ...] ...'", line_no)
        props = tuple(self._labels_to_prop(line_no, b.split()) for b in blocks)
        try:
            self.rpms[name] = RankedModel(props)
        except InputError as exc:
            raise ParseError(f"rpm {name!r} is not a partition: {exc}", line_no) from None

    def _ocf(self, line_no: int, name: str, rest: str):
        m = _SET_BODY.fullmatch(rest)
        if not m:
            raise ParseError("expected '{ LABEL:N ... }'", line_no)
        values: dict[str, int] = {}
        for token in m.group(1).split():
            if ":" not in token:
                raise ParseError(f"expected LABEL:N, got {token!r}", line_no)
            label, num = token.rsplit(":", 1)
            if label in values:
                raise ParseError(f"world {label!r} assigned twice", line_no)
            if not (num.isascii() and num.isdigit()):
                raise ParseError(f"bad value {num!r} for world {label!r}", line_no)
            if label not in self.universe.worlds:
                raise ParseError(f"unknown world {label!r}", line_no)
            values[label] = int(num)
        try:
            self.ocfs[name] = OCF.from_map(self.universe, values)
        except InputError as exc:
            raise ParseError(f"ocf {name!r}: {exc}", line_no) from None


def format_model(model_file: ModelFile) -> str:
    """Canonical text for a model file; reloading it reproduces the same model.

    Expression-defined propositions print in explicit world-set form, since
    only their denotations are retained.
    """
    u = model_file.universe
    lines = []
    if u.atoms:
        lines.append("atoms " + " ".join(u.atoms))
    if u.valuations is not None:
        for label, row in zip(u.worlds, u.valuations):
            body = " ".join(f"{a}={'true' if v else 'false'}"
                            for a, v in zip(u.atoms, row))
            lines.append(f"world {label} {{ {body} }}")
    for name, prop in model_file.props.items():
        body = " ".join(prop.labels())
        lines.append(f"prop {name} = {{ {body} }}" if body else f"prop {name} = {{ }}")
    for name, model in model_file.rpms.items():
        lines.append(f"rpm {name} = {model}")
    for name, ocf in model_file.ocfs.items():
        body = " ".join(f"{w}:{v}" for w, v in zip(u.worlds, ocf.values))
        lines.append(f"ocf {name} = {{ {body} }}")
    return "\n".join(lines) + "\n"


def resolve_proposition(model_file: ModelFile, text: str) -> Proposition:
    """A named proposition if ``text`` is exactly a declared name, else an expression."""
    name = text.strip()
    if name in model_file.props:
        return model_file.props[name]
    return parse_expression(text, model_file.universe)
