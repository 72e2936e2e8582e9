"""Model file loading, validation diagnostics, and print/reload round trips."""

import os
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankrev as rr
from rankrev import (InputError, ModelFile, ParseError, format_model, load_model, parse_model,
                     resolve_proposition)

from conftest import collapse, expressions

FIXTURE = Path(__file__).parent / "data" / "fixture.bel"


def test_load_fixture():
    mf = load_model(str(FIXTURE))
    assert mf.universe.worlds == ("AB", "Ab", "aB", "ab")
    assert mf.props["A"] == mf.universe.prop("AB", "Ab")
    assert mf.props["notA"] == mf.universe.prop("aB", "ab")
    assert mf.rpms["r1"] == rr.RankedModel.from_labels(mf.universe, ["aB"], ["AB", "Ab", "ab"])
    assert mf.rpms["r2"].blocks[2] == mf.universe.prop("ab")
    assert mf.rpms["r3"].blocks[0] == mf.props["A"]
    assert mf.ocfs["k1"] == rr.OCF.from_map(
        mf.universe, {"AB": 1, "Ab": 1, "aB": 0, "ab": 2})


def test_explicit_worlds():
    mf = parse_model(
        "atoms P Q\n"
        "world both { P=true Q=true }\n"
        "world neither { P=false Q=false }\n"
        "prop yes = P & Q\n"
    )
    assert mf.universe.worlds == ("both", "neither")
    assert mf.props["yes"] == mf.universe.prop("both")


def test_explicit_set_prop_and_empty_set():
    mf = parse_model("atoms A\nworlds auto\nprop none = { }\nprop all = { A a }\n")
    assert mf.props["none"].is_empty
    assert mf.props["all"].is_full


def _error_of(text):
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    return exc.value


def test_overlapping_blocks_name_partition_and_line():
    err = _error_of("atoms A B\nworlds auto\nrpm bad = [AB Ab] [Ab aB ab]\n")
    assert "not a partition" in str(err)
    assert err.line == 3


def test_non_normalized_ocf():
    err = _error_of("atoms A\nworlds auto\nocf k = { A:1 a:2 }\n")
    assert "not normalized" in str(err)
    assert err.line == 3


@pytest.mark.parametrize("value", ["\u00b2", "\u0663", "1\u00b2", "-1", "1.0"],
                         ids=["superscript-two", "arabic-indic-three", "digit-superscript",
                              "negative", "decimal"])
def test_ocf_value_must_be_ascii_digits(value):
    err = _error_of(f"atoms A\nworlds auto\nocf k = {{ A:{value} a:0 }}\n")
    assert err.message == f"bad value {value!r} for world 'A'"
    assert err.line == 3


def test_duplicate_names():
    assert "duplicate" in str(_error_of("atoms A\nworlds auto\nprop p = A\nprop p = ~A\n"))
    assert "duplicate" in str(_error_of(
        "atoms A\nworlds auto\nrpm r = [A a]\nrpm r = [a A]\n"))
    assert "already declared" in str(_error_of("atoms A B\natoms C\nworlds auto\n"))


def test_unknown_references():
    assert "unknown world" in str(_error_of("atoms A\nworlds auto\nprop p = { Z }\n"))
    assert "unknown world" in str(_error_of("atoms A\nworlds auto\nocf k = { A:0 Z:1 }\n"))
    assert "unknown atom" in str(_error_of("atoms A\nworlds auto\nprop p = A & B\n"))


def test_declaration_order_enforced():
    assert "atoms" in str(_error_of("worlds auto\n"))
    assert "no worlds declared" in str(_error_of("atoms A\nprop p = A\n"))
    assert "precede" in str(_error_of(
        "atoms A\nworlds auto\nprop p = A\nworld x { A=true }\n"))
    assert "already" in str(_error_of("atoms A\nworlds auto\nworlds auto\n"))


@pytest.mark.parametrize("text, message, line", [
    ("atoms\n", "atoms declaration needs at least one name", 1),
    ("atoms A A\n", "duplicate atom name", 1),
    ("atoms A 1B\n", "bad atom name '1B'", 1),
    ("atoms A\nworlds all\n", "expected 'worlds auto'", 2),
    ("world w { A=true }\n", "world declarations need atoms declared first", 1),
    ("atoms A\nworld w A=true\n", "expected 'world LABEL { atom=true ... }'", 2),
    ("atoms A\nworld w { A }\n", "expected atom=true|false, got 'A'", 2),
    ("atoms A\nworld w { A=true A=false }\n", "atom 'A' assigned twice", 2),
    ("atoms A\nworld w { A=true }\nworld w { A=false }\n",
     "world labels must be pairwise distinct", 3),
    ("atoms A\nworld u { A=true }\nworld v { A=true }\nprop p = A\n",
     "no two worlds may share an identical valuation", 4),
    ("atoms A\nworlds auto\nprop p\n", "expected 'KIND NAME = ...'", 3),
    ("atoms A\nworlds auto\nrpm 1r = [A a]\n", "bad name '1r'", 3),
    ("atoms A\nworlds auto\nprop p = { A a\n", "expected '{ LABEL ... }'", 3),
    ("atoms A\nworlds auto\nocf k = { A:0 a }\n", "expected LABEL:N, got 'a'", 3),
])
def test_diagnostic_message_and_line(text, message, line):
    err = _error_of(text)
    assert (err.message, err.line) == (message, line)


def test_world_line_diagnostics():
    assert "missing value" in str(_error_of("atoms A B\nworld w { A=true }\n"))
    assert "bad truth value" in str(_error_of("atoms A\nworld w { A=yes }\nprop p = A\n"))
    assert "unknown atom" in str(_error_of("atoms A\nworld w { B=true }\nprop p = A\n"))


def test_no_worlds_at_all():
    assert "no worlds" in str(_error_of("atoms A B\n"))
    assert "no worlds" in str(_error_of(""))


def test_missing_file():
    with pytest.raises(rr.InputError):
        load_model("/nonexistent/path.bel")
    with pytest.raises(rr.InputError, match="^cannot read model file 'x\\\\x00': embedded null"):
        load_model("x\0")


def test_a_file_descriptor_is_refused_and_left_open():
    fd = os.dup(0)
    try:
        with pytest.raises(InputError, match=f"^model file path must be a str or os.PathLike, "
                                             f"got {fd}$"):
            load_model(fd)
        os.fstat(fd)
    finally:
        os.close(fd)
    assert load_model(FIXTURE) == load_model(str(FIXTURE))


def test_comments_and_blank_lines():
    mf = parse_model("# header\n\natoms A  # trailing\nworlds auto\n\nprop p = A # tail\n")
    assert mf.props["p"] == mf.universe.prop("A")


def test_expression_error_carries_file_position():
    err = _error_of("atoms A\nworlds auto\nprop p = A &\n")
    assert err.line == 3


def test_format_round_trip():
    original = load_model(str(FIXTURE))
    text = format_model(original)
    reloaded = parse_model(text)
    assert reloaded.universe == original.universe
    assert reloaded.props == original.props
    assert reloaded.rpms == original.rpms
    assert reloaded.ocfs == original.ocfs
    # printing the reloaded file reproduces the same text exactly
    assert format_model(reloaded) == text


def test_resolve_proposition():
    mf = load_model(str(FIXTURE))
    assert resolve_proposition(mf, "A") == mf.props["A"]
    assert resolve_proposition(mf, "A | ~A").is_full
    with pytest.raises(ParseError):
        resolve_proposition(mf, "A & Z")


def test_resolve_proposition_needs_valuations():
    universe = rr.Universe(("w1", "w2"))
    mf = ModelFile(universe, props={"p": universe.prop("w1")})
    assert resolve_proposition(mf, "p") == universe.prop("w1")
    with pytest.raises(InputError) as exc:
        resolve_proposition(mf, "w1 & w2")
    assert not isinstance(exc.value, ParseError)
    assert "valuations" in str(exc.value)


# Arbitrary text, and lines shaped like declarations whose parts mix valid
# and broken pieces (non-ASCII digits among them), must load or give a
# ParseError, never another exception.
LABELS = st.sampled_from(["AB", "Ab", "aB", "ab", "A", "Z"])
VALUES = st.one_of(st.sampled_from(["0", "12", "true", "\u00b2", "\u0663"]), st.text(max_size=2))
WORDS = st.one_of(LABELS, VALUES, st.sampled_from(
    ["atoms", "worlds", "auto", "world", "prop", "rpm", "ocf", "=", "{", "}", "[", "]", ":",
     "~", "&", "->", "(", ")", "#"]))
OCF_ENTRIES = st.one_of(
    st.sampled_from(["AB:0", "Ab:1", "aB:\u00b2", "ab:\u0663"]),
    st.tuples(st.sampled_from(["AB", "Ab", "aB", "ab", "Z"]), VALUES).map(":".join),
)
LINES = st.one_of(
    st.lists(WORDS, max_size=8).map(" ".join),
    st.builds("world {} {{ {} }}".format, LABELS,
              st.lists(st.tuples(st.sampled_from(["A", "B"]), VALUES).map("=".join),
                       max_size=3).map(" ".join)),
    st.lists(OCF_ENTRIES, min_size=1, max_size=5).map(
        lambda entries: "ocf k = { " + " ".join(entries) + " }"),
    st.builds("{} p = {}".format, st.sampled_from(["prop", "rpm", "ocf"]),
              st.lists(WORDS, max_size=6).map(" ".join)),
)
MODEL_TEXTS = st.one_of(
    st.text(max_size=60),
    st.lists(LINES, min_size=1, max_size=4).map(
        lambda lines: "atoms A B\nworlds auto\n" + "\n".join(lines)),
)


@settings(max_examples=400, deadline=None)
@given(MODEL_TEXTS)
def test_model_parser_raises_only_parse_errors(text):
    try:
        parse_model(text)
    except ParseError:
        pass


@st.composite
def model_texts(draw):
    """A loadable model file with explicit or auto worlds, props, rpms and ocfs."""
    atoms = draw(st.sampled_from([("A",), ("A", "B"), ("A", "B", "C"), ("p", "q_1")]))
    lines = ["atoms " + " ".join(atoms)]
    if len(atoms[-1]) == 1 and draw(st.booleans()):
        lines.append("worlds auto")
        labels = rr.Universe.from_atoms(atoms).worlds
    else:
        rows = draw(st.lists(st.sampled_from(list(product((True, False), repeat=len(atoms)))),
                             min_size=1, unique=True))
        labels = draw(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True),
                               min_size=len(rows), max_size=len(rows), unique=True))
        for label, row in zip(labels, rows):
            body = " ".join(f"{a}={'true' if v else 'false'}" for a, v in zip(atoms, row))
            lines.append(f"world {label} {{ {body} }}")
    n = len(labels)
    for i in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            lines.append(f"prop p{i} = " + draw(expressions(atoms))[0])
        else:
            members = draw(st.lists(st.sampled_from(labels), unique=True))
            lines.append(f"prop p{i} = {{ {' '.join(members)} }}")
    for i in range(draw(st.integers(0, 2))):
        ranks = collapse(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
        blocks = [[w for w, r in zip(labels, ranks) if r == k] for k in range(max(ranks) + 1)]
        lines.append(f"rpm r{i} = " + " ".join(f"[{' '.join(b)}]" for b in blocks))
    for i in range(draw(st.integers(0, 2))):
        values = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        body = " ".join(f"{w}:{v - min(values)}" for w, v in zip(labels, values))
        lines.append(f"ocf k{i} = {{ {body} }}")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(model_texts())
def test_format_then_parse_is_identity(text):
    model_file = parse_model(text)
    printed = format_model(model_file)
    assert parse_model(printed) == model_file
    assert format_model(parse_model(printed)) == printed
