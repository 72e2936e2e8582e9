"""Command dispatch, exit codes, and golden output."""

from pathlib import Path

import pytest

from rankrev.cli import main

FIXTURE = str(Path(__file__).parent / "data" / "fixture.bel")
GOLDEN = Path(__file__).parent / "golden" / "counterexample.txt"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--worlds", "4")
    assert code == 0
    assert out == "75\n"
    assert run(capsys, "enumerate", "--worlds", "5")[1] == "541\n"


def test_enumerate_over_bound(capsys):
    code, _, err = run(capsys, "enumerate", "--worlds", "9")
    assert code == 2
    assert "error" in err


def test_revise(capsys):
    code, out, _ = run(capsys, "revise", "--model", FIXTURE, "--state", "r1", "A")
    assert code == 0
    assert "state r1 = [aB] [AB Ab ab]" in out
    assert "revise by {AB Ab}: content = {AB Ab}" in out


def test_revise_with_rule(capsys):
    code, out, _ = run(capsys, "revise", "--model", FIXTURE, "--state", "r1",
                       "--rule", "lex", "A")
    assert code == 0
    assert "posterior (lex) = [AB Ab] [aB] [ab]" in out


def test_revise_accepts_expressions(capsys):
    code, out, _ = run(capsys, "revise", "--model", FIXTURE, "--state", "r2", "A & ~B")
    assert code == 0
    assert "revise by {Ab}" in out


def test_check_lexicographic_reversibility_fails(capsys):
    code, out, _ = run(capsys, "check", "--model", FIXTURE, "--rule", "lex",
                       "--axioms", "agm,b9,b10,r")
    assert code == 1
    assert "agm[r1]: pass (272 cases)" in out
    assert "b9[r1]: pass" in out and "b10[r3]: pass" in out
    # the first reversibility failure is believing A at r1
    assert "r[r1]: FAIL — believe A is irreversible" in out
    assert "result: FAIL" in out


def test_check_passes_for_good_axioms(capsys):
    code, out, _ = run(capsys, "check", "--model", FIXTURE, "--rule", "natural",
                       "--axioms", "agm,b9,b10,order,degrees")
    assert code == 0
    assert out.strip().endswith("result: pass")


def test_check_flip_fails_b10(capsys):
    code, out, _ = run(capsys, "check", "--model", FIXTURE, "--rule", "flip",
                       "--axioms", "b10", "--state", "r2")
    assert code == 1
    assert "b10[r2]: FAIL" in out


def test_check_requires_rule(capsys):
    code, _, err = run(capsys, "check", "--model", FIXTURE, "--axioms", "b9")
    assert code == 2
    assert "--rule is required" in err


def test_check_unknown_axiom(capsys):
    code, _, err = run(capsys, "check", "--model", FIXTURE, "--axioms", "b11")
    assert code == 2
    assert "unknown axiom" in err


def test_counterexample_golden_bytes(capsys):
    code, out, _ = run(capsys, "counterexample")
    assert code == 0
    assert out == GOLDEN.read_text(encoding="utf-8")


def test_counterexample_is_deterministic(capsys):
    first = run(capsys, "counterexample")
    second = run(capsys, "counterexample")
    assert first == second


def test_counterexample_generalized(capsys):
    code, out, _ = run(capsys, "counterexample", "--worlds", "5")
    assert code == 0
    assert "5 worlds" in out
    assert "verdict: pass" in out


def test_represent(capsys):
    code, out, _ = run(capsys, "represent", "--model", FIXTURE)
    assert code == 0
    assert out.splitlines()[:3] == [
        "r1: recovered exactly",
        "r2: recovered exactly",
        "r3: recovered exactly",
    ]


def test_degrees(capsys):
    code, out, _ = run(capsys, "degrees", "--model", FIXTURE, "--state", "r1")
    assert code == 0
    assert "d(A) = 1, d(~A) = 0: A is disbelieved" in out
    assert "d(notA) = 0, d(~notA) = 1: notA is believed" in out
    assert "degree conditions: pass" in out


def test_degrees_on_ocf_state(capsys):
    code, out, _ = run(capsys, "degrees", "--model", FIXTURE, "--state", "k1")
    assert code == 0
    assert "state k1 = {AB:1 Ab:1 aB:0 ab:2}" in out
    assert "as ranking = [aB] [AB Ab] [ab]" in out


def test_iterate(capsys, tmp_path):
    script = tmp_path / "steps.txt"
    script.write_text("believe A strength 2\ndisbelieve A\n# done\n", encoding="utf-8")
    code, out, _ = run(capsys, "iterate", "--model", FIXTURE, "--state", "r2",
                       "--rule", "spohn:1", str(script))
    assert code == 0
    assert "step 1: believe {AB Ab} strength 2 ->" in out
    assert "step 2: disbelieve {AB Ab} ->" in out
    assert out.strip().splitlines()[-1].startswith("final content = ")


def test_iterate_bad_script_line(capsys, tmp_path):
    script = tmp_path / "steps.txt"
    script.write_text("ponder A\n", encoding="utf-8")
    code, _, err = run(capsys, "iterate", "--model", FIXTURE, "--state", "r1",
                       "--rule", "lex", str(script))
    assert code == 2
    assert "expected" in err


def test_missing_model_file(capsys):
    code, _, err = run(capsys, "revise", "--model", "/no/such.bel", "--state", "r1", "A")
    assert code == 2
    assert "cannot read model file" in err


def test_unknown_state(capsys):
    code, _, err = run(capsys, "revise", "--model", FIXTURE, "--state", "zz", "A")
    assert code == 2
    assert "no ranked state" in err


def test_bad_expression_is_input_error(capsys):
    code, _, err = run(capsys, "revise", "--model", FIXTURE, "--state", "r1", "A & C")
    assert code == 2
    assert "unknown atom" in err


@pytest.mark.parametrize("text", ["~" * 5000 + "A", "(" * 400 + "A" + ")" * 400,
                                  "&".join(["A"] * 5000)],
                         ids=["not", "parens", "and-chain"])
def test_deep_expression_is_input_error(capsys, text):
    code, out, err = run(capsys, "revise", "--model", FIXTURE, "--state", "r1", text)
    assert code == 2
    assert out == ""
    assert err.startswith("error: 1:") and "nested deeper than" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "revise")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
