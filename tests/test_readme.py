"""The README's Python examples run, and each commented result holds."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

import rankrev as rr

README = Path(__file__).parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def _comments(source):
    """Each line's trailing comment, without the ``#``."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {t.start[0]: t.string[1:].strip() for t in tokens if t.type == tokenize.COMMENT}


def test_readme_examples_hold():
    namespace = {}
    checked = 0
    for block in BLOCKS:
        comments = _comments(block)
        for statement in ast.parse(block).body:
            comment = comments.get(statement.end_lineno)
            if not isinstance(statement, ast.Expr) or comment is None:
                exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
                continue
            expression = compile(ast.Expression(statement.value), "README.md", "eval")
            error = re.fullmatch(r"(\w+Error): (.*)", comment)
            if error:
                with pytest.raises(getattr(rr, error[1]), match=f"^{re.escape(error[2])}$"):
                    eval(expression, namespace)
            else:
                assert str(eval(expression, namespace)) == comment
            checked += 1
    assert len(BLOCKS) == 2 and checked == 6
