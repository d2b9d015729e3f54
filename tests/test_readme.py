"""The README's "Library" block runs as printed and gives the values its
comments state, so a change to the public API that breaks it fails
here."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_block():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Library\n", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    env, checked = {}, []
    for stmt in ast.parse(block).body:
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if isinstance(stmt, ast.Expr) and comment:
            value = eval(compile(ast.Expression(stmt.value), "README.md",
                                 "eval"), env)
            assert repr(value) == comment
            checked.append(comment)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), env)
    assert checked == ["4", "True"]
