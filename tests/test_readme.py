"""The README's library tour runs as written, and the names it points to exist."""

import ast
import re
from pathlib import Path

import gainline
import gainline.graph

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_library_tour_runs_and_prints_what_its_comments_claim():
    source = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    lines, namespace, claims = source.splitlines(), {}, []
    for node in ast.parse(source).body:
        last = lines[node.end_lineno - 1]
        if isinstance(node, ast.Expr) and "#" in last:
            # "expr  # value" or "expr  # value: why"; the value is a literal
            claimed = ast.literal_eval(last.split("#", 1)[1].split(":")[0].strip())
            got = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert got == claimed, ast.unparse(node)
            claims.append(claimed)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert claims == [None, (0, 1, 2, 3), [0, 0, 1, 1, 2, 2, 3, 3]]


def test_every_key_entry_point_resolves():
    paragraph = re.search(r"Key entry points:(.*?)\n\n", README, re.S).group(1)
    names = [token.split("(")[0] for token in re.findall(r"`([^`]+)`", paragraph)]
    assert "line_roots" in names and "psi_line" in names
    for name in names:
        # "gainline.graph" names the module; every other name lives in one
        head, *rest = name.split(".")
        assert head.isidentifier() and all(map(str.isidentifier, rest)), name
        scope = next((vars(module) for module in (gainline, gainline.graph)
                      if head in vars(module)), {"gainline": gainline})
        assert head in scope, name
        obj = scope[head]
        for attr in rest:
            obj = getattr(obj, attr)
