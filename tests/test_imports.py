"""Every top-level import in the package is used.

A name bound by a module-level ``import`` counts as used when the module
reads it or lists it in ``__all__``; an import line marked ``# noqa: F401``
is a deliberate re-export and is skipped.
"""

import ast
from pathlib import Path

import lkdl

PACKAGE = Path(lkdl.__file__).parent


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        span = lines[node.lineno - 1 : node.end_lineno]
        if any("# noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}"
            for name, line in bound.items() if name not in used]


def test_no_unused_top_level_imports():
    unused = [u for path in sorted(PACKAGE.glob("*.py"))
              for u in _unused_imports(path)]
    assert unused == []
