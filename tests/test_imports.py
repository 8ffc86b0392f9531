"""Every imported name is referenced somewhere in its module.

Stdlib only: each module of src/knvex and of tests/ is parsed with ast, and
an import binding that no Name node of the module reads is reported with its
file and line.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name that the module never references."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_finds_an_unused_import():
    source = "import os\nfrom math import comb, factorial\n\nprint(comb(4, 2))\n"
    assert unused_imports(source) == [(1, "os"), (2, "factorial")]


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "knvex").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
