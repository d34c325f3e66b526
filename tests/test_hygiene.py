"""Source hygiene checks over the codemix package, stdlib only.

Every imported name in src/codemix must be used in its module, listed in
the module's __all__, or marked as a re-export with `# noqa: F401` on the
import statement.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "codemix"
MODULES = sorted(SRC.rglob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            names.update(elt.value for elt in node.value.elts
                         if isinstance(elt, ast.Constant))
    return names


def unused_imports(source: str) -> list[str]:
    """`line: name` for each imported name the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        statement = lines[node.lineno - 1:node.end_lineno]
        if any("# noqa: F401" in ln for ln in statement):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = used | _exported(tree)
    return [f"{line}: {name}" for name, line in sorted(imported.items(),
                                                       key=lambda kv: kv[1])
            if name not in kept]


class TestUnusedImports:
    def test_scanner_finds_an_unused_import(self):
        src = ("import math\nimport os\nfrom json import dumps, loads\n"
               "print(os.sep, loads)\n")
        assert unused_imports(src) == ["1: math", "3: dumps"]

    def test_scanner_allows_all_and_noqa_reexports(self):
        src = ("from json import dumps\n"
               "from os import sep  # noqa: F401 (re-export)\n"
               "__all__ = ['dumps']\n")
        assert unused_imports(src) == []

    def test_modules_found(self):
        assert SRC / "train.py" in MODULES

    @pytest.mark.parametrize("path", MODULES,
                             ids=[str(p.relative_to(SRC)) for p in MODULES])
    def test_no_unused_imports(self, path):
        assert unused_imports(path.read_text(encoding="utf-8")) == []
