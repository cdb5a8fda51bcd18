"""Source hygiene: every imported name in src/ and tests/ is referenced."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    """(line, name) of every name the module imports but never references.

    Package __init__ files re-export their imports and are not passed here;
    __future__ imports are directives, not names.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    files = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                   if p.name != "__init__.py")
    assert files
    found = [f"{p.relative_to(ROOT)}:{line}: {name}"
             for p in files for line, name in unused_imports(p)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_detects_an_unused_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("from __future__ import annotations\n"
                      "import os\nimport numpy as np\nfrom math import pi, tau\n"
                      "print(np.pi, tau)\n")
    assert unused_imports(module) == [(2, "os"), (4, "pi")]
