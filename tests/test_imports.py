"""Source hygiene: every imported name in src/ and tests/ is referenced, and
no command loads scipy."""

import ast
import json
import os
import subprocess
import sys
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


def checkout_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def modules_after(*commands):
    """The scipy modules loaded by a fresh interpreter that imports cvdisc and
    cvdisc.cli and runs cli.main on each argv in commands, each exiting 0."""
    script = (
        "import json, sys\n"
        "import cvdisc, cvdisc.cli\n"
        f"codes = [cvdisc.cli.main(argv) for argv in {list(map(list, commands))!r}]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=checkout_env(), check=True)
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(commands), proc.stdout
    return loaded


def test_closed_form_commands_do_not_load_scipy(tmp_path):
    loaded = modules_after(
        ("report", "--n", "3", "--alpha2", "0.8"),
        ("sweep", "--n", "3", "--alpha2-min", "0", "--alpha2-max", "2", "--steps", "5",
         "--out", str(tmp_path / "sweep.csv")),
        ("mc", "--n", "3", "--alpha2", "1", "--shots", "1000", "--seed", "1"),
        ("n3", "--alpha2", "1"),
    )
    assert loaded == []


def test_verify_does_not_load_scipy():
    assert modules_after(("verify", "--n", "3", "--alpha2", "1")) == []


def test_verify_runs_with_scipy_unimportable(capsys):
    # sys.modules["scipy"] = None makes every import of scipy raise.
    argv = ["verify", "--n", "3", "--alpha2", "1,8"]
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "from cvdisc.cli import main\n"
              f"sys.exit(main({argv!r}))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=checkout_env())
    assert (proc.returncode, proc.stderr) == (0, "")

    from cvdisc.cli import main
    assert main(argv) == 0
    labels = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert len(labels) == 8 and all(label.startswith("PASS ") for label in labels)
    assert [line.split(":")[0] for line in proc.stdout.splitlines()] == labels
