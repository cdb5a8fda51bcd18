"""Source hygiene: every imported name in src/ and tests/ is referenced,
every module-level private definition in src/cvdisc is referenced there,
every parameter of a function in src/cvdisc is read, cvdisc.__all__ is
exactly what the package imports, no cvdisc module imports a sibling's
private name but _frozen, the oracle's Gram route reads nothing from the
kernel, the Fock rows call no coefficient routine, the workspace reads no
failure profile, and no command loads scipy."""

import ast
import importlib.util
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


def private_definitions(path):
    """(line, name) of every private function, class or constant defined at
    the module's top level; dunder names are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def referenced_names(paths):
    """Every name the modules read, and every attribute they access."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def unreferenced_private_definitions(paths):
    """(path, line, name) of every module-level private definition in paths
    that no module in paths references, by name or as an attribute."""
    used = referenced_names(paths)
    return [(path, line, name) for path in paths
            for line, name in private_definitions(path) if name not in used]


def test_no_unreferenced_private_definitions():
    files = sorted((ROOT / "src" / "cvdisc").glob("*.py"))
    assert sum(len(private_definitions(p)) for p in files) >= 30
    found = [f"{p.relative_to(ROOT)}:{line}: {name}"
             for p, line, name in unreferenced_private_definitions(files)]
    assert not found, "private definitions nothing references:\n" + "\n".join(found)


def test_detects_an_unreferenced_private_definition(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("import math\n__all__ = ['solve']\n_LEVEL = 1e-9\n_SPARE: float = 2.0\n"
                      "class _Record:\n    pass\n"
                      "def _branch_q(theta):\n    return math.cos(theta)\n"
                      "def _any_beyond_6_sigma(z):\n    return (abs(z) > 6).any()\n"
                      "def _rule(z):\n    return z > _LEVEL\n"
                      "def solve(x):\n    return _rule(x) and sample._Record\n")
    assert unreferenced_private_definitions([module]) == [
        (module, 4, "_SPARE"), (module, 7, "_branch_q"), (module, 9, "_any_beyond_6_sigma")]


def unused_parameters(path):
    """(line, function, name) of every parameter of a function or lambda in
    the module that its body never reads; self and cls are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {name.id for stmt in body for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        found += [(node.lineno, getattr(node, "name", "<lambda>"), param) for param in params
                  if param not in read and param not in ("self", "cls")]
    return sorted(found)


def test_no_unused_parameters():
    files = sorted((ROOT / "src" / "cvdisc").glob("*.py"))
    assert files
    found = [f"{p.relative_to(ROOT)}:{line}: {function}({name})"
             for p in files for line, function, name in unused_parameters(p)]
    assert not found, "parameters never read:\n" + "\n".join(found)


def test_detects_an_unused_parameter(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("class A:\n"
                      "    def method(self, used, unused):\n        return used\n"
                      "    @classmethod\n    def build(cls, *args, **kwargs):\n"
                      "        return cls(*args)\n"
                      "def check(ws, norm_defect):\n    ws.check()\n"
                      "def outer(x, y):\n    def inner():\n        return x\n    y = 1\n"
                      "    return inner\n"
                      "key = lambda item, spare: item\n")
    assert unused_parameters(module) == [(2, "method", "unused"), (5, "build", "kwargs"),
                                         (7, "check", "norm_defect"), (9, "outer", "y"),
                                         (14, "<lambda>", "spare")]


def export_gaps(init_path, exported):
    """Names in exported (the package's __all__) that its __init__ file does
    not import, and names it imports that exported leaves out, sorted."""
    tree = ast.parse(init_path.read_text(encoding="utf-8"), filename=str(init_path))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return sorted(set(exported) ^ imported)


def test_all_is_what_the_package_imports():
    import cvdisc
    assert len(set(cvdisc.__all__)) == len(cvdisc.__all__)
    assert export_gaps(ROOT / "src" / "cvdisc" / "__init__.py", cvdisc.__all__) == []


def test_detects_a_stale_export(tmp_path):
    init = tmp_path / "__init__.py"
    init.write_text("from math import e, pi\n__all__ = ['pi', 'deleted_name']\n")
    spec = importlib.util.spec_from_file_location("sample", init)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert export_gaps(init, module.__all__) == ["deleted_name", "e"]


# The one private helper shared across modules: it marks arrays read-only.
SHARED_PRIVATE = {"_frozen"}


def private_imports(path):
    """(line, name) of every private name (one with a leading underscore)
    that the module imports from its own package, other than
    SHARED_PRIVATE."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted((node.lineno, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level > 0 or (node.module or "").split(".")[0] == "cvdisc")
                  for alias in node.names
                  if alias.name.startswith("_") and alias.name not in SHARED_PRIVATE)


def test_no_private_imports_across_modules():
    files = sorted((ROOT / "src" / "cvdisc").glob("*.py"))
    assert files
    found = [f"{p.relative_to(ROOT)}:{line}: {name}"
             for p in files for line, name in private_imports(p)]
    assert not found, "private names imported from a sibling module:\n" + "\n".join(found)


def test_detects_a_private_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("from .ensemble import _frozen, _fold, coefficients\n"
                      "from cvdisc.discrim import _med\nfrom os.path import _joinrealpath\n"
                      "from . import _private\n")
    assert private_imports(module) == [(1, "_fold"), (2, "_med"), (4, "_private")]


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


# The Gram route checks the kernel, so it may read only these of cvdisc's
# names: the input record, the output record and the read-only marker.
GRAM_ROUTE_ALLOWED = {"EnsembleSpec", "DiscriminationReport", "_frozen"}


def kernel_names(path, functions=("gram", "gram_probabilities")):
    """(line, name) of every name imported from a cvdisc module, other than
    GRAM_ROUTE_ALLOWED, that the bodies of functions reference."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom)
                and (node.level > 0 or (node.module or "").split(".")[0] == "cvdisc")
                for alias in node.names} - GRAM_ROUTE_ALLOWED
    return sorted((node.lineno, node.id) for function in tree.body
                  if isinstance(function, ast.FunctionDef) and function.name in functions
                  for node in ast.walk(function)
                  if isinstance(node, ast.Name) and node.id in imported)


def test_gram_route_reads_nothing_from_the_kernel():
    assert kernel_names(ROOT / "src" / "cvdisc" / "oracle.py") == []


def test_detects_a_kernel_name_in_the_gram_route(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("from .ensemble import EnsembleSpec, _frozen, coefficients\n"
                      "from . import discrim\n"
                      "def gram(spec):\n    return _frozen(coefficients(spec).c)\n"
                      "def gram_probabilities(spec: EnsembleSpec):\n"
                      "    return discrim.ir_report(spec)\n")
    assert kernel_names(module) == [(4, "coefficients"), (6, "discrim")]


# The Fock rows are the Poisson ladder: basis_amplitudes may call none of
# the kernel's coefficient routines. The workspace forms the failure states
# as the Kraus image of the inputs: build_workspace reads neither the
# kernel's failure profile nor its spectrum.
KERNEL_ROUTINES = {"coefficients", "coefficient_grid", "_fold", "_fold_runs", "_classify"}
FAILURE_PROFILE_FIELDS = {"b", "spectrum"}


def references(path, function, names):
    """(line, name) of every name in names that the body of the module's
    top-level function references, as a variable or as an attribute, or
    that the body of a top-level private function of the module it calls
    does, transitively."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found, todo, seen = [], [function], set()
    while todo:
        node = functions.get(todo.pop())
        if node is None or node.name in seen:
            continue
        seen.add(node.name)
        for sub in ast.walk(node):
            name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
            if name in names:
                found.append((sub.lineno, name))
            if isinstance(sub, ast.Call) and getattr(sub.func, "id", "").startswith("_"):
                todo.append(sub.func.id)
    return sorted(found)


def test_fock_rows_read_nothing_from_the_kernel():
    assert references(ROOT / "src" / "cvdisc" / "ensemble.py", "basis_amplitudes",
                      KERNEL_ROUTINES) == []


def test_workspace_reads_no_failure_profile():
    assert references(ROOT / "src" / "cvdisc" / "oracle.py", "build_workspace",
                      FAILURE_PROFILE_FIELDS) == []


def test_detects_kernel_reads_in_the_fock_rows_and_the_workspace(tmp_path):
    module = tmp_path / "sample.py"
    # Reads hidden in private helpers count, through any depth of calls.
    module.write_text("def basis_amplitudes(spec, tail_eps):\n"
                      "    c = coefficients(spec).c\n"
                      "    return ensemble._fold(spec.alpha_sq, 3, 0) / c + _ladder(spec)\n"
                      "def _ladder(spec):\n"
                      "    return _ladder(spec) if spec else _steps(spec.alpha_sq)\n"
                      "def _steps(a2):\n"
                      "    return _fold(a2, 3, 0)\n"
                      "def build_workspace(spec):\n"
                      "    profile = coefficients(spec)\n"
                      "    return profile.b, profile.spectrum, _measurement(spec)\n"
                      "def _measurement(spec):\n"
                      "    return coefficients(spec).b\n"
                      "def gram(spec):\n    return coefficients(spec).b\n")
    assert references(module, "basis_amplitudes", KERNEL_ROUTINES) == [
        (2, "coefficients"), (3, "_fold"), (7, "_fold")]
    assert references(module, "build_workspace", FAILURE_PROFILE_FIELDS) == [
        (10, "b"), (10, "spectrum"), (12, "b")]
