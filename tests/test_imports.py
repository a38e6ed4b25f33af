"""Every name a source module imports is used there, and every private
name a source module defines is used somewhere in the package."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import newtonzeta

# engine imports hull without calling it: the benchmark's tracer test,
# test_tracer_wraps_every_namespace_and_restores, checks that engine.hull
# is wrapped (ROADMAP item 2 moves that check)
_EXEMPT = {("engine", "hull")}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # a name listed in __all__ is re-exported
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return [name for name in imported if name not in used]


def test_source_modules_use_every_import():
    for path in sorted(Path(newtonzeta.__file__).parent.glob("*.py")):
        unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        unused = [name for name in unused if (path.stem, name) not in _EXEMPT]
        assert not unused, f"{path.name} imports {unused} without using them"


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level private functions, classes and constants."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names
            if name.startswith("_") and not name.startswith("__")]


def test_source_modules_use_every_private_definition():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(newtonzeta.__file__).parent.glob("*.py"))}
    # a definition is not a load, so these are the references alone
    loaded = {node.id if isinstance(node, ast.Name) else node.attr
              for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute))
              and isinstance(node.ctx, ast.Load)}
    for name, tree in trees.items():
        unused = [d for d in _private_definitions(tree) if d not in loaded]
        assert not unused, f"{name} defines {unused} and nothing uses them"


def test_benchmark_tracer_targets_resolve():
    # the benchmark wraps these names; load its tracer by path (it imports
    # only the standard library) so a renamed or deleted target fails here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    frame_module, frame_name = tracer.FRAME.split(".")
    targets = [*tracer.TARGETS.values(), (f"newtonzeta.{frame_module}", frame_name)]
    assert ("newtonzeta.lattice", "LatticeFrame") in targets
    for module, name in targets:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_cli_start_up_imports_neither_dataclasses_nor_inspect():
    # every CLI job is a fresh process: dataclasses, and the inspect, ast,
    # dis and tokenize it pulls in, would cost more than a small job does
    src = Path(newtonzeta.__file__).resolve().parents[1]
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import newtonzeta, newtonzeta.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(src)],
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]", out.stdout
