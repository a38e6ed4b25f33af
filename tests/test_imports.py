"""Every name a source module imports is used there."""

import ast
from pathlib import Path

import newtonzeta

# engine imports hull without calling it: the benchmark's tracer test,
# test_tracer_wraps_every_namespace_and_restores, checks that engine.hull
# is wrapped (ROADMAP item 6 moves that check)
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
