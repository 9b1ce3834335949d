"""Source hygiene checks that need no linter: stdlib ``ast`` only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "randhorizon"

# Imported but unread on purpose.  The benchmark's tracer self-test
# (bench/test_bench.py) checks that wrapping strategy.success_probability also
# rebinds the copy bound in solver; it goes when that test points at a used name.
ALLOWED_UNUSED = {("solver.py", "success_probability")}


def _unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


def test_no_unused_module_imports():
    found = {
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        # the package's imports are its public names
        if path.name != "__init__.py"
        for name in _unused_imports(path)
    }
    assert found == ALLOWED_UNUSED
