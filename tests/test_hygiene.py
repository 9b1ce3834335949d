"""Source hygiene checks that need no linter: stdlib ``ast`` only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "randhorizon"

# Imported but unread on purpose.  The benchmark's tracer self-test
# (bench/test_bench.py) checks that wrapping strategy.success_probability also
# rebinds the copy bound in solver; it goes when that test points at a used name.
ALLOWED_UNUSED = {("solver.py", "success_probability")}

# Public top-level definitions that neither ``__init__`` exports nor package code reads.
ALLOWED_UNREAD: set[tuple[str, str]] = set()


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


def _public_definitions(tree: ast.Module) -> set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _reads(tree: ast.Module, modules: set[str]) -> set[str]:
    """Names loaded in a module, plus ``module.name`` attributes of package modules."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            read.add(node.attr)
    return read


def test_every_public_definition_is_exported_or_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    init = trees.pop("__init__.py")
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    modules = {name.removesuffix(".py") for name in trees}
    read = set().union(*(_reads(tree, modules) for tree in trees.values()))
    unread = {
        (name, definition)
        for name, tree in trees.items()
        for definition in _public_definitions(tree) - exported - read
    }
    assert unread == ALLOWED_UNREAD


def _validation_messages(tree: ast.Module) -> list[str]:
    """Every string piece, f-string parts included, of the arguments of a ValidationError(...)."""
    return [
        piece.value
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", getattr(call.func, "attr", None)) == "ValidationError"
        for arg in call.args
        for piece in ast.walk(arg)
        if isinstance(piece, ast.Constant) and isinstance(piece.value, str)
    ]


def test_only_dist_words_the_integer_rule():
    # the floor and integer messages come from dist._check_int, so no module checks its own
    found = {
        (path.name, message)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "dist.py"
        for message in _validation_messages(ast.parse(path.read_text(encoding="utf-8")))
        if "must be >= " in message or "must be an integer" in message
    }
    assert found == set()
    dist_messages = _validation_messages(ast.parse((SRC / "dist.py").read_text(encoding="utf-8")))
    assert any("must be >= " in m for m in dist_messages)
    assert any("must be an integer" in m for m in dist_messages)


def _blas_products(tree: ast.Module) -> set[tuple[int, str]]:
    """(line, name) of every ``@`` and every call named dot, matmul or inner (np.dot, x.dot, ...)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.add((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in {"dot", "matmul", "inner"}:
                found.add((node.lineno, name))
    return found


def test_the_package_takes_no_blas_products():
    # a BLAS product rounds each row by how the rows were split into calls and threads,
    # so the values would depend on the chunk sizes and on BLAS threading
    found = {
        (path.name, *product)
        for path in sorted(SRC.glob("*.py"))
        for product in _blas_products(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == set()
    probe = "a @ b\nc @= d\nnp.dot(a, b)\nx.dot(b)\nnp.matmul(a, b)\ninner(a, b)"
    assert _blas_products(ast.parse(probe)) == {
        (1, "@"), (2, "@"), (3, "dot"), (4, "dot"), (5, "matmul"), (6, "inner")}
