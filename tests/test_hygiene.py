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


def _boundary_calls(tree: ast.Module) -> set[tuple[int, str]]:
    """(line, name) of every ``np.array``/``np.asarray`` call with a float dtype and ``object.__new__``."""
    found = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner, name = getattr(node.func.value, "id", None), node.func.attr
        if (owner, name) == ("object", "__new__"):
            found.add((node.lineno, "object.__new__"))
        elif owner in {"np", "numpy"} and name in {"array", "asarray"}:
            dtypes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "dtype"]
            spelled = {getattr(d, "id", getattr(d, "attr", getattr(d, "value", None))) for d in dtypes}
            if spelled & {"float", "float64"}:
                found.add((node.lineno, f"np.{name}"))
    return found


def test_only_dist_turns_a_vector_into_a_library_value():
    # dist._floats is the one float conversion of a caller's vector, and dist._distribution the
    # one ending that holds a vector without the constructor's copy; a second one elsewhere would
    # fork the boundary's overflow and sum rules again
    found = {
        (path.name, *call)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "dist.py"
        for call in _boundary_calls(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == set()
    probe = ("np.array(v, dtype=float)\nnp.asarray(v, float)\nnumpy.asarray(v, dtype=np.float64)\n"
             "object.__new__(C)\nnp.array(v)\nnp.asarray(v, dtype=np.int64)\nnp.zeros(3, dtype=float)")
    assert _boundary_calls(ast.parse(probe)) == {
        (1, "np.array"), (2, "np.asarray"), (3, "np.asarray"), (4, "object.__new__")}


def test_no_numpy_copy_keyword_whose_meaning_changed_in_numpy_2():
    # pyproject allows numpy >= 1.24: there np.array(copy=None) is refused and copy=False copies
    # when it must, while 2.x raises instead; "no copy" is spelled np.asarray on every version
    found = {
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in {"array", "asarray"}
        and getattr(node.func.value, "id", None) in {"np", "numpy"}
        and any(k.arg == "copy" for k in node.keywords)
    }
    assert found == set()
