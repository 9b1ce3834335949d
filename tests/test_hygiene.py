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


def _inverse_cdf_reads(tree: ast.Module) -> set[int]:
    """Lines that read ``_inverse_cdf``, as an attribute or as a string (getattr)."""
    return {
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "_inverse_cdf")
        or (isinstance(node, ast.Constant) and node.value == "_inverse_cdf")
    }


def test_only_dist_reads_the_inverse_cdf():
    # dist._horizons and dist._horizon_edges hold the inverse-CDF rule and its last_positive
    # clamp; a module reading the cdf itself would keep a second copy of that clamp
    found = {
        (path.name, line)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "dist.py"
        for line in _inverse_cdf_reads(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == set()
    probe = ("cdf, top = p._inverse_cdf\nedges = np.append(cdf[:top], np.inf)\n"
             "cdf = getattr(p, '_inverse_cdf')[0]\nedges = _horizon_edges(p, ends)")
    assert _inverse_cdf_reads(ast.parse(probe)) == {1, 3}


_FILE_READS = {"read_text", "read_bytes", "open"}
_WRITES = {"write_text", "write_bytes", "sys.stdout.write"}
_PATH_IO = {"read_text", "read_bytes", "write_text", "write_bytes"}  # methods of any object


def _io_calls(tree: ast.Module) -> set[tuple[str, int, str]]:
    """(top-level definition, line, name) of every call that reads a file or writes output.

    The reads are ``read_text``, ``read_bytes`` and the builtin ``open``; the
    writes are ``write_text``, ``write_bytes`` and ``sys.stdout.write``.  The
    definition is "" for a call at module level.
    """
    found = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else ""
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                found.add((owner, node.lineno, "open"))
            elif isinstance(func, ast.Attribute) and func.attr in _PATH_IO:
                found.add((owner, node.lineno, func.attr))
            elif (isinstance(func, ast.Attribute) and func.attr == "write"
                  and ast.unparse(func.value) == "sys.stdout"):
                found.add((owner, node.lineno, "sys.stdout.write"))
    return found


def test_one_reader_of_input_files_and_one_writer_of_output():
    # formats.load_json turns every failed read into a bad input file (exit 3), and cli._write
    # is where a failed write of --out, --summary or stdout becomes exit 5; a read or a write
    # elsewhere would have its own error rule again
    calls = {
        (path.name, owner, name)
        for path in sorted(SRC.glob("*.py"))
        for owner, _line, name in _io_calls(ast.parse(path.read_text(encoding="utf-8")))
    }
    found = {
        call for call in calls
        if not (call[0] == "formats.py" and call[2] in _FILE_READS)
        and not (call[:2] == ("cli.py", "_write") and call[2] in _WRITES)
    }
    assert found == set()
    assert ("formats.py", "load_json", "read_text") in calls
    assert {("cli.py", "_write", "write_text"), ("cli.py", "_write", "sys.stdout.write")} <= calls
    probe = ("x = open(p)\ndef f(p):\n    return p.read_text() + p.read_bytes()\n"
             "class C:\n    def g(self, p, t):\n        p.write_text(t)\n        p.write_bytes(t)\n"
             "        sys.stdout.write(t)\n        sys.stderr.write(t)\n        os.open(p, 0)\n")
    assert _io_calls(ast.parse(probe)) == {
        ("", 1, "open"), ("f", 3, "read_text"), ("f", 3, "read_bytes"),
        ("C", 6, "write_text"), ("C", 7, "write_bytes"), ("C", 8, "sys.stdout.write")}


def _one_field_dataclasses(tree: ast.Module) -> set[str]:
    """Public dataclasses of one field, whatever methods or properties they define."""
    found = set()
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        decorators = {ast.unparse(getattr(d, "func", d)) for d in node.decorator_list}
        fields = [n for n in node.body if isinstance(n, ast.AnnAssign)]
        if decorators & {"dataclass", "dataclasses.dataclass"} and len(fields) == 1:
            found.add(node.name)
    return found


def test_no_public_dataclass_only_wraps_one_field():
    # a one-field value is a vector its readers unpack at once, and a method on it is a function
    # of that vector; the check belongs in the function that reads the vector.
    # HorizonDistribution stays: it caches the inverse cdf of the law, and every reader needs .n
    found = {
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in _one_field_dataclasses(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {("dist.py", "HorizonDistribution")}
    probe = ("@dataclass(frozen=True)\nclass A:\n    x: int\n    def __post_init__(self): pass\n"
             "@dataclass\nclass B:\n    x: int\n    @property\n    def n(self): return 1\n"
             "    def extended(self, n): return n\n"
             "@dataclasses.dataclass\nclass C:\n    x: int\n    y: int\n"
             "class D:\n    x: int\n"
             "@dataclass\nclass _E:\n    x: int\n")
    assert _one_field_dataclasses(ast.parse(probe)) == {"A", "B"}


# Functions that NumPy 2.0 added; pyproject allows numpy >= 1.24, where they do not exist
NUMPY2_ONLY = {"cumulative_sum", "cumulative_prod", "astype", "unique_values", "concat"}


def _numpy2_names(tree: ast.Module) -> set[tuple[int, str]]:
    """(line, name) of every NumPy-2-only function read as ``np.X``, ``numpy.X`` or imported."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in NUMPY2_ONLY \
                and getattr(node.value, "id", None) in {"np", "numpy"}:
            found.add((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found |= {(node.lineno, a.name) for a in node.names if a.name in NUMPY2_ONLY}
    return found


def test_no_numpy_2_only_function():
    # the NumPy 1.24 CI job would fail on them at call time, and only on the lines a test reaches
    found = {
        (path.name, *name)
        for path in sorted(SRC.glob("*.py"))
        for name in _numpy2_names(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == set()
    probe = ("np.cumulative_sum(t, include_initial=True)\nnumpy.concat([a, b])\n"
             "from numpy import unique_values\nx.astype(float)\nnp.cumsum(t)\nnp.astype(x, float)")
    assert _numpy2_names(ast.parse(probe)) == {
        (1, "cumulative_sum"), (2, "concat"), (3, "unique_values"), (6, "astype")}


def _default_rng_reads(tree: ast.Module) -> set[tuple[str, int]]:
    """(top-level definition, line) of every ``default_rng`` read, as an attribute or a name."""
    return {
        (top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "", node.lineno)
        for top in tree.body
        for node in ast.walk(top)
        if (isinstance(node, ast.Attribute) and node.attr == "default_rng")
        or (isinstance(node, ast.Name) and node.id == "default_rng")
        or (isinstance(node, ast.alias) and node.name == "default_rng")
    }


def test_only_dist_rng_makes_a_generator():
    # dist._rng holds the seed rule (an integer >= 0 by dist._check_int, a SeedSequence or a
    # Generator); a default_rng call elsewhere would take -1, 2.5 or True by numpy's rules again
    found = {
        (path.name, owner)
        for path in sorted(SRC.glob("*.py"))
        for owner, _line in _default_rng_reads(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {("dist.py", "_rng")}
    probe = ("from numpy.random import default_rng\ndef f(s):\n    return np.random.default_rng(s)\n"
             "g = default_rng\n")
    assert _default_rng_reads(ast.parse(probe)) == {("", 1), ("f", 3), ("", 4)}
