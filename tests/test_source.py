"""Source hygiene: no private helper outlives its last caller, no module
imports a name it never uses, only exact names the dense Matrix, nothing
is left open for the hard exit of cli.run to drop, the parser's table
names every subcommand handler, and a structure table stores one form."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "supergrade"


def _unreferenced(sources: dict) -> tuple[list, list]:
    """(dead, private): private lists (module, name) of every top-level
    function or class named _x, dead those that no code of the package
    refers to.  A reference is a bare name in the defining module, a name
    imported from it (from .m import _x) or an attribute of an imported
    sibling module (from . import m; m._x).  A reference inside the helper's
    own definition (recursion) does not count, nor does an attribute of any
    other object (obj._x)."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    used = set()
    for mod, tree in trees.items():
        siblings = {}  # local name -> sibling module, from "from . import m"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        siblings[alias.asname or alias.name] = alias.name
                    else:
                        used.add((node.module, alias.name))
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    ref = (mod, node.id)
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in siblings):
                    ref = (siblings[node.value.id], node.attr)
                else:
                    continue
                if ref != (mod, own):
                    used.add(ref)
    private = [(mod, node.name) for mod, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")]
    return [p for p in private if p not in used], private


def test_every_private_helper_is_referenced():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    dead, private = _unreferenced(sources)
    # the scan sees helpers that are used from their own module and from a
    # sibling module
    assert {("cohomology", "_pair_index"), ("cohomology", "_rref"),
            ("superalg", "_sparse_product")} <= set(private)
    assert dead == []


def test_guard_ignores_self_and_foreign_attribute_references():
    sources = {
        "a": "def _dead(n):\n    return _dead(n - 1) if n else obj._dead\n"
             "def _used():\n    pass\n"
             "def _by_attr():\n    pass\n"
             "def _by_import():\n    pass\n",
        "b": "from . import a as alias\nfrom .a import _by_import\n"
             "def f():\n    a._dead\n    alias._by_attr\n    _by_import()\n"
             "def g():\n    _used()\n",
    }
    dead, _ = _unreferenced(sources)
    # b's _used() is not a's _used, and the bare name a is not the module
    assert dead == [("a", "_dead"), ("a", "_used")]


def _unused_imports(text: str) -> list:
    """Names a module imports (at any depth) and never reads, as a Name or
    as the base of an attribute (m.x); names listed in __all__ are
    exported, not unused."""
    imported, used, exported = [], set(), set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {e.value for e in node.value.elts}
    return [name for name in imported if name not in used | exported]


def test_no_module_imports_a_name_it_never_uses():
    unused = {p.stem: _unused_imports(p.read_text(encoding="utf-8"))
              for p in sorted(SRC.glob("*.py"))}
    assert {m: names for m, names in unused.items() if names} == {}


def test_import_guard_counts_names_attribute_bases_and_exports():
    text = ("from __future__ import annotations\n"
            "import os.path\nimport json as js\nfrom . import a, b\n"
            "from .c import d, e as f, g\n__all__ = ['g']\n"
            "def h():\n    from .k import m\n    return os.path.join(a.x, d)\n")
    # b, f and m are never read; js.x would count, but x.js and a bare
    # "js" string do not
    assert _unused_imports(text + "y = x.js, 'js'\n") == ["js", "b", "f", "m"]


def _names(text: str, name: str) -> bool:
    """Whether code (not a string) names name: as a bare name, an
    attribute, an imported name or a definition."""
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.alias):
            found = name in (node.name, node.asname)
        else:
            found = name in (getattr(node, "id", None), getattr(node, "attr", None),
                             getattr(node, "name", None))
        if found:
            return True
    return False


def test_only_exact_names_the_dense_matrix():
    # every linear map the package applies is a list of sparse columns
    named = [p.stem for p in sorted(SRC.glob("*.py"))
             if _names(p.read_text(encoding="utf-8"), "Matrix")]
    assert named == ["exact"]
    assert not _names('"""a Matrix in a docstring"""\nm = {"Matrix": 1}\n', "Matrix")
    for code in ("from .exact import Matrix\n", "exact.Matrix(x)\n", "Matrix.from_cols(c)\n"):
        assert _names(code, "Matrix"), code


def _hard_exit_callers(sources: dict) -> list:
    """(module, top-level definition) of every reference to os._exit."""
    found = []
    for mod, text in sources.items():
        for stmt in ast.parse(text).body:
            for node in ast.walk(stmt):
                if getattr(node, "attr", None) == "_exit" or getattr(node, "name", None) == "_exit":
                    found.append((mod, getattr(stmt, "name", None)))
    return found


def _writes_outside_with(text: str) -> list:
    """Line numbers of open(...) and x.open(...) calls that may write (a
    mode with w, a, x or +, or a mode that is not a literal) and are not
    the context expression of a with statement.  The mode is the second
    positional argument of open, the first of x.open (Path.open), or the
    mode keyword."""
    tree = ast.parse(text)
    in_with = {id(item.context_expr) for node in ast.walk(tree)
               if isinstance(node, ast.With) for item in node.items}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if getattr(node.func, "id", None) == "open":
            modes = node.args[1:2]
        elif getattr(node.func, "attr", None) == "open":
            modes = node.args[:1]
        else:
            continue
        modes += [k.value for k in node.keywords if k.arg == "mode"]
        if id(node) not in in_with and any(
                not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                for m in modes):
            lines.append(node.lineno)
    return lines


def test_hard_exit_leaves_nothing_open():
    # cli.run ends the process with os._exit, which closes no file object
    # and runs no atexit handler: only run may call it, and every file the
    # package writes is closed by a with block before run returns
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert _hard_exit_callers(sources) == [("cli", "run")]
    assert {m: lines for m, text in sources.items() if (lines := _writes_outside_with(text))} == {}
    for name in ("atexit", "threading", "_thread", "multiprocessing"):
        assert not any(_names(text, name) for text in sources.values()), name


def test_hard_exit_guards_see_their_cases():
    assert _hard_exit_callers({"a": "import os\ndef f():\n    os._exit(0)\n",
                               "b": "from os import _exit\n"}) == [("a", "f"), ("b", None)]
    text = ("with open(p, 'w') as fh:\n    pass\n"
            "with open(p) as fh, open(q, mode='a') as gh:\n    pass\n"
            "fh = open(p)\n"
            "fh = open(p, 'r+b')\n"
            "fh = open(p, mode='w')\n"
            "fh = path.open(m)\n"
            "fh = path.open(encoding='utf-8')\n")
    assert _writes_outside_with(text) == [6, 7, 8]


def _command_handlers(text: str) -> tuple[list, list]:
    """(handlers, defined): the handler named by each entry of the
    subcommand table (the dict literal bound to `commands` in
    _build_parser), and every top-level function named _run_*."""
    tree = ast.parse(text)
    build = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_build_parser")
    table = next(node.value for node in ast.walk(build) if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["commands"])
    handlers = [spec.elts[1].id for spec in table.values]
    defined = [node.name for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_run_")]
    return handlers, defined


def test_subcommand_table_names_every_handler():
    # a _run_* handler left out of the table would be a command no argv reaches
    handlers, defined = _command_handlers((SRC / "cli.py").read_text(encoding="utf-8"))
    assert len(handlers) == len(set(handlers)) == 13
    assert sorted(handlers) == sorted(defined)


def test_handler_guard_sees_a_missing_entry():
    text = ("def _run_a(args, out):\n    pass\n"
            "def _run_b(args, out):\n    pass\n"
            "def _build_parser(argv=()):\n"
            "    commands = {'a': ('help', _run_a, [])}\n")
    assert _command_handlers(text) == (["_run_a"], ["_run_a", "_run_b"])


def _attribute_reads(text: str, attr: str) -> list:
    """Line numbers of every x.attr in code (not a definition named attr, a
    bare name attr or a string)."""
    return [node.lineno for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute) and node.attr == attr]


def _slots(text: str, cls: str) -> list:
    """The names in the __slots__ tuple of a top-level class."""
    node = next(n for n in ast.parse(text).body if isinstance(n, ast.ClassDef) and n.name == cls)
    slots = next(s.value for s in node.body if isinstance(s, ast.Assign)
                 and [getattr(t, "id", None) for t in s.targets] == ["__slots__"])
    return [e.value for e in slots.elts]


def test_a_table_stores_one_form():
    # a StructureTable stores its integer rows (s, L) alone; the Fraction
    # entries are a view derived on every read, for tests and library
    # callers, so no module of the package reads them
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert {m: lines for m, text in sources.items()
            if (lines := _attribute_reads(text, "entries"))} == {}
    assert not any(_names(text, "integer_entries") for text in sources.values())
    assert set(_slots(sources["superalg"], "StructureTable")) - {"space", "kind", "unit"} == {
        "_form"}


def test_table_form_guards_see_their_cases():
    text = ("class T:\n    __slots__ = ('a', '_b')\n"
            "    @property\n    def entries(self):\n        return self._b\n"
            "entries = {'entries': 1}\n"
            "x = t.entries\n"
            "for k in table.entries.items():\n    pass\n")
    assert _attribute_reads(text, "entries") == [7, 8]
    assert _slots(text, "T") == ["a", "_b"]
