"""Source hygiene: no private helper outlives its last caller, and no
module imports a name it never uses."""

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
    assert {("cohomology", "_pair_index"), ("cohomology", "_rank"),
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
