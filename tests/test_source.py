"""Checks on the library's source text."""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fouriercat"


def unread_parameters(tree):
    """(function, parameter) for each parameter its function's body never reads.

    A read in a nested function or lambda counts as a read of the enclosing
    function's parameter of that name.
    """
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        found += [(name, p.arg) for p in params if p.arg not in read]
    return found


def test_every_parameter_is_read():
    unread = {
        path.name: unread_parameters(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: found for name, found in unread.items() if found} == {}


def test_unread_parameter_is_found():
    tree = ast.parse(
        "def f(a, b, *args, c=1, **kw):\n"
        "    def g(x):\n"
        "        return b\n"
        "    return lambda y: a + len(args) + kw['k']\n"
    )
    assert unread_parameters(tree) == [("f", "c"), ("g", "x"), ("<lambda>", "y")]


def definitions(tree):
    """(name, node) for each top-level function, class and constant, and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from ((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        yield item.name, item


def read_names(node):
    """How often each name is read under ``node``: loaded names, attributes, imports."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names[n.attr] += 1
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in n.names for part in alias.name.split("."))
    return names


def fields(tree):
    """(class.field, field) for each field of a top-level dataclass or NamedTuple."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        marks = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        marks = {getattr(n, "id", getattr(n, "attr", None)) for n in marks + node.bases}
        if marks & {"dataclass", "NamedTuple"}:
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id


def attribute_reads(node):
    """How often each attribute is loaded (``obj.name``) under ``node``."""
    return Counter(
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


def orphan_names(modules, readers):
    """Names defined in ``modules`` (trees) that no tree in ``readers`` reads.

    Reads inside a name's own definition, such as a recursive call, do not
    count; dunder names are exempt.  A dataclass or NamedTuple field, listed
    as ``Class.field``, counts as read only through an attribute load, since
    a bare name such as a local ``n`` is not a read of a field ``n``.
    """
    read, attrs = Counter(), Counter()
    for tree in readers:
        read.update(read_names(tree))
        attrs.update(attribute_reads(tree))
    names = [
        name
        for tree in modules
        for name, node in definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and read[name] <= read_names(node)[name]
    ]
    names += [label for tree in modules for label, field in fields(tree) if not attrs[field]]
    return sorted(names)


def test_every_definition_is_read():
    folders = (SRC, SRC.parents[1] / "tests", SRC.parents[1] / "fcbench")
    trees = {
        folder: [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(folder.glob("*.py"))]
        for folder in folders
    }
    assert orphan_names(trees[SRC], [tree for group in trees.values() for tree in group]) == []


def test_orphan_name_is_found():
    module = ast.parse(
        "LIMIT = 3\n"
        "USED = 4\n"
        "def walk(n):\n"
        "    return walk(n - 1) if n else USED\n"
        "def main():\n"
        "    return Box().shown + Box()._hidden() + norm(Point(1.0, 2), 3)\n"
        "class Box:\n"
        "    def __init__(self): pass\n"
        "    def shown(self): pass\n"
        "    def unseen(self): pass\n"
        "    def _hidden(self): pass\n"
        "@dataclass(frozen=True)\n"
        "class Point:\n"
        "    x: float\n"
        "    n: int\n"
        "    origin = 0\n"
        "class Pair(NamedTuple):\n"
        "    left: int\n"
        "    right: int\n"
        "def norm(p, n):\n"
        "    return p.x + n + Pair(1, 2).left\n"
    )
    reader = ast.parse("from mod import main\n")
    assert orphan_names([module], [module, reader]) == [
        "LIMIT", "Pair.right", "Point.n", "unseen", "walk"
    ]


def memoized_builders(tree):
    """Names of the top-level functions that ``tree`` decorates with ``@memoized(...)``."""
    return [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(d, ast.Call) and getattr(d.func, "id", None) == "memoized"
            for d in node.decorator_list
        )
    ]


COUNTS = {"Eight": 8, "Nine": 9, "Ten": 10, "Eleven": 11, "Twelve": 12}


def test_memoized_docstring_names_every_memoized_builder():
    # the rule for keeping a memo, stated in groups.memoized, lists the
    # builders that meet it; each must be decorated, and no other
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]
    decorated = [name for tree in trees for name in memoized_builders(tree)]
    groups = ast.parse((SRC / "groups.py").read_text(encoding="utf-8"))
    memo = next(n for n in groups.body if isinstance(n, ast.FunctionDef) and n.name == "memoized")
    listing = " ".join(ast.get_docstring(memo).split("\n\n")[1].split())
    count, names = re.search(r"(\w+) builders qualify .*?\): (.*)", listing).groups()
    named = [ref.split(".")[-1] for ref in re.findall(r"``([\w.]+)``", names)]
    assert sorted(named) == sorted(decorated)
    assert COUNTS[count] == len(decorated)


def unread_sibling_imports(tree):
    """Names a module imports from a sibling module (``from .x import ...``) and never reads."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if (alias.asname or alias.name) not in read
    ]


def test_every_sibling_import_is_read():
    # a name imported and never read is a leftover, or a relay for another module;
    # the package's __init__ is exempt, as it imports only to export
    unread = {
        path.name: unread_sibling_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: found for name, found in unread.items() if found} == {}


def test_unread_sibling_import_is_found():
    tree = ast.parse(
        "import numpy as np\n"
        "from . import fock, gates\n"
        "from .fock import LIMIT, normalize as norm, overlap\n"
        "def f(t):\n"
        "    return norm(fock.floor(t)) + np.pi\n"
    )
    assert unread_sibling_imports(tree) == ["gates", "LIMIT", "overlap"]
