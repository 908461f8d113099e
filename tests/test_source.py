"""Checks on the library's source text."""

import ast
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
