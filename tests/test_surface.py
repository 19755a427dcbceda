"""The package's API surface: no function takes a parameter its body never reads.

A parameter that nothing reads is surface a caller can set to no effect, so
every ``def`` and ``lambda`` in ``src/rvqsynth`` (methods' ``self`` and ``cls``
too) must read each of its parameters somewhere in its body, nested functions
included. ``ALLOWED`` names the parameters that a caller's signature fixes; a
parameter named ``_`` says so itself, as in the ``lambda cfg, _:`` builders.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rvqsynth"

# (function, parameter): ``fit`` calls ``end_epoch(epoch)``
ALLOWED = {("reseed_dead_codes", "epoch")}


def parameters(node):
    args = node.args
    named = args.posonlyargs + args.args + args.kwonlyargs
    return [a.arg for a in named + [a for a in (args.vararg, args.kwarg) if a]]


def unread_parameters(tree):
    """(function, parameter) of each parameter that its function or lambda
    never loads, other than ``_``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = [node.body] if isinstance(node, ast.Lambda) else node.body
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            yield from ((name, p) for p in parameters(node) if p not in read | {"_"})


def package_trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def test_every_parameter_is_read():
    unread = [(name, *pair) for name, tree in package_trees().items()
              for pair in unread_parameters(tree) if pair not in ALLOWED]
    assert unread == []


def test_the_allowlist_names_parameters_that_exist_unread():
    found = {pair for tree in package_trees().values() for pair in unread_parameters(tree)}
    assert ALLOWED <= found


def test_the_scan_finds_unread_parameters():
    source = ("def f(a, b, *args, c=1, **kw):\n"
              "    b = a\n"
              "    def g(d):\n"
              "        return c + d\n"
              "    h = lambda d, d2, _: d2\n"
              "    return g, h\n")
    assert sorted(unread_parameters(ast.parse(source))) == [
        ("<lambda>", "d"), ("f", "args"), ("f", "b"), ("f", "kw")]
