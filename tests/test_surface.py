"""The package's API surface: no function takes a parameter its body never
reads, and no function, class or method serves the tests alone, or nothing.

A parameter that nothing reads is surface a caller can set to no effect, so
every ``def`` and ``lambda`` in ``src/rvqsynth`` (methods' ``self`` and ``cls``
too) must read each of its parameters somewhere in its body, nested functions
included. ``ALLOWED`` names the parameters that a caller's signature fixes; a
parameter named ``_`` says so itself, as in the ``lambda cfg, _:`` builders.

A module-level function or class, and a method of such a class, public or
private (dunders aside), must be named in ``src/rvqsynth`` or in the
benchmark's modules (``perfbench/*.py``, whose span table names methods in
strings) somewhere outside its own definition: a helper only the tests call,
or that nothing calls, is deleted, not kept. A word in another
definition's docstring counts, as the ``nn`` module docstring names the
layers' ``spec``, which criterion 1 reads. ``UNNAMED_ALLOWED`` holds the
acceptance gate's helpers, which only the tests call by design.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rvqsynth"

# (function, parameter): ``fit`` calls ``end_epoch(epoch)``
ALLOWED = {("reseed_dead_codes", "epoch")}
# the acceptance criteria's gradient check, reconstruction curve, scoring and
# sync shift test
UNNAMED_ALLOWED = {"finite_difference_grad", "reconstruction_mse", "sequence_log_prob",
                   "shift_detection_rate"}


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


def dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(name, node) of each function and class of a module, and of each method
    of its classes, other than dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not dunder(node.name):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((sub.name, sub) for sub in node.body
                            if isinstance(sub, ast.FunctionDef) and not dunder(sub.name))


def names(tree) -> Counter:
    """How often each identifier is named under ``tree``: as a name, an
    attribute, an import or a word of a string (docstrings included)."""
    found = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name.rpartition(".")[2]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found.update(re.findall(r"\w+", n.value))
    return found


def unnamed_definitions(defining: dict, others=()) -> list:
    """Definitions of the ``defining`` trees (file name -> tree) that no tree
    there or in ``others`` names outside the definition itself."""
    named = sum((names(t) for t in (*defining.values(), *others)), Counter())
    return [f"{file}:{name}" for file, tree in defining.items()
            for name, node in definitions(tree) if named[name] <= names(node)[name]]


def package_unnamed():
    benchmark = [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    return unnamed_definitions(package_trees(), benchmark)


def test_every_definition_is_named_outside_the_tests():
    assert [u for u in package_unnamed() if u.partition(":")[2] not in UNNAMED_ALLOWED] == []


def test_the_unnamed_allowlist_names_definitions_that_exist_unnamed():
    assert UNNAMED_ALLOWED <= {u.partition(":")[2] for u in package_unnamed()}


def test_the_scan_finds_unnamed_definitions():
    source = ("def used():\n"
              "    \"Calls ``used`` only within itself.\"\n"
              "    return used()\n"
              "def caller():\n"
              "    return used, _helper\n"
              "class Box:\n"
              "    def __init__(self):\n"
              "        self.n = self._count()\n"
              "    def open(self):\n"
              "        return self.shut()\n"
              "    def shut(self):\n"
              "        return 0\n"
              "    def _count(self):\n"
              "        return 0\n"
              "    def _hidden(self):\n"
              "        return 0\n"
              "def _private():\n"
              "    \"A dead helper: only ``_private`` names itself.\"\n"
              "    return _private\n"
              "def _helper():\n"
              "    return 0\n")
    other = ast.parse("SPANS = [('box', 'Box.open')]\n")
    module = {"m.py": ast.parse(source)}
    assert unnamed_definitions(module) == [
        "m.py:caller", "m.py:Box", "m.py:open", "m.py:_hidden", "m.py:_private"]
    assert unnamed_definitions(module, [other]) == ["m.py:caller", "m.py:_hidden", "m.py:_private"]
