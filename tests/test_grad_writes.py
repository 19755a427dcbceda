"""No module writes a gradient in place.

``Tensor._accumulate`` keeps the first gradient a node receives without a
copy, so that array may also be another node's gradient or a view of it. That
is only sound while every gradient update makes a new array; this test reads
the source of every module and refuses in-place writes to a ``.grad``.
"""

import ast
from pathlib import Path

import pytest

import rvqsynth

INPLACE_METHODS = {"fill", "itemset", "put", "resize", "sort", "partition",
                   "setfield", "__iadd__", "__isub__", "__imul__",
                   "__itruediv__"}


def names_grad(node) -> bool:
    """Whether ``node`` is ``<expr>.grad``, a subscript of it or a method
    call on it (``.reshape(...)`` may be a view)."""
    while isinstance(node, (ast.Subscript, ast.Attribute, ast.Starred, ast.Call)):
        if isinstance(node, ast.Attribute) and node.attr == "grad":
            return True
        node = node.func if isinstance(node, ast.Call) else node.value
    return False


def inplace_grad_writes(source: str) -> list:
    """Line numbers of statements that write into a ``.grad`` in place."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.AugAssign) and names_grad(node.target):
            found.append(node.lineno)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Subscript) and names_grad(t)
                for t in node.targets):
            found.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            outs = [k.value for k in node.keywords if k.arg == "out"]
            outs = [e for o in outs
                    for e in (o.elts if isinstance(o, ast.Tuple) else [o])]
            if any(names_grad(o) for o in outs):
                found.append(node.lineno)
            elif (isinstance(func, ast.Attribute) and func.attr in ("at", "copyto")
                  and node.args and names_grad(node.args[0])):
                found.append(node.lineno)
            elif (isinstance(func, ast.Attribute) and func.attr in INPLACE_METHODS
                  and names_grad(func.value)):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("line", [
    "p.grad += g",
    "self.grad -= g",
    "p.grad[0] = 1.0",
    "p.grad[..., :2] += g",
    "np.add.at(p.grad, idx, g)",
    "np.subtract.at(x.grad[1:], idx, g)",
    "np.multiply(a, b, out=p.grad)",
    "np.divmod(a, b, out=(q, p.grad))",
    "np.copyto(p.grad, g)",
    "p.grad.fill(0.0)",
    "p.grad.reshape(-1)[0] = 1.0",
])
def test_checker_finds_inplace_writes(line):
    assert inplace_grad_writes(line) == [1]


@pytest.mark.parametrize("line", [
    "p.grad = p.grad + g",
    "p.grad = None",
    "full[key] = g",
    "np.add.at(full, key, g)",
    "np.multiply(p.grad, 2.0, out=buf)",
    "g = p.grad.copy(); g[0] = 1.0",
])
def test_checker_allows_new_arrays(line):
    assert inplace_grad_writes(line) == []


def test_no_module_writes_a_gradient_in_place():
    modules = sorted(Path(rvqsynth.__file__).parent.glob("*.py"))
    assert modules
    found = {m.name: inplace_grad_writes(m.read_text()) for m in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}
