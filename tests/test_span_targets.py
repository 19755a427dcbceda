"""The benchmark's span table against the package.

``perfbench/spans.py`` wraps each ``TRACED`` target of ``rvqsynth``: a
``Class.method`` through the class ``__dict__``, a function by its module
attribute. A target that is renamed, moved or inherited instead of defined on
its class makes a traced benchmark run fail, so every one must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    spans = load_spans()
    assert spans.TRACED
    for name, module_name, attr in spans.TRACED:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            target = vars(getattr(module, cls_name)).get(meth)
        else:
            target = getattr(module, attr, None)
        assert callable(target), (name, attr)


def test_spans_install_and_restore():
    spans = load_spans()
    originals = {}
    for _, module_name, attr in spans.TRACED:
        owner = importlib.import_module(module_name)
        *cls, meth = attr.split(".")
        owner = getattr(owner, cls[0]) if cls else owner
        originals[(owner, meth)] = vars(owner)[meth]
    with spans.installed(spans.Tracer()):
        for (owner, meth), original in originals.items():
            assert vars(owner)[meth] is not original
    for (owner, meth), original in originals.items():
        assert vars(owner)[meth] is original
