"""Span arithmetic and installation of the tracing wrappers."""

import numpy as np

import spans
from rvqsynth import sampling
from rvqsynth.tensor import Tensor


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    tr.enter("outer")          # t=0
    clock.now = 1.0
    tr.enter("mid")            # t=1
    clock.now = 2.0
    tr.enter("leaf")           # t=2
    clock.now = 5.0
    tr.exit()                  # leaf: 3
    clock.now = 6.0
    tr.exit()                  # mid: 5, self 2
    tr.enter("leaf")           # t=6
    clock.now = 7.5
    tr.exit()                  # leaf: 1.5
    clock.now = 10.0
    tr.exit()                  # outer: 10, self 10 - 5 - 1.5
    assert tr.get("outer") == (1, 10.0, 3.5)
    assert tr.get("mid") == (1, 5.0, 2.0)
    assert tr.get("leaf") == (2, 4.5, 4.5)
    assert tr.get("never") == (0, 0.0, 0.0)
    total_self = sum(tr.get(n)[2] for n in ("outer", "mid", "leaf"))
    assert total_self == tr.get("outer")[1]


def test_reentered_name_counts_inclusive_time_once():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    tr.enter("f")
    clock.now = 1.0
    tr.enter("f")
    clock.now = 3.0
    tr.exit()
    clock.now = 4.0
    tr.exit()
    calls, incl, self_s = tr.get("f")
    assert (calls, incl, self_s) == (2, 4.0, 4.0)


def test_installed_wraps_and_restores():
    original_agg = sampling.average_aggregate
    original_backward = Tensor.backward
    tr = spans.Tracer()
    with spans.installed(tr):
        assert sampling.average_aggregate is not original_agg
        sampling.average_aggregate(np.ones((3, 2)))
        sampling.knn_aggregate(np.ones((3, 2)), np.ones(2), 2)
        x = Tensor(np.ones(3), requires_grad=True)
        (x * x).sum().backward()
    assert sampling.average_aggregate is original_agg
    assert Tensor.backward is original_backward
    assert tr.get("sampling.aggregate")[0] == 2
    assert tr.get("tensor.backward")[0] == 1
    np.testing.assert_array_equal(x.grad, 2 * np.ones(3))
