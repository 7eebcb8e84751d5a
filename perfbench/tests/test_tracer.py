"""Span bookkeeping and self-time arithmetic of the layer tracer."""

import pytest

from tracer import LAYERS, Tracer, self_times


class TestSelfTimes:
    def test_single_span(self):
        assert self_times([-1], [0], [10]) == [10]

    def test_nested_chain(self):
        # root 0..100 > child 10..60 > grandchild 20..30
        assert self_times([-1, 0, 1], [0, 10, 20], [100, 60, 30]) == [50, 40, 10]

    def test_siblings(self):
        # root 0..100 with children 10..20 and 30..60
        assert self_times([-1, 0, 0], [0, 10, 30], [100, 20, 60]) == [60, 10, 30]

    def test_overlapping_siblings_count_once(self):
        # children 10..50 and 30..70 cover 10..70 together
        assert self_times([-1, 0, 0], [0, 10, 30], [100, 50, 70])[0] == 40

    def test_child_clipped_to_parent(self):
        assert self_times([-1, 0], [0, 50], [100, 130])[0] == 50

    def test_two_roots(self):
        assert self_times([-1, -1, 1], [0, 10, 12], [5, 20, 15]) == [5, 7, 3]

    def test_self_times_sum_to_root_durations(self):
        parent = [-1, 0, 1, 1, 0, 4, -1]
        start = [0, 5, 6, 20, 40, 41, 200]
        end = [100, 30, 10, 25, 90, 60, 210]
        assert sum(self_times(parent, start, end)) == 100 + 10


class Toy:
    def outer(self, n):
        return self.inner(n) + self.inner(n)

    def inner(self, n):
        return n + 1


class ToyChild(Toy):
    def inner(self, n):
        return n + 2


class FakeClock:
    """Advances 10 ns per reading, so durations follow call structure."""

    def __init__(self):
        self.t = 0

    def __call__(self):
        self.t += 10
        return self.t


@pytest.fixture
def tracer():
    t = Tracer(clock=FakeClock())
    t.install(layers=(("toy", __name__, "Toy", ("outer", "inner")),),
              captured=())
    yield t
    t.uninstall()


class TestTracer:
    def test_records_nested_spans_with_parent_links(self, tracer):
        tracer.active = True
        assert Toy().outer(1) == 4
        tracer.active = False
        names = [tracer.names[i][1] for i in tracer.name_ids]
        assert names == ["Toy.outer", "Toy.inner", "Toy.inner"]
        assert list(tracer.parent) == [-1, 0, 0]
        assert all(e > s for s, e in zip(tracer.start, tracer.end))

    def test_inactive_records_nothing(self, tracer):
        Toy().outer(1)
        assert len(tracer.start) == 0

    def test_overriding_subclass_is_wrapped(self, tracer):
        tracer.active = True
        assert ToyChild().outer(1) == 6
        names = {tracer.names[i][1] for i in tracer.name_ids}
        assert names == {"Toy.outer", "ToyChild.inner"}

    def test_per_name_self_time_sums_to_root(self, tracer):
        tracer.active = True
        Toy().outer(1)
        rows = dict(zip(tracer.names, tracer.per_name()))
        outer = rows[("toy", "Toy.outer")]
        inner = rows[("toy", "Toy.inner")]
        assert inner[0] == 2 and outer[0] == 1
        root = tracer.end[0] - tracer.start[0]
        assert outer[1] + inner[1] == root

    def test_uninstall_restores_methods(self):
        original = Toy.__dict__["outer"]
        t = Tracer(clock=FakeClock())
        t.install(layers=(("toy", __name__, "Toy", ("outer",)),), captured=())
        assert Toy.__dict__["outer"] is not original
        t.uninstall()
        assert Toy.__dict__["outer"] is original


def test_every_listed_method_exists():
    """A renamed method would silently drop out of its layer's numbers."""
    import importlib

    for layer, module, cls_name, methods in LAYERS:
        cls = getattr(importlib.import_module(module), cls_name)
        for method in methods:
            assert callable(getattr(cls, method, None)), (layer, cls_name, method)
