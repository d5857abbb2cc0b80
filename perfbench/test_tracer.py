"""Tests of the tracer's arithmetic and of its patching.

Run from the repository root: ``python3 -m pytest -q perfbench``.
A fake clock makes every duration exact.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Costs, Tracer, calibrate  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def test_self_time_excludes_wrapped_children(clock):
    tr = Tracer(clock)

    def leaf():
        clock.work(2.0)

    def mid():
        clock.work(1.0)
        leaf()
        leaf()
        clock.work(0.5)

    def top():
        mid()
        clock.work(3.0)

    leaf = tr.wrap(leaf, "m.leaf")
    mid = tr.wrap(mid, "m.mid")
    top = tr.wrap(top, "m.top")
    top()

    m = tr.metrics()
    assert m["m.leaf.calls"] == 2 and m["m.leaf.total_s"] == 4.0 and m["m.leaf.self_s"] == 4.0
    assert m["m.mid.total_s"] == 5.5 and m["m.mid.self_s"] == 1.5
    assert m["m.top.total_s"] == 8.5 and m["m.top.self_s"] == 3.0
    # Self times partition the outermost call.
    assert sum(v for k, v in m.items() if k.endswith(".self_s")) == 8.5


def test_recursive_call_is_counted_but_timed_once(clock):
    tr = Tracer(clock)

    def helper():
        clock.work(10.0)

    def rec(n):
        clock.work(1.0)
        if n:
            rec(n - 1)
        else:
            helper()

    helper = tr.wrap(helper, "m.helper")
    rec = tr.wrap(rec, "m.rec")
    rec(3)

    m = tr.metrics()
    assert m["m.rec.calls"] == 4
    assert m["m.rec.total_s"] == 14.0  # outermost call only, not 14 + 13 + ...
    assert m["m.rec.self_s"] == 4.0  # the helper called at the bottom is a child
    assert m["m.helper.total_s"] == 10.0
    assert tr.layer_self() == {"m": 14.0}


def test_net_times_take_out_the_estimated_wrapper_cost(clock):
    # The fake clock charges nothing for the wrapper itself, so every net
    # time is the raw time less the estimate: caller 0.1 per timed call
    # to its caller, own 0.01 per timed call to itself, nested 0.001 per
    # recursive call to the enclosing timed call, and the observer's
    # measured time plus 0.0001 to the observed call.
    tr = Tracer(clock, costs=Costs(caller=0.1, own=0.01, nested=0.001, observe=0.0001))

    def leaf():
        clock.work(2.0)

    def rec(n):
        clock.work(1.0)
        if n:
            rec(n - 1)
        else:
            leaf()

    def top():
        rec(2)
        leaf()
        clock.work(1.0)

    leaf = tr.wrap(leaf, "m.leaf", observe=lambda args, result: clock.work(0.5))
    rec = tr.wrap(rec, "m.rec")
    top = tr.wrap(top, "m.top")
    top()

    m = tr.metrics()
    assert m["m.leaf.calls"] == 2 and m["m.leaf.self_s"] == 5.0
    assert m["m.leaf.net_self_s"] == pytest.approx(2 * (2.5 - 0.5 - 0.0001 - 0.01))
    assert m["m.rec.calls"] == 3 and m["m.rec.self_s"] == 3.0
    assert m["m.rec.net_total_s"] == pytest.approx(5.5 - 0.5001 - 0.002 - 2 * 0.01 - 0.1)
    assert m["m.rec.net_self_s"] == pytest.approx(3.0 - 0.1 - 0.002 - 0.01)
    assert m["m.top.self_s"] == 1.0
    assert m["m.top.net_self_s"] == pytest.approx(1.0 - 2 * 0.1 - 0.01)
    # Four timed calls, two nested ones, two observed ones.
    assert tr.overhead_s == pytest.approx(4 * 0.11 + 2 * 0.001 + 2 * 0.5001)
    # Net self times partition the outermost call's net time, which is its
    # raw time less the estimate charged inside its window.
    net = tr.layer_self(net=True)["m"]
    assert net == pytest.approx(m["m.top.net_total_s"])
    assert net == pytest.approx(9.0 - (tr.overhead_s - 0.1))
    # A scale multiplies the whole estimate.
    tr.scale = 0.5
    assert tr.metrics()["m.rec.net_self_s"] == pytest.approx(3.0 - 0.5 * (0.1 + 0.002 + 0.01))
    assert tr.overhead_s == pytest.approx(0.5 * (4 * 0.11 + 2 * 0.001 + 2 * 0.5001))


def test_calibrate_gives_costs_that_are_not_negative():
    costs = calibrate(n=2_000, reps=3)
    assert all(v >= 0.0 for v in vars(costs).values())
    assert costs.caller + costs.own > 0.0


def test_exception_leaves_stack_balanced(clock):
    tr = Tracer(clock)

    def boom():
        clock.work(1.0)
        raise KeyError("x")

    def top():
        try:
            boom()
        except KeyError:
            clock.work(2.0)

    boom = tr.wrap(boom, "m.boom")
    top = tr.wrap(top, "m.top")
    top()
    top()
    m = tr.metrics()
    assert m["m.top.self_s"] == 4.0 and m["m.boom.total_s"] == 2.0
    assert tr._frames == [6.0] and tr._overhead_frames == [0.0]


def test_observer_sees_arguments_and_result(clock):
    tr = Tracer(clock)
    seen = []
    f = tr.wrap(lambda a, b=0: a + b, "m.f", observe=lambda args, r: seen.append((args, r)))
    f(1)
    f(2, b=3)
    assert seen == [((1,), 1), ((2,), 5)]


def _fake_package():
    """Two modules in the shape of closedcat: ``b`` imports a function of
    ``a`` by name, and a class of ``a`` has ordinary, static and dunder
    methods."""
    a = types.ModuleType("pkg.a")
    a.__file__ = "pkg/a.py"
    src = (
        "def key(v):\n"
        "    return v if v < 1 else key(v - 1)\n"
        "def _private():\n"
        "    return 1\n"
        "class Mor:\n"
        "    def __init__(self, v):\n"
        "        self.v = v\n"
        "    def __hash__(self):\n"
        "        return key(self.v)\n"
        "    def __eq__(self, other):\n"
        "        return self.v == other.v\n"
        "    def twice(self):\n"
        "        return 2 * self.v\n"
        "    @staticmethod\n"
        "    def make(v):\n"
        "        return Mor(v)\n"
    )
    exec(compile(src, a.__file__, "exec"), a.__dict__)
    b = types.ModuleType("pkg.b")
    b.__file__ = "pkg/b.py"
    exec(compile("def use(v):\n    return key(v)\n", b.__file__, "exec"), b.__dict__)
    b.key = a.key
    return a, b


def test_install_wraps_by_name_and_restore_puts_everything_back():
    a, b = _fake_package()
    before_a, before_b = dict(vars(a)), dict(vars(b))
    before_cls = dict(vars(a.Mor))
    tr = Tracer()
    tr.install([a, b])

    # Every module-level name that refers to ``a.key`` now goes through
    # one wrapper, private names stay as they were.
    assert a.key is b.key and a.key is not before_a["key"]
    assert a._private is before_a["_private"]
    assert b.use(3) == 0
    hash(a.Mor.make(2))
    assert a.Mor(4).twice() == 8
    assert a.Mor(1) == a.Mor(1)
    m = tr.metrics()
    assert m["b.use.calls"] == 1
    assert m["a.key.calls"] == 4 + 3  # from b.use, then from Mor.__hash__
    assert m["a.Mor.hash.calls"] == 1 and m["a.Mor.eq.calls"] == 1
    assert m["a.Mor.make.calls"] == 1 and m["a.Mor.twice.calls"] == 1

    tr.restore()
    assert dict(vars(a)) == before_a and dict(vars(b)) == before_b
    assert dict(vars(a.Mor)) == before_cls
    assert isinstance(vars(a.Mor)["make"], staticmethod)


def test_spans_record_entry_points_with_parents(clock):
    tr = Tracer(clock, run_id="r")

    def check_x():
        clock.work(1.0)
        hot()

    def hot():
        clock.work(1.0)

    hot = tr.wrap(hot, "m.hot")
    check_x = tr.wrap(check_x, "m.check_x")
    with tr.span("op.one"):
        check_x()
    out = tr.spans_json()
    assert out["run_id"] == "r"
    assert out["spans"] == [[1, "m.check_x", 0.0, 2.0, 0], [0, "op.one", 0.0, 2.0, None]]


def _snapshot(modules):
    snap = {}
    for mod in modules:
        snap[mod.__name__] = dict(vars(mod))
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                snap[f"{mod.__name__}.{obj.__name__}"] = dict(vars(obj))
    return snap


def test_tracing_the_package_keeps_its_output_and_restores_it():
    import contextlib
    import importlib
    import io

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from worker import LAYERS, WasteCounters, install_tracer

    from closedcat import cli, instances

    modules = [importlib.import_module(f"closedcat.{m}") for m in LAYERS]
    argv = ["check", "--suite", "all", "instance:heyting2", "instance:z2mc-badcompose"]

    def check():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    before = _snapshot(modules)
    registry = dict(instances.REGISTRY)
    plain = check()
    tr = Tracer(run_id="t")
    waste = WasteCounters()
    install_tracer(tr, waste)
    try:
        traced = check()
    finally:
        tr.restore()

    assert traced == plain and plain[0] == 1
    m = tr.metrics()
    assert m["cli.main.calls"] == 1
    assert m["closed.check_cc_axioms.calls"] == 1  # looked up through cli's namespace
    assert m["instances.build.calls"] == 2
    assert m["multicat.TabularMulticategory.compose.calls"] > 0
    assert 0 < waste.metrics(tr.stats)["multicat.compose.distinct_ratio"] < 1
    assert waste.report_items > 0
    assert _snapshot(modules) == before
    assert instances.REGISTRY == registry
    assert all(instances.REGISTRY[k] is v for k, v in registry.items())
