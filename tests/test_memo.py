"""Every memo is a cache that its structure creates when it is built and
that is freed with it: once the last reference to a structure is dropped
and the cycle collector has run, nothing else keeps it alive.  A cache on
a module-level function or on a class-level method would keep it.

The set-bridge test pins the cached paths of normalization, the hom
embedding and the lazy sets category to the benchmark's digests."""

import gc
import importlib.util
import json
import sys
import weakref
from pathlib import Path

from closedcat import instances
from closedcat.closed import ek_normalize
from closedcat.correspond import build_representing_multicategory
from closedcat.core import Bounds
from closedcat.setcat import FinSetCategory

ROOT = Path(__file__).resolve().parents[1]


def _freed(ref: weakref.ref) -> bool:
    gc.collect()
    return ref() is None


def test_normalized_structure_is_freed():
    ek, iso = ek_normalize(instances.get("heyting2").build())
    w = ek.closed
    objs = w.cat.objects()
    for f in w.cat.hom(objs[0], objs[-1]):
        w.cat.compose(w.cat.identity(objs[0]), f)
    refs = [weakref.ref(w), weakref.ref(w.cat), weakref.ref(ek.base)]
    del ek, iso, w, f
    assert all(_freed(r) for r in refs)


def test_representing_multicategory_and_its_witness_are_freed():
    bundle = build_representing_multicategory(
        instances.get("heyting2").build(), Bounds(2)
    )
    mcv, w = bundle.mcv, bundle.witness
    x = mcv.objects()[0]
    ev = w.ev((x,), x)
    assert mcv.compose(tuple(map(mcv.identity, mcv.dom(ev))), ev) is ev
    assert w.ev((x, x), x) is w.ev((x, x), x)
    assert w._ev.cache_info().hits >= 1
    refs = [weakref.ref(mcv), weakref.ref(w)]
    del bundle, mcv, w, ev
    assert all(_freed(r) for r in refs)


def test_witness_of_a_registry_instance_is_freed_after_ev():
    m, w, _ = instances.get("z2").build()
    w.ev(("g", "g", "g"), "g")
    ref = weakref.ref(w)
    del m, w
    assert _freed(ref)


def test_finset_category_is_freed_after_make_hom():
    cat = FinSetCategory(2)
    a, b = cat.objects()[-2:]
    assert cat.make_hom(a, b) is cat.make_hom(a, b)
    ref = weakref.ref(cat)
    del cat
    assert _freed(ref)


def _load_worker():
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", ROOT / "perfbench" / "worker.py"
    )
    worker = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = worker  # its dataclasses resolve through it
    spec.loader.exec_module(worker)
    return worker


def test_set_bridge_outputs_match_the_benchmark_digests():
    """The five set-bridge operations of the benchmark, run through its
    own set-up and operation list, pass their verdicts and are
    byte-identical to the digests it records for them."""
    worker = _load_worker()
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())["set-bridge"]
    ctx: dict = {}
    worker.setup_set_bridge(ctx)
    ops = worker.set_bridge_ops()
    assert sorted(op.name for op in ops) == sorted(golden)
    for op in ops:
        out = op.run(ctx)
        assert list(op.verdict(out)) == [], op.name
        got = {k: worker.sha(v) for k, v in op.outputs(out).items()}
        assert got == golden[op.name], op.name
