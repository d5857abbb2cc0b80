"""Every memo is a cache that its structure creates when it is built and
that is freed with it: once the last reference to a structure is dropped
and the cycle collector has run, nothing else keeps it alive.  A cache on
a module-level function or on a class-level method would keep it, and the
``static-caches`` rule of ``tests/policy.py`` rejects one.

The set-bridge test pins the cached paths of normalization, the hom
embedding and the lazy sets category to the benchmark's digests."""

import gc
import json
import tracemalloc
import weakref
from pathlib import Path

from closedcat import instances
from closedcat.closed import (
    check_cc_axioms,
    check_cf_axioms,
    ek_normalize,
    gamma_inverse,
)
from closedcat.closedmc import bar, check_closedness, check_internal_category
from closedcat.correspond import (
    build_representing_multicategory,
    underlying_closed_category,
)
from closedcat.core import Bounds
from closedcat.multicat import _composables
from closedcat.setcat import SetMor, build_finset_closed

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


def test_finset_and_its_normalization_are_freed_after_their_memos_hit():
    cs = instances.get("finset").build()
    ek, iso = ek_normalize(cs)
    assert check_cf_axioms(iso).ok
    assert cs.gamma.cache_info().hits >= 1
    w = ek.closed
    f = w.cat.hom(*w.cat.objects()[-2:])[-1]
    assert ek.C_functor.mor_map(f) is ek.C_functor.mor_map(f)
    assert ek.C_functor.mor_map.cache_info().hits >= 1
    refs = [weakref.ref(cs), weakref.ref(w)]
    del cs, ek, iso, w, f
    assert all(_freed(r) for r in refs)


def test_representing_multicategory_and_its_witness_are_freed():
    w = build_representing_multicategory(instances.get("heyting2").build(), Bounds(2))
    mcv = w.m
    x = mcv.objects()[0]
    ev = w.ev((x,), x)
    assert mcv.compose(tuple(map(mcv.identity, mcv.dom(ev))), ev) is ev
    assert mcv.identity(x) is mcv.identity(x)
    assert mcv.identity.cache_info().hits >= 1
    assert w.ev((x, x), x) is w.ev((x, x), x)
    assert w._ev.cache_info().hits >= 1
    refs = [weakref.ref(mcv), weakref.ref(w)]
    del mcv, w, ev
    assert all(_freed(r) for r in refs)


def test_representing_multicategory_is_freed_after_its_step_table_hits():
    bounds = Bounds(2)
    mcv = build_representing_multicategory(
        instances.get("heyting2").build(), bounds
    ).m
    for g, _, fs in _composables(mcv, bounds):
        mcv.compose(fs, g)
    assert mcv._step.cache_info().hits >= 1
    ref = weakref.ref(mcv)
    del mcv, g, fs
    assert _freed(ref)


def test_representing_multicategory_is_freed_after_a_dump():
    from closedcat import interchange

    w = build_representing_multicategory(instances.get("heyting2").build(), Bounds(2))
    doc = interchange.multicat_to_json(w.m, Bounds(3), w)
    assert json.loads(interchange.dumps(doc))["compose"]
    assert w.m._step.cache_info().hits >= 1
    refs = [weakref.ref(w.m), weakref.ref(w)]
    del w
    assert all(_freed(r) for r in refs)


def test_compose_section_goes_with_its_doc():
    # the structure keeps nothing of a dump's compose section: once the
    # caches that the first dump fills are warm, a second dump leaves
    # almost nothing behind when its doc is dropped
    from closedcat import interchange

    w = build_representing_multicategory(instances.get("heyting2").build(), Bounds(2))
    interchange.multicat_to_json(w.m, Bounds(3), w)
    gc.collect()
    tracemalloc.start()
    try:
        doc = interchange.multicat_to_json(w.m, Bounds(3), w)
        held = tracemalloc.get_traced_memory()[0]
        ref = weakref.ref(doc["compose"])
        del doc
        assert _freed(ref)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept * 20 < held, (kept, held)


def test_representing_multicategory_is_freed_after_a_keyed_dump():
    # the walk-local cache of keyed_composites goes with its walk, whether
    # the walk runs to its end or is dropped after its first group
    bounds = Bounds(2)
    mcv = build_representing_multicategory(
        instances.get("heyting2").build(), bounds
    ).m
    walk = mcv.keyed_composites(bounds, None, str)
    assert sum(keys.count("\n") + 1 for keys, _ in walk)
    assert mcv._step.cache_info().hits >= 1
    walk = mcv.keyed_composites(bounds, None, str)
    keys, out = next(walk)
    ref = weakref.ref(mcv)
    del mcv, out
    assert not _freed(ref)  # the suspended walk holds it
    del walk
    assert _freed(ref)


def test_witness_of_a_registry_instance_is_freed_after_ev():
    m, w = instances.get("z2").build()
    w.ev(("g", "g", "g"), "g")
    # asking again is a hit of the witness's own cache
    hits = w._ev.cache_info().hits
    w.ev(("g", "g", "g"), "g")
    assert w._ev.cache_info().hits == hits + 1
    ref = weakref.ref(w)
    del m, w
    assert _freed(ref)


def test_monoidal_multicategory_is_freed_after_its_identity_memo_hits():
    m, w = instances.get("z2").build()
    assert m.identity("g") is m.identity("g")
    assert m.identity.cache_info().hits >= 1
    ref = weakref.ref(m)
    del m, w
    assert _freed(ref)


def test_monoidal_multicategory_and_witness_are_freed_after_composite_and_plug_hits():
    m, w = instances.get("z2").build()
    ev = w.ev(("g", "g"), "g")
    ones = m.identities_for(ev.dom)
    assert m.compose(ones, ev) == m.compose(list(ones), ev) == ev
    assert m.plug(ev, 1, ev) == m.plug(ev, 1, ev)
    assert m._composite.cache_info().hits >= 1
    assert m._plugged.cache_info().hits >= 1
    refs = [weakref.ref(m), weakref.ref(w)]
    del m, w, ev, ones
    assert all(_freed(r) for r in refs)


def test_witness_is_freed_after_its_tables_and_internal_category_hit():
    m, w = instances.get("z2").build()
    bounds = Bounds(2)
    rep = check_internal_category(w, bounds)
    assert rep.ok
    ic = w.internal_category(bounds)
    # closedness reads the currying tables that the curries built
    assert check_closedness(w, bounds).ok
    ucs = underlying_closed_category(w, bounds)
    assert ucs.L("g", "g", "g") is ic.LX[("g", "g", "g")]
    assert bar(w, w.unit.u, bounds) == bar(w, w.unit.u, bounds)
    caches = (w.curry_table, w.unit_table, w.internal_category)
    assert all(c.cache_info().hits >= 1 for c in caches)
    ref = weakref.ref(w)
    del m, w, ic, rep, ucs, caches
    assert _freed(ref)


def test_witness_is_freed_after_its_underlying_category_hits():
    # U(M) refers back to the witness that caches it: a cycle that the
    # collector frees once the witness is dropped
    m, w = instances.get("z2").build()
    bounds = Bounds(2)
    ucs = w.underlying(bounds)
    assert w.underlying(bounds) is ucs
    assert w.underlying.cache_info().hits >= 1
    assert check_cc_axioms(ucs, bounds).ok
    refs = [weakref.ref(w), weakref.ref(ucs)]
    del m, w, ucs
    assert all(_freed(r) for r in refs)


def test_finset_category_is_freed_after_make_hom():
    cs = build_finset_closed(2)
    cat = cs.cat
    a, b = cat.objects()[-2:]
    assert cat.make_hom(a, b) is cat.make_hom(a, b)
    assert cat.identity(a) is cat.identity(a)
    assert cat.hom(a, b) is cat.hom(a, b)
    assert cs.L(b, a, a) is cs.L(b, a, a)
    L = cs.L(b, a, a)
    # each value of L is found in its hom object, at its positions
    for g in cat.hom(a, a):
        L.apply(g.table_value())
    caches = (cat.make_hom, cat.identity, cat.hom, cat.positions, cs.L)
    assert all(c.cache_info().hits >= 1 for c in caches)
    refs = [weakref.ref(cat), weakref.ref(cs)]
    del cs, cat, L, g, caches
    assert all(_freed(r) for r in refs)


def test_finset_is_freed_after_its_shared_actions_points_and_closed_forms_hit():
    cs = build_finset_closed(2)
    cat = cs.cat
    a, b = cat.objects()[-2:]
    f, g = cat.hom(a, b)[-1], cat.hom(b, a)[-1]
    # an equal pair of tables is a hit: the action is the same value
    act = cs.hom2_mor(f, g)
    assert cs.hom2_mor(SetMor(a, b, mapping=f.mapping()), g) is act
    # a lazy argument is not looked up
    assert cs.hom2_mor(SetMor(a, b, f.apply), g) is not act
    L = cs.L(b, a, a)
    t = cat.hom(a, a)[-1].table_value()
    assert L.apply(t) is L.apply(t)
    assert L._rule.cache_info().hits >= 1
    (point, *_) = cat.hom(cs.unit, cs.hom2_obj(a, b))
    assert gamma_inverse(cs, point, a, b) is gamma_inverse(cs, point, a, b)
    assert cs.gamma_inv.cache_info().hits >= 1
    refs = [weakref.ref(x) for x in (cs, cat, cs.hom2_mor, L._rule, cs.gamma_inv)]
    del cs, cat, f, g, act, L, point
    assert all(_freed(r) for r in refs)


def test_the_transported_structure_is_freed_after_its_memos_hit():
    ek, iso = ek_normalize(instances.get("heyting2").build())
    w = ek.closed
    x, y = w.cat.objects()[:2]
    f, g = w.cat.hom(x, y)[0], w.cat.hom(y, y)[0]
    assert w.hom2_mor(f, g) is w.hom2_mor(f, g)
    assert w.i(x) is w.i(x) and w.i_inv(x) is w.i_inv(x) and w.j(x) is w.j(x)
    assert w.L(x, y, x) is w.L(x, y, x)
    caches = (w.hom2_mor, w.i, w.i_inv, w.j, w.L)
    assert all(c.cache_info().hits >= 1 for c in caches)
    refs = [weakref.ref(w), *map(weakref.ref, caches)]
    del ek, iso, w, f, g, caches
    assert all(_freed(r) for r in refs)


def test_set_bridge_outputs_match_the_benchmark_digests(bench_worker, monkeypatch):
    """The five set-bridge operations of the benchmark, run through its
    own set-up and operation list, pass their verdicts and are
    byte-identical to the digests it records for them.  gamma is
    evaluated once per morphism (837 of them), and naming the morphisms
    prints 383 of them rather than 13,151."""
    worker = bench_worker
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())["set-bridge"]
    shown = []
    real = SetMor.__str__

    def counted(self):
        shown.append(self)
        return real(self)

    monkeypatch.setattr(SetMor, "__str__", counted)
    ctx: dict = {}
    worker.setup_set_bridge(ctx)
    ops = worker.set_bridge_ops()
    assert sorted(op.name for op in ops) == sorted(golden)
    for op in ops:
        out = op.run(ctx)
        assert list(op.verdict(out)) == [], op.name
        got = {k: worker.sha(v) for k, v in op.outputs(out).items()}
        assert got == golden[op.name], op.name
    assert 0 < ctx["cs"].gamma.cache_info().misses <= 900
    assert 0 < len(shown) <= 400
