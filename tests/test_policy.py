"""The rules of ``tests/policy.py``: each holds on ``src/closedcat``, and
each finds exactly the sites of a fake source of its own.  The exemption
sets name definitions of the source, and the reasons of the uncalled names
still hold."""

import pytest

import policy
from policy import RULES

SOURCE = policy.read("src/closedcat/*.py")

_FORWARDERS = """
import functools
def table_apply(t, k):
    return t.lookup[k]
def gamma(cs, f):
    return cs.gamma(f)
class Category:
    def obj_key(self, x):
        return self.objects().index(x)
class SetMor:
    @staticmethod
    def from_table(dom, cod, mapping):
        return SetMor(dom, cod, mapping=mapping)
    @staticmethod
    def from_rule(dom, cod, rule):
        return SetMor(dom, cod, rule)
class FinSetCategory(Category):
    def obj_key(self, x):
        return hf_key(x)
class Witness:
    def _underlying(self, bounds):
        from .correspond import underlying_closed_category
        return underlying_closed_category(self, bounds)
def nested():
    def inner():
        import json
"""

# rule -> ({module: text}, the sites its query finds there)
FAKES = {
    "profile-readers": ({"fake": """
class M:
    def profiles(self, n):
        return ()
    def signatures(self, bounds):
        return list(self.profiles(bounds.max_arity))
def fill(m, ys, n):
    def inner(room):
        return [d for d in m.profiles(room)]
    return inner(n)
profiles = None
x = M().profiles(2)
def reads_a_name(profiles):
    return profiles
"""}, "fake.M.signatures fake.fill.inner fake.<module>"),
    "composables-readers": ({"fake": """
from .multicat import _composables
import multicat
class M:
    def composites(self, bounds):
        return list(_composables(self, bounds))
def check(m, bounds):
    return [g for g, _, fs in multicat._composables(m, bounds)]
def passes_it_on(m, bounds):
    walk = _composables
    return walk
"""}, "fake.M.composites fake.check"),
    "unfolded-witness": ({"fake": '''
def unit_apart(w: ClosednessWitness, uw: UnitWitness): pass
def optional_unit(uw: "UnitWitness | None" = None): pass
def category_apart(F, w: ClosednessWitness, cs: ClosedStructure): pass
def keyword_category(w: closedmc.ClosednessWitness, *, cs: ClosedStructure): pass
def representing_apart(w: ClosednessWitness, mcv: "RepresentingMulticat"): pass
def normalization_apart(ek: EKClosedStructure, w: ClosednessWitness): pass
def witness_alone(w: ClosednessWitness, bounds: Bounds): pass
def representing_alone(mcv: RepresentingMulticat, ek: EKClosedStructure): pass
def structure_alone(cs: ClosedStructure, bounds: Bounds): pass
class Holder:
    unit: UnitWitness | None = None
    def method(self, uw: UnitWitness): pass
'''}, """fake.unit_apart fake.optional_unit fake.category_apart fake.keyword_category
    fake.representing_apart fake.normalization_apart fake.Holder.method"""),
    "forwarders": (
        dict.fromkeys(("setcat", "closed", "closedmc"), _FORWARDERS),
        " ".join(
            f"{m}.{f}"
            for m in ("setcat", "closed", "closedmc")
            for f in "table_apply SetMor.from_table SetMor.from_rule "
            "FinSetCategory.obj_key".split()
        )
        + " closed.gamma closedmc.Witness._underlying closedmc.nested",
    ),
    "print-and-endpoint-layers": ({"core": '''
class Category:
    def dom(self, f):
        return f.dom
    def show_obj(self, x):
        return str(x)
    def show_mor(self, f):
        return str(f)
class Points(Category):
    def dom(self, f: Point):
        """Its own field."""
        return f.dom
    def cod(self, f):
        return f.cod
    def show_obj(self, x):
        return self._base.show_obj(x)
class Named(Category):
    def dom(self, f):
        return self._ends[f][0]
    def cod(self, f):
        return self._m.cod(f)
class Unary(Category):
    def dom(self, f):
        return self._m.dom(f)[0]
'''}, "core.Category.show_mor core.Points.dom core.Points.cod core.Points.show_obj"),
    "uncalled": ({"a": """
def used(): return 1
def recursive(n): return recursive(n - 1) if n else used()
def imported_only(): pass
def by_attribute(): pass
def ping(n): return pong(n - 1) if n else 0
def pong(n): return ping(n - 1) if n else 0
def dead_root(): return only_from_dead()
def only_from_dead(): pass
x = used
class C:
    def __init__(self): self.hook = self.set_in_a_dunder
    def set_in_a_dunder(self): pass
    def by_method(self): return self.recursive_method()
    def recursive_method(self): return self.recursive_method()
    def unused(self): pass
    def __private(self): pass
    def __repr__(self): return "C"
    @staticmethod
    def called_from_b(): pass
    @staticmethod
    def identity(): pass
    @staticmethod
    def by_its_class(): pass
""", "b": """
from a import imported_only
import a
a.by_attribute()
a.C.called_from_b()
a.C.by_its_class()
other.identity()
"""}, """a.recursive a.imported_only a.C.by_method a.C.recursive_method a.C.unused
    a.C.__private a.C.identity a.ping a.pong a.dead_root a.only_from_dead"""),
    "sort-keys": ({"core": """
from .core import obj_key
class Category:
    def obj_key(self, x):
        return self.objects().index(x)
class _WCategory(Category):
    def obj_key(self, x):
        return self._base.obj_key(x)
class Other(Category):
    def obj_key(self, x):
        return x
    def mor_key(self, f):
        return f
def consumer(cat):
    return sorted(cat.objects(), key=cat.obj_key)
def bijection(table, target, cat):
    return bijective(table, target, cat.mor_key)
def fine(cat):
    return cat.objects()
"""}, """core.<module> core._WCategory.obj_key core.Other.obj_key core.Other.mor_key
    core.consumer core.bijection"""),
    "hand-padding": ({"multicat": """
class Multicategory:
    def identities_for(self, xs):
        return tuple(self.identity(x) for x in xs)
    def plug(self, g, i, f):
        ids = self.identities_for(self.dom(g))
        return self.compose(ids[:i] + (f,) + ids[i + 1 :], g)
def held(m, f, g, y):
    return m.compose((f, m.identity(y)), g)
def _assoc_holds(m, xs, f, g):
    ids = list(m.identities_for(xs))
    return m.compose(ids[1:] + m.identities_for(xs[:1]) + (f,), g)
def starred(m, xs, f, g):
    return m.compose((*m.identities_for(xs), f), g)
def read(m, xs):
    return list(m.identities_for(xs))
def check_multicategory_axioms(m, xs, f):
    return m.compose(m.identities_for(xs), f)
def unit_laws(cat, m, f, y):
    return cat.compose(cat.identity(y), f), m.compose((f,), m.identity(y))
def plugged(m, f, g):
    return m.plug(g, 0, f)
"""}, "multicat.held multicat._assoc_holds multicat.starred multicat.read"),
    "static-caches": ({"fake": """
import functools
from functools import lru_cache
@functools.cache
def a(x): return x
b = lru_cache(maxsize=8)(a)
class C:
    @functools.cached_property
    def d(self): return 1
    e = functools.cache(len)
    def __init__(self):
        self.f = functools.cache(self.g)
def builder():
    @functools.cache
    def h(x): return x
    return h
"""}, "fake.a fake.<module> fake.C.d fake.C"),
}


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
def test_the_source_keeps_the_rule(rule):
    assert rule.query(SOURCE) == rule.allowed, rule.reason


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
def test_the_rule_finds_the_sites_of_its_fake_source(rule):
    sources, sites = FAKES[rule.name]
    assert rule.query(policy.index(sources)) == set(sites.split())


def test_every_exemption_names_a_definition():
    keys = {s.key for s in SOURCE}
    for owners in (policy.OBJ_KEY_OWNERS, policy.SHOW_OBJ_OWNERS, policy.ENDPOINT_OWNERS):
        assert owners <= keys, owners - keys
    assert policy.PADDING_READERS <= keys, policy.PADDING_READERS - keys
    classes = {s.name for s in SOURCE if s.is_class}
    assert policy.HELD <= classes, policy.HELD - classes


def test_the_uncalled_reasons_still_hold():
    """The oracles are reached from the tests, and the benchmark's names
    from its worker."""

    def reached_from(pattern):
        roots = {r for s in policy.read(pattern) for r in s.refs}
        return {s.key for s in policy.reached(SOURCE, roots)}

    assert set(policy.ORACLES) <= reached_from("tests/test_*.py")
    assert set(policy.BENCHMARK) <= reached_from("perfbench/worker.py")
