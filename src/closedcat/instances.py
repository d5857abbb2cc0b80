"""Shipped concrete structures: desk-scale models exercising every checker,
plus negative fixtures that each fail one advertised check.

Positive instances: the terminal closed category, the two-element Heyting
algebra, lazy finite sets, the one-object closed category of the
two-element group, and multicategories built from strict monoidal data
(the two-element group, the Heyting algebra under meet).

Negative fixtures: a corrupted identity-selector j, a corrupted internal
hom action, a corrupted composition table, a truncated-addition monoid
with a non-invertible declared evaluation, a non-unit candidate object,
and a multicategory with one corrupted composite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _product
from typing import Callable

from .closed import ClosedStructure, tabular_closed
from .closedmc import ClosednessWitness, UnitWitness
from .core import Category, TabularCategory
from .multicat import (
    MMor,
    MonoidalMulticategory,
    MultiFunctor,
    Multicategory,
    StrictMonoidalCategory,
    from_strict_monoidal,
)
from .setcat import build_finset_closed


def build_terminal() -> ClosedStructure:
    cat = TabularCategory(
        "terminal",
        ["*"],
        {("*", "*"): ["1"]},
        {("1", "1"): "1"},
        {"*": "1"},
    )
    return tabular_closed(
        "terminal",
        cat,
        "*",
        {("*", "*"): "*"},
        {("1", "1"): "1"},
        {"*": "1"},
        {"*": "1"},
        {"*": "1"},
        {("*", "*", "*"): "1"},
    )


def _heyting_mor(x: str, y: str) -> str:
    return f"{x}<={y}"


def build_heyting2() -> ClosedStructure:
    """The two-element Heyting algebra as a closed poset category: hom
    objects are implications, and every structural morphism is the unique
    order witness."""
    objs = ["0", "1"]
    pairs = [(x, y) for x in objs for y in objs if x <= y]
    hom = {(x, y): [_heyting_mor(x, y)] if x <= y else [] for x in objs for y in objs}
    compose = {}
    for x, y in pairs:
        for y2, z in pairs:
            if y == y2:
                compose[(_heyting_mor(x, y), _heyting_mor(y, z))] = _heyting_mor(x, z)
    identity = {x: _heyting_mor(x, x) for x in objs}
    cat = TabularCategory("heyting2", objs, hom, compose, identity)

    def imp(x: str, y: str) -> str:
        return "0" if (x == "1" and y == "0") else "1"

    mors = [_heyting_mor(x, y) for x, y in pairs]
    hom2_mor = {}
    for f in mors:
        fa, fb = f.split("<=")
        for g in mors:
            ga, gb = g.split("<=")
            hom2_mor[(f, g)] = _heyting_mor(imp(fb, ga), imp(fa, gb))
    return tabular_closed(
        "heyting2",
        cat,
        "1",
        {(x, y): imp(x, y) for x in objs for y in objs},
        hom2_mor,
        {x: _heyting_mor(x, imp("1", x)) for x in objs},
        {x: _heyting_mor(imp("1", x), x) for x in objs},
        {x: _heyting_mor("1", imp(x, x)) for x in objs},
        {
            (x, y, z): _heyting_mor(imp(y, z), imp(imp(x, y), imp(x, z)))
            for x in objs
            for y in objs
            for z in objs
        },
    )


def _group_category(name: str, elems: list[str], add: Callable[[str, str], str]):
    obj = "g"
    hom = {(obj, obj): list(elems)}
    compose = {(a, b): add(a, b) for a in elems for b in elems}
    return TabularCategory(name, [obj], hom, compose, {obj: elems[0]})


def _z2_add(a: str, b: str) -> str:
    return "e" if a == b else "s"


def build_z2_closed() -> ClosedStructure:
    """The one-object closed category underlying the two-element group:
    homs are group elements, the internal hom action is addition, and
    every structural transformation is the neutral element."""
    cat = _group_category("z2closed", ["e", "s"], _z2_add)
    g = "g"
    return tabular_closed(
        "z2closed",
        cat,
        g,
        {(g, g): g},
        {(a, b): _z2_add(a, b) for a in "es" for b in "es"},
        {g: "e"},
        {g: "e"},
        {g: "e"},
        {(g, g, g): "e"},
    )


def build_broken_j() -> ClosedStructure:
    """Negative fixture: z2closed with the identity selector flipped."""
    cs = build_z2_closed()
    return ClosedStructure(
        "broken-j",
        cs.cat,
        cs.unit,
        cs.hom2_obj,
        cs.hom2_mor,
        cs.i,
        cs.i_inv,
        lambda x: "s",
        cs.L,
    )


def build_broken_hom2() -> ClosedStructure:
    """Negative fixture: z2closed with the hom action corrupted at one
    entry, collapsing gamma."""
    cs = build_z2_closed()
    table = {(a, b): _z2_add(a, b) for a in "es" for b in "es"}
    table[("e", "s")] = "e"
    return ClosedStructure(
        "broken-hom2",
        cs.cat,
        cs.unit,
        cs.hom2_obj,
        lambda f, g: table[(f, g)],
        cs.i,
        cs.i_inv,
        cs.j,
        cs.L,
    )


def build_broken_compose() -> Category:
    """Negative fixture: the cyclic group of order three with one composite
    mis-set, breaking associativity at localizable triples."""
    elems = ["r0", "r1", "r2"]

    def add(a: str, b: str) -> str:
        return f"r{(int(a[1]) + int(b[1])) % 3}"

    compose = {(a, b): add(a, b) for a in elems for b in elems}
    compose[("r1", "r1")] = "r0"
    return TabularCategory(
        "broken-compose", ["g"], {("g", "g"): elems}, compose, {"g": "r0"}
    )


def _z2_smc() -> StrictMonoidalCategory:
    cat = _group_category("z2", ["e", "s"], _z2_add)
    return StrictMonoidalCategory(
        cat,
        lambda x, y: "g",
        lambda a, b: _z2_add(a, b),
        "g",
    )


def build_z2_multicat() -> tuple[Multicategory, ClosednessWitness, UnitWitness]:
    """The two-element group as a one-object multicategory: a morphism of
    arity n is a group element, and composition sums everything."""
    m = from_strict_monoidal(_z2_smc(), "z2")
    w = ClosednessWitness(
        m,
        {("g", "g"): "g"},
        {("g", "g"): MMor(("g", "g"), "g", "e")},
    )
    uw = UnitWitness("g", MMor((), "g", "e"))
    return m, w, uw


def build_heyting2_multicat() -> tuple[Multicategory, ClosednessWitness, UnitWitness]:
    """The Heyting algebra under meet as a strict monoidal poset, hence a
    multicategory with implication hom objects."""
    hey = build_heyting2()
    cat = hey.cat

    def meet(x: str, y: str) -> str:
        return "1" if (x == "1" and y == "1") else "0"

    def tensor_mor(f: str, g: str) -> str:
        fa, fb = f.split("<=")
        ga, gb = g.split("<=")
        return _heyting_mor(meet(fa, ga), meet(fb, gb))

    m = from_strict_monoidal(
        StrictMonoidalCategory(cat, meet, tensor_mor, "1"), "heyting2mc"
    )

    def imp(x: str, y: str) -> str:
        return "0" if (x == "1" and y == "0") else "1"

    hom_obj1 = {(x, z): imp(x, z) for x in "01" for z in "01"}
    ev1 = {}
    for x in "01":
        for z in "01":
            src = meet(x, imp(x, z))
            ev1[(x, z)] = MMor((x, imp(x, z)), z, _heyting_mor(src, z))
    w = ClosednessWitness(m, hom_obj1, ev1)
    uw = UnitWitness("1", MMor((), "1", _heyting_mor("1", "1")))
    return m, w, uw


def _truncadd_smc() -> StrictMonoidalCategory:
    elems = ["t0", "t1", "t2"]

    def add(a: str, b: str) -> str:
        return f"t{min(int(a[1]) + int(b[1]), 2)}"

    cat = _group_category("truncadd", elems, add)
    return StrictMonoidalCategory(cat, lambda x, y: "g", add, "g")


def build_truncadd_badev() -> tuple[Multicategory, ClosednessWitness, None]:
    """Negative fixture: truncated addition admits no subtraction, so the
    declared evaluation t1 makes the currying map non-bijective."""
    m = from_strict_monoidal(_truncadd_smc(), "truncadd-badev")
    w = ClosednessWitness(
        m,
        {("g", "g"): "g"},
        {("g", "g"): MMor(("g", "g"), "g", "t1")},
    )
    return m, w, None


def build_truncadd_badunit() -> tuple[Multicategory, ClosednessWitness, UnitWitness]:
    """Negative fixture: a valid witness (evaluation t0) but a candidate
    unit whose nullary morphism t1 cannot be inverted away."""
    m = from_strict_monoidal(_truncadd_smc(), "truncadd-badunit")
    w = ClosednessWitness(
        m,
        {("g", "g"): "g"},
        {("g", "g"): MMor(("g", "g"), "g", "t0")},
    )
    return m, w, UnitWitness("g", MMor((), "g", "t1"))


def build_z2mc_badcompose(max_arity: int = 3) -> tuple[Multicategory, None, None]:
    """Negative fixture: the z2 multicategory tabulated with one composite
    flipped, so two-level associativity fails at localizable tuples."""
    from .multicat import TabularMulticategory

    def mid(par: str, n: int):
        return (par, n)

    objs = ["g"]
    hom = {}
    for n in range(max_arity + 1):
        hom[(("g",) * n, "g")] = [mid("e", n), mid("s", n)]
    compose = {}

    def parity(p: str) -> int:
        return 0 if p == "e" else 1

    def gen_doms(k, left):
        if k == 0:
            yield ()
            return
        for ln in range(left + 1):
            for rest in gen_doms(k - 1, left - ln):
                yield (ln,) + rest

    for xs, y in list(hom):
        n = len(xs)
        for g_par in "es":
            g = mid(g_par, n)
            for doms in gen_doms(n, max_arity):
                for pars in _product("es", repeat=n):
                    fs = tuple(mid(pars[i], doms[i]) for i in range(n))
                    total = sum(doms)
                    par = (sum(parity(p) for p in pars) + parity(g_par)) % 2
                    compose[(fs, g)] = mid("es"[par], total)
    compose[((mid("s", 1), mid("s", 1)), mid("e", 2))] = mid("s", 2)
    m = TabularMulticategory(
        "z2mc-badcompose", objs, hom, compose, {"g": mid("e", 1)}
    )
    return m, None, None


def build_freemon3(cap: int = 3) -> tuple[Multicategory, None, None]:
    """Free monoid on one generator truncated at length three: the tensor
    is partial, so signatures past the cap raise BudgetExceeded."""
    objs = [f"x{k}" for k in range(cap + 1)]
    hom = {(x, y): [f"i{x[1:]}"] if x == y else [] for x in objs for y in objs}
    compose = {(f"i{k}", f"i{k}"): f"i{k}" for k in range(cap + 1)}
    identity = {x: f"i{x[1:]}" for x in objs}
    cat = TabularCategory("freemon3", objs, hom, compose, identity)

    def tensor_obj(x: str, y: str):
        k = int(x[1:]) + int(y[1:])
        return f"x{k}" if k <= cap else None

    def tensor_mor(f: str, g: str):
        k = int(f[1:]) + int(g[1:])
        if k > cap:
            raise ValueError("tensor undefined")
        return f"i{k}"

    smc = StrictMonoidalCategory(cat, tensor_obj, tensor_mor, "x0")
    return MonoidalMulticategory(smc, "freemon3"), None, None


def z2_inversion(m: Multicategory) -> MultiFunctor:
    """Elementwise group inversion; on the two-element group this is the
    identity map, and it is an automorphism of the multicategory."""
    return MultiFunctor("inversion", m, m, lambda x: x, lambda f: f)


def z2_shift(m: Multicategory) -> MultiFunctor:
    """The non-identity automorphism of the z2 multicategory: a morphism
    of arity n is translated by (n+1) times the generator, which preserves
    identities and all compositions."""

    def mor_map(f: MMor) -> MMor:
        if (len(f.dom) + 1) % 2 == 1:
            return MMor(f.dom, f.cod, _z2_add(f.raw, "s"))
        return f

    return MultiFunctor("shift", m, m, lambda x: x, mor_map)


@dataclass(frozen=True)
class InstanceInfo:
    name: str
    kind: str  # category | closed | multicat
    description: str
    build: Callable
    max_arity: int = 3  # the instance's own arity horizon
    advertised_failure: tuple[str, ...] = ()  # check ids expected to fail


REGISTRY: dict[str, InstanceInfo] = {}


def _register(info: InstanceInfo) -> None:
    REGISTRY[info.name] = info


_register(
    InstanceInfo(
        "terminal",
        "closed",
        "one object, one morphism; every datum is the identity",
        build_terminal,
    )
)
_register(
    InstanceInfo(
        "heyting2",
        "closed",
        "two-element Heyting algebra with implication homs",
        build_heyting2,
    )
)
_register(
    InstanceInfo(
        "finset",
        "closed",
        "lazy finite sets over a two-atom pool with the one-point unit",
        lambda: build_finset_closed(2),
    )
)
_register(
    InstanceInfo(
        "z2closed",
        "closed",
        "one-object closed category of the two-element group",
        build_z2_closed,
    )
)
_register(
    InstanceInfo(
        "broken-j",
        "closed",
        "negative: identity selector flipped",
        build_broken_j,
        advertised_failure=("cc/CC2",),
    )
)
_register(
    InstanceInfo(
        "broken-hom2",
        "closed",
        "negative: internal hom action corrupted, gamma collapses",
        build_broken_hom2,
        advertised_failure=("cc/CC5",),
    )
)
_register(
    InstanceInfo(
        "broken-compose",
        "category",
        "negative: cyclic group of order three with one composite mis-set",
        build_broken_compose,
        advertised_failure=("category/assoc",),
    )
)
_register(
    InstanceInfo(
        "z2",
        "multicat",
        "two-element group as a one-object closed multicategory",
        build_z2_multicat,
    )
)
_register(
    InstanceInfo(
        "heyting2mc",
        "multicat",
        "Heyting algebra under meet as a closed multicategory",
        build_heyting2_multicat,
    )
)
_register(
    InstanceInfo(
        "truncadd-badev",
        "multicat",
        "negative: truncated addition with non-invertible evaluation",
        build_truncadd_badev,
        advertised_failure=("closed/phi-bijective",),
    )
)
_register(
    InstanceInfo(
        "truncadd-badunit",
        "multicat",
        "negative: valid witness but non-unit candidate object",
        build_truncadd_badunit,
        advertised_failure=("unit/contraction-iso",),
    )
)
_register(
    InstanceInfo(
        "z2mc-badcompose",
        "multicat",
        "negative: one composite flipped in the z2 multicategory",
        build_z2mc_badcompose,
        advertised_failure=("mc/assoc",),
    )
)
_register(
    InstanceInfo(
        "freemon3",
        "multicat",
        "free monoid on one generator truncated at length three",
        build_freemon3,
        max_arity=1,
    )
)

FUNCTORS = {
    "inversion": z2_inversion,
    "shift": z2_shift,
}


def get(name: str) -> InstanceInfo:
    if name not in REGISTRY:
        raise KeyError(f"unknown instance {name!r}; see `instance list`")
    return REGISTRY[name]
