"""Finite categories, functors, natural transformations, and their checkers.

Categories may be tabular (all sets enumerated up front) or lazy (homs and
composition computed on demand from a rule).  Either way every operation is
total and deterministic: each structure enumerates its objects and
hom-sets in its canonical order, fixed when it is built, so checkers
iterate them as they come and reports are reproducible byte for byte.

All structures are immutable after construction and safe to share
read-only across threads; no checker mutates shared state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from .errors import BudgetExceeded, FormatError, NotComposable
from .report import Report

ObjId = Hashable
MorId = Hashable
MAX_OBJECTS = 64  # quantified checks range over at most this many objects


def name_key(x) -> tuple[int, str]:
    """The canonical order of named items: length, then text, so generated
    names like m2 and m10 sort numerically and renaming is stable across
    dump/parse/dump."""
    s = str(x)
    return (len(s), s)


@dataclass(frozen=True)
class Bounds:
    """The horizon of every exhaustive check and construction: signatures
    of total arity at most ``max_arity``, and enumerated hom-sets of at
    most ``max_homset`` morphisms.  Exceeding a bound raises
    BudgetExceeded, never silently truncates."""

    max_arity: int = 3
    max_homset: int = 4096


DEFAULT_BOUNDS = Bounds()


class Category:
    """Interface shared by tabular and lazy categories.

    ``objects`` enumerates the seed objects that quantified checks range
    over; a lazy category may contain further objects (e.g. nested hom
    objects) that are reachable but not enumerated.

    Order contract: ``objects()`` and every ``hom(x, y)`` enumerate in the
    category's canonical order, established once when it is built, so
    consumers iterate them as they come and never sort them again.
    """

    name: str = "?"

    def objects(self) -> Sequence[ObjId]:
        raise NotImplementedError

    def hom(self, x: ObjId, y: ObjId) -> Sequence[MorId]:
        raise NotImplementedError

    def identity(self, x: ObjId) -> MorId:
        raise NotImplementedError

    def compose(self, f: MorId, g: MorId) -> MorId:
        """Composite of f: X -> Y and g: Y -> Z, in diagram order."""
        raise NotImplementedError

    # A morphism value that carries its endpoints answers them; a
    # category of named morphisms keeps an endpoint table instead.
    def dom(self, f: MorId) -> ObjId:
        return f.dom

    def cod(self, f: MorId) -> ObjId:
        return f.cod

    # The key of the objects() order: x's position in it.  No part of the
    # package reads it; the benchmark's ek summary sorts a normalized
    # category's objects by it, and that output is golden-digested.
    def obj_key(self, x: ObjId) -> int:
        return self.objects().index(x)

    # Objects and morphisms print as str.  The benchmark's ek summary
    # prints objects through this method, so it stays.
    def show_obj(self, x: ObjId) -> str:
        return str(x)

    # Convenience used throughout the checkers.
    def compose_chain(self, first: MorId, *rest: MorId) -> MorId:
        out = first
        for g in rest:
            out = self.compose(out, g)
        return out

    def all_morphisms(self):
        for x in self.objects():
            for y in self.objects():
                for f in self.hom(x, y):
                    yield f


def entry_name(key) -> str:
    """A table key in the file's syntax: tuple parts joined by ","."""
    return ",".join(map(str, key)) if isinstance(key, tuple) else str(key)


def hom_entry(key) -> str:
    """A hom-set's key (xs, y) in the file's syntax "x1,x2;y"."""
    xs, y = key
    return ",".join(map(str, xs)) + f";{y}"


def preimages(domain, fn) -> dict:
    """The finite map ``fn`` on ``domain``, inverted: each image to the
    tuple of its preimages, in domain order.  Every inverse of a finite
    bijection reads such a table, and a preimage count other than one is
    the exact number of solutions."""
    table: dict = {}
    for a in domain:
        table.setdefault(fn(a), []).append(a)
    return {img: tuple(pre) for img, pre in table.items()}


def bijective(table: dict, target) -> bool:
    """A preimage table describes a bijection onto ``target``: every image
    has one preimage, and the images are the target, compared as sets
    under the morphisms' own equality."""
    ones = all(len(pre) == 1 for pre in table.values())
    return ones and table.keys() == set(target)


def require_declared(
    name: str, label: str, table: dict, declared, show=entry_name, what="morphism"
) -> None:
    """Every value of ``table`` names a declared morphism (or ``what``);
    otherwise raise a FormatError naming the entry that holds the first
    undeclared value, its key written by ``show``.  A table that passes
    costs one membership pass over its values."""
    if all(map(declared.__contains__, table.values())):
        return
    for key, f in table.items():
        if f not in declared:
            raise FormatError(
                f'{name}: {label} entry "{show(key)}" names undeclared {what} "{f}"'
            )


def require_declared_keys(
    name: str,
    label: str,
    table: dict,
    declared,
    parts=tuple,
    show=entry_name,
    what="object",
) -> None:
    """Every object (or ``what``) ``parts(key)`` lists for a key of
    ``table`` is declared; otherwise raise a FormatError naming the first
    key with an undeclared one, written by ``show``.  A table that passes
    costs one membership pass over its keys."""
    if all(declared.issuperset(parts(key)) for key in table):
        return
    for key in table:
        for x in parts(key):
            if x not in declared:
                raise FormatError(
                    f'{name}: {label} key "{show(key)}" names undeclared {what} "{x}"'
                )


def require_declared_identities(
    name: str, objects, identity: dict, declared
) -> None:
    """Every object has an id entry and every identity names a morphism
    of some hom-set; otherwise raise a FormatError naming the object or
    the entry of the id table."""
    for x in objects:
        if x not in identity:
            raise FormatError(f'{name}: id table has no entry "{x}"')
    require_declared(name, "id", identity, declared)


class TabularCategory(Category):
    """Category given by explicit finite tables, its objects and each
    hom list in ``name_key`` order whatever order the tables give."""

    def __init__(
        self,
        name: str,
        objects: Sequence[ObjId],
        hom: dict[tuple[ObjId, ObjId], Sequence[MorId]],
        compose: dict[tuple[MorId, MorId], MorId],
        identity: dict[ObjId, MorId],
    ):
        self.name = name
        self._objects = tuple(sorted(objects, key=name_key))
        self._hom = {k: tuple(sorted(v, key=name_key)) for k, v in hom.items()}
        self._compose = dict(compose)
        self._identity = dict(identity)
        require_declared_keys(name, "hom", self._hom, set(self._objects))
        self._ends: dict[MorId, tuple[ObjId, ObjId]] = {}
        for (x, y), fs in self._hom.items():
            for f in fs:
                if f in self._ends:
                    raise ValueError(f"morphism id {f!r} used in two hom-sets")
                self._ends[f] = (x, y)
        show = "{0[0]};{0[1]}".format
        require_declared_keys(
            name, "compose", self._compose, set(self._ends), show=show, what="morphism"
        )
        require_declared(name, "compose", self._compose, self._ends, show)
        require_declared_identities(
            name, self._objects, self._identity, self._ends
        )

    def objects(self):
        return self._objects

    def hom(self, x, y):
        return self._hom.get((x, y), ())

    def identity(self, x):
        return self._identity[x]

    def compose(self, f, g):
        if self.cod(f) != self.dom(g):
            raise NotComposable(f"cannot compose {f} with {g}")
        try:
            return self._compose[(f, g)]
        except KeyError:
            raise FormatError(
                f'{self.name}: compose table has no entry "{f};{g}"'
            ) from None

    def dom(self, f):
        return self._ends[f][0]

    def cod(self, f):
        return self._ends[f][1]


@dataclass(frozen=True)
class Functor:
    """Functor between two category handles, or multifunctor between two
    multicategory handles: a functor is a multifunctor whose morphisms
    are all unary, so one type serves both levels and each checker reads
    the maps against its own level's laws.

    ``obj_map``/``mor_map`` are callables so that lazily generated
    morphisms (e.g. composites formed during a check) can be mapped.
    """

    name: str
    source: Category  # or a multicat.Multicategory
    target: Category
    obj_map: Callable[[ObjId], ObjId]
    mor_map: Callable[[MorId], MorId]

    @staticmethod
    def identity(cat: Category) -> "Functor":
        return Functor("id", cat, cat, lambda x: x, lambda f: f)

    def then(self, other: "Functor") -> "Functor":
        if other.source is not self.target:
            raise ValueError("functor endpoints do not match")
        return Functor(
            f"{self.name};{other.name}",
            self.source,
            other.target,
            lambda x: other.obj_map(self.obj_map(x)),
            lambda f: other.mor_map(self.mor_map(f)),
        )


@dataclass(frozen=True)
class NaturalTransformation:
    """Natural transformation between two functors, or multinatural
    transformation between two multifunctors: one component per object
    of the source, at either level."""

    name: str
    source: Functor
    target: Functor
    components: Callable[[ObjId], MorId]

    @staticmethod
    def identity(F: Functor) -> "NaturalTransformation":
        return NaturalTransformation(
            "id", F, F, lambda x: F.target.identity(F.obj_map(x))
        )


def guard_objects(cat: Category, bounds: Bounds) -> Sequence[ObjId]:
    """The enumerated objects of cat, once they are known to number at
    most MAX_OBJECTS with every hom-set between them of at most
    ``bounds.max_homset`` morphisms; otherwise BudgetExceeded."""
    objs = cat.objects()
    if len(objs) > MAX_OBJECTS:
        raise BudgetExceeded(
            f"{cat.name}: {len(objs)} objects exceed budget {MAX_OBJECTS}"
        )
    for x in objs:
        for y in objs:
            if len(cat.hom(x, y)) > bounds.max_homset:
                raise BudgetExceeded(f"{cat.name}: hom({x},{y}) over budget")
    return objs


def guard_hom(m, xs, y, bounds: Bounds, partial: bool = False):
    """hom(xs, y) of the multicategory m, once it is known to hold at most
    ``bounds.max_homset`` morphisms; otherwise BudgetExceeded.  With
    ``partial``, a hom-set that m itself refuses to enumerate (its own
    BudgetExceeded: the signature lies outside its horizon) is empty."""
    try:
        fs = m.hom(xs, y)
    except BudgetExceeded:
        if not partial:
            raise
        return ()
    if len(fs) > bounds.max_homset:
        raise BudgetExceeded(f"{m.name}: hom({hom_entry((xs, y))}) over budget")
    return fs


def check_category_axioms(
    cat: Category, bounds: Bounds = DEFAULT_BOUNDS
) -> Report:
    """Associativity, identity neutrality, and endpoint discipline, checked
    exhaustively over the enumerated objects."""
    rep = Report(f"category axioms: {cat.name}")
    objs = guard_objects(cat, bounds)

    bad = []
    for x in objs:
        for y in objs:
            for f in cat.hom(x, y):
                if cat.dom(f) != x or cat.cod(f) != y:
                    bad.append(f"{f} filed under hom({x},{y})")
    rep.law("category/endpoints", "dom/cod", bad)

    bad = []
    typed = set()  # objects whose identity is an endomorphism of them
    for x in objs:
        e = cat.identity(x)
        if cat.dom(e) != x or cat.cod(e) != x:
            bad.append(f"endpoints {x}")
        else:
            typed.add(x)
    # An identity that failed its endpoints is composed with nothing.
    for x in objs:
        for y in objs:
            for f in cat.hom(x, y):
                if x in typed and cat.compose(cat.identity(x), f) != f:
                    bad.append(f"left {f}")
                if y in typed and cat.compose(f, cat.identity(y)) != f:
                    bad.append(f"right {f}")
    rep.law("category/identity", "1;f=f=f;1", bad)

    bad = []
    for x, y, z, w in itertools.product(objs, repeat=4):
        for f in cat.hom(x, y):
            for g in cat.hom(y, z):
                for h in cat.hom(z, w):
                    lhs = cat.compose(cat.compose(f, g), h)
                    rhs = cat.compose(f, cat.compose(g, h))
                    if lhs != rhs:
                        bad.append(f"f={f} g={g} h={h}")
    rep.law("category/assoc", "(f;g);h=f;(g;h)", bad)
    return rep


def check_functor(F: Functor, bounds: Bounds = DEFAULT_BOUNDS) -> Report:
    rep = Report(f"functor: {F.name}")
    src, tgt = F.source, F.target
    objs = guard_objects(src, bounds)

    bad = []
    for x in objs:
        for y in objs:
            for f in src.hom(x, y):
                ff = F.mor_map(f)
                if tgt.dom(ff) != F.obj_map(x) or tgt.cod(ff) != F.obj_map(y):
                    bad.append(str(f))
    rep.law("functor/endpoints", "F(f):FX->FY", bad)

    bad = []
    for x in objs:
        if F.mor_map(src.identity(x)) != tgt.identity(F.obj_map(x)):
            bad.append(str(x))
    rep.law("functor/identity", "F(1)=1", bad)

    bad = []
    for x, y, z in itertools.product(objs, repeat=3):
        for f in src.hom(x, y):
            for g in src.hom(y, z):
                lhs = F.mor_map(src.compose(f, g))
                rhs = tgt.compose(F.mor_map(f), F.mor_map(g))
                if lhs != rhs:
                    bad.append(f"f={f} g={g}")
    rep.law("functor/compose", "F(f;g)=F(f);F(g)", bad)
    return rep


def check_natural(
    t: NaturalTransformation, bounds: Bounds = DEFAULT_BOUNDS
) -> Report:
    """Naturality square for every enumerated morphism of the source."""
    rep = Report(f"natural transformation: {t.name}")
    F, G = t.source, t.target
    src, tgt = F.source, F.target
    objs = guard_objects(src, bounds)
    bad = []
    for x in objs:
        for y in objs:
            for f in src.hom(x, y):
                lhs = tgt.compose(F.mor_map(f), t.components(y))
                rhs = tgt.compose(t.components(x), G.mor_map(f))
                if lhs != rhs:
                    bad.append(f"f={f}")
    rep.law("natural/square", "F(f);t=t;G(f)", bad)
    return rep


def tabularize(cat: Category, bounds: Bounds = DEFAULT_BOUNDS) -> TabularCategory:
    """Materialize a lazy category over its enumerated objects, as its
    category file read back.

    Used as the oracle twin: the tabularization must pass the axiom
    checks exactly when the lazy evaluator does.
    """
    from .interchange import category_from_json, category_to_json

    return category_from_json(category_to_json(cat, bounds))
