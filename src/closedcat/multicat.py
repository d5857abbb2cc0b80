"""Multigraphs and multicategories with arity-capped exhaustive checking.

A morphism has a finite list of objects as its domain and a single object
as codomain; composition plugs a tuple of morphisms into an outer one.
Nullary morphisms () -> Y are first class everywhere.  All universally
quantified checks range over signatures of total arity at most the
bounds' ``max_arity``; rule-backed multicategories (e.g. the one attached
to a strict monoidal category) may refuse larger signatures by raising
BudgetExceeded.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .core import (
    DEFAULT_BOUNDS,
    Bounds,
    Category,
    Functor,
    MorId,
    NaturalTransformation,
    ObjId,
    guard_hom,
    hom_entry,
    name_key,
    require_declared,
    require_declared_identities,
    require_declared_keys,
)
from .errors import BudgetExceeded, FormatError, KernelError, StrictnessError
from .report import Report

Profile = tuple  # tuple[ObjId, ...]


class Multicategory:
    """Order contract: ``objects()`` and every ``hom(xs, y)`` enumerate in
    the multicategory's canonical order, established once when it is
    built, so consumers iterate them as they come and never sort them
    again."""

    name: str = "?"

    def objects(self) -> Sequence[ObjId]:
        raise NotImplementedError

    def hom(self, xs: Profile, y: ObjId) -> Sequence[MorId]:
        raise NotImplementedError

    def identity(self, x: ObjId) -> MorId:
        raise NotImplementedError

    def compose(self, fs: tuple[MorId, ...], g: MorId) -> MorId:
        """Plug fs[i] into the i-th input of g; fs may be empty when g is
        nullary."""
        raise NotImplementedError

    # A morphism value that carries its endpoints answers them; a
    # multicategory of named morphisms keeps a signature table instead.
    def dom(self, f: MorId) -> Profile:
        return f.dom

    def cod(self, f: MorId) -> ObjId:
        return f.cod

    def profiles(self, max_len: int):
        objs = self.objects()
        for n in range(max_len + 1):
            yield from itertools.product(objs, repeat=n)

    def signatures(self, bounds: Bounds):
        for xs in self.profiles(bounds.max_arity):
            for y in self.objects():
                yield xs, y

    def identities_for(self, xs: Profile) -> tuple[MorId, ...]:
        return tuple(map(self.identity, xs))

    def plug(self, g: MorId, i: int, f: MorId) -> MorId:
        """g o_i f: f plugged into input i of g, with identities in the
        other inputs of ``dom(g)``."""
        ids = self.identities_for(self.dom(g))
        return self.compose(ids[:i] + (f,) + ids[i + 1 :], g)

    def composites(self, bounds: Bounds, hom=None):
        """(fs, g, (fs).g) for every composable of ``_composables(self,
        bounds, hom)``, in no promised order.  A composite that compose
        refuses (ValueError, BudgetExceeded, FormatError: it lies outside
        the structure's tabulated horizon) is left out."""
        for g, _, fs in _composables(self, bounds, hom):
            try:
                out = self.compose(fs, g)
            except (ValueError, BudgetExceeded, FormatError):
                continue
            yield fs, g, out

    def keyed_composites(self, bounds: Bounds, hom, name):
        """(keys, out) for the composites of ``composites(bounds, hom)``:
        a list of the file's compose keys "f1,...,fn|g", each morphism
        written ``name(f)``, whose composite is out.  Here each list holds
        the key of one composable; an override may group them, yielding
        the same keys, each once, with equal outs."""
        for fs, g, out in self.composites(bounds, hom):
            yield [",".join(map(name, fs)) + "|" + name(g)], out


def _compose_entry(key) -> str:
    """A composite's key (fs, g) in the file's syntax "f1,f2|g"."""
    fs, g = key
    return ",".join(map(str, fs)) + f"|{g}"


class TabularMulticategory(Multicategory):
    """A multicategory given by explicit finite tables, its objects and
    each hom list in ``name_key`` order whatever order the tables give.
    The compose table is keyed (fs, g), and it is held, not copied."""

    # An entry's key in the file's syntax, for error messages.
    _entry = staticmethod(_compose_entry)

    def __init__(
        self,
        name: str,
        objects: Sequence[ObjId],
        hom: dict[tuple[Profile, ObjId], Sequence[MorId]],
        compose: dict[tuple[tuple[MorId, ...], MorId], MorId],
        identity: dict[ObjId, MorId],
    ):
        self.name = name
        self._objects = tuple(sorted(objects, key=name_key))
        self._hom = {k: tuple(sorted(v, key=name_key)) for k, v in hom.items()}
        self._compose = compose
        self._identity = dict(identity)
        require_declared_keys(
            name,
            "hom",
            self._hom,
            set(self._objects),
            lambda k: (*k[0], k[1]),
            hom_entry,
        )
        self._sig: dict[MorId, tuple[Profile, ObjId]] = {}
        for (xs, y), fs in self._hom.items():
            for f in fs:
                if f in self._sig:
                    raise ValueError(f"morphism id {f!r} used in two hom-sets")
                self._sig[f] = (xs, y)
        require_declared(name, "compose", self._compose, self._sig, self._entry)
        require_declared_identities(
            name, self._objects, self._identity, self._sig
        )

    def objects(self):
        return self._objects

    def hom(self, xs, y):
        return self._hom.get((tuple(xs), y), ())

    def identity(self, x):
        return self._identity[x]

    def compose(self, fs, g):
        key = (tuple(fs), g)
        try:
            return self._compose[key]
        except KeyError:
            raise FormatError(
                f'{self.name}: compose table has no entry "{_compose_entry(key)}"'
            ) from None

    def dom(self, f):
        return self._sig[f][0]

    def cod(self, f):
        return self._sig[f][1]


class TextKeyedMulticategory(TabularMulticategory):
    """A tabular multicategory whose compose table is keyed as a file
    writes it, "f1,...,fn|g", so a table read from a file serves as it
    stands and a composite is looked up by writing its key.  Every name
    is a non-empty string holding no ",", ";" or "|" (the file reader
    checks this), so no two (fs, g) share a key."""

    _entry = staticmethod(str)

    def compose(self, fs, g):
        key = ",".join(fs) + "|" + g
        try:
            return self._compose[key]
        except KeyError:
            raise FormatError(
                f'{self.name}: compose table has no entry "{key}"'
            ) from None


@dataclass(frozen=True)
class StrictMonoidalCategory:
    """Strict monoidal data over a finite category.  ``tensor_obj`` may be
    partial (return None) to model truncated tensor products; the derived
    multicategory raises BudgetExceeded on undefined tensors."""

    cat: Category
    tensor_obj: Callable[[ObjId, ObjId], ObjId | None]
    tensor_mor: Callable[[MorId, MorId], MorId]
    unit: ObjId


def check_strict_monoidal(smc: StrictMonoidalCategory) -> Report:
    rep = Report(f"strict monoidal data: {smc.cat.name}")
    cat = smc.cat
    objs = cat.objects()

    bad = []
    for x in objs:
        if smc.tensor_obj(smc.unit, x) != x or smc.tensor_obj(x, smc.unit) != x:
            bad.append(str(x))
    rep.law("monoidal/unit-strict", "unit strictness on objects", bad)

    bad = []
    one = cat.identity(smc.unit)
    for x in objs:
        for y in objs:
            for f in cat.hom(x, y):
                if smc.tensor_mor(one, f) != f or smc.tensor_mor(f, one) != f:
                    bad.append(str(f))
    rep.law("monoidal/unit-strict-mor", "unit strictness on morphisms", bad)

    bad = []
    for x, y, z in itertools.product(objs, repeat=3):
        xy, yz = smc.tensor_obj(x, y), smc.tensor_obj(y, z)
        if xy is None or yz is None:
            continue
        if smc.tensor_obj(xy, z) != smc.tensor_obj(x, yz):
            bad.append(f"{x},{y},{z}")
    rep.law("monoidal/assoc-strict", "tensor associativity", bad)

    bad = []
    for x, y in itertools.product(objs, repeat=2):
        if smc.tensor_obj(x, y) is None:
            continue
        lhs = smc.tensor_mor(cat.identity(x), cat.identity(y))
        if lhs != cat.identity(smc.tensor_obj(x, y)):
            bad.append(f"{x},{y}")
    rep.law("monoidal/tensor-identity", "1 (x) 1 = 1", bad)

    bad = []
    for a, b, c, d in itertools.product(objs, repeat=4):
        if smc.tensor_obj(a, c) is None or smc.tensor_obj(b, d) is None:
            continue
        for f in cat.hom(a, b):
            for g in cat.hom(c, d):
                for b2 in objs:
                    for d2 in objs:
                        if smc.tensor_obj(b2, d2) is None:
                            continue
                        for f2 in cat.hom(b, b2):
                            for g2 in cat.hom(d, d2):
                                lhs = smc.tensor_mor(
                                    cat.compose(f, f2), cat.compose(g, g2)
                                )
                                rhs = cat.compose(
                                    smc.tensor_mor(f, g), smc.tensor_mor(f2, g2)
                                )
                                if lhs != rhs:
                                    bad.append(f"f={f} g={g}")
    rep.law("monoidal/interchange", "tensor functoriality", bad)
    return rep


class MMor(NamedTuple):
    """A multicategory morphism over a monoidal category: an arrow out of
    the tensor of its domain profile, tagged with that profile.  A named
    tuple, so its hash and equality run in C: the composition memos of
    its structure hash one on every call."""

    dom: Profile
    cod: ObjId
    raw: MorId

    def __str__(self):
        return f"{self.raw}:{','.join(map(str, self.dom))}->{self.cod}"


class MonoidalMulticategory(Multicategory):
    def __init__(self, smc: StrictMonoidalCategory, name: str):
        self.smc = smc
        self.name = name
        # Memos freed with the structure: one identity per object, built
        # once, since every plug pads with identities; each composite and
        # each one-slot composite, as the axiom checks ask for most of
        # them many times.  Neither caches a refusal: an exception is
        # raised again on every call.
        self.identity = functools.cache(self._identity)
        self._composite = functools.cache(self._compose)
        self._plugged = functools.cache(super().plug)

    def objects(self):
        return self.smc.cat.objects()

    def tensor_list(self, xs: Profile) -> ObjId:
        out = self.smc.unit
        for x in xs:
            nxt = self.smc.tensor_obj(out, x)
            if nxt is None:
                raise BudgetExceeded(
                    f"{self.name}: tensor undefined on {xs!r}"
                )
            out = nxt
        return out

    def hom(self, xs, y):
        xs = tuple(xs)
        return tuple(
            MMor(xs, y, f) for f in self.smc.cat.hom(self.tensor_list(xs), y)
        )

    def _identity(self, x):
        return MMor((x,), x, self.smc.cat.identity(x))

    def compose(self, fs, g: MMor):
        return self._composite(tuple(fs), g)

    def plug(self, g: MMor, i: int, f: MMor):
        # The base Multicategory.plug, memoized; it stays as the oracle.
        return self._plugged(g, i, f)

    def _compose(self, fs, g: MMor):
        if tuple(f.cod for f in fs) != g.dom:
            raise ValueError(f"profile mismatch composing into {g}")
        cat = self.smc.cat
        raw = cat.identity(self.tensor_list(()))
        for f in fs:
            raw = self.smc.tensor_mor(raw, f.raw)
        dom = tuple(x for f in fs for x in f.dom)
        return MMor(dom, g.cod, cat.compose(raw, g.raw))


def from_strict_monoidal(
    smc: StrictMonoidalCategory, name: str
) -> MonoidalMulticategory:
    strict = check_strict_monoidal(smc)
    if not strict.ok:
        raise StrictnessError(
            "; ".join(it.line() for it in strict.failures())
        )
    return MonoidalMulticategory(smc, name)


def _walk_table(m: Multicategory, bounds: Bounds, hom=None):
    """The one table of a walk over composables, freed when the walk ends.
    ``homs`` holds the hom-set of every signature within bounds, fetched
    once through ``hom`` (default ``guard_hom``).  ``trie(ys, room)``
    holds the ways to fill the inputs ys within total arity room: a
    branch (d, hom(d, ys[0]), trie(ys[1:], room - |d|)) per domain d, in
    canonical order, kept when its hom-set is non-empty and its rest has
    a completion (``trie((), room)`` is the empty leaf), so every prefix
    reaches a leaf.  ``slots(ys, room)`` flattens it into domain tuples
    with their hom-sets.  Both are built once per (ys, room).  A tuple
    with an empty hom-set has nothing to plug in, so every walk over the
    table is that of the plain nest over all domain tuples."""
    sigs = list(m.signatures(bounds))
    if hom is None:
        hom = lambda xs, y: guard_hom(m, xs, y, bounds)  # noqa: E731
    homs = dict(zip(sigs, itertools.starmap(hom, sigs)))
    profiles = list(m.profiles(bounds.max_arity))  # in increasing length

    @functools.cache  # per walk: freed when the walk ends
    def trie(ys, room):
        if not ys:
            return ()
        out = []
        for d in profiles:
            if len(d) > room:
                break
            fs = homs[(d, ys[0])]
            if fs:
                rest = trie(ys[1:], room - len(d))
                if rest or len(ys) == 1:
                    out.append((d, fs, rest))
        return tuple(out)

    @functools.cache  # per walk: freed when the walk ends
    def slots(ys, room):
        if not ys:
            return (((), ()),)
        return tuple(
            ((d,) + doms, (fs,) + choices)
            for d, fs, _ in trie(ys, room)
            for doms, choices in slots(ys[1:], room - len(d))
        )

    return homs, trie, slots


def _walk(table, n: int):
    """Every composable (g, doms, fs) of a walk table within arity n, in
    canonical order: signatures (ys, z), then g in hom(ys, z), then the
    domain tuples doms of ``slots(ys, n)``, then fs in the product of
    their hom-sets."""
    homs, _, slots = table
    for (ys, z), gs in homs.items():
        for g in gs:
            for doms, choices in slots(ys, n):
                for fs in itertools.product(*choices):
                    yield g, doms, fs


def _composables(m: Multicategory, bounds: Bounds, hom=None):
    """Every composable (g, doms, fs) within bounds, in canonical order,
    from a new walk table whose hom-sets ``hom`` fetches."""
    yield from _walk(_walk_table(m, bounds, hom), bounds.max_arity)


def check_multicategory_axioms(
    m: Multicategory, bounds: Bounds = DEFAULT_BOUNDS
) -> Report:
    """Identity and associativity axioms over all signatures within bounds,
    including nullary inner morphisms.

    ``mc/assoc`` passes without the exhaustive walk only when the
    endpoints and both unit laws hold and ``_assoc_holds`` decides that
    every walk equation does; otherwise the walk ``_assoc_loci`` lists
    the failing loci (or raises what it raises), so the report is the
    walk's on every input.  Every law reads one walk table, which fetches
    each hom-set once, in signature order."""
    rep = Report(f"multicategory axioms: {m.name}")
    table = _walk_table(m, bounds)
    homs = table[0]

    bad = []
    for (xs, y), fs in homs.items():
        for f in fs:
            if m.dom(f) != xs or m.cod(f) != y:
                bad.append(str(f))
    ends_bad = rep.law("mc/endpoints", "dom/cod", bad)

    bad = []
    for (xs, y), fs in homs.items():
        for f in fs:
            if m.compose(m.identities_for(xs), f) != f:
                bad.append(f"(1,..,1).{f}")
    inner_bad = rep.law("mc/identity-inner", "(1,...,1).g = g", bad)

    bad = []
    for (xs, y), fs in homs.items():
        for f in fs:
            if m.compose((f,), m.identity(y)) != f:
                bad.append(f"{f}.1")
    outer_bad = rep.law("mc/identity-outer", "(f).1 = f", bad)

    n = bounds.max_arity
    try:
        holds = not (ends_bad or inner_bad or outer_bad) and _assoc_holds(m, table, n)
    except (KernelError, ValueError):
        holds = False
    bad = [] if holds else _assoc_loci(m, table, n)
    rep.law("mc/assoc", "two-level associativity", bad)
    return rep


def _assoc_loci(m: Multicategory, table, n: int) -> list[str]:
    """Exhaustive two-level associativity: every (g, fs, hs) of the walk
    table within arity n, one locus per failing triple, in canonical
    order.  Both levels read the one table."""
    slots = table[2]
    bad = []
    for g, doms, fs in _walk(table, n):
        mid = m.compose(fs, g)
        flat_xs = tuple(x for d in doms for x in d)
        ends = tuple(itertools.accumulate(map(len, doms)))
        blocks = tuple(zip((0,) + ends, ends, fs))  # f_i and its hs slice
        for _, hs_choices in slots(flat_xs, n):
            for hs in itertools.product(*hs_choices):
                lhs = m.compose(hs, mid)
                inner = tuple(m.compose(hs[a:b], f) for a, b, f in blocks)
                if lhs != m.compose(inner, g):
                    bad.append(
                        f"g={g} fs=" + ",".join(map(str, fs))
                    )
    return bad


def _assoc_holds(m: Multicategory, table, n: int) -> bool:
    """Decide the equations of ``_assoc_loci`` through partial composition
    (Leinster, *Higher Operads, Higher Categories*, 2004; Markl, *Operads
    and PROPs*, 2008), given that the endpoints and both unit laws hold
    within bounds.  True means every walk equation holds and every
    composite the walk takes succeeds; False (or an exception) means the
    walk must decide.

    Write n for the walk's arity bound, C for the typed pairs (fs, g) with
    |g| <= n and sum |f_i| <= n (the walk composes exactly these), and
    a o_p f = ``m.plug(a, p, f)`` for plugging f into input p of a, with
    identities on the other inputs of ``m.dom(a)``.  Checked:

    (t) every identity, and through (a) the composite of every pair in
        C, is an element of the hom-set of its signature;
    (a) decomposition: for every (fs, g) in C, (fs).g equals the one-slot
        composites g o f_i taken in ascending |f_i|, then slot.  Steps
        that lower the arity (nullary f_i) go first, unary ones keep it
        and the rest raise it, so every intermediate has arity at most
        max(|g|, sum |f_i|) <= n;
    (b) one-slot triples: for every g, f plugged into input i of g and h
        into input p of g o_i f, both within n and neither an identity
        (plugging an identity changes nothing, by the unit laws):
        sequential associativity (g o_i f) o_p h = g o_i (f o_q h) when h
        lands in f's block, and parallel associativity
        (g o_i f) o_p h = (1,..,f,..,h,..,1).g when h lands on another
        input j of g.  These are the walk triples whose fs and hs differ
        from identities in one entry each, with the right side reduced
        by the unit laws.

    Soundness.  By (t) every value met is a hom element within bounds, so
    by the endpoints ``m.dom`` of it is the profile tracked, the unit laws
    and (b) apply to it, and every composite the walk takes is in C, all
    of which (a) has taken.  Then:

    1. Any order of plugging fs into g whose intermediates stay within n
       gives (fs).g: bubble-sort it into the order of (a).  Swapping
       adjacent a, b with |b| <= |a| at a value S keeps S o b within n,
       and parallel associativity at g := S equates both (S o a) o b and
       (S o b) o a to (..a..b..).S.
    2. If h lies in the block of f_i (so |f_i| >= 1), then by 1
       (fs).g = G o f_i with G = (fs, f_i := 1).g and |G| <= |(fs).g|,
       and (b) sequential gives ((fs).g) o h = G o (f_i o h), which by 1
       again is (fs, f_i := f_i o h).g.
    3. A walk triple (g, fs, hs): expand (hs).((fs).g) by (a); step 2
       moves each h into its f_i while every intermediate stays in C, and
       the h of one block arrive in that block's own (a) order, so each
       f_i ends as (split_i).f_i and the left side is the right side.
    """
    homs, trie, slots = table
    elems = {sig: set(fs) for sig, fs in homs.items()}
    one = {x: m.identity(x) for x in m.objects()}
    if n and any(one[x] not in elems[((x,), x)] for x in one):
        return False

    for (ys, z), gs in homs.items():
        for doms, choices in slots(ys, n):
            order = sorted(range(len(ys)), key=lambda i: (len(doms[i]), i))
            for g in gs:
                for fs in itertools.product(*choices):
                    cur, xs, widths = g, ys, [1] * len(ys)
                    for i in order:
                        p = sum(widths[:i])
                        cur = m.plug(cur, p, fs[i])
                        xs, widths[i] = xs[:p] + doms[i] + xs[p + 1 :], len(doms[i])
                        if cur not in elems[(xs, z)]:
                            return False
                    if m.compose(fs, g) != cur:
                        return False

    for (ys, z), gs in homs.items():
        for g, i in itertools.product(gs, range(len(ys))):
            for d, f_choices, _ in trie((ys[i],), n + 1 - len(ys)):
                for f in f_choices:
                    if d == (ys[i],) and f == one[ys[i]]:
                        continue
                    mid = m.plug(g, i, f)
                    xs = ys[:i] + d + ys[i + 1 :]
                    for p in range(len(xs)):
                        for e, h_choices, _ in trie((xs[p],), n + 1 - len(xs)):
                            for h in h_choices:
                                if e == (xs[p],) and h == one[xs[p]]:
                                    continue
                                if i <= p < i + len(d):  # sequential
                                    rhs = m.plug(g, i, m.plug(f, p - i, h))
                                else:  # parallel: h goes to input j of g
                                    j = p if p < i else p - len(d) + 1
                                    fs = list(m.identities_for(ys))
                                    fs[i], fs[j] = f, h
                                    rhs = m.compose(tuple(fs), g)
                                if m.plug(mid, p, h) != rhs:
                                    return False
    return True


def check_multifunctor(F: Functor, bounds: Bounds = DEFAULT_BOUNDS) -> Report:
    rep = Report(f"multifunctor: {F.name}")
    src, tgt = F.source, F.target

    bad = []
    for xs, y in src.signatures(bounds):
        for f in guard_hom(src, xs, y, bounds):
            ff = F.mor_map(f)
            want_dom = tuple(F.obj_map(x) for x in xs)
            if tgt.dom(ff) != want_dom or tgt.cod(ff) != F.obj_map(y):
                bad.append(str(f))
    rep.law("mf/endpoints", "F(f):FX1,..,FXn->FY", bad)

    bad = []
    for x in src.objects():
        if F.mor_map(src.identity(x)) != tgt.identity(F.obj_map(x)):
            bad.append(str(x))
    rep.law("mf/identity", "F(1)=1", bad)

    bad = []
    for g, _, fs in _composables(src, bounds):
        lhs = F.mor_map(src.compose(fs, g))
        rhs = tgt.compose(tuple(F.mor_map(f) for f in fs), F.mor_map(g))
        if lhs != rhs:
            bad.append(
                f"g={g} fs=" + ",".join(map(str, fs))
            )
    rep.law("mf/compose", "F((fs).g)=(F(fs)).F(g)", bad)
    return rep


def check_multinat(
    r: NaturalTransformation, bounds: Bounds = DEFAULT_BOUNDS
) -> Report:
    rep = Report(f"multinatural transformation: {r.name}")
    F, G = r.source, r.target
    src, tgt = F.source, F.target

    bad = []
    for xs, y in src.signatures(bounds):
        for f in guard_hom(src, xs, y, bounds):
            lhs = tgt.compose((F.mor_map(f),), r.components(y))
            rhs = tgt.compose(
                tuple(r.components(x) for x in xs), G.mor_map(f)
            )
            if lhs != rhs:
                bad.append(str(f))
    rep.law("mn/square", "Ff.r = (r,...,r).Gf", bad)
    return rep


def tabularize_multicat(
    m: Multicategory, bounds: Bounds = DEFAULT_BOUNDS
) -> TextKeyedMulticategory:
    """Materialize hom-sets and single-level composition within bounds, as
    the multicategory file read back; the oracle twin for rule-backed
    multicategories."""
    from .interchange import multicat_from_json, multicat_to_json

    return multicat_from_json(multicat_to_json(m, bounds))[0]
