"""Closed multicategories: internal hom objects, currying, the internal
hom-category with its composition, closing transformations, and unit
objects.

The witness carries the unary hom objects and evaluations declared by an
instance; n-ary hom data is derived by peeling the last argument, and the
currying map at every signature is verified bijective.  Currying itself
reads the witness's exhaustive table of uncurrying with a uniqueness
assertion, so it doubles as a closedness verifier: a wrong witness
surfaces as NotBijective rather than as a silently wrong answer.

The closing transformation of a multifunctor F at arity 1 is the hom
comparison of the closed functor U(F) it induces
(``correspond.underlying_closed_functor``), so its laws are stated there
once: its currying square and its preservation of the internal
identities and composition are CF1..CF3 of U(F)
(``closed.check_cf_axioms``), its value on a composite is
``u-fun/compose``, and its hexagon along a multinatural transformation r
is CN2 of U(r).  At every arity they follow from multifunctoriality
(``multicat.check_multifunctor``).

A function that needs the unit reads it through
``ClosednessWitness.declared_unit``, which raises NoUnitFound on a
witness that declares none.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

from .core import (
    DEFAULT_BOUNDS,
    Bounds,
    Functor,
    MorId,
    ObjId,
    bijective,
    guard_hom,
    preimages,
)
from .errors import NoUnitFound, NotBijective
from .multicat import Multicategory, Profile, _composables
from .report import Report


@dataclass(frozen=True)
class UnitWitness:
    unit: ObjId
    u: MorId  # nullary morphism () -> unit


@dataclass
class ClosednessWitness:
    """Unary internal homs und(X;Z) and evaluations ev : X, und(X;Z) -> Z,
    with the unit object, if one is declared.

    ``hom_obj``/``ev`` extend the unary data to every arity: the empty
    profile gives und(;Z) = Z with the identity evaluation, and longer
    profiles peel their last object.
    """

    m: Multicategory
    hom_obj1: dict[tuple[ObjId, ObjId], ObjId]
    ev1: dict[tuple[ObjId, ObjId], MorId]
    unit: UnitWitness | None = None

    def __post_init__(self):
        # Memos freed with the witness: the derived evaluations per
        # (profile, object), the preimage tables of currying per
        # (xs, ys, z, bounds) and of the factorization through the unit
        # per (x, bounds), and the internal category and the underlying
        # closed category U(M) per bounds.
        self._ev = functools.cache(self._derive_ev)
        self.curry_table = functools.cache(self._uncurry_preimages)
        self.unit_table = functools.cache(self._unit_preimages)
        self.internal_category = functools.cache(self._internal_category)
        self.underlying = functools.cache(self._underlying)

    def declared_unit(self) -> UnitWitness:
        """The unit, or NoUnitFound when the witness declares none."""
        if self.unit is None:
            raise NoUnitFound(f"{self.m.name}: the witness declares no unit")
        return self.unit

    def hom_obj(self, xs: Profile, z: ObjId) -> ObjId:
        xs = tuple(xs)
        if not xs:
            return z
        if len(xs) == 1:
            return self.hom_obj1[(xs[0], z)]
        return self.hom_obj1[(xs[-1], self.hom_obj(xs[:-1], z))]

    def ev(self, xs: Profile, z: ObjId) -> MorId:
        return self._ev(tuple(xs), z)

    def _derive_ev(self, xs: Profile, z: ObjId) -> MorId:
        if not xs:
            return self.m.identity(z)
        if len(xs) == 1:
            return self.ev1[(xs[0], z)]
        head, last = xs[:-1], xs[-1]
        inner = self.hom_obj(head, z)
        return self.m.plug(self.ev(head, z), len(head), self.ev((last,), inner))

    def _uncurry_preimages(self, xs, ys, z, bounds) -> dict:
        """Uncurrying on hom(ys; und(xs;z)), inverted."""
        hom = guard_hom(self.m, ys, self.hom_obj(xs, z), bounds)
        return preimages(hom, lambda g: uncurry(self, g, xs, z))

    def _unit_preimages(self, x, bounds) -> dict:
        """Precomposition with u on hom(unit; x), inverted."""
        uw = self.declared_unit()
        hom = guard_hom(self.m, (uw.unit,), x, bounds)
        return preimages(hom, lambda g: self.m.compose((uw.u,), g))

    def _internal_category(self, bounds: Bounds) -> "InternalCategory":
        """mu (currying the two-step evaluation), the internal identities
        (currying actual identities), and L (currying mu)."""
        m = self.m
        objs = m.objects()
        mu, unit1, LX = {}, {}, {}
        for x in objs:
            unit1[x] = curry(self, m.identity(x), 1, bounds)
        for x, y, z in itertools.product(objs, repeat=3):
            two_step = m.plug(self.ev((y,), z), 0, self.ev((x,), y))
            mu[(x, y, z)] = curry(self, two_step, 1, bounds)
            LX[(x, y, z)] = curry(self, mu[(x, y, z)], 1, bounds)
        return InternalCategory(mu, unit1, LX)

    def _underlying(self, bounds: Bounds):
        from .correspond import underlying_closed_category

        return underlying_closed_category(self, bounds)


def uncurry(
    w: ClosednessWitness, g: MorId, xs: Profile, z: ObjId
) -> MorId:
    """The currying bijection, forward direction: plug g into the last
    input of the evaluation of the given signature."""
    xs = tuple(xs)
    return w.m.plug(w.ev(xs, z), len(xs), g)


def curry(
    w: ClosednessWitness,
    f: MorId,
    split: int,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> MorId:
    """The unique g with uncurry(g) = f, splitting off the first ``split``
    source objects of f, read from the witness's currying table;
    NotBijective when the count of solutions differs from one."""
    m = w.m
    dom = tuple(m.dom(f))
    if split < 0 or split > len(dom):
        raise ValueError("bad split")
    if split == 0:
        return f
    hits = w.curry_table(dom[:split], dom[split:], m.cod(f), bounds).get(f, ())
    if len(hits) != 1:
        raise NotBijective(f"{m.name}: {len(hits)} curryings of {f} at split {split}")
    return hits[0]


def check_closedness(
    w: ClosednessWitness, bounds: Bounds = DEFAULT_BOUNDS
) -> Report:
    """Bijectivity of the currying map at every signature within bounds,
    plus the nullary conventions und(;Z) = Z, ev = 1."""
    rep = Report(f"closedness: {w.m.name}")
    m = w.m

    bad = []
    for z in m.objects():
        if w.hom_obj((), z) != z or w.ev((), z) != m.identity(z):
            bad.append(str(z))
    rep.law("closed/nullary-convention", "und(;Z)=Z, ev=1", bad)

    bad = []
    for xs, z in m.signatures(bounds):
        for ys in m.profiles(bounds.max_arity - len(xs)):
            table = w.curry_table(xs, ys, z, bounds)
            target = guard_hom(m, xs + ys, z, bounds)
            if not bijective(table, target):
                bad.append(f"({','.join(map(str, xs))};{','.join(map(str, ys))};{z})")
    rep.law("closed/phi-bijective", "currying map bijective", bad)
    return rep


def check_nary_factorization(
    w: ClosednessWitness, bounds: Bounds = DEFAULT_BOUNDS
) -> Report:
    """The derived n-ary currying factors through two one-step curryings,
    stage by stage."""
    rep = Report(f"n-ary hom derivation: {w.m.name}")
    m = w.m
    bad = []
    for xs, z in m.signatures(bounds):
        if len(xs) < 2:
            continue
        head, last = xs[:-1], xs[-1]
        inner = w.hom_obj(head, z)
        for ys in m.profiles(bounds.max_arity - len(xs)):
            for g in guard_hom(m, ys, w.hom_obj(xs, z), bounds):
                one = uncurry(w, g, (last,), inner)
                two = uncurry(w, one, head, z)
                if two != uncurry(w, g, xs, z):
                    bad.append(f"g={g} xs={xs}")
    rep.law("closed/phi-factorization", "staged currying agrees", bad)
    return rep


def hom_action_contra(
    w: ClosednessWitness, f: MorId, z: ObjId, bounds: Bounds = DEFAULT_BOUNDS
) -> MorId:
    """und(f;Z) : und(Y;Z) -> und(X1..Xn;Z) for f : X1..Xn -> Y.

    Nullary f gives the evaluation against f itself; otherwise the unique
    solution is found by currying f plugged into the evaluation."""
    m = w.m
    return curry(w, m.plug(w.ev((m.cod(f),), z), 0, f), len(m.dom(f)), bounds)


def hom_action_cov(
    w: ClosednessWitness,
    xs: Profile,
    g: MorId,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> MorId:
    """und(X1..Xn;g) : und(X1..Xn;Y) -> und(X1..Xn;Z) for g : Y -> Z."""
    m = w.m
    xs = tuple(xs)
    y = m.dom(g)[0]
    composite = m.compose((w.ev(xs, y),), g)
    return curry(w, composite, len(xs), bounds)


@dataclass
class InternalCategory:
    """The hom-category internal to a closed multicategory: composition mu,
    nullary identities, and the left hom functor action L."""

    mu: dict[tuple[ObjId, ObjId, ObjId], MorId]
    unit1: dict[ObjId, MorId]
    LX: dict[tuple[ObjId, ObjId, ObjId], MorId]


def check_internal_category(
    w: ClosednessWitness, bounds: Bounds = DEFAULT_BOUNDS
) -> Report:
    """Associativity, the unit laws and the defining equation of L for the
    witness's internal category, ``w.internal_category(bounds)``."""
    rep = Report(f"internal category: {w.m.name}")
    m = w.m
    objs = m.objects()
    ic = w.internal_category(bounds)
    mu, unit1, LX = ic.mu, ic.unit1, ic.LX

    bad = []
    for x, y, z, v in itertools.product(objs, repeat=4):
        lhs = m.plug(mu[(x, z, v)], 0, mu[(x, y, z)])
        rhs = m.plug(mu[(x, y, v)], 1, mu[(y, z, v)])
        if lhs != rhs:
            bad.append(f"{x},{y},{z},{v}")
    rep.law("internal/mu-assoc", "associativity of mu", bad)

    bad = []
    for x, y in itertools.product(objs, repeat=2):
        left = mu_left_unit_holds(w, ic, x, y)
        right = m.plug(mu[(x, y, y)], 1, unit1[y])
        if not left or right != m.identity(w.hom_obj((x,), y)):
            bad.append(f"{x},{y}")
    rep.law("internal/mu-unit", "unit laws for mu", bad)

    bad = []
    for x, y, z in itertools.product(objs, repeat=3):
        ev = w.ev((w.hom_obj((x,), y),), w.hom_obj((x,), z))
        lhs = m.plug(ev, 1, LX[(x, y, z)])
        if lhs != mu[(x, y, z)]:
            bad.append(f"{x},{y},{z}")
    rep.law("internal/L-equation", "(1,L).ev = mu", bad)
    return rep


def mu_left_unit_holds(
    w: ClosednessWitness, ic: InternalCategory, x: ObjId, y: ObjId
) -> bool:
    """The left unit law of the internal composition at X, Y:
    (unit1_X, 1).mu_XXY = 1 on und(X;Y).  It is ``internal/mu-unit``'s
    left half and ``u/CC2-unit-law``."""
    m = w.m
    lhs = m.plug(ic.mu[(x, x, y)], 0, ic.unit1[x])
    return lhs == m.identity(w.hom_obj((x,), y))


def L_identity_loci(w: ClosednessWitness, ic: InternalCategory) -> list[str]:
    """Objects X, Y at which L fails to preserve the internal identity:
    (unit1_Y).L_XYY = unit1_und(X;Y)."""
    m = w.m
    objs = m.objects()
    bad = []
    for x in objs:
        for y in objs:
            lhs = m.compose((ic.unit1[y],), ic.LX[(x, y, y)])
            if lhs != ic.unit1[w.hom_obj((x,), y)]:
                bad.append(f"{x},{y}")
    return bad


def L_compose_loci(w: ClosednessWitness, ic: InternalCategory) -> list[str]:
    """Objects X, Y, Z, V at which L fails to preserve the internal
    composition: (mu_YZV).L_XYV = (L_XYZ, L_XZV).mu at the hom objects."""
    m = w.m
    objs = m.objects()
    bad = []
    for x, y, z, v in itertools.product(objs, repeat=4):
        lhs = m.compose((ic.mu[(y, z, v)],), ic.LX[(x, y, v)])
        rhs = m.compose(
            (ic.LX[(x, y, z)], ic.LX[(x, z, v)]),
            ic.mu[(w.hom_obj((x,), y), w.hom_obj((x,), z), w.hom_obj((x,), v))],
        )
        if lhs != rhs:
            bad.append(f"{x},{y},{z},{v}")
    return bad


def verify_internal_lemmas(
    w: ClosednessWitness, bounds: Bounds = DEFAULT_BOUNDS
) -> Report:
    """The decomposition identities for curried composites, functoriality
    of the internal hom in both arguments, and the hom functor laws of L,
    re-derived mechanically on the instance."""
    rep = Report(f"internal hom lemmas: {w.m.name}")
    m = w.m
    ic = w.internal_category(bounds)
    objs = m.objects()

    bad_a, bad_b, bad_c, bad_d = [], [], [], []
    for g, doms, fs in _composables(m, bounds):
        if not doms:
            continue  # nullary g: nothing to curry
        z = m.cod(g)
        ys = m.dom(g)
        whole = m.compose(fs, g)
        f1 = fs[0]
        k1 = len(m.dom(f1))
        rest = fs[1:]
        tail = m.compose(rest, curry(w, g, 1, bounds))
        if k1 == 0:
            got = m.compose((tail,), hom_action_contra(w, f1, z, bounds))
            if got != whole:
                bad_a.append(f"g={g}")
        elif k1 == 1:
            got = m.compose((tail,), hom_action_contra(w, f1, z, bounds))
            if got != curry(w, whole, 1, bounds):
                bad_b.append(f"g={g}")
        if k1 >= 1:
            x11 = m.dom(f1)[0]
            y1 = m.cod(f1)
            step1 = (curry(w, f1, 1, bounds),) + rest
            step2 = m.plug(ic.mu[(x11, y1, z)], 1, curry(w, g, 1, bounds))
            got = m.compose(step1, step2)
            if got != curry(w, whole, 1, bounds):
                bad_c.append(f"g={g}")
        if len(fs) == 1 and k1 >= 1:
            got = m.compose(
                (curry(w, f1, 1, bounds),),
                hom_action_cov(w, (m.dom(f1)[0],), g, bounds),
            )
            if got != curry(w, whole, 1, bounds):
                bad_d.append(f"g={g}")
    rep.law("lemma/curry-split-nullary", "curried composite, nullary head", bad_a)
    rep.law("lemma/curry-split-unary", "curried composite, unary head", bad_b)
    rep.law("lemma/curry-split-general", "curried composite via mu", bad_c)
    rep.law("lemma/curry-postcompose", "curried postcomposition", bad_d)

    unary = [
        f
        for x in objs
        for y in objs
        for f in guard_hom(m, (x,), y, bounds)
    ]
    bad = []
    for f in unary:
        for g in unary:
            if m.cod(f) != m.dom(g)[0]:
                continue
            for v in objs:
                lhs = hom_action_cov(w, (v,), m.compose((f,), g), bounds)
                rhs = m.compose(
                    (hom_action_cov(w, (v,), f, bounds),),
                    hom_action_cov(w, (v,), g, bounds),
                )
                if lhs != rhs:
                    bad.append(f"f={f} g={g}")
    rep.law("lemma/hom-cov-compose", "und(W;f.g)=und(W;f);und(W;g)", bad)

    bad = []
    for f in unary:
        for g in unary:
            if m.cod(f) != m.dom(g)[0]:
                continue
            for z in objs:
                lhs = hom_action_contra(w, m.compose((f,), g), z, bounds)
                rhs = m.compose(
                    (hom_action_contra(w, g, z, bounds),),
                    hom_action_contra(w, f, z, bounds),
                )
                if lhs != rhs:
                    bad.append(f"f={f} g={g}")
    rep.law("lemma/hom-contra-compose", "und(f.g;Z)=und(g;Z);und(f;Z)", bad)

    bad = []
    for f in unary:
        for g in unary:
            y = m.dom(g)[0]
            zz = m.cod(g)
            lhs = m.compose(
                (hom_action_contra(w, f, y, bounds),),
                hom_action_cov(w, (m.dom(f)[0],), g, bounds),
            )
            rhs = m.compose(
                (hom_action_cov(w, (m.cod(f),), g, bounds),),
                hom_action_contra(w, f, zz, bounds),
            )
            if lhs != rhs:
                bad.append(f"f={f} g={g}")
    rep.law("lemma/hom-mixed", "contravariant and covariant actions commute", bad)

    rep.law(
        "lemma/L-functor-identities", "L preserves identities", L_identity_loci(w, ic)
    )
    rep.law(
        "lemma/L-functor-compose", "L preserves composition", L_compose_loci(w, ic)
    )

    bad = []
    for x in objs:
        for z in objs:
            if hom_action_contra(w, m.identity(x), z, bounds) != m.identity(
                w.hom_obj((x,), z)
            ):
                bad.append(f"{x},{z}")
            if hom_action_cov(w, (x,), m.identity(z), bounds) != m.identity(
                w.hom_obj((x,), z)
            ):
                bad.append(f"{x},{z}")
    rep.law("lemma/hom-identity", "und(1;Z)=1 and und(X;1)=1", bad)
    return rep


def closing_transformation(
    w_src: ClosednessWitness,
    w_tgt: ClosednessWitness,
    F: Functor,
    xs: Profile,
    z: ObjId,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> MorId:
    """The canonical comparison F und(X1..Xm;Z) -> und(FX1..FXm;FZ): the
    currying of the image of the evaluation morphism."""
    fev = F.mor_map(w_src.ev(tuple(xs), z))
    return curry(w_tgt, fev, len(xs), bounds)


def unit_contraction(w: ClosednessWitness, x: ObjId) -> MorId:
    """und(u;X) : und(unit;X) -> X, the evaluation against u."""
    return hom_action_contra(w, w.declared_unit().u, x)


def contraction_inverses(
    w: ClosednessWitness, x: ObjId, bounds: Bounds
) -> list[MorId]:
    """Every two-sided inverse X -> und(unit;X) of the unit contraction at
    X, by exhaustive search in canonical order."""
    m = w.m
    h = w.hom_obj((w.declared_unit().unit,), x)
    t = unit_contraction(w, x)
    return [
        g
        for g in guard_hom(m, (x,), h, bounds)
        if m.compose((t,), g) == m.identity(h)
        and m.compose((g,), t) == m.identity(x)
    ]


def check_unit_object(w: ClosednessWitness, bounds: Bounds = DEFAULT_BOUNDS) -> Report:
    """The witness's object with its nullary morphism is a unit when
    evaluating against it is an isomorphism und(unit;X) -> X for every X;
    the inverse is found by search."""
    w.declared_unit()
    rep = Report(f"unit object: {w.m.name}")
    m = w.m
    bad = []
    for x in m.objects():
        inv = contraction_inverses(w, x, bounds)
        if len(inv) != 1:
            bad.append(f"X={x} ({len(inv)} inverses)")
    rep.law("unit/contraction-iso", "evaluation against u invertible", bad)
    return rep


def find_unit_object(
    w: ClosednessWitness, bounds: Bounds = DEFAULT_BOUNDS
) -> ClosednessWitness:
    """The witness with the first (object, nullary morphism) pair that
    passes the unit check, in canonical order, as its unit."""
    m = w.m
    for x in m.objects():
        for u in guard_hom(m, (), x, bounds):
            cand = replace(w, unit=UnitWitness(x, u))
            if check_unit_object(cand, bounds).ok:
                return cand
    raise NoUnitFound(f"{m.name}: no unit object within the arity cap")


def bar(w: ClosednessWitness, f: MorId, bounds: Bounds = DEFAULT_BOUNDS) -> MorId:
    """The unique morphism unit -> X with u then it equal to the given
    nullary morphism, read from the witness's factorization table.
    Precomposition with u on hom(unit; X) must be a bijection, so zero
    or several factorizations raise NotBijective."""
    m = w.m
    if m.dom(f) != ():
        raise ValueError("bar expects a nullary morphism")
    hits = w.unit_table(m.cod(f), bounds).get(f, ())
    if len(hits) != 1:
        raise NotBijective(f"{m.name}: {len(hits)} factorizations of {f} through u")
    return hits[0]
