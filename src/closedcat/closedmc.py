"""Closed multicategories: internal hom objects, currying, the internal
hom-category with its composition, closing transformations, and unit
objects.

The witness carries the unary hom objects and evaluations declared by an
instance; n-ary hom data is derived by peeling the last argument, and the
currying map at every signature is verified bijective.  Currying itself
is implemented by exhaustive search with a uniqueness assertion, so it
doubles as a closedness verifier: a wrong witness surfaces as
NotBijective rather than as a silently wrong answer.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .core import MorId, ObjId
from .errors import NoUnitFound, NotBijective, NotUnique
from .multicat import (
    ArityCaps,
    DEFAULT_CAPS,
    Multicategory,
    MultiFunctor,
    MultiNat,
    Profile,
    _composables,
    _guard_hom,
)
from .report import Report


@dataclass
class ClosednessWitness:
    """Unary internal homs und(X;Z) and evaluations ev : X, und(X;Z) -> Z.

    ``hom_obj``/``ev`` extend the unary data to every arity: the empty
    profile gives und(;Z) = Z with the identity evaluation, and longer
    profiles peel their last object.
    """

    m: Multicategory
    hom_obj1: dict[tuple[ObjId, ObjId], ObjId]
    ev1: dict[tuple[ObjId, ObjId], MorId]

    def __post_init__(self):
        # The derived evaluations, one per (profile, object), freed with
        # the witness.
        self._ev = functools.cache(self._derive_ev)

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
        step = self.m.identities_for(head) + (self.ev((last,), inner),)
        return self.m.compose(step, self.ev(head, z))


def uncurry(
    w: ClosednessWitness, g: MorId, xs: Profile, z: ObjId
) -> MorId:
    """The currying bijection, forward direction: pad g with identities
    and postcompose with the evaluation of the given signature."""
    xs = tuple(xs)
    fs = w.m.identities_for(xs) + (g,)
    return w.m.compose(fs, w.ev(xs, z))


def curry(
    w: ClosednessWitness,
    f: MorId,
    split: int,
    caps: ArityCaps = DEFAULT_CAPS,
) -> MorId:
    """The unique g with uncurry(g) = f, splitting off the first ``split``
    source objects of f.  Exhaustive search; NotBijective when the count
    of solutions differs from one."""
    m = w.m
    dom = m.dom(f)
    if split < 0 or split > len(dom):
        raise ValueError("bad split")
    if split == 0:
        return f
    xs, ys = dom[:split], dom[split:]
    z = m.cod(f)
    target = w.hom_obj(xs, z)
    hits = [
        g
        for g in _guard_hom(m, ys, target, caps)
        if uncurry(w, g, xs, z) == f
    ]
    if len(hits) != 1:
        raise NotBijective(
            f"{m.name}: {len(hits)} curryings of {m.show_mor(f)} at split {split}"
        )
    return hits[0]


def curry1(w: ClosednessWitness, f: MorId, caps: ArityCaps = DEFAULT_CAPS) -> MorId:
    return curry(w, f, 1, caps)


def check_closedness(
    w: ClosednessWitness, caps: ArityCaps = DEFAULT_CAPS
) -> Report:
    """Bijectivity of the currying map at every signature within caps,
    plus the nullary conventions und(;Z) = Z, ev = 1."""
    rep = Report(f"closedness: {w.m.name}")
    m = w.m

    bad = []
    for z in sorted(m.objects(), key=m.obj_key):
        if w.hom_obj((), z) != z or w.ev((), z) != m.identity(z):
            bad.append(m.show_obj(z))
    rep.law("closed/nullary-convention", "und(;Z)=Z, ev=1", bad)

    bad = []
    for xs, z in m.signatures(caps):
        for ys in m.profiles(caps.max_arity - len(xs)):
            h = w.hom_obj(xs, z)
            images = [uncurry(w, g, xs, z) for g in _guard_hom(m, ys, h, caps)]
            target = list(_guard_hom(m, xs + ys, z, caps))
            if len(set(images)) != len(images) or sorted(
                map(m.mor_key, images)
            ) != sorted(map(m.mor_key, target)):
                bad.append(f"({','.join(map(str, xs))};{','.join(map(str, ys))};{z})")
    rep.law("closed/phi-bijective", "currying map bijective", bad)
    return rep


def derive_nary_homs(
    w: ClosednessWitness, caps: ArityCaps = DEFAULT_CAPS
) -> tuple[ClosednessWitness, Report]:
    """Populate the derived hom objects and evaluations for every profile
    within caps (plus one, so evaluations of cap-level signatures exist),
    then verify that the currying map at every signature is bijective and
    factors stage by stage through the one-step curryings."""
    for xs in w.m.profiles(caps.max_arity + 1):
        for z in sorted(w.m.objects(), key=w.m.obj_key):
            w.hom_obj(xs, z)
            w.ev(xs, z)
    rep = Report(f"derived n-ary homs: {w.m.name}")
    rep.extend(check_closedness(w, caps))
    rep.extend(check_nary_factorization(w, caps))
    return w, rep


def check_nary_factorization(
    w: ClosednessWitness, caps: ArityCaps = DEFAULT_CAPS
) -> Report:
    """The derived n-ary currying factors through two one-step curryings,
    stage by stage."""
    rep = Report(f"n-ary hom derivation: {w.m.name}")
    m = w.m
    bad = []
    for xs, z in m.signatures(caps):
        if len(xs) < 2:
            continue
        head, last = xs[:-1], xs[-1]
        inner = w.hom_obj(head, z)
        for ys in m.profiles(caps.max_arity - len(xs)):
            for g in _guard_hom(m, ys, w.hom_obj(xs, z), caps):
                one = uncurry(w, g, (last,), inner)
                two = uncurry(w, one, head, z)
                if two != uncurry(w, g, xs, z):
                    bad.append(f"g={m.show_mor(g)} xs={xs}")
    rep.law("closed/phi-factorization", "staged currying agrees", bad)
    return rep


def hom_action_contra(
    w: ClosednessWitness, f: MorId, z: ObjId, caps: ArityCaps = DEFAULT_CAPS
) -> MorId:
    """und(f;Z) : und(Y;Z) -> und(X1..Xn;Z) for f : X1..Xn -> Y.

    Nullary f gives the evaluation against f itself; otherwise the unique
    solution is found by currying the padded composite."""
    m = w.m
    y = m.cod(f)
    hy = w.hom_obj((y,), z)
    padded = m.compose((f, m.identity(hy)), w.ev((y,), z))
    return curry(w, padded, len(m.dom(f)), caps)


def hom_action_multi(
    w: ClosednessWitness,
    fs: tuple[MorId, ...],
    z: ObjId,
    caps: ArityCaps = DEFAULT_CAPS,
) -> MorId:
    """und(f1,...,fn;Z) : und(Y1..Yn;Z) -> und(X1..Xn;Z) with fi : Xi -> Yi
    (each unary)."""
    m = w.m
    ys = tuple(m.cod(f) for f in fs)
    hy = w.hom_obj(ys, z)
    padded = m.compose(tuple(fs) + (m.identity(hy),), w.ev(ys, z))
    return curry(w, padded, sum(len(m.dom(f)) for f in fs), caps)


def hom_action_cov(
    w: ClosednessWitness,
    xs: Profile,
    g: MorId,
    caps: ArityCaps = DEFAULT_CAPS,
) -> MorId:
    """und(X1..Xn;g) : und(X1..Xn;Y) -> und(X1..Xn;Z) for g : Y -> Z."""
    m = w.m
    xs = tuple(xs)
    y = m.dom(g)[0]
    composite = m.compose((w.ev(xs, y),), g)
    return curry(w, composite, len(xs), caps)


@dataclass
class InternalCategory:
    """The hom-category internal to a closed multicategory: composition mu,
    nullary identities, and the left hom functor action L."""

    w: ClosednessWitness
    mu: dict[tuple[ObjId, ObjId, ObjId], MorId]
    unit1: dict[ObjId, MorId]
    LX: dict[tuple[ObjId, ObjId, ObjId], MorId]


def build_internal_category(
    w: ClosednessWitness, caps: ArityCaps = DEFAULT_CAPS
) -> tuple[InternalCategory, Report]:
    """Compute mu (currying the two-step evaluation), the internal
    identities (currying actual identities), and L (currying mu), then
    verify associativity, the unit laws, and the defining equation of L."""
    rep = Report(f"internal category: {w.m.name}")
    m = w.m
    objs = sorted(m.objects(), key=m.obj_key)

    mu, unit1, LX = {}, {}, {}
    for x in objs:
        unit1[x] = curry(w, m.identity(x), 1, caps)
    for x, y, z in itertools.product(objs, repeat=3):
        hyz = w.hom_obj((y,), z)
        two_step = m.compose(
            (w.ev((x,), y), m.identity(hyz)), w.ev((y,), z)
        )
        mu[(x, y, z)] = curry(w, two_step, 1, caps)
        LX[(x, y, z)] = curry(w, mu[(x, y, z)], 1, caps)

    bad = []
    for x, y, z, v in itertools.product(objs, repeat=4):
        lhs = m.compose((mu[(x, y, z)], m.identity(w.hom_obj((z,), v))), mu[(x, z, v)])
        rhs = m.compose((m.identity(w.hom_obj((x,), y)), mu[(y, z, v)]), mu[(x, y, v)])
        if lhs != rhs:
            bad.append(f"{x},{y},{z},{v}")
    rep.law("internal/mu-assoc", "associativity of mu", bad)

    bad = []
    for x, y in itertools.product(objs, repeat=2):
        hxy = w.hom_obj((x,), y)
        left = m.compose((unit1[x], m.identity(hxy)), mu[(x, x, y)])
        right = m.compose((m.identity(hxy), unit1[y]), mu[(x, y, y)])
        if left != m.identity(hxy) or right != m.identity(hxy):
            bad.append(f"{x},{y}")
    rep.law("internal/mu-unit", "unit laws for mu", bad)

    bad = []
    for x, y, z in itertools.product(objs, repeat=3):
        hxy = w.hom_obj((x,), y)
        lhs = m.compose(
            (m.identity(hxy), LX[(x, y, z)]),
            w.ev((hxy,), w.hom_obj((x,), z)),
        )
        if lhs != mu[(x, y, z)]:
            bad.append(f"{x},{y},{z}")
    rep.law("internal/L-equation", "(1,L).ev = mu", bad)

    return InternalCategory(w, mu, unit1, LX), rep


def L_identity_loci(w: ClosednessWitness, ic: InternalCategory) -> list[str]:
    """Objects X, Y at which L fails to preserve the internal identity:
    (unit1_Y).L_XYY = unit1_und(X;Y)."""
    m = w.m
    objs = sorted(m.objects(), key=m.obj_key)
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
    objs = sorted(m.objects(), key=m.obj_key)
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
    w: ClosednessWitness,
    ic: InternalCategory,
    caps: ArityCaps = DEFAULT_CAPS,
) -> Report:
    """The decomposition identities for curried composites, functoriality
    of the internal hom in both arguments, and the hom functor laws of L,
    re-derived mechanically on the instance."""
    rep = Report(f"internal hom lemmas: {w.m.name}")
    m = w.m
    objs = sorted(m.objects(), key=m.obj_key)

    bad_a, bad_b, bad_c, bad_d = [], [], [], []
    for g, doms, fs in _composables(m, caps):
        if not doms:
            continue  # nullary g: nothing to curry
        z = m.cod(g)
        ys = m.dom(g)
        whole = m.compose(fs, g)
        f1 = fs[0]
        k1 = len(m.dom(f1))
        rest = fs[1:]
        tail = m.compose(rest, curry1(w, g, caps))
        if k1 == 0:
            got = m.compose((tail,), hom_action_contra(w, f1, z, caps))
            if got != whole:
                bad_a.append(f"g={m.show_mor(g)}")
        elif k1 == 1:
            got = m.compose((tail,), hom_action_contra(w, f1, z, caps))
            if got != curry1(w, whole, caps):
                bad_b.append(f"g={m.show_mor(g)}")
        if k1 >= 1:
            x11 = m.dom(f1)[0]
            y1 = m.cod(f1)
            step1 = (curry1(w, f1, caps),) + rest
            step2 = (
                m.identity(w.hom_obj((x11,), y1)),
                curry1(w, g, caps),
            )
            got = m.compose(
                step1, m.compose(step2, ic.mu[(x11, y1, z)])
            )
            if got != curry1(w, whole, caps):
                bad_c.append(f"g={m.show_mor(g)}")
        if len(fs) == 1 and k1 >= 1:
            got = m.compose(
                (curry1(w, f1, caps),),
                hom_action_cov(w, (m.dom(f1)[0],), g, caps),
            )
            if got != curry1(w, whole, caps):
                bad_d.append(f"g={m.show_mor(g)}")
    rep.law("lemma/curry-split-nullary", "curried composite, nullary head", bad_a)
    rep.law("lemma/curry-split-unary", "curried composite, unary head", bad_b)
    rep.law("lemma/curry-split-general", "curried composite via mu", bad_c)
    rep.law("lemma/curry-postcompose", "curried postcomposition", bad_d)

    unary = [
        f
        for x in objs
        for y in objs
        for f in m.hom((x,), y)
    ]
    bad = []
    for f in unary:
        for g in unary:
            if m.cod(f) != m.dom(g)[0]:
                continue
            for v in objs:
                lhs = hom_action_cov(w, (v,), m.compose((f,), g), caps)
                rhs = m.compose(
                    (hom_action_cov(w, (v,), f, caps),),
                    hom_action_cov(w, (v,), g, caps),
                )
                if lhs != rhs:
                    bad.append(f"f={m.show_mor(f)} g={m.show_mor(g)}")
    rep.law("lemma/hom-cov-compose", "und(W;f.g)=und(W;f);und(W;g)", bad)

    bad = []
    for f in unary:
        for g in unary:
            if m.cod(f) != m.dom(g)[0]:
                continue
            for z in objs:
                lhs = hom_action_contra(w, m.compose((f,), g), z, caps)
                rhs = m.compose(
                    (hom_action_contra(w, g, z, caps),),
                    hom_action_contra(w, f, z, caps),
                )
                if lhs != rhs:
                    bad.append(f"f={m.show_mor(f)} g={m.show_mor(g)}")
    rep.law("lemma/hom-contra-compose", "und(f.g;Z)=und(g;Z);und(f;Z)", bad)

    bad = []
    for f in unary:
        for g in unary:
            y = m.dom(g)[0]
            zz = m.cod(g)
            lhs = m.compose(
                (hom_action_contra(w, f, y, caps),),
                hom_action_cov(w, (m.dom(f)[0],), g, caps),
            )
            rhs = m.compose(
                (hom_action_cov(w, (m.cod(f),), g, caps),),
                hom_action_contra(w, f, zz, caps),
            )
            if lhs != rhs:
                bad.append(f"f={m.show_mor(f)} g={m.show_mor(g)}")
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
            if hom_action_contra(w, m.identity(x), z, caps) != m.identity(
                w.hom_obj((x,), z)
            ):
                bad.append(f"{x},{z}")
            if hom_action_cov(w, (x,), m.identity(z), caps) != m.identity(
                w.hom_obj((x,), z)
            ):
                bad.append(f"{x},{z}")
    rep.law("lemma/hom-identity", "und(1;Z)=1 and und(X;1)=1", bad)
    return rep


def closing_transformation(
    w_src: ClosednessWitness,
    w_tgt: ClosednessWitness,
    F: MultiFunctor,
    xs: Profile,
    z: ObjId,
    caps: ArityCaps = DEFAULT_CAPS,
) -> MorId:
    """The canonical comparison F und(X1..Xm;Z) -> und(FX1..FXm;FZ): the
    currying of the image of the evaluation morphism."""
    fev = F.mor_map(w_src.ev(tuple(xs), z))
    return curry(w_tgt, fev, len(xs), caps)


def verify_closing_lemmas(
    w_src: ClosednessWitness,
    w_tgt: ClosednessWitness,
    F: MultiFunctor,
    caps: ArityCaps = DEFAULT_CAPS,
    ic_src: InternalCategory | None = None,
    ic_tgt: InternalCategory | None = None,
) -> Report:
    """Naturality of the closing transformation with respect to currying,
    and its functor laws over the internal categories."""
    rep = Report(f"closing transformation: {F.name}")
    m, d = F.source, F.target
    objs = sorted(m.objects(), key=m.obj_key)

    bad = []
    for xs, z in m.signatures(caps):
        t = closing_transformation(w_src, w_tgt, F, xs, z, caps)
        fxs = tuple(F.obj_map(x) for x in xs)
        for ys in m.profiles(caps.max_arity - len(xs)):
            for g in m.hom(ys, w_src.hom_obj(xs, z)):
                lhs = F.mor_map(uncurry(w_src, g, xs, z))
                rhs = uncurry(
                    w_tgt,
                    d.compose((F.mor_map(g),), t),
                    fxs,
                    F.obj_map(z),
                )
                if lhs != rhs:
                    bad.append(f"g={m.show_mor(g)}")
    rep.law("closing/phi-square", "currying square for the comparison", bad)

    if ic_src is None:
        ic_src, _ = build_internal_category(w_src, caps)
    if ic_tgt is None:
        ic_tgt, _ = build_internal_category(w_tgt, caps)

    bad = []
    for x in objs:
        t = closing_transformation(w_src, w_tgt, F, (x,), x, caps)
        lhs = d.compose((F.mor_map(ic_src.unit1[x]),), t)
        if lhs != ic_tgt.unit1[F.obj_map(x)]:
            bad.append(str(x))
    rep.law("closing/preserves-identities", "comparison preserves identities", bad)

    bad = []
    for x, y, z in itertools.product(objs, repeat=3):
        txz = closing_transformation(w_src, w_tgt, F, (x,), z, caps)
        txy = closing_transformation(w_src, w_tgt, F, (x,), y, caps)
        tyz = closing_transformation(w_src, w_tgt, F, (y,), z, caps)
        lhs = d.compose((F.mor_map(ic_src.mu[(x, y, z)]),), txz)
        rhs = d.compose(
            (txy, tyz),
            ic_tgt.mu[
                (F.obj_map(x), F.obj_map(y), F.obj_map(z))
            ],
        )
        if lhs != rhs:
            bad.append(f"{x},{y},{z}")
    rep.law("closing/preserves-mu", "comparison preserves composition", bad)
    return rep


def verify_closing_composite(
    w1: ClosednessWitness,
    w2: ClosednessWitness,
    w3: ClosednessWitness,
    F: MultiFunctor,
    G: MultiFunctor,
    caps: ArityCaps = DEFAULT_CAPS,
) -> Report:
    """For composable multifunctors, the comparison of the composite is
    the image of the first comparison followed by the second."""
    rep = Report(f"closing of composite: {F.name};{G.name}")
    m = F.source
    e = G.target
    bad = []
    for xs, z in m.signatures(caps):
        lhs = closing_transformation(w1, w3, F.then(G), xs, z, caps)
        mid = closing_transformation(w1, w2, F, xs, z, caps)
        fxs = tuple(F.obj_map(x) for x in xs)
        outer = closing_transformation(w2, w3, G, fxs, F.obj_map(z), caps)
        rhs = e.compose((G.mor_map(mid),), outer)
        if lhs != rhs:
            bad.append(f"xs={xs} z={z}")
    rep.law("closing/composite", "comparison of a composite", bad)
    return rep


def verify_closing_multinat(
    w_src: ClosednessWitness,
    w_tgt: ClosednessWitness,
    r: MultiNat,
    caps: ArityCaps = DEFAULT_CAPS,
) -> Report:
    """The hexagon relating the comparisons of the two multifunctors along
    a multinatural transformation."""
    rep = Report(f"closing/multinat: {r.name}")
    F, G = r.source, r.target
    m, d = F.source, F.target
    bad = []
    for xs, z in m.signatures(caps):
        h = w_src.hom_obj(xs, z)
        fxs = tuple(F.obj_map(x) for x in xs)
        lhs = d.compose(
            (closing_transformation(w_src, w_tgt, F, xs, z, caps),),
            hom_action_cov(w_tgt, fxs, r.components(z), caps),
        )
        rhs = d.compose(
            (
                d.compose(
                    (r.components(h),),
                    closing_transformation(w_src, w_tgt, G, xs, z, caps),
                ),
            ),
            hom_action_multi(
                w_tgt, tuple(r.components(x) for x in xs), G.obj_map(z), caps
            ),
        )
        if lhs != rhs:
            bad.append(f"xs={xs} z={z}")
    rep.law("closing/multinat-hexagon", "comparison square for 2-cells", bad)
    return rep


@dataclass(frozen=True)
class UnitWitness:
    unit: ObjId
    u: MorId  # nullary morphism () -> unit


def unit_contraction(
    w: ClosednessWitness, uw: UnitWitness, x: ObjId
) -> MorId:
    """und(u;1) : und(unit;X) -> X, the evaluation against u."""
    m = w.m
    h = w.hom_obj((uw.unit,), x)
    return m.compose((uw.u, m.identity(h)), w.ev((uw.unit,), x))


def contraction_inverses(
    w: ClosednessWitness, uw: UnitWitness, x: ObjId, caps: ArityCaps
) -> list[MorId]:
    """Every two-sided inverse X -> und(unit;X) of the unit contraction at
    X, by exhaustive search in canonical order."""
    m = w.m
    h = w.hom_obj((uw.unit,), x)
    t = unit_contraction(w, uw, x)
    return [
        g
        for g in _guard_hom(m, (x,), h, caps)
        if m.compose((t,), g) == m.identity(h)
        and m.compose((g,), t) == m.identity(x)
    ]


def check_unit_object(
    w: ClosednessWitness, uw: UnitWitness, caps: ArityCaps = DEFAULT_CAPS
) -> Report:
    """An object with a nullary morphism is a unit when evaluating against
    it is an isomorphism und(unit;X) -> X for every X; the inverse is
    found by search."""
    rep = Report(f"unit object: {w.m.name}")
    m = w.m
    bad = []
    for x in sorted(m.objects(), key=m.obj_key):
        inv = contraction_inverses(w, uw, x, caps)
        if len(inv) != 1:
            bad.append(f"X={m.show_obj(x)} ({len(inv)} inverses)")
    rep.law("unit/contraction-iso", "evaluation against u invertible", bad)
    return rep


def find_unit_object(
    w: ClosednessWitness, caps: ArityCaps = DEFAULT_CAPS
) -> UnitWitness:
    """First (object, nullary morphism) pair passing the unit check, in
    canonical order."""
    m = w.m
    for x in sorted(m.objects(), key=m.obj_key):
        for u in sorted(_guard_hom(m, (), x, caps), key=m.mor_key):
            cand = UnitWitness(x, u)
            if check_unit_object(w, cand, caps).ok:
                return cand
    raise NoUnitFound(f"{m.name}: no unit object within caps")


def bar(
    w: ClosednessWitness,
    uw: UnitWitness,
    f: MorId,
    caps: ArityCaps = DEFAULT_CAPS,
) -> MorId:
    """The unique morphism unit -> X with u then it equal to the given
    nullary morphism."""
    m = w.m
    if m.dom(f) != ():
        raise ValueError("bar expects a nullary morphism")
    x = m.cod(f)
    hits = [
        g
        for g in _guard_hom(m, (uw.unit,), x, caps)
        if m.compose((uw.u,), g) == f
    ]
    if len(hits) != 1:
        raise NotUnique(
            f"{m.name}: {len(hits)} factorizations of {m.show_mor(f)} through u"
        )
    return hits[0]
