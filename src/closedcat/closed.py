"""Closed categories: structures, axiom suite, derived theorems, closed
functors and transformations, the hom-embedding functor into sets, and
normalization to the variant that carries an explicit set-valued functor.
That functor V is the hom embedding E = hom(1,-) after gamma inverse
(Eilenberg and Kelly's V = C(I,-)), so the two share one point naming,
``ClosedStructure.point_atom``.

A closed structure is a category C with an internal-hom bifunctor
und(-,-), a unit object, a natural isomorphism i_X : X -> und(1,X), a
dinatural j_X : 1 -> und(X,X), and L^X_YZ : und(Y,Z) ->
und(und(X,Y),und(X,Z)), subject to the axioms CC1..CC5.  The checkers
evaluate both sides of every axiom as concrete morphisms and compare with
the instance's decidable morphism equality.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

from . import hf
from .core import (
    Category,
    DEFAULT_BOUNDS,
    Bounds,
    Functor,
    MorId,
    NaturalTransformation,
    ObjId,
    TabularCategory,
    bijective,
    check_functor,
    check_natural,
    entry_name,
    guard_objects,
    preimages,
    require_declared,
    require_declared_keys,
)
from .errors import BudgetExceeded, FormatError, NotBijective, NotComposable
from .report import Report


@dataclass(frozen=True)
class ClosedStructure:
    """A category together with its closed structure.

    ``hom2_mor(f, g)`` is the bifunctor action: for f : A' -> A and
    g : B -> B' it returns und(A,B) -> und(A',B'), contravariant in the
    first argument and covariant in the second.
    """

    name: str
    cat: Category
    unit: ObjId
    hom2_obj: Callable[[ObjId, ObjId], ObjId]
    hom2_mor: Callable[[MorId, MorId], MorId]
    i: Callable[[ObjId], MorId]
    i_inv: Callable[[ObjId], MorId]
    j: Callable[[ObjId], MorId]
    L: Callable[[ObjId, ObjId, ObjId], MorId]
    # Optional closed-form inverse of gamma, (point, X, Y) -> morphism.
    # Like i_inv it is supplied, not searched: lazy instances need it to
    # compose transported morphisms between nested hom objects, where the
    # search space is not enumerable.  Every use is verified against gamma.
    gamma_inv: Callable[[MorId, ObjId, ObjId], MorId] | None = None

    def __post_init__(self):
        # The passage from external to internal morphisms, one value per
        # morphism: f : X -> Y goes to j_X ; und(1,f) : 1 -> und(X,Y).  A
        # SetMor key hashes by its table over dom, the enumeration gamma
        # makes too, so a virtual domain raises the same BudgetExceeded
        # either way.
        def gamma(f: MorId) -> MorId:
            x = self.cat.dom(f)
            return self.cat.compose(self.j(x), self.cov(x, f))

        # gamma on each hom-set (X, Y), inverted: read by gamma_inverse and
        # CC5.  Both are built on first use and freed with the structure.
        def table(x: ObjId, y: ObjId) -> dict:
            return preimages(self.cat.hom(x, y), self.gamma)

        # The atom that names a point p : 1 -> X inside the sets of the hom
        # embedding E = hom(1,-) and of the normalization's V: p's printed
        # name, printed once per point.
        def point_atom(p: MorId) -> hf.HF:
            return hf.atom(str(p))

        object.__setattr__(self, "gamma", functools.cache(gamma))
        object.__setattr__(self, "gamma_table", functools.cache(table))
        object.__setattr__(self, "point_atom", functools.cache(point_atom))

    # und(1_X, g) and und(f, 1_Y): the one-sided hom actions.
    def cov(self, x: ObjId, g: MorId) -> MorId:
        return self.hom2_mor(self.cat.identity(x), g)

    def contra(self, f: MorId, y: ObjId) -> MorId:
        return self.hom2_mor(f, self.cat.identity(y))


def tabular_closed(
    name: str,
    cat: TabularCategory,
    unit: ObjId,
    hom2_obj: dict,
    hom2_mor: dict,
    i: dict,
    i_inv: dict,
    j: dict,
    L: dict,
) -> ClosedStructure:
    objects = set(cat.objects())
    if unit not in objects:
        raise FormatError(f'{name}: unit names undeclared object "{unit}"')
    declared = set(cat.all_morphisms())
    for label, table in {"hom2.obj": hom2_obj, "L": L}.items():
        require_declared_keys(name, label, table, objects)
    for label, table in {"i": i, "i_inv": i_inv, "j": j}.items():
        require_declared_keys(name, label, table, objects, lambda x: (x,))
    require_declared_keys(name, "hom2.mor", hom2_mor, declared, what="morphism")
    require_declared(name, "hom2.obj", hom2_obj, objects, what="object")
    tables = {"hom2.mor": hom2_mor, "i": i, "i_inv": i_inv, "j": j, "L": L}
    for label, table in tables.items():
        require_declared(name, label, table, declared)
    hom2_obj = _Table(name, "hom2.obj", hom2_obj)
    hom2_mor = _Table(name, "hom2.mor", hom2_mor)
    L = _Table(name, "L", L)
    return ClosedStructure(
        name,
        cat,
        unit,
        lambda x, y: hom2_obj[(x, y)],
        lambda f, g: hom2_mor[(f, g)],
        _Table(name, "i", i).__getitem__,
        _Table(name, "i_inv", i_inv).__getitem__,
        _Table(name, "j", j).__getitem__,
        lambda x, y, z: L[(x, y, z)],
    )


class _Table(dict):
    """A structure table whose missing entries raise a FormatError naming
    them in the file's own key syntax, when a check first needs them."""

    def __init__(self, name: str, label: str, entries: dict):
        super().__init__(entries)
        self.name, self.label = name, label

    def __missing__(self, key):
        raise FormatError(
            f'{self.name}: {self.label} table has no entry "{entry_name(key)}"'
        )


def gamma_inverse(cs: ClosedStructure, g: MorId, x: ObjId, y: ObjId) -> MorId:
    """The unique f in hom(X,Y) with gamma(f) = g.

    A supplied closed form ``cs.gamma_inv`` answers when present, and its
    answer is checked against gamma on every call, while gamma's own
    value is memoized per morphism; otherwise the answer is read from
    the structure's preimage table of gamma on hom(X,Y).
    Raises NotBijective when zero or several preimages exist, which
    signals that the structure violates CC5, or when the closed form
    disagrees with gamma.
    """
    if cs.gamma_inv is not None:
        f = cs.gamma_inv(g, x, y)
        if cs.gamma(f) != g:
            raise NotBijective(
                f"{cs.name}: supplied gamma inverse of {g} "
                f"in hom({x},{y}) disagrees with gamma"
            )
        return f
    hits = cs.gamma_table(x, y).get(g, ())
    if len(hits) != 1:
        raise NotBijective(
            f"{cs.name}: gamma has {len(hits)} preimages of {g} in hom({x},{y})"
        )
    return hits[0]


def v_category_failures(
    cs: ClosedStructure,
    objects,
    hom_obj: Callable[[ObjId, ObjId], ObjId],
    j: Callable[[ObjId], MorId],
    L: Callable[[ObjId, ObjId, ObjId], MorId],
) -> tuple[list[str], list[str], list[str]]:
    """The failing loci of the laws of a category enriched in cs, with the
    given objects, hom objects, identities j and composition L: the left
    unit law, the right unit law and the associativity pentagon, each
    evaluated over every object tuple in order.  On cs's own data (its
    self-enrichment) the three laws are CC1, CC2 and CC3."""
    cat = cs.cat

    unit_left = []
    for x in objects:
        for y in objects:
            if cat.compose(j(y), L(x, y, y)) != cs.j(hom_obj(x, y)):
                unit_left.append(entry_name((x, y)))

    unit_right = []
    for x in objects:
        for y in objects:
            lhs = cat.compose(L(x, x, y), cs.contra(j(x), hom_obj(x, y)))
            if lhs != cs.i(hom_obj(x, y)):
                unit_right.append(entry_name((x, y)))

    pentagon = []
    for x, y, uu, v in itertools.product(objects, repeat=4):
        top = cat.compose(L(y, uu, v), cs.cov(hom_obj(y, uu), L(x, y, v)))
        bottom = cat.compose_chain(
            L(x, uu, v),
            cs.L(hom_obj(x, y), hom_obj(x, uu), hom_obj(x, v)),
            cs.contra(L(x, y, uu), cs.hom2_obj(hom_obj(x, y), hom_obj(x, v))),
        )
        if top != bottom:
            pentagon.append(entry_name((x, y, uu, v)))
    return unit_left, unit_right, pentagon


def check_cc_axioms(
    cs: ClosedStructure, bounds: Bounds = DEFAULT_BOUNDS
) -> Report:
    """CC1..CC5 plus the naturality and dinaturality clauses of the
    definition, each itemized with the first offending object tuple."""
    rep = Report(f"closed-category axioms: {cs.name}")
    cat = cs.cat
    objs = guard_objects(cat, bounds)
    u = cs.unit

    bad = []
    for x in objs:
        fwd, back = cs.i(x), cs.i_inv(x)
        if cat.compose(fwd, back) != cat.identity(x) or cat.compose(
            back, fwd
        ) != cat.identity(cs.hom2_obj(u, x)):
            bad.append(str(x))
    rep.law("cc/i-iso", "i two-sided inverse", bad)

    bad = []
    for x in objs:
        for y in objs:
            for f in cat.hom(x, y):
                if cat.compose(cs.i(x), cs.cov(u, f)) != cat.compose(f, cs.i(y)):
                    bad.append(f"f={f}")
    rep.law("cc/i-natural", "naturality of i", bad)

    bad = []
    for x in objs:
        for y in objs:
            for f in cat.hom(x, y):
                lhs = cat.compose(cs.j(x), cs.cov(x, f))
                rhs = cat.compose(cs.j(y), cs.contra(f, y))
                if lhs != rhs:
                    bad.append(f"f={f}")
    rep.law("cc/j-dinatural", "dinaturality of j", bad)

    bad = []
    for x in objs:
        if cs.hom2_mor(cat.identity(x), cat.identity(x)) != cat.identity(
            cs.hom2_obj(x, x)
        ):
            bad.append(str(x))
    rep.law("cc/hom2-identity", "und(1,1)=1", bad)

    bad = []
    for a, b, c, d in itertools.product(objs, repeat=4):
        for f in cat.hom(b, a):
            for g in cat.hom(c, d):
                both = cs.hom2_mor(f, g)
                route1 = cat.compose(cs.contra(f, c), cs.cov(b, g))
                route2 = cat.compose(cs.cov(a, g), cs.contra(f, d))
                if both != route1 or both != route2:
                    bad.append(f"f={f} g={g}")
    rep.law("cc/hom2-exchange", "und(f,g)=und(f,1);und(1,g)", bad)

    bad = []
    for a in objs:
        for b in objs:
            for c in objs:
                for g in cat.hom(a, b):
                    for g2 in cat.hom(b, c):
                        for w in objs:
                            lhs = cat.compose(cs.cov(w, g), cs.cov(w, g2))
                            if lhs != cs.cov(w, cat.compose(g, g2)):
                                bad.append(f"cov w={w} g={g}")
                        for w in objs:
                            lhs = cat.compose(cs.contra(g2, w), cs.contra(g, w))
                            if lhs != cs.contra(cat.compose(g, g2), w):
                                bad.append(f"contra w={w} g={g}")
    rep.law("cc/hom2-compose", "functoriality of und(-,-)", bad)

    bad = []
    for x, y, z, z2 in itertools.product(objs, repeat=4):
        for g in cat.hom(z, z2):
            hy = cs.hom2_obj(x, y)
            lhs = cat.compose(cs.L(x, y, z), cs.cov(hy, cs.cov(x, g)))
            rhs = cat.compose(cs.cov(y, g), cs.L(x, y, z2))
            if lhs != rhs:
                bad.append(f"X={x} g={g}")
    rep.law("cc/L-natural-cov", "naturality of L in Z", bad)

    bad = []
    for x, y, y2, z in itertools.product(objs, repeat=4):
        for f in cat.hom(y, y2):
            lhs = cat.compose(cs.contra(f, z), cs.L(x, y, z))
            rhs = cat.compose(
                cs.L(x, y2, z), cs.contra(cs.cov(x, f), cs.hom2_obj(x, z))
            )
            if lhs != rhs:
                bad.append(f"X={x} f={f}")
    rep.law("cc/L-natural-contra", "naturality of L in Y", bad)

    bad = []
    for x in objs:
        for x2 in objs:
            for h in cat.hom(x, x2):
                for y in objs:
                    for z in objs:
                        lhs = cat.compose(
                            cs.L(x, y, z),
                            cs.contra(cs.contra(h, y), cs.hom2_obj(x, z)),
                        )
                        rhs = cat.compose(
                            cs.L(x2, y, z),
                            cs.cov(cs.hom2_obj(x2, y), cs.contra(h, z)),
                        )
                        if lhs != rhs:
                            bad.append(f"h={h} Y={y}")
    rep.law("cc/L-dinatural", "dinaturality of L in X", bad)

    cc1, cc2, cc3 = v_category_failures(cs, objs, cs.hom2_obj, cs.j, cs.L)
    rep.law("cc/CC1", "CC1", cc1)
    rep.law("cc/CC2", "CC2", cc2)
    rep.law("cc/CC3", "CC3", cc3)

    bad = []
    for y in objs:
        for z in objs:
            lhs = cat.compose(
                cs.L(u, y, z), cs.contra(cs.i(y), cs.hom2_obj(u, z))
            )
            if lhs != cs.cov(y, cs.i(z)):
                bad.append(entry_name((y, z)))
    rep.law("cc/CC4", "CC4", bad)

    bad = []
    for x in objs:
        for y in objs:
            table = cs.gamma_table(x, y)
            target = cat.hom(u, cs.hom2_obj(x, y))
            if not bijective(table, target):
                bad.append(entry_name((x, y)))
    rep.law("cc/CC5", "CC5 (gamma bijective)", bad)

    return rep


def verify_derived_cc_theorems(
    cs: ClosedStructure, bounds: Bounds = DEFAULT_BOUNDS
) -> Report:
    """Re-verifies, as independent equations, the consequences that the
    axiom suite is supposed to imply.  A failure here while the axioms
    pass indicates a kernel bug, not a structure bug."""
    rep = Report(f"derived closed-category theorems: {cs.name}")
    cat = cs.cat
    objs = guard_objects(cat, bounds)
    u = cs.unit

    bad = []
    for x in objs:
        if cs.i(cs.hom2_obj(u, x)) != cs.cov(u, cs.i(x)):
            bad.append(str(x))
    rep.law("derived/i-on-unit-hom", "i on und(1,X)", bad)

    rep.law(
        "derived/j-unit",
        "j at the unit equals i at the unit",
        [] if cs.j(u) == cs.i(u) else ["unit"],
    )

    bad = []
    for x in objs:
        for f in cat.hom(u, x):
            if cat.compose(cs.gamma(f), cs.i_inv(x)) != f:
                bad.append(f"f={f}")
    rep.law("derived/gamma-section", "gamma then post-inverse-i", bad)

    bad = []
    for x in objs:
        for y in objs:
            for z in objs:
                for f in cat.hom(y, z):
                    lhs = cat.compose(cs.gamma(f), cs.L(x, y, z))
                    if lhs != cs.gamma(cs.cov(x, f)):
                        bad.append(f"X={x} f={f}")
    rep.law("derived/gamma-L-square", "gamma/L square", bad)

    bad_cov, bad_contra = [], []
    for x, y, z in itertools.product(objs, repeat=3):
        for f in cat.hom(x, y):
            for g in cat.hom(y, z):
                gf = cs.gamma(cat.compose(f, g))
                if gf != cat.compose(cs.gamma(f), cs.cov(x, g)):
                    bad_cov.append(f"f={f} g={g}")
                if gf != cat.compose(cs.gamma(g), cs.contra(f, z)):
                    bad_contra.append(f"f={f} g={g}")
    rep.law("derived/gamma-compose-cov", "gamma(f.g)=gamma(f);und(1,g)", bad_cov)
    rep.law("derived/gamma-compose-contra", "gamma(f.g)=gamma(g);und(f,1)", bad_contra)

    return rep


@dataclass(frozen=True)
class ClosedFunctor:
    source: ClosedStructure
    target: ClosedStructure
    phi: Functor
    phi_hat: Callable[[ObjId, ObjId], MorId]
    phi0: MorId

    @property
    def name(self) -> str:
        return self.phi.name

    @staticmethod
    def strict(
        source: ClosedStructure, target: ClosedStructure, phi: Functor
    ) -> "ClosedFunctor":
        """The closed functor with identity hom and unit comparisons, for a
        phi that carries und(X,Y) to und(phi X, phi Y) and the unit to the
        unit."""
        cat, obj = target.cat, phi.obj_map
        return ClosedFunctor(
            source,
            target,
            phi,
            lambda x, y: cat.identity(target.hom2_obj(obj(x), obj(y))),
            cat.identity(target.unit),
        )

    @staticmethod
    def identity(cs: ClosedStructure) -> "ClosedFunctor":
        return ClosedFunctor.strict(cs, cs, Functor.identity(cs.cat))


@dataclass(frozen=True)
class ClosedTransformation:
    source: ClosedFunctor
    target: ClosedFunctor
    eta: NaturalTransformation

    @property
    def name(self) -> str:
        return self.eta.name

    @staticmethod
    def identity(F: ClosedFunctor) -> "ClosedTransformation":
        return ClosedTransformation(F, F, NaturalTransformation.identity(F.phi))


def check_cf_axioms(F: ClosedFunctor, bounds: Bounds = DEFAULT_BOUNDS) -> Report:
    rep = Report(f"closed-functor axioms: {F.name}")
    C, D = F.source, F.target
    objs = guard_objects(C.cat, bounds)
    rep.extend(check_functor(F.phi, bounds))

    bad = []
    for x2, x, y, y2 in itertools.product(objs, repeat=4):
        for f in C.cat.hom(x2, x):
            for g in C.cat.hom(y, y2):
                lhs = D.cat.compose(
                    F.phi.mor_map(C.hom2_mor(f, g)), F.phi_hat(x2, y2)
                )
                rhs = D.cat.compose(
                    F.phi_hat(x, y),
                    D.hom2_mor(F.phi.mor_map(f), F.phi.mor_map(g)),
                )
                if lhs != rhs:
                    bad.append(f"f={f} g={g}")
    rep.law("cf/phi-hat-natural", "naturality of phi-hat", bad)

    bad = []
    for x in objs:
        lhs = D.cat.compose_chain(
            F.phi0, F.phi.mor_map(C.j(x)), F.phi_hat(x, x)
        )
        if lhs != D.j(F.phi.obj_map(x)):
            bad.append(str(x))
    rep.law("cf/CF1", "CF1", bad)

    bad = []
    for x in objs:
        lhs = D.cat.compose_chain(
            F.phi.mor_map(C.i(x)),
            F.phi_hat(C.unit, x),
            D.hom2_mor(F.phi0, D.cat.identity(F.phi.obj_map(x))),
        )
        if lhs != D.i(F.phi.obj_map(x)):
            bad.append(str(x))
    rep.law("cf/CF2", "CF2", bad)

    bad = []
    for x, y, z in itertools.product(objs, repeat=3):
        px, py, pz = (F.phi.obj_map(o) for o in (x, y, z))
        lhs = D.cat.compose_chain(
            F.phi.mor_map(C.L(x, y, z)),
            F.phi_hat(C.hom2_obj(x, y), C.hom2_obj(x, z)),
            D.cov(F.phi.obj_map(C.hom2_obj(x, y)), F.phi_hat(x, z)),
        )
        rhs = D.cat.compose_chain(
            F.phi_hat(y, z),
            D.L(px, py, pz),
            D.contra(F.phi_hat(x, y), D.hom2_obj(px, pz)),
        )
        if lhs != rhs:
            bad.append(entry_name((x, y, z)))
    rep.law("cf/CF3", "CF3", bad)
    return rep


def check_cn_axioms(
    t: ClosedTransformation, bounds: Bounds = DEFAULT_BOUNDS
) -> Report:
    rep = Report(f"closed-transformation axioms: {t.name}")
    F, G = t.source, t.target
    C, D = F.source, F.target
    objs = guard_objects(C.cat, bounds)
    rep.extend(check_natural(t.eta, bounds))

    lhs = D.cat.compose(F.phi0, t.eta.components(C.unit))
    rep.law("cn/CN1", "CN1", [] if lhs == G.phi0 else ["unit"])

    bad = []
    for x in objs:
        for y in objs:
            lhs = D.cat.compose(
                F.phi_hat(x, y),
                D.cov(F.phi.obj_map(x), t.eta.components(y)),
            )
            rhs = D.cat.compose_chain(
                t.eta.components(C.hom2_obj(x, y)),
                G.phi_hat(x, y),
                D.contra(t.eta.components(x), G.phi.obj_map(y)),
            )
            if lhs != rhs:
                bad.append(entry_name((x, y)))
    rep.law("cn/CN2", "CN2", bad)
    return rep


def compose_closed_functors(F: ClosedFunctor, G: ClosedFunctor) -> ClosedFunctor:
    """Composite closed functor: the hom comparison maps compose through
    the middle category and the unit comparisons stack."""
    if F.target is not G.source:
        raise ValueError("closed functor endpoints do not match")
    E = G.target

    def phi_hat(x, y):
        return E.cat.compose(
            G.phi.mor_map(F.phi_hat(x, y)),
            G.phi_hat(F.phi.obj_map(x), F.phi.obj_map(y)),
        )

    phi0 = E.cat.compose(G.phi0, G.phi.mor_map(F.phi0))
    return ClosedFunctor(F.source, G.target, F.phi.then(G.phi), phi_hat, phi0)


def compose_cn_vertical(
    s: ClosedTransformation, t: ClosedTransformation
) -> ClosedTransformation:
    if s.target is not t.source:
        raise ValueError("2-cell endpoints do not match")
    D = s.source.target

    def comp(x):
        return D.cat.compose(s.eta.components(x), t.eta.components(x))

    return ClosedTransformation(
        s.source,
        t.target,
        NaturalTransformation(
            f"{s.name};{t.name}", s.source.phi, t.target.phi, comp
        ),
    )


def compose_cn_horizontal(
    s: ClosedTransformation, t: ClosedTransformation
) -> ClosedTransformation:
    """Horizontal composite by whiskering: component at X is
    t_(phi X) ; psi'(s_X)."""
    E = t.source.target
    source = compose_closed_functors(s.source, t.source)
    target = compose_closed_functors(s.target, t.target)

    def comp(x):
        return E.cat.compose(
            t.eta.components(s.source.phi.obj_map(x)),
            t.target.phi.mor_map(s.eta.components(x)),
        )

    return ClosedTransformation(
        source,
        target,
        NaturalTransformation(f"{s.name}*{t.name}", source.phi, target.phi, comp),
    )


def build_E_functor(cs: ClosedStructure, sets: ClosedStructure) -> ClosedFunctor:
    """The hom-embedding into sets: e = hom(1,-), with the comparison map
    on hom objects given by de-internalizing (gamma inverse) and then
    post-composition, and the unit comparison picking out 1 at the unit.

    ``sets`` must be the lazy finite-sets closed structure; its objects
    are hereditarily finite sets, so the points of cs are embedded as the
    atoms ``cs.point_atom`` names.
    """
    from .setcat import SetMor  # local import to avoid a cycle

    cat = cs.cat
    u = cs.unit
    elt = cs.point_atom

    @functools.cache
    def e_obj(x: ObjId) -> hf.HF:
        return hf.fset(elt(m) for m in cat.hom(u, x))

    @functools.cache
    def e_mor(f: MorId) -> SetMor:
        x, y = cat.dom(f), cat.cod(f)
        table = {elt(h): elt(cat.compose(h, f)) for h in cat.hom(u, x)}
        return SetMor(e_obj(x), e_obj(y), mapping=table)

    phi = Functor(f"E({cs.name})", cat, sets.cat, e_obj, e_mor)

    @functools.cache
    def phi_hat(x: ObjId, y: ObjId) -> SetMor:
        # A point h of und(X,Y) goes to the table of E(gamma^{-1} h).
        hxy = cs.hom2_obj(x, y)
        table = {
            elt(h): e_mor(gamma_inverse(cs, h, x, y)).table_value()
            for h in cat.hom(u, hxy)
        }
        return SetMor(e_obj(hxy), sets.hom2_obj(e_obj(x), e_obj(y)), mapping=table)

    phi0 = SetMor(sets.unit, e_obj(u), mapping={hf.atom("*"): elt(cat.identity(u))})
    return ClosedFunctor(cs, sets, phi, phi_hat, phi0)


@dataclass(frozen=True)
class EKClosedStructure:
    """A closed structure with the extra set-valued functor required by the
    classical set-functor presentation: C(-) agrees with the hom-set
    functor on internal homs (CC0) and sends identities to the internal
    identities (CC5').  ``ek_normalize`` builds C(-) as E after gamma
    inverse, and ``elt_atom`` names each morphism as E names its point:
    the atom that represents it inside the set-valued functor's values."""

    closed: ClosedStructure
    C_functor: Functor
    elt_atom: Callable[[MorId], hf.HF]
    base: ClosedStructure  # the structure that was normalized


@dataclass(frozen=True, eq=False)
class WMor:
    """Morphism of the normalized category: a point of an internal hom.

    ``ek_normalize`` interns these, one object per (dom, cod, point) in
    each normalized structure, so equality and hashing are identity: two
    morphisms of one structure are equal exactly when they are the same
    object.  Morphisms of two separate normalizations never compare equal.
    """

    dom: ObjId
    cod: ObjId
    point: MorId  # a morphism 1 -> und(dom,cod) of the base

    def __str__(self) -> str:
        return f"<{self.point}>"

    # Two points may share a name, so a message about a pair of
    # morphisms names their endpoints too.
    def __repr__(self) -> str:
        return f"<{self.point}:{self.dom}->{self.cod}>"


def ek_normalize(
    cs: ClosedStructure, bounds: Bounds = DEFAULT_BOUNDS
) -> tuple[EKClosedStructure, ClosedFunctor]:
    """Replace a closed category by an isomorphic one whose morphisms
    X -> Y literally are the points 1 -> und(X,Y), composed via L and the
    inverse of gamma.  The internal structure is transported along gamma,
    and the set-valued functor V is the hom embedding E = hom(1,-) of the
    base after gamma inverse: an object goes to its set of points, and a
    point f to E(gamma^{-1} f).

    Returns the normalized structure plus the closed-functor isomorphism
    whose underlying functor is gamma on morphisms.
    """
    from .setcat import build_finset_closed

    cat = cs.cat
    u = cs.unit
    objs = guard_objects(cat, bounds)

    # The one WMor of each (dom, cod, point), owned by this structure
    # through the closures below and freed with it.  Always called
    # positionally, so one value has one cache key.
    wmor = functools.cache(WMor)

    homs: dict[tuple[ObjId, ObjId], list[WMor]] = {}
    for x in objs:
        for y in objs:
            pts = cat.hom(u, cs.hom2_obj(x, y))
            homs[(x, y)] = [wmor(x, y, p) for p in pts]

    # CC5 violations surface as NotBijective when a point without a unique
    # preimage is transported.
    def g_inv(m: WMor) -> MorId:
        return gamma_inverse(cs, m.point, m.dom, m.cod)

    def lift(m: MorId) -> WMor:
        return wmor(cat.dom(m), cat.cod(m), cs.gamma(m))

    def compose_rule(f: WMor, g: WMor) -> WMor:
        # Composition by transport along gamma.  The defining formula
        # (f, g) -> f . gamma^{-1}(g . L) agrees with this wherever the
        # intermediate hom-set is enumerable; check_ek_axioms re-checks
        # that agreement over the enumerated objects.
        return wmor(f.dom, g.cod, cs.gamma(cat.compose(g_inv(f), g_inv(g))))

    def identity_rule(x: ObjId) -> WMor:
        return lift(cat.identity(x))

    wcat = _WCategory(f"ek({cs.name})", objs, homs, compose_rule, identity_rule)

    # The transported structure, one value per interned WMor or object,
    # memoized like wcat's compose and freed with it.
    def hom2_mor(f: WMor, g: WMor) -> WMor:
        return lift(cs.hom2_mor(g_inv(f), g_inv(g)))

    w = ClosedStructure(
        f"ek({cs.name})",
        wcat,
        u,
        cs.hom2_obj,
        functools.cache(hom2_mor),
        functools.cache(lambda x: lift(cs.i(x))),
        functools.cache(lambda x: lift(cs.i_inv(x))),
        functools.cache(lambda x: lift(cs.j(x))),
        functools.cache(lambda x, y, z: lift(cs.L(x, y, z))),
    )

    sets = build_finset_closed(1)
    E = build_E_functor(cs, sets)

    # V on morphisms, memoized like wcat's compose and freed with it.
    @functools.cache
    def v_mor(f: WMor):
        return E.phi.mor_map(g_inv(f))

    c_functor = Functor(f"V({cs.name})", wcat, sets.cat, E.phi.obj_map, v_mor)
    ek = EKClosedStructure(w, c_functor, lambda m: cs.point_atom(m.point), cs)

    iso_phi = Functor(f"gamma({cs.name})", cat, wcat, lambda x: x, lift)
    return ek, ClosedFunctor.strict(cs, w, iso_phi)


class _WCategory(Category):
    """Category of internal points; composition and identities are computed
    through the base structure on demand, so morphisms between non-seed
    objects (nested hom objects) compose too.  Hom objects of the base may
    coincide as objects, so endpoints live on the morphisms.  Objects and
    points come in the base's order."""

    def __init__(self, name, objs, homs, compose_rule, identity_rule):
        self.name = name
        self._objects = tuple(objs)
        self._homs = {k: tuple(v) for k, v in homs.items()}

        # Interned morphisms hash by identity, and only a composable pair
        # ever enters the cache.
        def compose(f: WMor, g: WMor) -> WMor:
            if f.cod != g.dom:
                raise NotComposable(f"cannot compose {f!r} with {g!r}")
            return compose_rule(f, g)

        self._compose = functools.cache(compose)
        self._identity = functools.cache(identity_rule)

    def objects(self):
        return self._objects

    def hom(self, x, y):
        if (x, y) in self._homs:
            return self._homs[(x, y)]
        raise BudgetExceeded(f"{self.name}: hom over non-seed objects")

    def identity(self, x):
        return self._identity(x)

    def compose(self, f: WMor, g: WMor) -> WMor:
        return self._compose(f, g)


def check_ek_axioms(
    ek: EKClosedStructure, bounds: Bounds = DEFAULT_BOUNDS
) -> Report:
    """CC0 (the set-valued functor computes hom-sets on internal homs,
    on objects and on morphisms) and CC5' (identities go to the internal
    identities), both as on-the-nose equalities."""
    rep = Report(f"set-functor presentation: {ek.closed.name}")
    w = ek.closed
    cat = w.cat
    objs = guard_objects(cat, bounds)

    bad = []
    for x in objs:
        for y in objs:
            via_c = ek.C_functor.obj_map(w.hom2_obj(x, y))
            direct = hf.fset(ek.elt_atom(m) for m in cat.hom(x, y))
            if via_c != direct:
                bad.append(entry_name((x, y)))
    rep.law("ek/CC0-objects", "CC0 on objects", bad)

    bad = []
    for x, y, uu, v in itertools.product(objs, repeat=4):
        for f in cat.hom(x, y):
            for g in cat.hom(uu, v):
                via_c = ek.C_functor.mor_map(w.hom2_mor(f, g))
                table = {
                    ek.elt_atom(m): ek.elt_atom(
                        cat.compose_chain(f, m, g)
                    )
                    for m in cat.hom(y, uu)
                }
                if dict(via_c.mapping()) != table:
                    bad.append(f"f={f} g={g}")
    rep.law("ek/CC0-morphisms", "CC0 on morphisms", bad)

    bad = []
    for x in objs:
        i_img = ek.C_functor.mor_map(w.i(w.hom2_obj(x, x)))
        got = i_img.apply(ek.elt_atom(cat.identity(x)))
        if got != ek.elt_atom(w.j(x)):
            bad.append(str(x))
    rep.law("ek/CC5'", "CC5' (identity goes to j)", bad)

    # Composition in the normalized category is implemented by
    # transport along gamma; re-derive it from the defining formula
    # f . gamma^{-1}(g . L) wherever the middle hom-set is enumerable.
    base = ek.base
    bad = []
    for x, y, z in itertools.product(objs, repeat=3):
        for f in cat.hom(x, y):
            for g in cat.hom(y, z):
                gl = base.cat.compose(g.point, base.L(x, y, z))
                step = gamma_inverse(base, gl, base.hom2_obj(x, y), base.hom2_obj(x, z))
                if cat.compose(f, g).point != base.cat.compose(f.point, step):
                    bad.append(f"f={f} g={g}")
    rep.law("ek/compose-formula", "composition via gamma-inverse of g.L", bad)

    rep.extend(check_functor(ek.C_functor, bounds))
    return rep
