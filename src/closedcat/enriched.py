"""Categories enriched in a closed category, the self-enrichment, the
left hom functors, pushforward along a closed functor, and the
representation bijection for enriched functors into the self-enrichment.

Hom objects live in the base closed category; identities and composition
data are base morphisms.  The axioms checked here are the standard
enriched ones: unit and composition laws shaped exactly like CC1..CC3,
and the functor laws shaped like CF-style squares.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .closed import ClosedFunctor, ClosedStructure, EKClosedStructure
from .core import DEFAULT_BOUNDS, Bounds, MorId, ObjId
from .errors import BudgetExceeded, NotBijective
from .report import Report


@dataclass(frozen=True)
class VCategory:
    name: str
    base: ClosedStructure
    objects: tuple
    hom_obj: Callable[[ObjId, ObjId], ObjId]
    j: Callable[[ObjId], MorId]
    L: Callable[[ObjId, ObjId, ObjId], MorId]


@dataclass(frozen=True)
class VFunctor:
    """Enriched functor into a target V-category.  ``apply_mor`` is the
    underlying ordinary action on base morphisms, needed for whiskering."""

    name: str
    source: VCategory
    target: VCategory
    obj_map: Callable[[ObjId], ObjId]
    hom_map: Callable[[ObjId, ObjId], MorId]
    apply_mor: Callable[[MorId], MorId]

    def mor_action(self, f: MorId) -> MorId:
        return self.apply_mor(f)


@dataclass(frozen=True)
class VNatFamily:
    """An enriched natural transformation between functors into the
    self-enrichment, given by an object-indexed family of base morphisms."""

    name: str
    source: VFunctor
    target: VFunctor
    components: dict

    def at(self, x: ObjId) -> MorId:
        return self.components[x]


def build_underlying_V_category(cs: ClosedStructure) -> VCategory:
    """The self-enrichment: hom objects are the internal homs, with j and
    L those of the closed structure."""
    return VCategory(
        f"und({cs.name})",
        cs,
        tuple(cs.cat.objects()),
        cs.hom2_obj,
        cs.j,
        cs.L,
    )


def check_v_category(A: VCategory) -> Report:
    rep = Report(f"enriched category axioms: {A.name}")
    cs = A.base
    cat = cs.cat
    objs = A.objects

    bad = []
    for x in objs:
        for y in objs:
            lhs = cat.compose(A.j(y), A.L(x, y, y))
            if lhs != cs.j(A.hom_obj(x, y)):
                bad.append(f"{x},{y}")
    rep.law("vc/unit-left", "j then L lands on base j", bad)

    bad = []
    for x in objs:
        for y in objs:
            lhs = cat.compose(
                A.L(x, x, y), cs.contra(A.j(x), A.hom_obj(x, y))
            )
            if lhs != cs.i(A.hom_obj(x, y)):
                bad.append(f"{x},{y}")
    rep.law("vc/unit-right", "L against j lands on i", bad)

    bad = []
    for x, y, uu, v in itertools.product(objs, repeat=4):
        top = cat.compose(
            A.L(y, uu, v),
            cs.cov(A.hom_obj(y, uu), A.L(x, y, v)),
        )
        bottom = cat.compose_chain(
            A.L(x, uu, v),
            cs.L(A.hom_obj(x, y), A.hom_obj(x, uu), A.hom_obj(x, v)),
            cs.contra(
                A.L(x, y, uu),
                cs.hom2_obj(A.hom_obj(x, y), A.hom_obj(x, v)),
            ),
        )
        if top != bottom:
            bad.append(f"{x},{y},{uu},{v}")
    rep.law("vc/pentagon", "enriched associativity pentagon", bad)
    return rep


def check_v_functor(F: VFunctor) -> Report:
    rep = Report(f"enriched functor axioms: {F.name}")
    A, B = F.source, F.target
    cs = A.base
    cat = cs.cat

    bad = []
    for x in A.objects:
        lhs = cat.compose(A.j(x), F.hom_map(x, x))
        if lhs != B.j(F.obj_map(x)):
            bad.append(str(x))
    rep.law("vf/identities", "hom map preserves identities", bad)

    bad = []
    for x, y, z in itertools.product(A.objects, repeat=3):
        fx, fy, fz = F.obj_map(x), F.obj_map(y), F.obj_map(z)
        lhs = cat.compose_chain(
            F.hom_map(y, z),
            B.L(fx, fy, fz),
            cs.contra(F.hom_map(x, y), B.hom_obj(fx, fz)),
        )
        rhs = cat.compose(
            A.L(x, y, z),
            cs.cov(A.hom_obj(x, y), F.hom_map(x, z)),
        )
        if lhs != rhs:
            bad.append(f"{x},{y},{z}")
    rep.law("vf/composition", "hom map respects L", bad)
    return rep


def check_v_natural(p: VNatFamily) -> Report:
    rep = Report(f"enriched naturality: {p.name}")
    objs = p.source.source.objects
    bad = []
    for a in objs:
        for b in objs:
            if not _vnat_square_ok(p.source, p.target, p.components, a, b):
                bad.append(f"{a},{b}")
    rep.law("vn/square", "enriched naturality square", bad)
    return rep


def _vnat_square_ok(F: VFunctor, G: VFunctor, comp: dict, a, b) -> bool:
    cs = F.target.base
    cat = cs.cat
    lhs = cat.compose(F.hom_map(a, b), cs.cov(F.obj_map(a), comp[b]))
    rhs = cat.compose(G.hom_map(a, b), cs.contra(comp[a], G.obj_map(b)))
    return lhs == rhs


def identity_v_functor(A: VCategory) -> VFunctor:
    return VFunctor(
        "id",
        A,
        A,
        lambda x: x,
        lambda x, y: A.base.cat.identity(A.hom_obj(x, y)),
        apply_mor=lambda f: f,
    )


def compose_v_functors(F: VFunctor, G: VFunctor) -> VFunctor:
    """Composite enriched functor, F applied first."""
    cs = F.source.base

    def hom_map(x, y):
        return cs.cat.compose(
            F.hom_map(x, y), G.hom_map(F.obj_map(x), F.obj_map(y))
        )

    return VFunctor(
        f"{F.name};{G.name}",
        F.source,
        G.target,
        lambda x: G.obj_map(F.obj_map(x)),
        hom_map,
        apply_mor=lambda f: G.apply_mor(F.apply_mor(f)),
    )


def build_LX(cs: ClosedStructure, x: ObjId) -> VFunctor:
    """The left hom functor on the self-enrichment: Y goes to und(X,Y)."""
    und_v = build_underlying_V_category(cs)
    return VFunctor(
        f"L[{cs.cat.show_obj(x)}]",
        und_v,
        und_v,
        lambda y: cs.hom2_obj(x, y),
        lambda y, z: cs.L(x, y, z),
        apply_mor=lambda f: cs.cov(x, f),
    )


def build_Lf(cs: ClosedStructure, f: MorId) -> VNatFamily:
    """The enriched transformation whose components precompose with f;
    it runs from the left hom functor at cod(f) to the one at dom(f)."""
    x, y = cs.cat.dom(f), cs.cat.cod(f)
    comps = {z: cs.contra(f, z) for z in cs.cat.objects()}
    return VNatFamily(
        f"L[{cs.cat.show_mor(f)}]",
        build_LX(cs, y),
        build_LX(cs, x),
        comps,
    )


def pushforward(F: ClosedFunctor, A: VCategory, name: str | None = None) -> VCategory:
    """Base change of an enriched category along a closed functor: hom
    objects map through the functor, identities gain the unit comparison,
    and L gains the hom comparison."""
    if A.base is not F.source:
        raise ValueError("enriched category not over the functor's source")
    D = F.target

    def j(x):
        return D.cat.compose(F.phi0, F.phi.mor_map(A.j(x)))

    def L(x, y, z):
        return D.cat.compose(
            F.phi.mor_map(A.L(x, y, z)),
            F.phi_hat(A.hom_obj(x, y), A.hom_obj(x, z)),
        )

    return VCategory(
        name or f"{F.name}*{A.name}",
        D,
        A.objects,
        lambda x, y: F.phi.obj_map(A.hom_obj(x, y)),
        j,
        L,
    )


def enumerate_vnat_families(
    F: VFunctor,
    G: VFunctor,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> list[dict]:
    """All component families F -> G satisfying the enriched naturality
    square, generated object by object in canonical order with early
    pruning on every failed square."""
    cs = F.target.base
    cat = cs.cat
    objs = sorted(F.source.objects, key=cat.obj_key)
    out: list[dict] = []

    def extend(idx: int, partial: dict) -> None:
        if idx == len(objs):
            out.append(dict(partial))
            if len(out) > bounds.max_homset:
                raise BudgetExceeded("family enumeration over budget")
            return
        a = objs[idx]
        for cand in cat.hom(F.obj_map(a), G.obj_map(a)):
            partial[a] = cand
            ok = _vnat_square_ok(F, G, partial, a, a) and all(
                _vnat_square_ok(F, G, partial, a, b)
                and _vnat_square_ok(F, G, partial, b, a)
                for b in objs[:idx]
            )
            if ok:
                extend(idx + 1, partial)
            del partial[a]

    extend(0, {})
    return out


def gamma_repr(ek: EKClosedStructure, w: ObjId, p: VNatFamily) -> str:
    """The representation map: evaluate the set-valued functor on the
    component at the representing object and apply it to the identity.
    Returns the element as its atom name."""
    cs = ek.closed
    table = ek.C_functor.mor_map(p.at(w))
    val = table.apply(ek.elt_atom(cs.cat.identity(w)))
    return val.name


def gamma_repr_inverse(
    ek: EKClosedStructure,
    T: VFunctor,
    w: ObjId,
    element: str,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> VNatFamily:
    """Search the finite space of enriched natural families for the unique
    preimage of an element under the representation map."""
    cs = ek.closed
    lw = build_LX(cs, w)
    hits = []
    for comp in enumerate_vnat_families(lw, T, bounds):
        fam = VNatFamily("cand", lw, T, comp)
        if gamma_repr(ek, w, fam) == element:
            hits.append(fam)
    if len(hits) != 1:
        raise NotBijective(
            f"{cs.name}: {len(hits)} families represent element {element!r}"
        )
    return hits[0]


def check_gamma_repr_bijective(
    ek: EKClosedStructure,
    T: VFunctor,
    w: ObjId,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> Report:
    """The representation map is a bijection between natural families out
    of the left hom functor at w and elements of the value of T at w."""
    rep = Report(f"representation bijection at {w}")
    cs = ek.closed
    lw = build_LX(cs, w)
    fams = enumerate_vnat_families(lw, T, bounds)
    images = [
        gamma_repr(ek, w, VNatFamily("f", lw, T, comp)) for comp in fams
    ]
    target = sorted(a.name for a in ek.C_functor.obj_map(T.obj_map(w)).elements)
    ok = len(set(images)) == len(images) and sorted(images) == target
    rep.add(
        "repr/bijective",
        "families correspond to elements",
        ok,
        f"W={cs.cat.show_obj(w)} ({len(fams)} families, {len(target)} elements)",
    )
    return rep
