"""Categories enriched in a closed category, the self-enrichment, the
left hom functors, pushforward along a closed functor, and the
representation map for enriched functors into the self-enrichment.

Hom objects live in the base closed category; identities and composition
data are base morphisms.  Each enriched law is stated once, by the
closed-category suite where it is one of its equations:
- the enriched-category laws are ``closed.v_category_failures``, which
  are CC1..CC3 on the self-enrichment;
- the enriched-functor laws of the left hom functor at X are the unit law
  of CC1 at first object X and the CC3 pentagon at (X, x, y, z);
- enriched naturality of precomposition with f : X -> X' is
  ``cc/L-dinatural`` at h = f.
The naturality square itself prunes the enumeration of component
families.  The representation map reads a family's component at the
representing object through the normalization's set-valued functor V,
which is the hom embedding E = hom(1,-) after gamma inverse
(``closed.ek_normalize``).  It is decided bijective where the
representing multicategory is built on it
(``correspond.check_representation``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .closed import (
    ClosedFunctor,
    ClosedStructure,
    EKClosedStructure,
    v_category_failures,
)
from .core import DEFAULT_BOUNDS, Bounds, MorId, ObjId
from .errors import BudgetExceeded
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

    source: VCategory
    target: VCategory
    obj_map: Callable[[ObjId], ObjId]
    hom_map: Callable[[ObjId, ObjId], MorId]
    apply_mor: Callable[[MorId], MorId]

    def mor_action(self, f: MorId) -> MorId:
        return self.apply_mor(f)


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
    unit_left, unit_right, pentagon = v_category_failures(
        A.base, A.objects, A.hom_obj, A.j, A.L
    )
    rep.law("vc/unit-left", "j then L lands on base j", unit_left)
    rep.law("vc/unit-right", "L against j lands on i", unit_right)
    rep.law("vc/pentagon", "enriched associativity pentagon", pentagon)
    return rep


def _vnat_square_ok(F: VFunctor, G: VFunctor, comp: dict, a, b) -> bool:
    cs = F.target.base
    cat = cs.cat
    lhs = cat.compose(F.hom_map(a, b), cs.cov(F.obj_map(a), comp[b]))
    rhs = cat.compose(G.hom_map(a, b), cs.contra(comp[a], G.obj_map(b)))
    return lhs == rhs


def identity_v_functor(A: VCategory) -> VFunctor:
    return VFunctor(
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
        und_v,
        und_v,
        lambda y: cs.hom2_obj(x, y),
        lambda y, z: cs.L(x, y, z),
        apply_mor=lambda f: cs.cov(x, f),
    )


def pushforward(F: ClosedFunctor, A: VCategory) -> VCategory:
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
        f"{F.name}*{A.name}",
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
    cat = F.target.base.cat
    objs = F.source.objects
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


def gamma_repr(ek: EKClosedStructure, w: ObjId, component: MorId) -> str:
    """The representation map: apply the set-valued functor V to a
    family's component at the representing object w, and evaluate at the
    identity of w.  Returns the element as its atom name."""
    cs = ek.closed
    table = ek.C_functor.mor_map(component)
    val = table.apply(ek.elt_atom(cs.cat.identity(w)))
    return val.name
