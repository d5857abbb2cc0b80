"""The passage between closed multicategories with unit objects and closed
categories, in both directions.

Forward: a closed multicategory with a unit object has an underlying
closed category (unary homs, internal hom objects, i from the unit
contraction, j from the internal identities, L from currying the internal
composition); multifunctors induce closed functors via closing
transformations; multinatural transformations keep their components.

Backward: a closed functor between underlying closed categories lifts to
a multifunctor by recursion on arity, and every finite closed category is
realized, up to isomorphism, as the underlying closed category of a
multicategory of enriched transformation families between left hom
functors.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .closed import (
    ClosedFunctor,
    ClosedStructure,
    ClosedTransformation,
    EKClosedStructure,
    check_cf_axioms,
    check_cn_axioms,
    ek_normalize,
    gamma,
)
from .closedmc import (
    ClosednessWitness,
    InternalCategory,
    L_compose_loci,
    L_identity_loci,
    UnitWitness,
    bar,
    build_internal_category,
    contraction_inverses,
    curry1,
    hom_action_contra,
    hom_action_cov,
    unit_contraction,
    uncurry,
)
from .core import (
    DEFAULT_BOUNDS,
    Bounds,
    Category,
    MorId,
    ObjId,
    guard_hom,
    guard_objects,
)
from .enriched import (
    VFunctor,
    VNatFamily,
    build_LX,
    build_underlying_V_category,
    compose_v_functors,
    enumerate_vnat_families,
    gamma_repr,
    identity_v_functor,
)
from .errors import KernelError, NotBijective
from .multicat import (
    MultiFunctor,
    MultiNat,
    Multicategory,
    Profile,
)
from .report import Report


class UnderlyingCategory(Category):
    """The category of unary morphisms of a multicategory."""

    def __init__(self, m: Multicategory):
        self._m = m
        self.name = f"U({m.name})"

    def objects(self):
        return tuple(sorted(self._m.objects(), key=self._m.obj_key))

    def hom(self, x, y):
        return self._m.hom((x,), y)

    def identity(self, x):
        return self._m.identity(x)

    def compose(self, f, g):
        return self._m.compose((f,), g)

    def dom(self, f):
        return self._m.dom(f)[0]

    def cod(self, f):
        return self._m.cod(f)

    def obj_key(self, x):
        return self._m.obj_key(x)

    def mor_key(self, f):
        return self._m.mor_key(f)

    def show_obj(self, x):
        return self._m.show_obj(x)

    def show_mor(self, f):
        return self._m.show_mor(f)


def underlying_closed_category(
    w: ClosednessWitness,
    uw: UnitWitness,
    bounds: Bounds = DEFAULT_BOUNDS,
    ic: InternalCategory | None = None,
) -> ClosedStructure:
    """The underlying closed category of a closed multicategory with a
    unit object.  i inverts the unit contraction, j factors the internal
    identity through u, and L curries the internal composition."""
    m = w.m
    if ic is None:
        ic, _ = build_internal_category(w, bounds)
    cat = UnderlyingCategory(m)
    objs = cat.objects()

    i = {}
    for x in objs:
        hits = contraction_inverses(w, uw, x, bounds)
        if len(hits) != 1:
            raise NotBijective(
                f"{m.name}: unit contraction at {m.show_obj(x)} "
                f"has {len(hits)} inverses"
            )
        i[x] = hits[0]
    i_inv = {x: unit_contraction(w, uw, x) for x in objs}
    j = {x: bar(w, uw, ic.unit1[x], bounds) for x in objs}

    @functools.cache
    def hom2_mor(f: MorId, g: MorId) -> MorId:
        step1 = hom_action_contra(w, f, m.dom(g)[0], bounds)
        step2 = hom_action_cov(w, (m.dom(f)[0],), g, bounds)
        return m.compose((step1,), step2)

    return ClosedStructure(
        f"U({m.name})",
        cat,
        uw.unit,
        lambda x, y: w.hom_obj((x,), y),
        hom2_mor,
        i.__getitem__,
        i_inv.__getitem__,
        j.__getitem__,
        lambda x, y, z: ic.LX[(x, y, z)],
    )


def verify_u_construction(
    w: ClosednessWitness,
    uw: UnitWitness,
    bounds: Bounds = DEFAULT_BOUNDS,
    ic: InternalCategory | None = None,
) -> Report:
    """The five reformulations that make the underlying structure a closed
    category, each named after the axiom it discharges: CC1 reduces to the
    internal hom functor preserving identities, CC2 to the unit law of the
    internal composition, CC3 to its functoriality, CC4 to compatibility
    with the unit contraction, and CC5 to the currying factorization of
    gamma."""
    m = w.m
    rep = Report(f"closed category from multicategory: {m.name}")
    if ic is None:
        ic, _ = build_internal_category(w, bounds)
    objs = sorted(m.objects(), key=m.obj_key)
    unit = uw.unit

    rep.law(
        "u/CC1-internal-identities",
        "CC1 via L preserving identities",
        L_identity_loci(w, ic),
    )

    bad = []
    for x in objs:
        for y in objs:
            hxy = w.hom_obj((x,), y)
            lhs = m.compose((ic.unit1[x], m.identity(hxy)), ic.mu[(x, x, y)])
            if lhs != m.identity(hxy):
                bad.append(f"{x},{y}")
    rep.law("u/CC2-unit-law", "CC2 via the identity axiom for mu", bad)

    rep.law(
        "u/CC3-internal-functoriality",
        "CC3 via L preserving composition",
        L_compose_loci(w, ic),
    )

    bad = []
    for y in objs:
        for z in objs:
            ty = unit_contraction(w, uw, y)
            tz = unit_contraction(w, uw, z)
            lhs = m.compose(
                (ic.LX[(unit, y, z)],),
                hom_action_cov(w, (w.hom_obj((unit,), y),), tz, bounds),
            )
            rhs = hom_action_contra(w, ty, z, bounds)
            if lhs != rhs:
                bad.append(f"{y},{z}")
    rep.law("u/CC4-contraction", "CC4 via the unit contraction", bad)

    bad = []
    ucs = underlying_closed_category(w, uw, bounds, ic)
    for x in objs:
        for y in objs:
            for f in guard_hom(m, (x,), y, bounds):
                g = gamma(ucs, f)
                nullary = m.compose((uw.u,), g)
                back = uncurry(w, nullary, (x,), y)
                if back != f:
                    bad.append(f"f={m.show_mor(f)}")
    rep.law("u/CC5-gamma-factorization", "CC5 via the currying factorization", bad)
    return rep


def underlying_closed_functor(
    F: MultiFunctor,
    w_src: ClosednessWitness,
    uw_src: UnitWitness,
    w_tgt: ClosednessWitness,
    uw_tgt: UnitWitness,
    src_cs: ClosedStructure,
    tgt_cs: ClosedStructure,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> ClosedFunctor:
    """The closed functor induced by a multifunctor: the hom comparison is
    the closing transformation and the unit comparison factors the image
    of u."""
    from .closedmc import closing_transformation
    from .core import Functor

    phi = Functor(
        f"U({F.name})",
        src_cs.cat,
        tgt_cs.cat,
        F.obj_map,
        F.mor_map,
    )

    def phi_hat(x, y):
        return closing_transformation(w_src, w_tgt, F, (x,), y, bounds)

    phi0 = bar(w_tgt, uw_tgt, F.mor_map(uw_src.u), bounds)
    return ClosedFunctor(f"U({F.name})", src_cs, tgt_cs, phi, phi_hat, phi0)


def underlying_closed_transformation(
    r: MultiNat, UF: ClosedFunctor, UG: ClosedFunctor
) -> ClosedTransformation:
    from .core import NaturalTransformation

    return ClosedTransformation(
        f"U({r.name})",
        UF,
        UG,
        NaturalTransformation(f"U({r.name})", UF.phi, UG.phi, r.components),
    )


def check_U_functoriality(
    F: MultiFunctor,
    G: MultiFunctor,
    w1: ClosednessWitness,
    uw1: UnitWitness,
    w2: ClosednessWitness,
    uw2: UnitWitness,
    w3: ClosednessWitness,
    uw3: UnitWitness,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> Report:
    """Strict functoriality of the passage to closed data: the induced
    closed functor of a composite is the composite of the induced ones,
    identities go to identities, and vertical composites of 2-cells are
    preserved componentwise."""
    from .closed import compose_closed_functors

    rep = Report(f"functoriality of U: {F.name};{G.name}")
    cs1 = underlying_closed_category(w1, uw1, bounds)
    cs2 = underlying_closed_category(w2, uw2, bounds)
    cs3 = underlying_closed_category(w3, uw3, bounds)
    UF = underlying_closed_functor(F, w1, uw1, w2, uw2, cs1, cs2, bounds)
    UG = underlying_closed_functor(G, w2, uw2, w3, uw3, cs2, cs3, bounds)
    Ucomp = underlying_closed_functor(
        F.then(G), w1, uw1, w3, uw3, cs1, cs3, bounds
    )
    eq, locus = closed_functors_equal(
        Ucomp, compose_closed_functors(UF, UG), bounds
    )
    rep.add("u-fun/compose", "U(G.F) = U(G).U(F)", eq, locus)

    Uid = underlying_closed_functor(
        MultiFunctor.identity(w1.m), w1, uw1, w1, uw1, cs1, cs1, bounds
    )
    eq2, locus2 = closed_functors_equal(Uid, ClosedFunctor.identity(cs1), bounds)
    rep.add("u-fun/identity", "U(id) = id", eq2, locus2)

    r = MultiNat.identity(F)
    rr = compose_multinat_vertical(r, r)
    same = all(
        rr.components(x) == w2.m.compose((r.components(x),), r.components(x))
        for x in w1.m.objects()
    )
    rep.add("u-fun/2-cells", "vertical composites keep their components", same)
    return rep


def compose_multinat_vertical(r: MultiNat, s: MultiNat) -> MultiNat:
    if r.target is not s.source:
        raise ValueError("2-cell endpoints do not match")
    tgt = r.source.target

    def comp(x):
        return tgt.compose((r.components(x),), s.components(x))

    return MultiNat(f"{r.name};{s.name}", r.source, s.target, comp)


def closed_functors_equal(
    A: ClosedFunctor, B: ClosedFunctor, bounds: Bounds = DEFAULT_BOUNDS
) -> tuple[bool, str]:
    """Componentwise equality of closed functors over enumerated objects
    and morphisms; returns a locus for the first difference."""
    cat = A.source.cat
    objs = guard_objects(cat, bounds)
    for x in objs:
        if A.phi.obj_map(x) != B.phi.obj_map(x):
            return False, f"object {cat.show_obj(x)}"
    for x in objs:
        for y in objs:
            for f in cat.hom(x, y):
                if A.phi.mor_map(f) != B.phi.mor_map(f):
                    return False, f"morphism {cat.show_mor(f)}"
            if A.phi_hat(x, y) != B.phi_hat(x, y):
                return False, f"hom comparison at {cat.show_obj(x)},{cat.show_obj(y)}"
    if A.phi0 != B.phi0:
        return False, "unit comparison"
    return True, ""


def multifunctors_equal(
    F: MultiFunctor, G: MultiFunctor, bounds: Bounds = DEFAULT_BOUNDS
) -> tuple[bool, str]:
    m = F.source
    for x in m.objects():
        if F.obj_map(x) != G.obj_map(x):
            return False, f"object {m.show_obj(x)}"
    for xs, y in m.signatures(bounds):
        for f in guard_hom(m, xs, y, bounds):
            if F.mor_map(f) != G.mor_map(f):
                return False, f"morphism {m.show_mor(f)}"
    return True, ""


def check_injectivity(
    F: MultiFunctor,
    G: MultiFunctor,
    UF: ClosedFunctor,
    UG: ClosedFunctor,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> Report:
    """If the induced closed functors agree componentwise, the
    multifunctors must agree on every signature within bounds."""
    rep = Report(f"injectivity on 1-cells: {F.name} vs {G.name}")
    same_u, locus_u = closed_functors_equal(UF, UG, bounds)
    if not same_u:
        rep.add_pass("inj/u-images-differ", f"closed functors differ ({locus_u})")
        return rep
    same, locus = multifunctors_equal(F, G, bounds)
    rep.add("inj/equal", "equal images force equal multifunctors", same, locus)
    return rep


def check_2cell_transfer(
    r: MultiNat,
    UF: ClosedFunctor,
    UG: ClosedFunctor,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> Report:
    """A multinatural transformation's components form a closed
    transformation between the induced closed functors, and conversely a
    closed transformation's components are multinatural."""
    from .multicat import check_multinat

    rep = Report(f"2-cell transfer: {r.name}")
    ct = underlying_closed_transformation(r, UF, UG)
    rep.extend(check_cn_axioms(ct, bounds), prefix="forward/")
    back = MultiNat(f"{r.name}'", r.source, r.target, ct.eta.components)
    rep.extend(check_multinat(back, bounds), prefix="backward/")
    return rep


def lift_closed_functor(
    Phi: ClosedFunctor,
    w_src: ClosednessWitness,
    uw_src: UnitWitness,
    w_tgt: ClosednessWitness,
    uw_tgt: UnitWitness,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> MultiFunctor:
    """Reconstruct a multifunctor from a closed functor between the
    underlying closed categories.

    Nullary morphisms factor through the unit: the image is u, then the
    unit comparison, then the image of the factorization.  Positive-arity
    morphisms are defined by recursion: curry off the first input, map
    the rest, postcompose the hom comparison, and uncurry in the target.
    Results are memoized per morphism."""
    m, d = w_src.m, w_tgt.m

    @functools.cache
    def lift(f: MorId) -> MorId:
        xs = m.dom(f)
        if len(xs) == 0:
            fbar = bar(w_src, uw_src, f, bounds)
            head = d.compose((uw_tgt.u,), Phi.phi0)
            return d.compose((head,), Phi.phi.mor_map(fbar))
        x1, y = xs[0], m.cod(f)
        inner = lift(curry1(w_src, f, bounds))
        t = d.compose((inner,), Phi.phi_hat(x1, y))
        fx1, fy = Phi.phi.obj_map(x1), Phi.phi.obj_map(y)
        return d.compose((d.identity(fx1), t), w_tgt.ev((fx1,), fy))

    return MultiFunctor(f"lift({Phi.name})", m, d, Phi.phi.obj_map, lift)


# ---------------------------------------------------------------------------
# The representing multicategory of a finite closed category.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RepresentingMorphism:
    """A morphism of the representing multicategory: an enriched natural
    family from the left hom functor at the codomain to the composite of
    the left hom functors at the domain profile, keyed by its coordinate
    under the representation bijection.

    ``RepresentingMulticat`` builds exactly one per family, so equality
    and hashing are identity.  ``components`` lists (object, morphism)
    pairs in the multicategory's object order."""

    dom: Profile
    cod: ObjId
    components: tuple
    gamma_name: str

    def __str__(self):
        return f"rep[{self.gamma_name}]:{','.join(map(str, self.dom))}->{self.cod}"


class RepresentingMulticat(Multicategory):
    """Multicategory whose hom-sets are enriched natural families between
    composites of left hom functors, with composition by whiskering and
    pointwise composition."""

    def __init__(self, ek: EKClosedStructure, bounds: Bounds):
        w = ek.closed
        self.ek = ek
        self.base = w
        self.bounds = bounds
        self.name = f"rep({w.name})"
        wcat = w.cat
        objs = tuple(sorted(wcat.objects(), key=wcat.obj_key))
        for x in objs:
            for y in objs:
                if w.hom2_obj(x, y) not in objs:
                    raise KernelError(
                        f"{w.name}: objects not closed under internal homs"
                    )
        self._objs = objs
        self._pos = {x: k for k, x in enumerate(objs)}
        self._units = tuple(wcat.identity(x) for x in objs)
        self._und_v = build_underlying_V_category(w)
        self._lx = {x: build_LX(w, x) for x in objs}
        # Keyed by the component morphisms in self._objs order.
        self._index: dict[tuple[Profile, ObjId, tuple], RepresentingMorphism] = {}
        self._functor = functools.cache(self._compose_lx)
        self._positions = functools.cache(self._image_positions)
        self._homset = functools.cache(self._enumerate)
        self._whisker = functools.cache(
            lambda xs, alpha: self.functor_of(xs).mor_action(alpha)
        )
        for xs in self.profiles(bounds.max_arity):
            for y in objs:
                self._homset(xs, y)

    # -- functor calculus ---------------------------------------------------

    def functor_of(self, xs: Profile) -> VFunctor:
        return self._functor(tuple(xs))

    def _compose_lx(self, xs: Profile) -> VFunctor:
        acc = identity_v_functor(self._und_v)
        for x in xs:
            acc = compose_v_functors(acc, self._lx[x])
        return acc

    def _image_positions(self, xs: Profile) -> tuple[int, ...]:
        """The image of each object under the composite left hom functor
        at xs, as a position in self._objs."""
        obj_map = self.functor_of(xs).obj_map
        return tuple(self._pos[obj_map(a)] for a in self._objs)

    def _enumerate(self, xs: Profile, y: ObjId) -> tuple[RepresentingMorphism, ...]:
        T = self.functor_of(xs)
        ly = self._lx[y]
        fams = enumerate_vnat_families(ly, T, self.bounds)
        reps = []
        for comp in fams:
            comps = tuple((a, comp[a]) for a in self._objs)
            g = gamma_repr(self.ek, y, VNatFamily("p", ly, T, comp))
            reps.append(RepresentingMorphism(xs, y, comps, g))
        reps.sort(key=lambda r: r.gamma_name)
        for r in reps:
            self._index[(xs, y, tuple(m for _, m in r.components))] = r
        return tuple(reps)

    def _find(self, xs: Profile, y: ObjId, mors: tuple) -> RepresentingMorphism:
        """The morphism xs -> y whose components, in the order of
        ``objects()``, are mors."""
        xs = tuple(xs)
        self._homset(xs, y)  # hom-sets materialize on demand
        r = self._index.get((xs, y, mors))
        if r is None:
            raise KernelError(
                f"{self.name}: composite family is not natural "
                f"(missing from hom{xs}->{y})"
            )
        return r

    def _lookup(self, xs: Profile, y: ObjId, comps: dict) -> RepresentingMorphism:
        return self._find(xs, y, tuple(comps[a] for a in self._objs))

    # -- multicategory interface --------------------------------------------

    def objects(self):
        return self._objs

    def hom(self, xs, y):
        return self._homset(tuple(xs), y)

    def identity(self, x):
        w = self.base
        return self._find(
            (x,), x, tuple(w.cat.identity(w.hom2_obj(x, a)) for a in self._objs)
        )

    def whisker(self, xs: Profile, alpha: MorId) -> MorId:
        """The composite left hom functor at xs applied to alpha, cached
        per structure: composites revisit few (xs, alpha) pairs."""
        return self._whisker(xs, alpha)

    def compose(self, fs, g: RepresentingMorphism):
        if tuple(f.cod for f in fs) != g.dom:
            raise ValueError("profile mismatch")
        compose = self.base.cat.compose
        whisker = self.whisker
        positions = self._positions
        # Tensor the inner families left to right, then compose vertically
        # after g.  Components are carried in self._objs order; the
        # component of f at the image of the k-th object sits at that
        # image's position.
        acc_profile: Profile = ()
        acc_target: Profile = ()
        acc = self._units
        for f in fs:
            beta, xs = f.components, f.dom
            acc = tuple(
                compose(beta[k][1], whisker(xs, m))
                for k, m in zip(positions(acc_profile), acc)
            )
            acc_profile = acc_profile + (f.cod,)
            acc_target = acc_target + xs
        mors = tuple(compose(t, m) for (_, t), m in zip(g.components, acc))
        return self._find(acc_target, g.cod, mors)

    def dom(self, f: RepresentingMorphism):
        return f.dom

    def cod(self, f: RepresentingMorphism):
        return f.cod

    def obj_key(self, x):
        return self.base.cat.obj_key(x)

    def mor_key(self, f: RepresentingMorphism):
        return (
            tuple(self.obj_key(x) for x in f.dom),
            self.obj_key(f.cod),
            f.gamma_name,
        )

    def show_obj(self, x):
        return self.base.cat.show_obj(x)

    def show_mor(self, f):
        return str(f)


@dataclass
class RepresentedBundle:
    ek: EKClosedStructure
    iso: ClosedFunctor  # base structure -> normalized structure
    mcv: RepresentingMulticat
    witness: ClosednessWitness
    unit: UnitWitness


def build_representing_multicategory(
    cs: ClosedStructure, bounds: Bounds = DEFAULT_BOUNDS
) -> RepresentedBundle:
    """The representing multicategory of a finite closed category: objects
    are those of the (normalized) structure, a morphism X1..Xn -> Y is an
    enriched natural family from the left hom functor at Y to the
    composite of the left hom functors at the Xi, the internal hom object
    of (X;Z) is the internal hom und(X,Z), the evaluation is the family
    of L components at (X,Z), and the unit is the inverse-i family."""
    ek, iso = ek_normalize(cs, bounds)
    w = ek.closed
    wcat = w.cat
    mcv = RepresentingMulticat(ek, bounds)
    objs = mcv.objects()

    hom_obj1 = {(x, z): w.hom2_obj(x, z) for x in objs for z in objs}
    ev1 = {}
    for x in objs:
        for z in objs:
            comps = {a: w.L(x, z, a) for a in objs}
            ev1[(x, z)] = mcv._lookup((x, w.hom2_obj(x, z)), z, comps)
    witness = ClosednessWitness(mcv, hom_obj1, ev1)

    u_comps = {a: w.i_inv(a) for a in objs}
    unit = UnitWitness(w.unit, mcv._lookup((), w.unit, u_comps))
    return RepresentedBundle(ek, iso, mcv, witness, unit)


def check_representation(
    bundle: RepresentedBundle, bounds: Bounds = DEFAULT_BOUNDS
) -> Report:
    """Representation-specific checks: the bijection between families and
    elements at every signature, the coordinate equation for the
    evaluation families, and compatibility of the bijection with
    currying."""
    rep = Report(f"representation: {bundle.mcv.name}")
    mcv, ek, w = bundle.mcv, bundle.ek, bundle.ek.closed

    bad = []
    for xs, y in mcv.signatures(bounds):
        T = mcv.functor_of(xs)
        names = [f.gamma_name for f in guard_hom(mcv, xs, y, bounds)]
        target = sorted(a.name for a in ek.C_functor.obj_map(T.obj_map(y)).elements)
        if len(set(names)) != len(names) or sorted(names) != target:
            bad.append(f"({xs};{y})")
    rep.law("repr/gamma-bijective", "families correspond to elements", bad)

    bad = []
    for x in mcv.objects():
        for z in mcv.objects():
            ev = bundle.witness.ev1[(x, z)]
            want = ek.elt_atom(w.cat.identity(w.hom2_obj(x, z))).name
            if ev.gamma_name != want:
                bad.append(f"{x},{z}")
    rep.law("repr/ev-coordinate", "evaluation represents the identity", bad)

    bad = []
    for xs, z in mcv.signatures(bounds):
        if len(xs) != 1:
            continue
        x = xs[0]
        h = bundle.witness.hom_obj((x,), z)
        for ys in mcv.profiles(bounds.max_arity - 1):
            for g in guard_hom(mcv, ys, h, bounds):
                img = uncurry(bundle.witness, g, (x,), z)
                if img.gamma_name != g.gamma_name:
                    bad.append(f"g={mcv.show_mor(g)}")
    rep.law("repr/gamma-currying", "bijection commutes with currying", bad)
    return rep


def verify_essential_surjectivity(
    bundle: RepresentedBundle, bounds: Bounds = DEFAULT_BOUNDS
) -> Report:
    """The comparison functor from the normalized base into the underlying
    closed category of the representing multicategory: an isomorphism of
    closed categories with identity hom and unit comparisons, under which
    i, j, L are exactly the families of the corresponding base data."""
    from .core import Functor

    rep = Report(f"essential surjectivity: {bundle.mcv.name}")
    mcv, w = bundle.mcv, bundle.ek.closed
    wcat = w.cat
    objs = mcv.objects()

    ucs = underlying_closed_category(bundle.witness, bundle.unit, bounds)

    def l_of(f) -> RepresentingMorphism:
        x, y = wcat.dom(f), wcat.cod(f)
        comps = {a: w.hom2_mor(f, wcat.identity(a)) for a in objs}
        return mcv._lookup((x,), y, comps)

    phi = Functor(f"L({w.name})", wcat, ucs.cat, lambda x: x, l_of)
    lfun = ClosedFunctor(
        f"L({w.name})",
        w,
        ucs,
        phi,
        lambda x, y: ucs.cat.identity(w.hom2_obj(x, y)),
        ucs.cat.identity(w.unit),
    )
    rep.extend(check_cf_axioms(lfun, bounds), prefix="L/")

    bad = []
    for x in objs:
        for y in objs:
            src = list(wcat.hom(x, y))
            imgs = [l_of(f) for f in src]
            tgt = guard_hom(mcv, (x,), y, bounds)
            if len(set(imgs)) != len(imgs) or len(imgs) != len(tgt):
                bad.append(f"{x},{y}")
    rep.law("surj/hom-bijective", "comparison bijective on hom-sets", bad)

    bad = []
    for x in objs:
        if ucs.i(x) != l_of(w.i(x)):
            bad.append(f"i at {x}")
        if ucs.j(x) != l_of(w.j(x)):
            bad.append(f"j at {x}")
    for x, y, z in itertools.product(objs, repeat=3):
        if ucs.L(x, y, z) != l_of(w.L(x, y, z)):
            bad.append(f"L at {x},{y},{z}")
    rep.law("surj/structure-identified", "i, j, L are the expected families", bad)
    return rep
