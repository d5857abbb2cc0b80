"""The passage between closed multicategories with unit objects and closed
categories, in both directions.

Forward: a closed multicategory with a unit object has an underlying
closed category (unary homs, internal hom objects, i from the unit
contraction, j from the internal identities, L from currying the internal
composition), which ``closedmc`` builds and this module verifies;
multifunctors induce closed functors via closing transformations;
multinatural transformations keep their components.

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
    compose_closed_functors,
    ek_normalize,
)
from .closedmc import (
    ClosednessWitness,
    L_compose_loci,
    L_identity_loci,
    UnitWitness,
    bar,
    closing_transformation,
    curry,
    hom_action_contra,
    hom_action_cov,
    mu_left_unit_holds,
    underlying_closed_category,
    unit_contraction,
    uncurry,
)
from .core import (
    DEFAULT_BOUNDS,
    Bounds,
    Functor,
    MorId,
    NaturalTransformation,
    ObjId,
    bijective,
    guard_hom,
    guard_objects,
    hom_entry,
    preimages,
)
from .enriched import VFunctor, enumerate_vnat_families, gamma_repr
from .errors import (
    BudgetExceeded,
    FormatError,
    KernelError,
    NotBijective,
    NotComposable,
)
from .multicat import Multicategory, Profile, _walk_table, check_multinat
from .report import Report


def verify_u_construction(
    w: ClosednessWitness, bounds: Bounds = DEFAULT_BOUNDS
) -> Report:
    """The five reformulations that make the underlying structure a closed
    category, each named after the axiom it discharges: CC1 reduces to the
    internal hom functor preserving identities, CC2 to the unit law of the
    internal composition, CC3 to its functoriality, CC4 to compatibility
    with the unit contraction, and CC5 to the currying factorization of
    gamma."""
    m = w.m
    rep = Report(f"closed category from multicategory: {m.name}")
    ic = w.internal_category(bounds)
    objs = m.objects()
    uw = w.declared_unit()
    unit = uw.unit

    rep.law(
        "u/CC1-internal-identities",
        "CC1 via L preserving identities",
        L_identity_loci(w, ic),
    )

    bad = [
        f"{x},{y}" for x in objs for y in objs if not mu_left_unit_holds(w, ic, x, y)
    ]
    rep.law("u/CC2-unit-law", "CC2 via the identity axiom for mu", bad)

    rep.law(
        "u/CC3-internal-functoriality",
        "CC3 via L preserving composition",
        L_compose_loci(w, ic),
    )

    bad = []
    for y in objs:
        for z in objs:
            ty = unit_contraction(w, y)
            tz = unit_contraction(w, z)
            lhs = m.compose(
                (ic.LX[(unit, y, z)],),
                hom_action_cov(w, (w.hom_obj((unit,), y),), tz, bounds),
            )
            rhs = hom_action_contra(w, ty, z, bounds)
            if lhs != rhs:
                bad.append(f"{y},{z}")
    rep.law("u/CC4-contraction", "CC4 via the unit contraction", bad)

    bad = []
    ucs = w.underlying(bounds)
    for x in objs:
        for y in objs:
            for f in guard_hom(m, (x,), y, bounds):
                g = ucs.gamma(f)
                nullary = m.compose((uw.u,), g)
                back = uncurry(w, nullary, (x,), y)
                if back != f:
                    bad.append(f"f={f}")
    rep.law("u/CC5-gamma-factorization", "CC5 via the currying factorization", bad)
    return rep


def underlying_closed_functor(
    F: Functor,
    w_src: ClosednessWitness,
    w_tgt: ClosednessWitness,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> ClosedFunctor:
    """The closed functor induced by a multifunctor, between the
    witnesses' own U(M) and U(N): the hom comparison is the closing
    transformation and the unit comparison factors the image of u."""
    src_cs, tgt_cs = w_src.underlying(bounds), w_tgt.underlying(bounds)
    phi = Functor(f"U({F.name})", src_cs.cat, tgt_cs.cat, F.obj_map, F.mor_map)

    def phi_hat(x, y):
        return closing_transformation(w_src, w_tgt, F, (x,), y, bounds)

    phi0 = bar(w_tgt, F.mor_map(w_src.declared_unit().u), bounds)
    return ClosedFunctor(src_cs, tgt_cs, phi, phi_hat, phi0)


def underlying_closed_transformation(
    r: NaturalTransformation, UF: ClosedFunctor, UG: ClosedFunctor
) -> ClosedTransformation:
    eta = NaturalTransformation(f"U({r.name})", UF.phi, UG.phi, r.components)
    return ClosedTransformation(UF, UG, eta)


def check_U_functoriality(
    F: Functor,
    G: Functor,
    w1: ClosednessWitness,
    w2: ClosednessWitness,
    w3: ClosednessWitness,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> Report:
    """Strict functoriality of the passage to closed data: the induced
    closed functor of a composite is the composite of the induced ones,
    and identities go to identities."""
    rep = Report(f"functoriality of U: {F.name};{G.name}")
    UF = underlying_closed_functor(F, w1, w2, bounds)
    UG = underlying_closed_functor(G, w2, w3, bounds)
    Ucomp = underlying_closed_functor(F.then(G), w1, w3, bounds)
    eq, locus = closed_functors_equal(
        Ucomp, compose_closed_functors(UF, UG), bounds
    )
    rep.law("u-fun/compose", "U(G.F) = U(G).U(F)", [] if eq else [locus])

    Uid = underlying_closed_functor(Functor.identity(w1.m), w1, w1, bounds)
    eq2, locus2 = closed_functors_equal(
        Uid, ClosedFunctor.identity(w1.underlying(bounds)), bounds
    )
    rep.law("u-fun/identity", "U(id) = id", [] if eq2 else [locus2])
    return rep


def closed_functors_equal(
    A: ClosedFunctor, B: ClosedFunctor, bounds: Bounds = DEFAULT_BOUNDS
) -> tuple[bool, str]:
    """Componentwise equality of closed functors over enumerated objects
    and morphisms; returns a locus for the first difference."""
    cat = A.source.cat
    objs = guard_objects(cat, bounds)
    for x in objs:
        if A.phi.obj_map(x) != B.phi.obj_map(x):
            return False, f"object {x}"
    for x in objs:
        for y in objs:
            for f in cat.hom(x, y):
                if A.phi.mor_map(f) != B.phi.mor_map(f):
                    return False, f"morphism {f}"
            if A.phi_hat(x, y) != B.phi_hat(x, y):
                return False, f"hom comparison at {x},{y}"
    if A.phi0 != B.phi0:
        return False, "unit comparison"
    return True, ""


def multifunctors_equal(
    F: Functor, G: Functor, bounds: Bounds = DEFAULT_BOUNDS
) -> tuple[bool, str]:
    m = F.source
    for x in m.objects():
        if F.obj_map(x) != G.obj_map(x):
            return False, f"object {x}"
    for xs, y in m.signatures(bounds):
        for f in guard_hom(m, xs, y, bounds):
            if F.mor_map(f) != G.mor_map(f):
                return False, f"morphism {f}"
    return True, ""


def check_injectivity(
    F: Functor,
    G: Functor,
    UF: ClosedFunctor,
    UG: ClosedFunctor,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> Report:
    """If the induced closed functors agree componentwise, the
    multifunctors must agree on every signature within bounds; when the
    closed functors differ, the law holds vacuously."""
    rep = Report(f"injectivity on 1-cells: {F.name} vs {G.name}")
    same_u = closed_functors_equal(UF, UG, bounds)[0]
    same, locus = multifunctors_equal(F, G, bounds) if same_u else (True, "")
    rep.law(
        "inj/equal", "equal images force equal multifunctors", [] if same else [locus]
    )
    return rep


def check_2cell_transfer(
    r: NaturalTransformation,
    UF: ClosedFunctor,
    UG: ClosedFunctor,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> Report:
    """A multinatural transformation's components form a closed
    transformation between the induced closed functors, and conversely a
    closed transformation's components are multinatural."""
    rep = Report(f"2-cell transfer: {r.name}")
    ct = underlying_closed_transformation(r, UF, UG)
    rep.extend(check_cn_axioms(ct, bounds), prefix="forward/")
    back = NaturalTransformation(f"{r.name}'", r.source, r.target, ct.eta.components)
    rep.extend(check_multinat(back, bounds), prefix="backward/")
    return rep


def lift_closed_functor(
    Phi: ClosedFunctor,
    w_src: ClosednessWitness,
    w_tgt: ClosednessWitness,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> Functor:
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
            fbar = bar(w_src, f, bounds)
            head = d.compose((w_tgt.declared_unit().u,), Phi.phi0)
            return d.compose((head,), Phi.phi.mor_map(fbar))
        x1, y = xs[0], m.cod(f)
        inner = lift(curry(w_src, f, 1, bounds))
        t = d.compose((inner,), Phi.phi_hat(x1, y))
        fx1, fy = Phi.phi.obj_map(x1), Phi.phi.obj_map(y)
        return d.plug(w_tgt.ev((fx1,), fy), 1, t)

    return Functor(f"lift({Phi.name})", m, d, Phi.phi.obj_map, lift)


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
    and hashing are identity.  ``components`` lists the family's
    morphisms in the multicategory's object order."""

    dom: Profile
    cod: ObjId
    components: tuple
    gamma_name: str

    def __str__(self):
        return f"rep[{self.gamma_name}]:{','.join(map(str, self.dom))}->{self.cod}"


class RepresentingMulticat(Multicategory):
    """Multicategory whose hom-sets are enriched natural families between
    composites of left hom functors, with composition by whiskering and
    pointwise composition.  A family is indexed by its component at the
    codomain, which determines it, so composition computes only that
    component.  Objects come in the base's order, each hom-set in
    ``gamma_name`` order.  ``witness`` is its closedness witness, with
    the evaluation and unit families the construction defines."""

    def __init__(self, ek: EKClosedStructure, bounds: Bounds):
        w = ek.closed
        self.ek = ek
        self.base = w
        self.bounds = bounds
        self.name = f"rep({w.name})"
        wcat = w.cat
        objs = wcat.objects()
        for x in objs:
            for y in objs:
                if w.hom2_obj(x, y) not in objs:
                    raise KernelError(
                        f"{w.name}: objects not closed under internal homs"
                    )
        self._objs = objs
        self._pos = {x: k for k, x in enumerate(objs)}
        self._units = tuple(wcat.identity(x) for x in objs)
        # Keyed by the component at the codomain.
        self._index: dict[tuple[Profile, ObjId, MorId], RepresentingMorphism] = {}
        # The composite left hom functor at (y1..yk, y) applies L^y last,
        # so the image of the object at position p moves to _lpos[y][p].
        self._lpos = {
            y: tuple(self._pos[w.hom2_obj(y, a)] for a in objs) for y in objs
        }
        self._homset = functools.cache(self._enumerate)
        # The multicategory laws ask for identities far more often than
        # there are objects: each family is found once.
        self.identity = functools.cache(self._identity)
        # One step of compose: f's component at position p after m
        # whiskered by f's domain.  Composites revisit few such triples.
        self._step = functools.cache(
            lambda f, p, m: wcat.compose(
                f.components[p], self.functor_of(f.dom).mor_action(m)
            )
        )
        for xs in self.profiles(bounds.max_arity):
            for y in objs:
                self._homset(xs, y)
        # The internal hom of (X;Z) is und(X,Z), its evaluation is the
        # family of L components at (X,Z), and the unit is the family of
        # inverse i components at the base's unit.
        hom_obj1 = {(x, z): w.hom2_obj(x, z) for x in objs for z in objs}
        ev1 = {
            (x, z): self._find(
                (x, w.hom2_obj(x, z)), z, tuple(w.L(x, z, a) for a in objs)
            )
            for x in objs
            for z in objs
        }
        u = self._find((), w.unit, tuple(map(w.i_inv, objs)))
        self.witness = ClosednessWitness(self, hom_obj1, ev1, UnitWitness(w.unit, u))

    def functor_of(self, xs: Profile) -> VFunctor:
        return VFunctor(self.base, tuple(xs))

    def _enumerate(self, xs: Profile, y: ObjId) -> tuple[RepresentingMorphism, ...]:
        F, T = self.functor_of((y,)), self.functor_of(xs)
        fams = enumerate_vnat_families(F, T, self.bounds)
        reps = []
        for comp in fams:
            comps = tuple(comp[a] for a in self._objs)
            g = gamma_repr(self.ek, y, comp[y])
            reps.append(RepresentingMorphism(xs, y, comps, g))
        reps.sort(key=lambda r: r.gamma_name)
        # The point of a family is read off its component at y, and the
        # point determines the family, so that component is its key.
        k = self._pos[y]
        for r in reps:
            key = (xs, y, r.components[k])
            if key in self._index:
                raise KernelError(
                    f"{self.name}: two families of hom({hom_entry((xs, y))}) "
                    f"share their component at {y}"
                )
            self._index[key] = r
        return tuple(reps)

    def _member(self, xs: Profile, y: ObjId, m: MorId) -> RepresentingMorphism:
        """The morphism xs -> y whose component at y is m."""
        xs = tuple(xs)
        self._homset(xs, y)  # hom-sets materialize on demand
        r = self._index.get((xs, y, m))
        if r is None:
            raise self._not_natural(xs, y)
        return r

    def _find(self, xs: Profile, y: ObjId, mors: tuple) -> RepresentingMorphism:
        """The morphism xs -> y whose components, in the order of
        ``objects()``, are mors."""
        r = self._member(xs, y, mors[self._pos[y]])
        if r.components != mors:
            raise self._not_natural(xs, y)
        return r

    def _not_natural(self, xs: Profile, y: ObjId) -> KernelError:
        return KernelError(
            f"{self.name}: composite family is not natural "
            f"(missing from hom({hom_entry((xs, y))}))"
        )

    # -- multicategory interface --------------------------------------------

    def objects(self):
        return self._objs

    def hom(self, xs, y):
        return self._homset(tuple(xs), y)

    def _identity(self, x):
        w = self.base
        return self._find(
            (x,), x, tuple(w.cat.identity(w.hom2_obj(x, a)) for a in self._objs)
        )

    def compose(self, fs, g: RepresentingMorphism):
        if tuple(f.cod for f in fs) != g.dom:
            inner = ", ".join(map(str, fs))
            raise NotComposable(f"{self.name}: cannot compose {inner} into {g}")
        step, lpos = self._step, self._lpos
        # Tensor the inner families left to right, then compose vertically
        # after g, following only the component at the codomain: it keys
        # the composite, and at each step it depends only on the previous
        # one.  Each step reads the inner family's component at p, the
        # position of the codomain's image under the profile so far.
        k = p = self._pos[g.cod]
        m = self._units[k]
        target: Profile = ()
        for f in fs:
            m = step(f, p, m)
            p = lpos[f.cod][p]
            target += f.dom
        return self._member(
            target, g.cod, self.base.cat.compose(g.components[k], m)
        )

    def keyed_composites(self, bounds: Bounds, hom, name):
        """The keys of the base walk grouped by composite, without one
        compose per composite.  A walk-local cache ``fill`` keeps, for
        each state of compose's codomain chain (the inputs left, the
        arity room, the position p and the step value m), the keys
        "f_i,...,f_n" of every way to fill those inputs along the trie of
        the walk table, one key a line, grouped by the target profile and
        the final m: each state is stepped once, however many prefixes
        reach it, and a parent adds its name to every key at once.  Then
        each g costs one composition and one index lookup per group.  A
        composite that compose would refuse is left out in the same way,
        and a KernelError propagates.  No name holds a line break."""
        homs, trie, _ = _walk_table(self, bounds, hom)
        step, lpos, index = self._step, self._lpos, self._index
        compose = self.base.cat.compose
        refused = (ValueError, BudgetExceeded, FormatError)

        @functools.cache  # per walk: freed when the walk ends
        def fill(ys, room, p, m):
            groups: dict = {}
            q = lpos[ys[0]][p]
            for d, fs, rest in trie(ys, room):
                for f in fs:
                    try:
                        fm = step(f, p, m)
                    except refused:
                        continue
                    head = name(f)
                    if not rest:
                        groups.setdefault((d, fm), []).append(head)
                        continue
                    for (t, last), keys in fill(ys[1:], room - len(d), q, fm).items():
                        keys = head + "," + keys.replace("\n", "\n" + head + ",")
                        groups.setdefault((d + t, last), []).append(keys)
            return {at: "\n".join(keys) for at, keys in groups.items()}

        for (ys, z), gs in homs.items():
            if not gs:
                continue
            k = self._pos[z]
            m = self._units[k]
            groups = fill(ys, bounds.max_arity, k, m) if ys else {((), m): ""}
            for g in gs:
                head, bar = g.components[k], "|" + name(g)
                for (target, last), keys in groups.items():
                    try:
                        c = compose(head, last)
                        out = index.get((target, z, c))
                        if out is None:
                            out = self._member(target, z, c)
                    except refused:
                        continue
                    yield keys.replace("\n", bar + "\n") + bar, out


def build_representing_multicategory(
    cs: ClosedStructure, bounds: Bounds = DEFAULT_BOUNDS
) -> ClosednessWitness:
    """The representing multicategory of a finite closed category, as the
    closedness witness that ``RepresentingMulticat`` builds over the
    normalized structure: objects are those of the structure, and a
    morphism X1..Xn -> Y is an enriched natural family from the left hom
    functor at Y to the composite of the left hom functors at the Xi."""
    ek, _ = ek_normalize(cs, bounds)
    return RepresentingMulticat(ek, bounds).witness


def check_representation(
    rw: ClosednessWitness, bounds: Bounds = DEFAULT_BOUNDS
) -> Report:
    """Representation-specific checks on the witness of a representing
    multicategory: the bijection between families and elements at every
    signature, the coordinate equation for the evaluation families, and
    compatibility of the bijection with currying."""
    mcv = rw.m
    ek = mcv.ek
    w = ek.closed
    rep = Report(f"representation: {mcv.name}")

    bad = []
    for xs, y in mcv.signatures(bounds):
        T = mcv.functor_of(xs)
        table = preimages(guard_hom(mcv, xs, y, bounds), lambda f: f.gamma_name)
        target = [a.name for a in ek.C_functor.obj_map(T.obj_map(y)).elements]
        if not bijective(table, target):
            bad.append(f"({xs};{y})")
    rep.law("repr/gamma-bijective", "families correspond to elements", bad)

    bad = []
    for x in mcv.objects():
        for z in mcv.objects():
            ev = rw.ev1[(x, z)]
            want = ek.elt_atom(w.cat.identity(w.hom2_obj(x, z))).name
            if ev.gamma_name != want:
                bad.append(f"{x},{z}")
    rep.law("repr/ev-coordinate", "evaluation represents the identity", bad)

    bad = []
    for xs, z in mcv.signatures(bounds):
        if len(xs) != 1:
            continue
        x = xs[0]
        h = rw.hom_obj((x,), z)
        for ys in mcv.profiles(bounds.max_arity - 1):
            for g in guard_hom(mcv, ys, h, bounds):
                img = uncurry(rw, g, (x,), z)
                if img.gamma_name != g.gamma_name:
                    bad.append(f"g={g}")
    rep.law("repr/gamma-currying", "bijection commutes with currying", bad)
    return rep


def verify_essential_surjectivity(
    rw: ClosednessWitness, bounds: Bounds = DEFAULT_BOUNDS
) -> Report:
    """The comparison functor from the normalized base into the underlying
    closed category of a representing multicategory, given by its
    witness: an isomorphism of closed categories with identity hom and
    unit comparisons, under which i, j, L are exactly the families of the
    corresponding base data."""
    mcv = rw.m
    w = mcv.base
    wcat = w.cat
    objs = mcv.objects()
    rep = Report(f"essential surjectivity: {mcv.name}")

    ucs = rw.underlying(bounds)

    def l_of(f) -> RepresentingMorphism:
        x, y = wcat.dom(f), wcat.cod(f)
        comps = tuple(w.hom2_mor(f, wcat.identity(a)) for a in objs)
        return mcv._find((x,), y, comps)

    phi = Functor(f"L({w.name})", wcat, ucs.cat, lambda x: x, l_of)
    lfun = ClosedFunctor.strict(w, ucs, phi)
    rep.extend(check_cf_axioms(lfun, bounds), prefix="L/")

    bad = []
    for x in objs:
        for y in objs:
            table = preimages(wcat.hom(x, y), l_of)
            tgt = guard_hom(mcv, (x,), y, bounds)
            if not bijective(table, tgt):
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
