"""The passage multicategory -> closed category and back: the underlying
structure, induced closed functors, the arity recursion, round trips,
injectivity, and two-cell transfer."""

import itertools

import pytest

from closedcat import instances
from closedcat.closed import (
    check_cc_axioms,
    check_cf_axioms,
    check_cn_axioms,
    compose_closed_functors,
    verify_derived_cc_theorems,
)
from closedcat.closedmc import bar
from closedcat.correspond import (
    check_2cell_transfer,
    check_injectivity,
    closed_functors_equal,
    lift_closed_functor,
    multifunctors_equal,
    underlying_closed_category,
    underlying_closed_functor,
    underlying_closed_transformation,
    verify_u_construction,
)
from closedcat.core import Bounds, Functor, NaturalTransformation, check_functor
from closedcat.multicat import MMor, check_multifunctor, check_multinat

CAPS = Bounds(3)


@pytest.fixture(scope="module")
def z2():
    return instances.get("z2").build()


@pytest.fixture(scope="module")
def hey():
    return instances.get("heyting2mc").build()


@pytest.fixture(scope="module")
def z2_ucs(z2):
    _, w = z2
    return w.underlying(CAPS)


@pytest.fixture(scope="module")
def hey_ucs(hey):
    _, w = hey
    return w.underlying(CAPS)


def test_underlying_z2_passes_all(z2, z2_ucs):
    assert check_cc_axioms(z2_ucs).ok
    assert verify_derived_cc_theorems(z2_ucs).ok


def test_underlying_heyting_passes_all(hey, hey_ucs):
    assert check_cc_axioms(hey_ucs).ok
    assert verify_derived_cc_theorems(hey_ucs).ok


def test_u_obligations_named_and_passing(z2, hey):
    for m, w in (z2, hey):
        rep = verify_u_construction(w, CAPS)
        assert rep.ok, [it.line() for it in rep.failures()]
        names = [it.check for it in rep.items]
        assert names == [
            "u/CC1-internal-identities",
            "u/CC2-unit-law",
            "u/CC3-internal-functoriality",
            "u/CC4-contraction",
            "u/CC5-gamma-factorization",
        ]


def test_underlying_z2_matches_handmade_oracle(z2, z2_ucs):
    # the hand-built one-object closed category of the group is the oracle
    m, w = z2
    oracle = instances.get("z2closed").build()
    assert z2_ucs.hom2_obj("g", "g") == oracle.hom2_obj("g", "g")
    assert z2_ucs.i("g").raw == oracle.i("g")
    assert z2_ucs.i_inv("g").raw == oracle.i_inv("g")
    assert z2_ucs.j("g").raw == oracle.j("g")
    assert z2_ucs.L("g", "g", "g").raw == oracle.L("g", "g", "g")
    for a in ["e", "s"]:
        for b in ["e", "s"]:
            fa = [f for f in m.hom(("g",), "g") if f.raw == a][0]
            fb = [f for f in m.hom(("g",), "g") if f.raw == b][0]
            assert z2_ucs.hom2_mor(fa, fb).raw == oracle.hom2_mor(a, b)


def test_underlying_heyting_matches_heyting2(hey, hey_ucs):
    oracle = instances.get("heyting2").build()
    for x in ["0", "1"]:
        for y in ["0", "1"]:
            assert hey_ucs.hom2_obj(x, y) == oracle.hom2_obj(x, y)
            assert len(hey_ucs.cat.hom(x, y)) == len(oracle.cat.hom(x, y))


def test_underlying_closed_functors_pass(z2, z2_ucs):
    m, w = z2
    for F in (
        Functor.identity(m),
        instances.z2_inversion(m),
        instances.z2_shift(m),
    ):
        UF = underlying_closed_functor(F, w, w, CAPS)
        assert check_cf_axioms(UF).ok, F.name


def test_nullary_lift_formula(z2, z2_ucs):
    # the image of a nullary morphism is u, then the unit comparison, then
    # the image of its factorization through the unit
    m, w = z2
    F = instances.z2_shift(m)
    UF = underlying_closed_functor(F, w, w, CAPS)
    lifted = lift_closed_functor(UF, w, w, CAPS)
    for f in m.hom((), "g"):
        fbar = bar(w, f, CAPS)
        head = m.compose((w.unit.u,), UF.phi0)
        want = m.compose((head,), UF.phi.mor_map(fbar))
        assert lifted.mor_map(f) == want == F.mor_map(f)


def test_unary_lift_is_phi(z2, z2_ucs):
    # on one input the reconstruction agrees with the underlying functor
    m, w = z2
    for F in (Functor.identity(m), instances.z2_shift(m)):
        UF = underlying_closed_functor(F, w, w, CAPS)
        lifted = lift_closed_functor(UF, w, w, CAPS)
        for f in m.hom(("g",), "g"):
            assert lifted.mor_map(f) == UF.phi.mor_map(f)


@pytest.mark.parametrize("fname", ["identity", "inversion", "shift"])
def test_roundtrip_lift_after_U_on_z2(fname, z2, z2_ucs):
    m, w = z2
    F = (
        Functor.identity(m)
        if fname == "identity"
        else instances.FUNCTORS[fname][1](m)
    )
    UF = underlying_closed_functor(F, w, w, CAPS)
    lifted = lift_closed_functor(UF, w, w, CAPS)
    eq, locus = multifunctors_equal(lifted, F, CAPS)
    assert eq, locus
    UL = underlying_closed_functor(lifted, w, w, CAPS)
    eq2, locus2 = closed_functors_equal(UL, UF)
    assert eq2, locus2


def test_roundtrip_identity_on_heyting(hey, hey_ucs):
    m, w = hey
    F = Functor.identity(m)
    UF = underlying_closed_functor(F, w, w, CAPS)
    assert check_cf_axioms(UF).ok
    lifted = lift_closed_functor(UF, w, w, CAPS)
    eq, locus = multifunctors_equal(lifted, F, CAPS)
    assert eq, locus


def test_injectivity_and_contrapositive(z2, z2_ucs):
    m, w = z2
    Fi = Functor.identity(m)
    Fs = instances.z2_shift(m)
    Ui = underlying_closed_functor(Fi, w, w, CAPS)
    Us = underlying_closed_functor(Fs, w, w, CAPS)
    # distinct multifunctors have distinct images
    eq, _ = closed_functors_equal(Ui, Us)
    assert not eq
    assert not multifunctors_equal(Fi, Fs, CAPS)[0]
    # equal images force equal multifunctors
    rep = check_injectivity(Fi, Functor.identity(m), Ui, Ui, CAPS)
    assert rep.ok


def test_U_preserves_composition_and_identities(z2, z2_ucs):
    m, w = z2
    Fs = instances.z2_shift(m)
    comp = Fs.then(Fs)
    assert multifunctors_equal(comp, Functor.identity(m), CAPS)[0]
    Us = underlying_closed_functor(Fs, w, w, CAPS)
    Ucomp = underlying_closed_functor(comp, w, w, CAPS)
    eq, locus = closed_functors_equal(Ucomp, compose_closed_functors(Us, Us))
    assert eq, locus
    Uid = underlying_closed_functor(Functor.identity(m), w, w, CAPS)
    from closedcat.closed import ClosedFunctor

    eq2, locus2 = closed_functors_equal(Uid, ClosedFunctor.identity(z2_ucs))
    assert eq2, locus2


def test_one_functor_type_serves_both_levels(z2):
    # a functor is a multifunctor whose morphisms are all unary, so one
    # type is checked against the laws of either level
    m, _ = z2
    assert check_multifunctor(Functor.identity(m), CAPS).ok
    cat = instances.get("heyting2").build().cat
    assert check_functor(Functor.identity(cat), CAPS).ok
    Fs = instances.z2_shift(m)
    assert Fs.then(Fs).name == "shift;shift"
    assert multifunctors_equal(Fs.then(Fs), Functor.identity(m), CAPS)[0]


def test_closed_cells_are_named_by_what_they_wrap(z2, z2_ucs):
    m, w = z2
    Us = underlying_closed_functor(instances.z2_shift(m), w, w, CAPS)
    assert Us.name == Us.phi.name == "U(shift)"
    assert compose_closed_functors(Us, Us).name == "U(shift);U(shift)"
    r = NaturalTransformation.identity(Functor.identity(m))
    Ui = underlying_closed_functor(Functor.identity(m), w, w, CAPS)
    ct = underlying_closed_transformation(r, Ui, Ui)
    assert ct.name == ct.eta.name == "U(id)"


def test_2cell_transfer_and_bijection(z2, z2_ucs):
    m, w = z2
    Fi = Functor.identity(m)
    Ui = underlying_closed_functor(Fi, w, w, CAPS)
    r = NaturalTransformation.identity(Fi)
    rep = check_2cell_transfer(r, Ui, Ui, CAPS)
    assert rep.ok

    # bijectivity on 2-cells by exhaustive enumeration: a component family
    # is multinatural exactly when it satisfies the closed-transformation
    # axioms between the induced closed functors
    multinat, closednat = [], []
    for cand in m.hom(("g",), "g"):
        fam = NaturalTransformation("cand", Fi, Fi, lambda x, c=cand: c)
        if check_multinat(fam, CAPS).ok:
            multinat.append(cand.raw)
        ct = underlying_closed_transformation(fam, Ui, Ui)
        if check_cn_axioms(ct).ok:
            closednat.append(cand.raw)
    assert multinat == closednat == ["e"]


def test_every_multifunctor_among_the_z2_maps_induces_a_closed_functor(z2):
    # All 256 maps z2 -> z2 that fix the object and send the two morphisms
    # of each arity up to 3 to any two.  Exactly 4 are multifunctors, and
    # the laws of their closing transformations (the hom comparisons of
    # U(F)) hold: U(F) passes CF1..CF3 and lifts back to F.
    m, w = z2
    low = Bounds(2)
    multifunctors = []
    for images in itertools.product(itertools.product("es", repeat=2), repeat=4):

        def mor_map(f, images=images):
            return MMor(f.dom, f.cod, images[len(f.dom)]["es".index(f.raw)])

        F = Functor(str(images), m, m, lambda x: x, mor_map)
        if check_multifunctor(F, CAPS).ok:
            multifunctors.append(F)
    assert len(multifunctors) == 4
    for F in multifunctors:
        UF = underlying_closed_functor(F, w, w, low)
        rep = check_cf_axioms(UF, low)
        assert rep.ok, (F.name, [it.line() for it in rep.failures()])
        same, locus = multifunctors_equal(lift_closed_functor(UF, w, w, low), F, low)
        assert same, (F.name, locus)


def test_check_U_functoriality_report(z2):
    from closedcat.correspond import check_U_functoriality

    m, w = z2
    Fs = instances.z2_shift(m)
    rep = check_U_functoriality(Fs, Fs, w, w, w, CAPS)
    assert rep.ok, [it.line() for it in rep.failures()]
    assert [it.check for it in rep.items] == [
        "u-fun/compose",
        "u-fun/identity",
    ]


def test_induced_functors_run_between_the_witnesses_own_categories(z2):
    # U(M) is one object per witness and bounds, so induced closed
    # functors compose without a category passed in
    m, w = z2
    F, G = instances.z2_shift(m), Functor.identity(m)
    UF = underlying_closed_functor(F, w, w, CAPS)
    assert UF.source is UF.target is w.underlying(CAPS)
    UG = underlying_closed_functor(G, w, w, CAPS)
    UFG = underlying_closed_functor(F.then(G), w, w, CAPS)
    eq, locus = closed_functors_equal(compose_closed_functors(UF, UG), UFG)
    assert eq, locus
    # a structure built apart is a different object
    assert underlying_closed_category(w, CAPS) is not w.underlying(CAPS)
