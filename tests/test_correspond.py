"""The passage multicategory -> closed category and back: the underlying
structure, induced closed functors, the arity recursion, round trips,
injectivity, and two-cell transfer."""

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
    compose_multinat_vertical,
    lift_closed_functor,
    multifunctors_equal,
    underlying_closed_category,
    underlying_closed_functor,
    underlying_closed_transformation,
    verify_u_construction,
)
from closedcat.core import Bounds
from closedcat.multicat import MultiFunctor, MultiNat, check_multinat

CAPS = Bounds(3)


@pytest.fixture(scope="module")
def z2():
    return instances.get("z2").build()


@pytest.fixture(scope="module")
def hey():
    return instances.get("heyting2mc").build()


@pytest.fixture(scope="module")
def z2_ucs(z2):
    _, w, uw = z2
    return underlying_closed_category(w, uw, CAPS)


@pytest.fixture(scope="module")
def hey_ucs(hey):
    _, w, uw = hey
    return underlying_closed_category(w, uw, CAPS)


def test_underlying_z2_passes_all(z2, z2_ucs):
    assert check_cc_axioms(z2_ucs).ok
    assert verify_derived_cc_theorems(z2_ucs).ok


def test_underlying_heyting_passes_all(hey, hey_ucs):
    assert check_cc_axioms(hey_ucs).ok
    assert verify_derived_cc_theorems(hey_ucs).ok


def test_u_obligations_named_and_passing(z2, hey):
    for m, w, uw in (z2, hey):
        rep = verify_u_construction(w, uw, CAPS)
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
    m, w, uw = z2
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
    m, w, uw = z2
    for F in (
        MultiFunctor.identity(m),
        instances.z2_inversion(m),
        instances.z2_shift(m),
    ):
        UF = underlying_closed_functor(F, w, uw, w, uw, z2_ucs, z2_ucs, CAPS)
        assert check_cf_axioms(UF).ok, F.name


def test_nullary_lift_formula(z2, z2_ucs):
    # the image of a nullary morphism is u, then the unit comparison, then
    # the image of its factorization through the unit
    m, w, uw = z2
    F = instances.z2_shift(m)
    UF = underlying_closed_functor(F, w, uw, w, uw, z2_ucs, z2_ucs, CAPS)
    lifted = lift_closed_functor(UF, w, uw, w, uw, CAPS)
    for f in m.hom((), "g"):
        fbar = bar(w, uw, f, CAPS)
        head = m.compose((uw.u,), UF.phi0)
        want = m.compose((head,), UF.phi.mor_map(fbar))
        assert lifted.mor_map(f) == want == F.mor_map(f)


def test_unary_lift_is_phi(z2, z2_ucs):
    # on one input the reconstruction agrees with the underlying functor
    m, w, uw = z2
    for F in (MultiFunctor.identity(m), instances.z2_shift(m)):
        UF = underlying_closed_functor(F, w, uw, w, uw, z2_ucs, z2_ucs, CAPS)
        lifted = lift_closed_functor(UF, w, uw, w, uw, CAPS)
        for f in m.hom(("g",), "g"):
            assert lifted.mor_map(f) == UF.phi.mor_map(f)


@pytest.mark.parametrize("fname", ["identity", "inversion", "shift"])
def test_roundtrip_lift_after_U_on_z2(fname, z2, z2_ucs):
    m, w, uw = z2
    F = (
        MultiFunctor.identity(m)
        if fname == "identity"
        else instances.FUNCTORS[fname](m)
    )
    UF = underlying_closed_functor(F, w, uw, w, uw, z2_ucs, z2_ucs, CAPS)
    lifted = lift_closed_functor(UF, w, uw, w, uw, CAPS)
    eq, locus = multifunctors_equal(lifted, F, CAPS)
    assert eq, locus
    UL = underlying_closed_functor(lifted, w, uw, w, uw, z2_ucs, z2_ucs, CAPS)
    eq2, locus2 = closed_functors_equal(UL, UF)
    assert eq2, locus2


def test_roundtrip_identity_on_heyting(hey, hey_ucs):
    m, w, uw = hey
    F = MultiFunctor.identity(m)
    UF = underlying_closed_functor(F, w, uw, w, uw, hey_ucs, hey_ucs, CAPS)
    assert check_cf_axioms(UF).ok
    lifted = lift_closed_functor(UF, w, uw, w, uw, CAPS)
    eq, locus = multifunctors_equal(lifted, F, CAPS)
    assert eq, locus


def test_injectivity_and_contrapositive(z2, z2_ucs):
    m, w, uw = z2
    Fi = MultiFunctor.identity(m)
    Fs = instances.z2_shift(m)
    Ui = underlying_closed_functor(Fi, w, uw, w, uw, z2_ucs, z2_ucs, CAPS)
    Us = underlying_closed_functor(Fs, w, uw, w, uw, z2_ucs, z2_ucs, CAPS)
    # distinct multifunctors have distinct images
    eq, _ = closed_functors_equal(Ui, Us)
    assert not eq
    assert not multifunctors_equal(Fi, Fs, CAPS)[0]
    # equal images force equal multifunctors
    rep = check_injectivity(Fi, MultiFunctor.identity(m), Ui, Ui, CAPS)
    assert rep.ok


def test_U_preserves_composition_and_identities(z2, z2_ucs):
    m, w, uw = z2
    Fs = instances.z2_shift(m)
    comp = Fs.then(Fs)
    assert multifunctors_equal(comp, MultiFunctor.identity(m), CAPS)[0]
    Us = underlying_closed_functor(Fs, w, uw, w, uw, z2_ucs, z2_ucs, CAPS)
    Ucomp = underlying_closed_functor(comp, w, uw, w, uw, z2_ucs, z2_ucs, CAPS)
    eq, locus = closed_functors_equal(Ucomp, compose_closed_functors(Us, Us))
    assert eq, locus
    Uid = underlying_closed_functor(
        MultiFunctor.identity(m), w, uw, w, uw, z2_ucs, z2_ucs, CAPS
    )
    from closedcat.closed import ClosedFunctor

    eq2, locus2 = closed_functors_equal(Uid, ClosedFunctor.identity(z2_ucs))
    assert eq2, locus2


def test_2cell_transfer_and_bijection(z2, z2_ucs):
    m, w, uw = z2
    Fi = MultiFunctor.identity(m)
    Ui = underlying_closed_functor(Fi, w, uw, w, uw, z2_ucs, z2_ucs, CAPS)
    r = MultiNat.identity(Fi)
    rep = check_2cell_transfer(r, Ui, Ui, CAPS)
    assert rep.ok

    # bijectivity on 2-cells by exhaustive enumeration: a component family
    # is multinatural exactly when it satisfies the closed-transformation
    # axioms between the induced closed functors
    multinat, closednat = [], []
    for cand in m.hom(("g",), "g"):
        fam = MultiNat("cand", Fi, Fi, lambda x, c=cand: c)
        if check_multinat(fam, CAPS).ok:
            multinat.append(cand.raw)
        ct = underlying_closed_transformation(fam, Ui, Ui)
        if check_cn_axioms(ct).ok:
            closednat.append(cand.raw)
    assert multinat == closednat == ["e"]


def test_vertical_2cell_composition_preserved(z2, z2_ucs):
    m, w, uw = z2
    Fi = MultiFunctor.identity(m)
    r = MultiNat.identity(Fi)
    rr = compose_multinat_vertical(r, r)
    assert check_multinat(rr, CAPS).ok
    for x in m.objects():
        assert rr.components(x) == r.components(x)


def test_check_U_functoriality_report(z2):
    from closedcat.correspond import check_U_functoriality

    m, w, uw = z2
    Fs = instances.z2_shift(m)
    rep = check_U_functoriality(Fs, Fs, w, uw, w, uw, w, uw, CAPS)
    assert rep.ok, [it.line() for it in rep.failures()]
    assert [it.check for it in rep.items] == [
        "u-fun/compose",
        "u-fun/identity",
        "u-fun/2-cells",
    ]
