"""Enriched structures over closed categories: the self-enrichment, left
hom functors, pushforward, and the representation map."""

import itertools
from dataclasses import replace
from types import SimpleNamespace

import pytest

from closedcat import hf, instances
from closedcat.closed import build_E_functor, check_cc_axioms, ek_normalize
from closedcat.enriched import (
    VFunctor,
    build_underlying_V_category,
    check_v_category,
    enumerate_vnat_families,
    gamma_repr,
    pushforward,
)
from closedcat.setcat import build_finset_closed

POSITIVE = ["terminal", "heyting2", "z2closed"]


@pytest.fixture(scope="module")
def sets2():
    return build_finset_closed(2)


@pytest.mark.parametrize("name", POSITIVE)
def test_self_enrichment_passes(name):
    cs = instances.get(name).build()
    und_v = build_underlying_V_category(cs)
    assert check_v_category(und_v).ok


@pytest.mark.parametrize("name", ["heyting2", "broken-j", "broken-hom2"])
def test_self_enrichment_laws_are_cc1_to_cc3(name):
    # the same equations fail at the same loci; broken-j fails CC2 at g,g
    cs = instances.get(name).build()
    vc = check_v_category(build_underlying_V_category(cs))
    cc = check_cc_axioms(cs)

    def outcomes(rep, check):
        return [(it.status, it.locus) for it in rep.items if it.check == check]

    for v, c in [
        ("vc/unit-left", "cc/CC1"),
        ("vc/unit-right", "cc/CC2"),
        ("vc/pentagon", "cc/CC3"),
    ]:
        assert outcomes(vc, v) == outcomes(cc, c)
    assert vc.ok == (name != "broken-j")


def test_self_enrichment_of_finset():
    cs = instances.get("finset").build()
    und_v = build_underlying_V_category(cs)
    assert check_v_category(und_v).ok


def _cc_laws_pass(name, *checks) -> bool:
    """Each of the cc checks is one PASS item on the instance."""
    rep = check_cc_axioms(instances.get(name).build())
    return all(
        [it.status for it in rep.items if it.check == check] == ["pass"]
        for check in checks
    )


@pytest.mark.parametrize("name", POSITIVE)
def test_left_hom_functors_pass(name):
    # the enriched-functor laws of the left hom functor at X are CC1's
    # unit law at first object X and the CC3 pentagon at (X, x, y, z)
    assert _cc_laws_pass(name, "cc/CC1", "cc/CC3")


@pytest.mark.parametrize("name", POSITIVE)
def test_Lf_families_are_natural(name):
    # enriched naturality of precomposition with f : X -> X' is
    # cc/L-dinatural at h = f
    assert _cc_laws_pass(name, "cc/L-dinatural")


def _z2closed_corruptions():
    """The 8 well-typed single-entry corruptions of z2closed's L, j, i,
    i_inv and hom2.mor tables, each entry moved to the other element."""
    cs = instances.get("z2closed").build()
    flip = {"e": "s", "s": "e"}
    out = {}
    for field in ("L", "j", "i", "i_inv"):  # one entry each
        old = getattr(cs, field)
        out[field] = replace(cs, **{field: lambda *a, old=old: flip[old(*a)]})
    for a, b in itertools.product("es", repeat=2):

        def hom2_mor(f, g, a=a, b=b):
            return flip[cs.hom2_mor(f, g)] if (f, g) == (a, b) else cs.hom2_mor(f, g)

        out[f"hom2.mor {a},{b}"] = replace(cs, hom2_mor=hom2_mor)
    return out


def test_enriched_functor_and_naturality_laws_are_cc_laws():
    # The cc suite fails every corruption.  The enriched-functor laws of
    # the left hom functors catch only the one of L, at CC1 and CC3, and
    # enriched naturality only that of hom2.mor at (e, s), at L-dinatural.
    failed = {
        name: {it.check for it in check_cc_axioms(cs).failures()}
        for name, cs in _z2closed_corruptions().items()
    }
    assert len(failed) == 8 and all(failed.values())
    assert {"cc/CC1", "cc/CC3"} <= failed["L"]
    assert "cc/L-dinatural" in failed["hom2.mor e,s"]


def test_L_of_identity_is_identity_family():
    cs = instances.get("heyting2").build()
    for x in cs.cat.objects():
        for z in cs.cat.objects():
            assert cs.contra(cs.cat.identity(x), z) == cs.cat.identity(
                cs.hom2_obj(x, z)
            )


def test_L_contravariant_functoriality():
    # the family of a composite is the vertical composite of the families,
    # outer first
    cs = instances.get("heyting2").build()
    cat = cs.cat
    f, g = "0<=1", "1<=1"
    fg = cat.compose(f, g)
    for z in cat.objects():
        assert cs.contra(fg, z) == cat.compose(cs.contra(g, z), cs.contra(f, z))


def test_heyting_Lf_is_monotonicity_witness():
    cs = instances.get("heyting2").build()
    # component at z: (1 => z) -> (0 => z), the unique order witness
    assert cs.contra("0<=1", "0") == "0<=1"
    assert cs.contra("0<=1", "1") == "1<=1"


def test_pushforward_along_identity_is_identity():
    from closedcat.closed import ClosedFunctor

    cs = instances.get("heyting2").build()
    A = build_underlying_V_category(cs)
    B = pushforward(ClosedFunctor.identity(cs), A)
    assert check_v_category(B).ok
    for x in A.objects:
        for y in A.objects:
            assert B.hom_obj(x, y) == A.hom_obj(x, y)
        assert B.j(x) == A.j(x)
    for x in A.objects:
        for y in A.objects:
            for z in A.objects:
                assert B.L(x, y, z) == A.L(x, y, z)


def _structural_match(cs, sets):
    """E_* of the self-enrichment agrees with the normalized category:
    same hom elements, same composition, same identities."""
    E = build_E_functor(cs, sets)
    EA = pushforward(E, build_underlying_V_category(cs))
    ek, _ = ek_normalize(cs)
    w = ek.closed
    wcat = w.cat
    for x in wcat.objects():
        for y in wcat.objects():
            ea = sorted(a.name for a in EA.hom_obj(x, y).elements)
            wm = sorted(ek.elt_atom(m).name for m in wcat.hom(x, y))
            assert ea == wm, (x, y)
    for x in wcat.objects():
        for y in wcat.objects():
            for z in wcat.objects():
                Lmor = EA.L(x, y, z)
                for g in wcat.hom(y, z):
                    tbl = Lmor.apply(ek.elt_atom(g))
                    for f in wcat.hom(x, y):
                        got = tbl.lookup[ek.elt_atom(f)].name
                        want = ek.elt_atom(wcat.compose(f, g)).name
                        assert got == want, (x, y, z)
    for x in wcat.objects():
        assert EA.j(x).apply(hf.atom("*")).name == ek.elt_atom(wcat.identity(x)).name
    return EA


@pytest.mark.parametrize("name", ["terminal", "heyting2", "z2closed"])
def test_pushforward_E_equals_normalized(name, sets2):
    cs = instances.get(name).build()
    EA = _structural_match(cs, sets2)
    assert check_v_category(EA).ok


def test_pushforward_E_equals_normalized_finset(sets2):
    cs = instances.get("finset").build()
    _structural_match(cs, sets2)


def test_gamma_repr_identity_family_gives_identity_element():
    # the identity family on the left hom functor represents the point of
    # the identity morphism
    cs = instances.get("heyting2").build()
    ek, _ = ek_normalize(cs)
    w = ek.closed
    for x in w.cat.objects():
        lx = VFunctor(w, (x,))
        comps = {a: w.cat.identity(w.hom2_obj(x, a)) for a in w.cat.objects()}
        assert comps in enumerate_vnat_families(lx, lx)
        got = gamma_repr(ek, x, comps[x])
        assert got == ek.elt_atom(w.cat.identity(x)).name


@pytest.mark.parametrize("name", POSITIVE)
def test_gamma_repr_of_Lf_is_f(name):
    # the family of hom actions at f represents f itself
    cs = instances.get(name).build()
    ek, _ = ek_normalize(cs)
    w = ek.closed
    for f in list(w.cat.all_morphisms()):
        x, y = w.cat.dom(f), w.cat.cod(f)
        lf_comps = {a: w.hom2_mor(f, w.cat.identity(a)) for a in w.cat.objects()}
        lx, ly = VFunctor(w, (x,)), VFunctor(w, (y,))
        assert lf_comps in enumerate_vnat_families(ly, lx)
        assert gamma_repr(ek, y, lf_comps[y]) == ek.elt_atom(f).name


def _folded_left_hom_functor(cs, xs):
    """The composite left hom functor of xs as a fold: the identity
    functor on the self-enrichment, then the left hom functor at each x in
    turn, each composite's hom map the previous one's followed by L."""
    cat = cs.cat
    F = SimpleNamespace(
        cs=cs,
        obj_map=lambda y: y,
        hom_map=lambda a, b: cat.identity(cs.hom2_obj(a, b)),
        mor_action=lambda f: f,
    )
    for x in xs:
        F = SimpleNamespace(
            cs=cs,
            obj_map=lambda y, F=F, x=x: cs.hom2_obj(x, F.obj_map(y)),
            hom_map=lambda a, b, F=F, x=x: cat.compose(
                F.hom_map(a, b), cs.L(x, F.obj_map(a), F.obj_map(b))
            ),
            mor_action=lambda f, F=F, x=x: cs.cov(x, F.mor_action(f)),
        )
    return F


@pytest.mark.parametrize("name", POSITIVE)
def test_left_hom_functor_of_a_profile_is_the_folded_composite(name):
    # on every profile of length at most 3, the same object map, hom map
    # and action on morphisms as the fold, and the same families from
    # each left hom functor into it, in the same order
    ek, _ = ek_normalize(instances.get(name).build())
    w = ek.closed
    objs = w.cat.objects()
    mors = list(w.cat.all_morphisms())
    for n in range(4):
        for xs in itertools.product(objs, repeat=n):
            F, oracle = VFunctor(w, xs), _folded_left_hom_functor(w, xs)
            for a, b in itertools.product(objs, repeat=2):
                assert F.obj_map(a) == oracle.obj_map(a), (xs, a)
                assert F.hom_map(a, b) == oracle.hom_map(a, b), (xs, a, b)
            for f in mors:
                assert F.mor_action(f) == oracle.mor_action(f), (xs, f)
            for y in objs:
                ly = VFunctor(w, (y,))
                want = enumerate_vnat_families(ly, oracle)
                assert enumerate_vnat_families(ly, F) == want, (xs, y)
