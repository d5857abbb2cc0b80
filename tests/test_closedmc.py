"""Closedness witnesses: currying, derived n-ary homs, internal hom
category, hom actions, closing transformations, and unit objects."""

import pytest

from closedcat import instances
from closedcat.closedmc import (
    UnitWitness,
    bar,
    build_internal_category,
    check_closedness,
    check_nary_factorization,
    check_unit_object,
    closing_transformation,
    curry,
    curry1,
    find_unit_object,
    hom_action_contra,
    hom_action_cov,
    hom_action_multi,
    uncurry,
    unit_contraction,
    verify_closing_composite,
    verify_closing_lemmas,
    verify_closing_multinat,
    verify_internal_lemmas,
)
from closedcat.errors import NotBijective, NotUnique
from closedcat.core import Bounds
from closedcat.multicat import MMor, MultiFunctor, MultiNat

CAPS = Bounds(3)


@pytest.fixture(scope="module")
def z2():
    return instances.get("z2").build()


@pytest.fixture(scope="module")
def hey():
    return instances.get("heyting2mc").build()


@pytest.fixture(scope="module")
def z2_internal(z2):
    _, w, _ = z2
    ic, rep = build_internal_category(w, CAPS)
    assert rep.ok
    return ic


def test_closedness_positive(z2, hey):
    for m, w, uw in (z2, hey):
        rep = check_closedness(w, CAPS)
        assert rep.ok, [it.line() for it in rep.failures()]
        assert check_nary_factorization(w, CAPS).ok


def test_nullary_conventions(z2):
    # und(;Z) = Z with the identity evaluation, and currying at the empty
    # profile is the identity map
    m, w, _ = z2
    assert w.hom_obj((), "g") == "g"
    assert w.ev((), "g") == m.identity("g")
    for f in m.hom(("g",), "g"):
        assert curry(w, f, 0, CAPS) == f
        assert uncurry(w, f, (), "g") == f


def test_curry_on_group_is_translation_free(z2):
    # with the neutral evaluation, currying is the identity on names
    m, w, _ = z2
    for n in range(1, 4):
        for f in m.hom(("g",) * n, "g"):
            assert curry1(w, f, CAPS).raw == f.raw


def test_curry_uncurry_roundtrip(z2, hey):
    for m, w, _ in (z2, hey):
        for xs, z in m.signatures(Bounds(2)):
            if not xs:
                continue
            h = w.hom_obj(xs, z)
            for ys in m.profiles(3 - len(xs)):
                for g in m.hom(ys, h):
                    f = uncurry(w, g, xs, z)
                    assert curry(w, f, len(xs), CAPS) == g


def test_curry_of_evaluation_is_identity(z2, hey):
    for m, w, _ in (z2, hey):
        for x in m.objects():
            for z in m.objects():
                ev = w.ev((x,), z)
                assert curry1(w, ev, CAPS) == m.identity(w.hom_obj((x,), z))


def test_derived_binary_hom_on_z2(z2):
    # peel-the-last induction: und(g,g;g) = g, with the evaluation a
    # composite of unary evaluations; parity oracle says it stays neutral
    m, w, _ = z2
    assert w.hom_obj(("g", "g"), "g") == "g"
    ev2 = w.ev(("g", "g"), "g")
    assert ev2.dom == ("g", "g", "g") and ev2.raw == "e"


def test_nonbijective_witness_raises_and_reports():
    m, w, _ = instances.get("truncadd-badev").build()
    rep = check_closedness(w, CAPS)
    assert "closed/phi-bijective" in {it.check for it in rep.failures()}
    with pytest.raises(NotBijective):
        curry1(w, m.identity("g"), CAPS)
    with pytest.raises(NotBijective):
        build_internal_category(w, CAPS)


def test_hom_actions(z2):
    m, w, _ = z2
    ident = m.identity("g")
    # und(1;Z) and und(X;1) are identities
    assert hom_action_contra(w, ident, "g", CAPS) == m.identity("g")
    assert hom_action_cov(w, ("g",), ident, CAPS) == m.identity("g")
    # nullary conventions force und(;g) = g
    assert hom_action_cov(w, (), ident, CAPS) == ident
    # the contravariant action of the generator is translation by it
    s = [f for f in m.hom(("g",), "g") if f.raw == "s"][0]
    assert hom_action_contra(w, s, "g", CAPS).raw == "s"
    assert hom_action_cov(w, ("g",), s, CAPS).raw == "s"
    # n-ary contravariant action sums parities
    got = hom_action_multi(w, (s, s), "g", CAPS)
    assert got.raw == "e"


def test_internal_category_of_z2(z2, z2_internal):
    m, w, _ = z2
    ic = z2_internal
    assert ic.mu[("g", "g", "g")].raw == "e"
    assert ic.unit1["g"].raw == "e"
    assert ic.LX[("g", "g", "g")].raw == "e"
    # identity law instance
    lhs = m.compose((ic.unit1["g"], m.identity("g")), ic.mu[("g", "g", "g")])
    assert lhs == m.identity("g")


def test_internal_lemmas(z2, hey, z2_internal):
    m, w, _ = z2
    rep = verify_internal_lemmas(w, z2_internal, CAPS)
    assert rep.ok, [it.line() for it in rep.failures()]
    m2, w2, _ = hey
    ic2, r = build_internal_category(w2, CAPS)
    assert r.ok
    rep2 = verify_internal_lemmas(w2, ic2, CAPS)
    assert rep2.ok, [it.line() for it in rep2.failures()]


def test_closing_transformation_identity(z2):
    m, w, _ = z2
    F = MultiFunctor.identity(m)
    for xs, z in m.signatures(Bounds(2)):
        t = closing_transformation(w, w, F, xs, z, CAPS)
        assert t == m.identity(w.hom_obj(xs, z))


def test_closing_lemmas_and_composites(z2):
    m, w, _ = z2
    for F in (MultiFunctor.identity(m), instances.z2_shift(m)):
        rep = verify_closing_lemmas(w, w, F, CAPS)
        assert rep.ok, (F.name, [it.line() for it in rep.failures()])
    shift = instances.z2_shift(m)
    assert verify_closing_composite(w, w, w, shift, shift, CAPS).ok
    r = MultiNat.identity(MultiFunctor.identity(m))
    assert verify_closing_multinat(w, w, r, CAPS).ok


def test_unit_object_checks(z2):
    m, w, uw = z2
    assert check_unit_object(w, uw, CAPS).ok
    # the other nullary morphism also witnesses a unit: unique up to iso,
    # not on the nose
    other = UnitWitness("g", MMor((), "g", "s"))
    assert check_unit_object(w, other, CAPS).ok
    # canonical search returns the neutral element first
    found = find_unit_object(w, CAPS)
    assert found.u.raw == "e"


def test_bar_of_u_is_identity(z2, hey):
    for m, w, uw in (z2, hey):
        assert bar(w, uw, uw.u, CAPS) == m.identity(uw.unit)


def test_bar_unique_factorization(z2):
    m, w, uw = z2
    for f in m.hom((), "g"):
        g = bar(w, uw, f, CAPS)
        assert m.compose((uw.u,), g) == f


def test_non_unit_candidate_fails():
    m, w, uw = instances.get("truncadd-badunit").build()
    assert check_closedness(w, CAPS).ok
    rep = check_unit_object(w, uw, CAPS)
    assert {it.check for it in rep.failures()} == {"unit/contraction-iso"}
    with pytest.raises(NotUnique):
        # u = t1 cannot factor the nullary t0 (no subtraction)
        bar(w, uw, m.hom((), "g")[0], CAPS)


def test_truncadd_with_neutral_ev_has_unit():
    # the same monoid with the neutral declared evaluation is closed and
    # its canonical unit is the neutral nullary morphism
    m, w, _ = instances.get("truncadd-badunit").build()
    found = find_unit_object(w, CAPS)
    assert found.u.raw == "t0"
    assert unit_contraction(w, found, "g").raw == "t0"


def test_derive_nary_homs_populates_and_verifies(z2):
    from closedcat.closedmc import derive_nary_homs

    m, w, _ = z2
    w2, rep = derive_nary_homs(w, Bounds(2))
    assert w2 is w
    assert rep.ok
    # the derivation cached the binary evaluation: asking again is a hit
    hits = w._ev.cache_info().hits
    w.ev(("g", "g"), "g")
    assert w._ev.cache_info().hits == hits + 1
