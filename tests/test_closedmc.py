"""Closedness witnesses: currying, derived n-ary homs, internal hom
category, hom actions, closing transformations, and unit objects."""

from dataclasses import replace

import pytest

from closedcat import instances
from closedcat.closedmc import (
    UnitWitness,
    bar,
    check_closedness,
    check_internal_category,
    check_nary_factorization,
    check_unit_object,
    closing_transformation,
    contraction_inverses,
    curry,
    find_unit_object,
    hom_action_contra,
    hom_action_cov,
    uncurry,
    unit_contraction,
    verify_internal_lemmas,
)
from closedcat.errors import NotBijective, NotUnique, NoUnitFound
from closedcat.core import Bounds, Functor
from closedcat.multicat import MMor

CAPS = Bounds(3)


@pytest.fixture(scope="module")
def z2():
    return instances.get("z2").build()


@pytest.fixture(scope="module")
def hey():
    return instances.get("heyting2mc").build()


@pytest.fixture(scope="module")
def z2_internal(z2):
    _, w = z2
    assert check_internal_category(w, CAPS).ok
    return w.internal_category(CAPS)


def test_closedness_positive(z2, hey):
    for m, w in (z2, hey):
        rep = check_closedness(w, CAPS)
        assert rep.ok, [it.line() for it in rep.failures()]
        assert check_nary_factorization(w, CAPS).ok


def test_nullary_conventions(z2):
    # und(;Z) = Z with the identity evaluation, and currying at the empty
    # profile is the identity map
    m, w = z2
    assert w.hom_obj((), "g") == "g"
    assert w.ev((), "g") == m.identity("g")
    for f in m.hom(("g",), "g"):
        assert curry(w, f, 0, CAPS) == f
        assert uncurry(w, f, (), "g") == f


def test_curry_on_group_is_translation_free(z2):
    # with the neutral evaluation, currying is the identity on names
    m, w = z2
    for n in range(1, 4):
        for f in m.hom(("g",) * n, "g"):
            assert curry(w, f, 1, CAPS).raw == f.raw


def test_curry_uncurry_roundtrip(z2, hey):
    for m, w in (z2, hey):
        for xs, z in m.signatures(Bounds(2)):
            if not xs:
                continue
            h = w.hom_obj(xs, z)
            for ys in m.profiles(3 - len(xs)):
                for g in m.hom(ys, h):
                    f = uncurry(w, g, xs, z)
                    assert curry(w, f, len(xs), CAPS) == g


def test_curry_of_evaluation_is_identity(z2, hey):
    for m, w in (z2, hey):
        for x in m.objects():
            for z in m.objects():
                ev = w.ev((x,), z)
                assert curry(w, ev, 1, CAPS) == m.identity(w.hom_obj((x,), z))


def test_derived_binary_hom_on_z2(z2):
    # peel-the-last induction: und(g,g;g) = g, with the evaluation a
    # composite of unary evaluations; parity oracle says it stays neutral
    m, w = z2
    assert w.hom_obj(("g", "g"), "g") == "g"
    ev2 = w.ev(("g", "g"), "g")
    assert ev2.dom == ("g", "g", "g") and ev2.raw == "e"


def test_nonbijective_witness_raises_and_reports():
    m, w = instances.get("truncadd-badev").build()
    rep = check_closedness(w, CAPS)
    assert "closed/phi-bijective" in {it.check for it in rep.failures()}
    with pytest.raises(NotBijective):
        curry(w, m.identity("g"), 1, CAPS)
    with pytest.raises(NotBijective):
        check_internal_category(w, CAPS)


def test_hom_actions(z2):
    m, w = z2
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


def test_internal_category_of_z2(z2, z2_internal):
    m, w = z2
    ic = z2_internal
    assert ic.mu[("g", "g", "g")].raw == "e"
    assert ic.unit1["g"].raw == "e"
    assert ic.LX[("g", "g", "g")].raw == "e"
    # identity law instance
    lhs = m.compose((ic.unit1["g"], m.identity("g")), ic.mu[("g", "g", "g")])
    assert lhs == m.identity("g")


def test_internal_lemmas(z2, hey):
    m, w = z2
    rep = verify_internal_lemmas(w, CAPS)
    assert rep.ok, [it.line() for it in rep.failures()]
    m2, w2 = hey
    assert check_internal_category(w2, CAPS).ok
    rep2 = verify_internal_lemmas(w2, CAPS)
    assert rep2.ok, [it.line() for it in rep2.failures()]


def test_mu_left_unit_law_is_one_predicate_of_both_suites(monkeypatch, hey):
    # u/CC2-unit-law and internal/mu-unit read the same predicate: made to
    # fail at one (X, Y), both report that locus and no other
    from closedcat import closedmc, correspond
    from closedcat.correspond import verify_u_construction

    assert correspond.mu_left_unit_holds is closedmc.mu_left_unit_holds
    real = closedmc.mu_left_unit_holds

    def fails_at_1_0(w, ic, x, y):
        return (x, y) != ("1", "0") and real(w, ic, x, y)

    for module in (closedmc, correspond):
        monkeypatch.setattr(module, "mu_left_unit_holds", fails_at_1_0)
    _, w = hey
    internal = check_internal_category(w, CAPS)
    u = verify_u_construction(w, CAPS)
    assert [(it.check, it.locus) for it in internal.failures()] == [
        ("internal/mu-unit", "1,0")
    ]
    assert [(it.check, it.locus) for it in u.failures()] == [
        ("u/CC2-unit-law", "1,0")
    ]


def test_closing_transformation_identity(z2):
    m, w = z2
    F = Functor.identity(m)
    for xs, z in m.signatures(Bounds(2)):
        t = closing_transformation(w, w, F, xs, z, CAPS)
        assert t == m.identity(w.hom_obj(xs, z))


def test_unit_object_checks(z2):
    m, w = z2
    assert check_unit_object(w, CAPS).ok
    # the other nullary morphism also witnesses a unit: unique up to iso,
    # not on the nose
    other = UnitWitness("g", MMor((), "g", "s"))
    assert check_unit_object(replace(w, unit=other), CAPS).ok
    # canonical search returns the neutral element first
    found = find_unit_object(w, CAPS)
    assert found.unit.u.raw == "e"


def test_bar_of_u_is_identity(z2, hey):
    for m, w in (z2, hey):
        assert bar(w, w.unit.u, CAPS) == m.identity(w.unit.unit)


def test_bar_unique_factorization(z2):
    m, w = z2
    for f in m.hom((), "g"):
        g = bar(w, f, CAPS)
        assert m.compose((w.unit.u,), g) == f


def test_non_unit_candidate_fails():
    m, w = instances.get("truncadd-badunit").build()
    assert check_closedness(w, CAPS).ok
    rep = check_unit_object(w, CAPS)
    assert {it.check for it in rep.failures()} == {"unit/contraction-iso"}
    with pytest.raises(NotUnique):
        # u = t1 cannot factor the nullary t0 (no subtraction)
        bar(w, m.hom((), "g")[0], CAPS)


def test_truncadd_with_neutral_ev_has_unit():
    # the same monoid with the neutral declared evaluation is closed and
    # its canonical unit is the neutral nullary morphism
    m, w = instances.get("truncadd-badunit").build()
    found = find_unit_object(w, CAPS)
    assert found.unit.u.raw == "t0"
    assert unit_contraction(found, "g").raw == "t0"


@pytest.mark.parametrize(
    "use",
    [
        lambda w: check_unit_object(w, CAPS),
        lambda w: bar(w, MMor((), "g", "e"), CAPS),
        lambda w: unit_contraction(w, "g"),
        lambda w: contraction_inverses(w, "g", CAPS),
        lambda w: w.underlying(CAPS),
    ],
    ids=[
        "check_unit_object",
        "bar",
        "unit_contraction",
        "contraction_inverses",
        "underlying",
    ],
)
def test_a_witness_without_a_unit_is_refused_by_name(z2, use):
    _, w = z2
    with pytest.raises(NoUnitFound, match="^z2: the witness declares no unit$"):
        use(replace(w, unit=None))
