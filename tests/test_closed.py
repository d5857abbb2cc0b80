"""Closed structures: gamma, axiom suites, closed functors and
transformations, the hom-embedding into sets, and normalization."""

import dataclasses
import itertools
import re

import pytest

from closedcat import hf, instances
from closedcat.closed import (
    ClosedFunctor,
    ClosedTransformation,
    WMor,
    build_E_functor,
    check_cc_axioms,
    check_cf_axioms,
    check_cn_axioms,
    check_ek_axioms,
    compose_cn_horizontal,
    compose_cn_vertical,
    compose_closed_functors,
    ek_normalize,
    gamma_inverse,
    verify_derived_cc_theorems,
)
from closedcat.core import check_category_axioms
from closedcat.errors import NotBijective, NotComposable
from closedcat.setcat import SetMor, build_finset_closed, elements

A0, A1 = hf.atom("a0"), hf.atom("a1")


@pytest.fixture(scope="module")
def sets2():
    return build_finset_closed(2)


@pytest.fixture(scope="module")
def finset_cs():
    return instances.get("finset").build()


def all_positive_closed():
    return ["terminal", "heyting2", "z2closed"]


@pytest.mark.parametrize("name", all_positive_closed())
def test_positive_instances_pass_everything(name):
    cs = instances.get(name).build()
    assert check_category_axioms(cs.cat).ok
    assert check_cc_axioms(cs).ok
    assert verify_derived_cc_theorems(cs).ok


def test_gamma_of_identity_is_j():
    for name in all_positive_closed():
        cs = instances.get(name).build()
        for x in cs.cat.objects():
            assert cs.gamma(cs.cat.identity(x)) == cs.j(x)


def test_gamma_point_on_singleton_sets(sets2):
    # X = {a0}, Y = {a1}: gamma of the unique map is the point of und(X,Y)
    # holding its table
    x, y = hf.fset([A0]), hf.fset([A1])
    (f,) = sets2.cat.hom(x, y)
    g = sets2.gamma(f)
    assert g.dom == sets2.unit
    assert g.apply(hf.atom("*")) == f.table_value()


def test_gamma_terminal_unique():
    cs = instances.get("terminal").build()
    assert cs.gamma("1") == "1"


def test_gamma_inverse_roundtrip(sets2):
    for name in all_positive_closed():
        cs = instances.get(name).build()
        for x in cs.cat.objects():
            for y in cs.cat.objects():
                for f in cs.cat.hom(x, y):
                    assert gamma_inverse(cs, cs.gamma(f), x, y) == f


def test_gamma_inverse_heyting_unique_witness():
    cs = instances.get("heyting2").build()
    g = cs.gamma("0<=1")
    assert gamma_inverse(cs, g, "0", "1") == "0<=1"


def test_gamma_inverse_not_bijective_on_corrupted_structure():
    cs = instances.get("broken-hom2").build()
    # both morphisms now map to the same point
    g = cs.gamma("e")
    with pytest.raises(NotBijective):
        gamma_inverse(cs, g, "g", "g")


def test_broken_fixtures_fail_their_advertised_checks():
    for name in ["broken-j", "broken-hom2"]:
        info = instances.get(name)
        rep = check_cc_axioms(info.build())
        failing = {it.check for it in rep.failures()}
        for check in info.advertised_failure:
            if check.startswith("cc/"):
                assert check in failing, (name, failing)
        assert all(it.locus for it in rep.failures())


def test_broken_j_failure_set_is_pinned():
    rep = check_cc_axioms(instances.get("broken-j").build())
    assert {it.check for it in rep.failures()} == {"cc/CC2"}
    rep2 = verify_derived_cc_theorems(instances.get("broken-j").build())
    assert {it.check for it in rep2.failures()} == {
        "derived/j-unit",
        "derived/gamma-section",
    }


def test_identity_closed_functor_and_transformation():
    for name in all_positive_closed():
        cs = instances.get(name).build()
        F = ClosedFunctor.identity(cs)
        assert check_cf_axioms(F).ok
        assert check_cn_axioms(ClosedTransformation.identity(F)).ok


def test_compose_closed_functors_unital_and_associative():
    cs = instances.get("heyting2").build()
    e = build_E_functor(cs, build_finset_closed(2))
    ident = ClosedFunctor.identity(cs)
    left = compose_closed_functors(ident, e)
    right = compose_closed_functors(e, ClosedFunctor.identity(e.target))
    for F in (left, right):
        for x in cs.cat.objects():
            for y in cs.cat.objects():
                assert F.phi_hat(x, y) == e.phi_hat(x, y)
        assert F.phi0 == e.phi0
        assert check_cf_axioms(F).ok


def test_cn_vertical_and_horizontal_compositions():
    cs = instances.get("z2closed").build()
    F = ClosedFunctor.identity(cs)
    t = ClosedTransformation.identity(F)
    vert = compose_cn_vertical(t, t)
    assert check_cn_axioms(vert).ok
    horiz = compose_cn_horizontal(t, t)
    assert check_cn_axioms(horiz).ok


def test_horizontal_composite_is_natural_between_its_own_functors():
    cs = instances.get("z2closed").build()
    t = ClosedTransformation.identity(ClosedFunctor.identity(cs))
    h = compose_cn_horizontal(t, t)
    assert h.eta.source is h.source.phi
    assert h.eta.target is h.target.phi


def _phi_hat_oracle(cs, sets, x, y):
    """E's hom comparison at (X, Y) written out without E's morphism map:
    a point h of und(X,Y) goes to the table k -> k;gamma^{-1}(h) over the
    points k of X, each point named by its printed name."""
    cat, u = cs.cat, cs.unit

    def point_name(m):
        return hf.atom(str(m))

    def e_obj(z):
        return hf.fset(point_name(p) for p in cat.hom(u, z))

    table = {}
    for h in cat.hom(u, cs.hom2_obj(x, y)):
        f = gamma_inverse(cs, h, x, y)
        table[point_name(h)] = hf.ftable(
            (point_name(k), point_name(cat.compose(k, f))) for k in cat.hom(u, x)
        )
    cod = sets.hom2_obj(e_obj(x), e_obj(y))
    return SetMor(e_obj(cs.hom2_obj(x, y)), cod, mapping=table)


@pytest.mark.parametrize("name", ["terminal", "heyting2", "z2closed", "finset"])
def test_E_hom_comparison_agrees_with_its_written_out_oracle(name, sets2):
    cs = instances.get(name).build()
    E = build_E_functor(cs, sets2)
    for x, y in itertools.product(cs.cat.objects(), repeat=2):
        got, want = E.phi_hat(x, y), _phi_hat_oracle(cs, sets2, x, y)
        assert (got.dom, got.cod, got.mapping()) == (want.dom, want.cod, want.mapping())


def test_E_functor_on_terminal_gives_singleton():
    cs = instances.get("terminal").build()
    E = build_E_functor(cs, build_finset_closed(1))
    img = E.phi.obj_map("*")
    assert len(img.elements) == 1
    assert check_cf_axioms(E).ok


def test_E_functor_on_heyting_counts_points():
    cs = instances.get("heyting2").build()
    E = build_E_functor(cs, build_finset_closed(2))
    assert len(E.phi.obj_map("1").elements) == 1
    assert len(E.phi.obj_map("0").elements) == 0
    assert check_cf_axioms(E).ok


def test_E_functor_on_finset_is_pointwise_bijection(finset_cs, sets2):
    E = build_E_functor(finset_cs, sets2)
    cat = finset_cs.cat
    for x in cat.objects():
        assert len(E.phi.obj_map(x).elements) == len(
            x.elements if x.kind == "set" else ()
        )
    # the hom comparison is a bijection of tables on every object pair
    for x in cat.objects():
        for y in cat.objects():
            hat = E.phi_hat(x, y)
            vals = list(hat.mapping().values())
            assert len(set(vals)) == len(vals)
    assert check_cf_axioms(E).ok


@pytest.mark.parametrize("name", all_positive_closed())
def test_ek_normalize_tabular(name):
    cs = instances.get(name).build()
    ek, iso = ek_normalize(cs)
    assert check_cc_axioms(ek.closed).ok
    assert verify_derived_cc_theorems(ek.closed).ok
    rep = check_ek_axioms(ek)
    assert rep.ok, [it.line() for it in rep.failures()]
    assert check_cf_axioms(iso).ok
    # gamma is bijective on hom-sets: counts agree
    for x in cs.cat.objects():
        for y in cs.cat.objects():
            assert len(cs.cat.hom(x, y)) == len(ek.closed.cat.hom(x, y))


def test_ek_normalize_finset(finset_cs):
    ek, iso = ek_normalize(finset_cs)
    rep = check_ek_axioms(ek)
    assert rep.ok, [it.line() for it in rep.failures()]
    assert check_cf_axioms(iso).ok
    # CC5' anchor value: gamma sends the identity to j
    w = ek.closed
    for x in w.cat.objects():
        assert w.cat.identity(x).point == finset_cs.gamma(finset_cs.cat.identity(x))


@pytest.mark.parametrize("name", ["heyting2", "z2closed", "terminal", "finset"])
def test_ek_normalize_interns_every_morphism(name):
    # equality is identity, so identities, composites and the transported
    # base morphisms must be the very hom-set members with the same point
    assert WMor.__eq__ is object.__eq__ and WMor.__hash__ is object.__hash__
    cs = instances.get(name).build()
    ek, iso = ek_normalize(cs)
    wcat = ek.closed.cat
    objs = wcat.objects()
    member = {(x, y, f.point): f for x in objs for y in objs for f in wcat.hom(x, y)}
    for x in objs:
        ident = wcat.identity(x)
        assert member[(x, x, ident.point)] is ident
    for x, y in itertools.product(objs, repeat=2):
        for m in cs.cat.hom(x, y):
            f = iso.phi.mor_map(m)
            assert member[(x, y, f.point)] is f
    for x, y, z in itertools.product(objs, repeat=3):
        for f in wcat.hom(x, y):
            for g in wcat.hom(y, z):
                h = wcat.compose(f, g)
                assert member[(x, z, h.point)] is h


def test_normalized_compose_refusal_names_each_point_with_its_endpoints():
    # the points of hom(0,1) and hom(0,0) of ek(heyting2) both print <1<=1>
    wcat = ek_normalize(instances.get("heyting2").build())[0].closed.cat
    (f,), (g,) = wcat.hom("0", "1"), wcat.hom("0", "0")
    assert str(f) == str(g) == "<1<=1>"
    msg = "cannot compose <1<=1:0->1> with <1<=1:0->0>"
    with pytest.raises(NotComposable, match=f"^{re.escape(msg)}$"):
        wcat.compose(f, g)


def _v_oracle(cs):
    """The normalization's set-valued functor written out without E: a
    point named by its printed name, an object sent to its set of points
    and a point f to postcomposition with gamma^{-1}(f)."""
    cat, u = cs.cat, cs.unit

    def point_name(m):
        return hf.atom(str(m))

    def c_obj(x):
        return hf.fset(point_name(p) for p in cat.hom(u, x))

    def c_mor(f):
        r = gamma_inverse(cs, f.point, f.dom, f.cod)
        table = {point_name(h): point_name(cat.compose(h, r)) for h in cat.hom(u, f.dom)}
        return SetMor(c_obj(f.dom), c_obj(f.cod), mapping=table)

    return point_name, c_obj, c_mor


@pytest.mark.parametrize("name", ["terminal", "heyting2", "z2closed", "finset"])
def test_normalization_set_functor_agrees_with_its_written_out_oracle(name):
    cs = instances.get(name).build()
    ek, _ = ek_normalize(cs)
    point_name, c_obj, c_mor = _v_oracle(cs)
    objs = ek.closed.cat.objects()
    for x in objs:
        assert ek.C_functor.obj_map(x) == c_obj(x)
    for x, y in itertools.product(objs, repeat=2):
        for f in ek.closed.cat.hom(x, y):
            assert ek.elt_atom(f) == point_name(f.point)
            got, want = ek.C_functor.mor_map(f), c_mor(f)
            assert (got.dom, got.cod, got.mapping()) == (want.dom, want.cod, want.mapping())


def test_ek_composition_matches_defining_formula():
    # the transported composition equals f . gamma^{-1}(g . L) computed
    # directly in the base (dual route at enumerable level)
    cs = instances.get("heyting2").build()
    ek, _ = ek_normalize(cs)
    w = ek.closed
    cat = cs.cat
    for x, y, z in itertools.product(cat.objects(), repeat=3):
        for f in w.cat.hom(x, y):
            for g in w.cat.hom(y, z):
                gl = cat.compose(g.point, cs.L(x, y, z))
                step = gamma_inverse(
                    cs, gl, cs.hom2_obj(x, y), cs.hom2_obj(x, z)
                )
                assert w.cat.compose(f, g).point == cat.compose(f.point, step)


def test_compose_closed_functors_associative():
    cs = instances.get("z2closed").build()
    ek, iso = ek_normalize(cs)
    idv = ClosedFunctor.identity(cs)
    idw = ClosedFunctor.identity(ek.closed)
    left = compose_closed_functors(compose_closed_functors(idv, iso), idw)
    right = compose_closed_functors(idv, compose_closed_functors(iso, idw))
    for x in cs.cat.objects():
        for y in cs.cat.objects():
            assert left.phi_hat(x, y) == right.phi_hat(x, y)
            for f in cs.cat.hom(x, y):
                assert left.phi.mor_map(f) == right.phi.mor_map(f)
    assert left.phi0 == right.phi0


def test_gamma_inverse_closed_form_agrees_with_the_search(sets2):
    # finset supplies gamma_inv, so gamma_inverse answers from the closed
    # form; the same structure without it answers by searching hom(X,Y)
    searched = dataclasses.replace(sets2, gamma_inv=None)
    u = sets2.unit
    for x, y in itertools.product(sets2.cat.objects(), repeat=2):
        for point in sets2.cat.hom(u, sets2.hom2_obj(x, y)):
            assert gamma_inverse(sets2, point, x, y) == gamma_inverse(
                searched, point, x, y
            )


def test_gamma_inverse_rejects_a_closed_form_that_disagrees_with_gamma(sets2):
    x = y = sets2.cat.objects()[-1]
    (point, *_) = sets2.cat.hom(sets2.unit, sets2.hom2_obj(x, y))
    wrong = dataclasses.replace(
        sets2, gamma_inv=lambda g, x, y: sets2.cat.identity(sets2.unit)
    )
    at = f"of {point} in hom({x},{y}) disagrees"
    with pytest.raises(NotBijective, match=re.escape(at)):
        gamma_inverse(wrong, point, x, y)
    # the second call is answered from gamma's memo and is checked again
    assert wrong.gamma.cache_info().currsize > 0
    with pytest.raises(NotBijective, match=re.escape(at)):
        gamma_inverse(wrong, point, x, y)


def _gamma_oracle_structures():
    finset_ek, _ = ek_normalize(instances.get("finset").build())
    heyting_ek, _ = ek_normalize(instances.get("heyting2").build())
    named = [(n, instances.get(n).build()) for n in ["finset", *all_positive_closed()]]
    return named + [("ek(finset)", finset_ek.closed), ("ek(heyting2)", heyting_ek.closed)]


def test_memoized_gamma_equals_gamma_evaluated_afresh():
    for name, cs in _gamma_oracle_structures():
        objs = cs.cat.objects()
        for x, y in itertools.product(objs, repeat=2):
            for f in cs.cat.hom(x, y):
                # twice: the first call fills the memo, the second reads it
                assert cs.gamma(f) == cs.gamma.__wrapped__(f), name
                assert cs.gamma(f) == cs.gamma.__wrapped__(f), name
        assert cs.gamma.cache_info().hits > 0, name


def test_a_replaced_hom_action_gets_its_own_gamma_memo(sets2):
    # und(1,f) sent to a constant map makes gamma constant on each hom-set
    def flat(f, g):
        h = sets2.hom2_mor(f, g)
        return SetMor(h.dom, h.cod, lambda t: elements(h.cod)[0])

    flattened = dataclasses.replace(sets2, hom2_mor=flat)
    x, y = next(
        (x, y)
        for x, y in itertools.product(sets2.cat.objects(), repeat=2)
        if len(sets2.cat.hom(x, y)) > 1
    )
    f, f2 = sets2.cat.hom(x, y)[:2]
    before = [sets2.gamma(f), sets2.gamma(f2)]
    assert before[0] != before[1]
    assert flattened.gamma(f) == flattened.gamma(f2)
    assert [flattened.gamma(f), flattened.gamma(f2)] != before
    assert flattened.gamma is not sets2.gamma


def test_ek_checks_of_the_corrupted_structure_raise_not_bijective():
    ek, _ = ek_normalize(instances.get("broken-hom2").build())
    with pytest.raises(NotBijective):
        check_ek_axioms(ek)
