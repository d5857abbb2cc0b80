"""The representing multicategory of a finite closed category, and the
comparison isomorphism with its underlying closed category."""

import pytest

from closedcat import instances
from closedcat.closedmc import check_closedness, check_unit_object
from closedcat.correspond import (
    RepresentingMorphism,
    build_representing_multicategory,
    check_representation,
    underlying_closed_category,
    verify_essential_surjectivity,
)
from closedcat.errors import KernelError
from closedcat.core import Bounds
from closedcat.multicat import _composables, check_multicategory_axioms

CAPS = Bounds(3)

NAMES = ["terminal", "heyting2", "z2closed"]


@pytest.fixture(scope="module")
def bundles():
    return {
        name: build_representing_multicategory(instances.get(name).build(), CAPS)
        for name in NAMES
    }


@pytest.mark.parametrize("name", NAMES)
def test_multicategory_axioms(bundles, name):
    rep = check_multicategory_axioms(bundles[name].mcv, CAPS)
    assert rep.ok, [it.line() for it in rep.failures()]


@pytest.mark.parametrize("name", ["heyting2", "z2closed"])
def test_composites_are_hom_set_members(bundles, name):
    # equality is identity, so every composite within the cap must be the
    # very member of its hom-set
    assert RepresentingMorphism.__eq__ is object.__eq__
    assert RepresentingMorphism.__hash__ is object.__hash__
    mcv = bundles[name].mcv
    for g, doms, fs in _composables(mcv, CAPS):
        h = mcv.compose(fs, g)
        assert any(h is r for r in mcv.hom(sum(doms, ()), g.cod))


@pytest.mark.parametrize("name", NAMES)
def test_closedness_and_unit(bundles, name):
    b = bundles[name]
    rep = check_closedness(b.witness, CAPS)
    assert rep.ok, [it.line() for it in rep.failures()]
    assert check_unit_object(b.witness, b.unit, CAPS).ok


@pytest.mark.parametrize("name", NAMES)
def test_representation_bijection(bundles, name):
    rep = check_representation(bundles[name], CAPS)
    assert rep.ok, [it.line() for it in rep.failures()]


@pytest.mark.parametrize("name", NAMES)
def test_essential_surjectivity(bundles, name):
    rep = verify_essential_surjectivity(bundles[name], CAPS)
    assert rep.ok, [it.line() for it in rep.failures()]


def test_terminal_representation_is_terminal(bundles):
    mcv = bundles["terminal"].mcv
    for xs, y in mcv.signatures(CAPS):
        assert len(mcv.hom(xs, y)) == 1


def test_heyting_homs_mirror_iterated_implication(bundles):
    # a hom-set of the representing multicategory has exactly as many
    # members as the implication chain has points: 1 when the meet of the
    # sources is below the target, else the point count of the nested
    # implication object (still 0 or 1 here)
    b = bundles["heyting2"]
    mcv = b.mcv
    def imp(x, y):
        return "0" if (x == "1" and y == "0") else "1"
    for xs, y in mcv.signatures(CAPS):
        nested = y
        for x in xs:
            nested = imp(x, nested)
        expected = 1 if nested == "1" else 0
        assert len(mcv.hom(xs, y)) == expected, (xs, y)


def test_ev_satisfies_its_coordinate_equation(bundles):
    for name in NAMES:
        b = bundles[name]
        w = b.ek.closed
        for x in b.mcv.objects():
            for z in b.mcv.objects():
                ev = b.witness.ev1[(x, z)]
                assert ev.gamma_name == b.ek.elt_atom(
                    w.cat.identity(w.hom2_obj(x, z))
                ).name


def test_unit_family_is_inverse_i(bundles):
    for name in NAMES:
        b = bundles[name]
        w = b.ek.closed
        comps = dict(b.unit.u.components)
        for a in b.mcv.objects():
            assert comps[a] == w.i_inv(a)


def test_underlying_of_representation_isomorphic_to_base(bundles):
    # full chain: the normalized base embeds isomorphically, and composing
    # with the normalization isomorphism reaches the original structure
    from closedcat.closed import check_cf_axioms, compose_closed_functors
    from closedcat.closed import ClosedFunctor
    from closedcat.core import Functor

    for name in NAMES:
        b = bundles[name]
        w = b.ek.closed
        mcv = b.mcv
        ucs = underlying_closed_category(b.witness, b.unit, CAPS)

        def l_of(f, mcv=mcv, w=w):
            comps = {
                a: w.hom2_mor(f, w.cat.identity(a)) for a in mcv.objects()
            }
            return mcv._lookup((w.cat.dom(f),), w.cat.cod(f), comps)

        phi = Functor("L", w.cat, ucs.cat, lambda x: x, l_of)
        lfun = ClosedFunctor(
            "L",
            w,
            ucs,
            phi,
            lambda x, y: ucs.cat.identity(w.hom2_obj(x, y)),
            ucs.cat.identity(w.unit),
        )
        chain = compose_closed_functors(b.iso, lfun)
        assert check_cf_axioms(chain).ok, name


def test_representation_requires_hom_closed_objects():
    # the lazy sets instance does not enumerate its nested hom objects, so
    # the construction refuses it rather than truncating
    cs = instances.get("finset").build()
    with pytest.raises(KernelError):
        build_representing_multicategory(cs, CAPS)


def test_whiskering_memo_changes_no_composite(bundles):
    # every composite of the dump equals the one computed with each
    # whiskering evaluated afresh
    from closedcat import interchange
    from closedcat.correspond import RepresentingMulticat

    doc = interchange.multicat_to_json(bundles["heyting2"].mcv, CAPS)
    fresh = build_representing_multicategory(instances.get("heyting2").build(), CAPS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            RepresentingMulticat,
            "whisker",
            lambda self, xs, alpha: self.functor_of(xs).mor_action(alpha),
        )
        assert interchange.multicat_to_json(fresh.mcv, CAPS) == doc
