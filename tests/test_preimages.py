"""The preimage tables behind every finite inverse: the primitive itself,
and the currying, unit-factorization and gamma tables against the linear
scans they replaced, kept here as test-only oracles.  Each tabled inverse
must return the scan's answer, or raise the same exception with the same
message."""

import pytest

from closedcat import instances
from closedcat.closed import gamma, gamma_inverse
from closedcat.closedmc import bar, curry, uncurry
from closedcat.core import Bounds, bijective, guard_hom, preimages
from closedcat.correspond import build_representing_multicategory
from closedcat.errors import NotBijective

CAPS = Bounds(2)


def test_preimages_lists_every_preimage_in_domain_order():
    table = preimages(range(7), lambda n: n % 3)
    assert table == {0: (0, 3, 6), 1: (1, 4), 2: (2, 5)}
    assert list(table) == [0, 1, 2]
    assert preimages((), abs) == {}


def test_bijective_needs_one_preimage_each_and_the_target_as_images():
    assert bijective(preimages("abc", str.upper), "CBA")
    assert bijective({}, ())
    # a collision: two preimages of one image
    assert not bijective(preimages("aA", str.upper), "A")
    # injective but missing a target element
    assert not bijective(preimages("ab", str.upper), "ABC")
    # injective, but an image outside the target
    assert not bijective(preimages("abd", str.upper), "ABC")


# -- the linear scans the tables replaced ------------------------------------


def _scan_curry(w, f, split, bounds):
    m = w.m
    dom = m.dom(f)
    if split < 0 or split > len(dom):
        raise ValueError("bad split")
    if split == 0:
        return f
    xs, ys = dom[:split], dom[split:]
    z = m.cod(f)
    target = w.hom_obj(xs, z)
    hits = [
        g for g in guard_hom(m, ys, target, bounds) if uncurry(w, g, xs, z) == f
    ]
    if len(hits) != 1:
        raise NotBijective(
            f"{m.name}: {len(hits)} curryings of {f} at split {split}"
        )
    return hits[0]


def _scan_bar(w, f, bounds):
    m, uw = w.m, w.unit
    if m.dom(f) != ():
        raise ValueError("bar expects a nullary morphism")
    hits = [
        g
        for g in guard_hom(m, (uw.unit,), m.cod(f), bounds)
        if m.compose((uw.u,), g) == f
    ]
    if len(hits) != 1:
        raise NotBijective(f"{m.name}: {len(hits)} factorizations of {f} through u")
    return hits[0]


def _scan_gamma_inverse(cs, g, x, y):
    hits = [f for f in cs.cat.hom(x, y) if gamma(cs, f) == g]
    if len(hits) != 1:
        raise NotBijective(
            f"{cs.name}: gamma has {len(hits)} preimages of {g} in hom({x},{y})"
        )
    return hits[0]


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as exc:  # compared by type and message
        return ("raises", type(exc), str(exc))


# -- tabled against scanned ---------------------------------------------------


def _witness(name):
    if name == "rep(heyting2)":
        return build_representing_multicategory(instances.get("heyting2").build(), CAPS)
    _, w = instances.get(name).build()
    return w


MULTICATS = ["z2", "heyting2mc", "truncadd-badev", "truncadd-badunit", "rep(heyting2)"]


@pytest.mark.parametrize("name", MULTICATS)
def test_curry_and_bar_agree_with_the_scans(name):
    w = _witness(name)
    m = w.m
    outcomes = set()
    nullary = 0
    for xs, y in m.signatures(CAPS):
        for f in guard_hom(m, xs, y, CAPS):
            for split in range(len(xs) + 1):
                want = _outcome(_scan_curry, w, f, split, CAPS)
                assert _outcome(curry, w, f, split, CAPS) == want, (f, split)
                outcomes.add(want[0])
            if w.unit is not None and not xs:
                nullary += 1
                want = _outcome(_scan_bar, w, f, CAPS)
                assert _outcome(bar, w, f, CAPS) == want, f
                outcomes.add(want[0])
    assert "value" in outcomes
    assert nullary or w.unit is None
    # the negative witnesses exercise the failing counts too
    if name.startswith("truncadd"):
        assert "raises" in outcomes


@pytest.mark.parametrize("name", ["heyting2", "z2closed", "broken-hom2"])
def test_gamma_inverse_agrees_with_the_scan(name):
    cs = instances.get(name).build()
    cat = cs.cat
    outcomes = set()
    for x in cat.objects():
        for y in cat.objects():
            for g in cat.hom(cs.unit, cs.hom2_obj(x, y)):
                want = _outcome(_scan_gamma_inverse, cs, g, x, y)
                assert _outcome(gamma_inverse, cs, g, x, y) == want, (g, x, y)
                outcomes.add(want[0] if want[0] == "value" else want[2])
    if name == "broken-hom2":
        # gamma collapses: one point has two preimages, the other none
        assert outcomes == {
            "broken-hom2: gamma has 2 preimages of e in hom(g,g)",
            "broken-hom2: gamma has 0 preimages of s in hom(g,g)",
        }
    else:
        assert outcomes == {"value"}
