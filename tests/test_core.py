"""Category-level checkers: axiom suites, functors, naturality, and the
lazy-versus-tabular oracle equivalence."""

import itertools

import pytest

from closedcat import instances
from closedcat.core import (
    MAX_OBJECTS,
    Bounds,
    Functor,
    NaturalTransformation,
    TabularCategory,
    check_category_axioms,
    check_functor,
    check_natural,
    tabularize,
)
from closedcat.errors import BudgetExceeded
from closedcat.setcat import FinSetCategory


def terminal_cat():
    return instances.build_terminal().cat


def test_terminal_passes():
    assert check_category_axioms(terminal_cat()).ok


def test_broken_compose_localized():
    cat = instances.build_broken_compose()
    rep = check_category_axioms(cat)
    assert not rep.ok

    # independent oracle: recompute offending triples by brute force
    def comp(a, b):
        if (a, b) == ("r1", "r1"):
            return "r0"
        return f"r{(int(a[1]) + int(b[1])) % 3}"

    expected = set()
    for f, g, h in itertools.product(["r0", "r1", "r2"], repeat=3):
        if comp(comp(f, g), h) != comp(f, comp(g, h)):
            expected.add(f"f={f} g={g} h={h}")
    got = {it.locus for it in rep.failures() if it.check == "category/assoc"}
    assert got == expected
    assert len(expected) > 0


def test_identity_functor_and_natural_pass():
    cat = instances.build_heyting2().cat
    F = Functor.identity(cat)
    assert check_functor(F).ok
    assert check_natural(NaturalTransformation.identity(F)).ok


def _two_object_cat():
    # objects A, B; B carries an involution s; hom(A,B) is a free orbit
    hom = {
        ("A", "A"): ["1A"],
        ("B", "B"): ["1B", "s"],
        ("A", "B"): ["u", "us"],
        ("B", "A"): [],
    }
    compose = {
        ("1A", "1A"): "1A",
        ("1B", "1B"): "1B",
        ("1B", "s"): "s",
        ("s", "1B"): "s",
        ("s", "s"): "1B",
        ("1A", "u"): "u",
        ("1A", "us"): "us",
        ("u", "1B"): "u",
        ("us", "1B"): "us",
        ("u", "s"): "us",
        ("us", "s"): "u",
    }
    return TabularCategory("orbit", ["A", "B"], hom, compose, {"A": "1A", "B": "1B"})


def test_swapped_component_fails_naturality_localized():
    cat = _two_object_cat()
    assert check_category_axioms(cat).ok
    F = Functor.identity(cat)
    good = NaturalTransformation("id", F, F, {"A": "1A", "B": "1B"}.__getitem__)
    assert check_natural(good).ok

    swapped = NaturalTransformation("sw", F, F, {"A": "1A", "B": "s"}.__getitem__)
    rep = check_natural(swapped)
    assert not rep.ok

    # independent oracle for the violating squares
    t = {"A": "1A", "B": "s"}
    expected = set()
    for x in ["A", "B"]:
        for y in ["A", "B"]:
            for f in cat.hom(x, y):
                if cat.compose(f, t[y]) != cat.compose(t[x], f):
                    expected.add(f"f={f}")
    got = {it.locus for it in rep.failures()}
    assert got == expected == {"f=u", "f=us"}


def test_lazy_finset_category_axioms():
    cat = FinSetCategory(2)
    assert check_category_axioms(cat).ok


def discrete(n: int) -> TabularCategory:
    objs = [f"x{k}" for k in range(n)]
    return TabularCategory(
        f"discrete{n}",
        objs,
        {(x, x): [f"1{x}"] for x in objs},
        {(f"1{x}", f"1{x}"): f"1{x}" for x in objs},
        {x: f"1{x}" for x in objs},
    )


def test_object_budget_enforced():
    assert MAX_OBJECTS == 64
    with pytest.raises(BudgetExceeded, match="65 objects exceed budget 64"):
        check_category_axioms(discrete(65))
    assert check_category_axioms(discrete(64)).ok


def test_homset_bound_covers_every_enumerated_hom_set():
    cat = instances.build_z2_closed().cat  # hom(g,g) has two morphisms
    with pytest.raises(BudgetExceeded, match=r"z2closed: hom\(g,g\) over budget"):
        check_category_axioms(cat, Bounds(max_homset=1))
    with pytest.raises(BudgetExceeded):
        tabularize(cat, Bounds(max_homset=1))
    assert check_category_axioms(cat, Bounds(max_homset=2)).ok


def test_tabularize_oracle_equivalence():
    # the materialized twin passes exactly when the lazy evaluator does
    cat = FinSetCategory(2)
    tab = tabularize(cat)
    assert isinstance(tab, TabularCategory)
    assert check_category_axioms(tab).ok == check_category_axioms(cat).ok
    total = sum(
        len(tab.hom(x, y)) for x in tab.objects() for y in tab.objects()
    )
    lazy_total = sum(
        len(cat.hom(x, y)) for x in cat.objects() for y in cat.objects()
    )
    assert total == lazy_total


def test_tabularize_of_broken_category_still_fails():
    cat = instances.build_broken_compose()
    tab = tabularize(cat)
    assert not check_category_axioms(tab).ok
