"""The lazy finite-sets closed structure: the defining tables, the axiom
suites, and budget behavior."""

import pytest

from closedcat import hf
from closedcat.closed import check_cc_axioms, check_cf_axioms, verify_derived_cc_theorems
from closedcat.closed import ClosedFunctor
from closedcat.core import Functor
from closedcat.errors import BudgetExceeded
from closedcat.setcat import (
    MATERIALIZE_LIMIT,
    MAX_DEPTH,
    STAR,
    FinSetCategory,
    HomObj,
    SetMor,
    build_finset_closed,
)

A0, A1 = hf.atom("a0"), hf.atom("a1")


@pytest.fixture(scope="module")
def sets2():
    return build_finset_closed(2)


def test_i_is_constant_table(sets2):
    # the point x goes to the one-entry table * -> x
    x_obj = hf.fset([A0, A1])
    i = sets2.i(x_obj)
    for x in [A0, A1]:
        assert i.apply(x) == hf.ftable([(STAR, x)])


def test_j_is_identity_table(sets2):
    x_obj = hf.fset([A0, A1])
    j = sets2.j(x_obj)
    assert j.apply(STAR) == hf.ftable([(A0, A0), (A1, A1)])


def test_L_precomposes(sets2):
    # on two-element sets, the action of L sends g to the table f -> f.g,
    # checked against a direct table computation
    x = y = z = hf.fset([A0, A1])
    L = sets2.L(x, y, z)
    cat = sets2.cat
    for g in cat.hom(y, z):
        img = L.apply(g.table_value())
        for f in cat.hom(x, y):
            composed = cat.compose(f, g)
            got = dict(img.pairs)[f.table_value()]
            assert got == composed.table_value()


def test_cc_axioms_and_derived(sets2):
    assert check_cc_axioms(sets2).ok
    assert verify_derived_cc_theorems(sets2).ok


def test_empty_set_edge_cases(sets2):
    cat = sets2.cat
    empty = hf.fset([])
    one = hf.fset([A0])
    assert len(cat.hom(empty, empty)) == 1
    assert len(cat.hom(one, empty)) == 0
    assert len(cat.hom(empty, one)) == 1
    # und(X, empty) is extensionally the empty set
    assert sets2.hom2_obj(one, empty) == empty


def test_homset_budget(sets2):
    assert MATERIALIZE_LIMIT == 4096
    cat = sets2.cat
    two = hf.fset([A0, A1])

    def atoms(n):
        return hf.fset(hf.atom(f"b{k}") for k in range(n))

    assert len(cat.make_hom(atoms(12), two).elements) == 4096  # 2**12 tables
    assert isinstance(cat.make_hom(atoms(13), two), HomObj)
    with pytest.raises(BudgetExceeded):
        cat.hom(atoms(13), two)  # 2**13 tables > 4096


def test_seed_objects_within_the_object_limit():
    assert len(FinSetCategory(5).objects()) == 33  # 2**5 subsets and the unit
    for size in (6, 40):
        with pytest.raises(BudgetExceeded, match="seed objects exceed budget 64"):
            FinSetCategory(size)  # refused before any seed is built


def test_virtual_hom_objects_compose_but_do_not_enumerate(sets2):
    cat = sets2.cat
    x = hf.fset([A0, A1])
    h = cat.make_hom(x, x)  # 4 tables, materialized
    hh = cat.make_hom(h, h)  # 256 tables, materialized
    hhh = cat.make_hom(hh, hh)  # 256^256: virtual term
    assert isinstance(hhh, HomObj)
    with pytest.raises(BudgetExceeded):
        cat.hom(hh, hh)


def test_depth_budget_blocks_deep_hom_elements(sets2):
    assert MAX_DEPTH == 4
    cat = sets2.cat
    h = hf.fset([A0])
    for depth in range(1, 5):
        h = cat.make_hom(h, h)  # a singleton, element depth ``depth``
        assert len(h.elements) == 1
        assert hf.depth(next(iter(h.elements))) == depth
    with pytest.raises(BudgetExceeded, match="exceeds depth 4"):
        cat.make_hom(h, h)  # element depth 5


def test_setmor_equality_is_pointwise(sets2):
    cat = sets2.cat
    x = hf.fset([A0])
    f1 = SetMor.from_rule(x, x, lambda v: v)
    f2 = cat.identity(x)
    assert f1 == f2
    assert hash(f1) == hash(f2)


def test_finset1_degenerates_to_terminal():
    # every nonempty object of finset(1) is isomorphic to the unit, and
    # the evident embedding of the terminal closed category is a closed
    # functor
    from closedcat import instances

    cs1 = build_finset_closed(1)
    cat = cs1.cat
    unit = cs1.unit
    for x in cat.objects():
        if x == hf.fset([]):
            continue
        to = cat.hom(unit, x)
        back = cat.hom(x, unit)
        assert len(to) == 1 and len(back) == 1
        assert cat.compose(to[0], back[0]) == cat.identity(unit)
        assert cat.compose(back[0], to[0]) == cat.identity(x)

    term = instances.build_terminal()
    phi = Functor(
        "embed",
        term.cat,
        cat,
        lambda x: unit,
        lambda f: cat.identity(unit),
    )
    embed = ClosedFunctor(
        "embed",
        term,
        cs1,
        phi,
        lambda x, y: cs1.i(unit),
        cat.identity(unit),
    )
    assert check_cf_axioms(embed).ok


def _forbid_hf_key(monkeypatch):
    """From here on the canonical sort key raises: hashing must not use it."""

    def refuse(v):
        raise AssertionError("hf_key called")

    monkeypatch.setattr(hf, "hf_key", refuse)


def test_rule_backed_and_table_backed_copies_hash_equal(sets2, monkeypatch):
    # L sends g to a table of tables (rule-backed), i sends a point to a
    # one-entry table (table-backed); each gets an equal table-backed copy.
    # Materializing walks the domain in sorted order, so it happens before
    # hf_key is forbidden.
    x = hf.fset([A0, A1])
    pairs = [
        (f, SetMor.from_table(f.dom, f.cod, f.mapping()))
        for f in (sets2.L(x, x, x), sets2.i(x))
    ]
    _forbid_hf_key(monkeypatch)
    for f, copy in pairs:
        assert f is not copy and f == copy
        assert hash(f) == hash(copy)
        assert len({f, copy}) == 1


def test_equal_tables_with_other_codomain_are_distinct(monkeypatch):
    one = hf.fset([A0])
    f = SetMor.from_table(one, one, {A0: A0})
    g = SetMor.from_table(one, hf.fset([A0, A1]), {A0: A0})
    _forbid_hf_key(monkeypatch)
    assert f.mapping() == g.mapping()
    assert f != g
    assert len({f, g}) == 2
