"""The lazy finite-sets closed structure: the defining tables, the axiom
suites, and budget behavior."""

import cProfile
import dataclasses
import itertools
import re
import types
from collections import Counter

import pytest

from closedcat import cli, closed, hf
from closedcat.closed import check_cc_axioms, check_cf_axioms, verify_derived_cc_theorems
from closedcat.closed import ClosedFunctor, gamma_inverse
from closedcat.core import Functor
from closedcat.errors import BudgetExceeded, NotBijective
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
    h = one = hf.fset([A0])
    for depth in range(1, 5):
        h = cat.make_hom(h, h)  # a singleton, element depth ``depth``
        assert len(h.elements) == 1
        assert hf.depth(next(iter(h.elements))) == depth
    for a, b in ((h, h), (h, one), (one, h)):
        with pytest.raises(BudgetExceeded, match="exceeds depth 4"):
            cat.make_hom(a, b)  # element depth 5, from a key or an image
    # no table of depth 5 exists: the one empty table, or none at all
    empty = hf.fset([])
    assert len(cat.make_hom(empty, h).elements) == 1
    assert cat.make_hom(h, empty) == empty


def test_function_spaces_come_in_key_order():
    # the old sort is the oracle for every hom-set between the seeds and
    # the hom objects one level up
    cat = FinSetCategory(2)
    level1 = {cat.make_hom(x, y) for x in cat.objects() for y in cat.objects()}
    objs = set(cat.objects()) | level1
    checked = 0
    for x in objs:
        for y in objs:
            h = cat.make_hom(x, y)
            if isinstance(h, HomObj):
                continue
            assert hf.sorted_elements(h) == tuple(sorted(h.elements, key=hf.hf_key))
            checked += 1
    assert checked == len(objs) ** 2


def test_function_space_matches_the_ftable_build():
    # every ordered pair of seeds, among them the empty domain (one empty
    # table) and the empty codomain (no table on a nonempty domain)
    cat = FinSetCategory(2)
    empty = hf.fset([])
    pairs = list(itertools.product(cat.objects(), repeat=2))
    assert (empty, empty) in pairs and (hf.fset([A0]), empty) in pairs
    for a, b in pairs:
        dom = hf.sorted_elements(a)
        images = itertools.product(hf.sorted_elements(b), repeat=len(dom))
        oracle = tuple(hf.ftable(zip(dom, image)) for image in images)
        space = hf.function_space(a, b)
        assert len(space.order) == len(b.elements) ** len(a.elements)
        assert space.elements == frozenset(oracle)
        for t, o in zip(space.order, oracle, strict=True):
            assert (t.kind, t.payload, t.lookup) == (o.kind, o.payload, o.lookup)


def _hom2_rule_oracle(f, g):
    """The rule of hom2_mor(f, g) as a table build: t goes to f then t
    then g, built with hf.ftable and all its checks."""

    def rule(t):
        return hf.ftable(
            (x, g.apply(t.lookup[f.apply(x)])) for x in hf.sorted_elements(f.dom)
        )

    return rule


def _L_rule_oracle(hxy):
    """The rule of L(x, y, z) as a table build: g goes to the table that
    sends each f of hxy to the composite of f then g."""

    def rule(g):
        return hf.ftable(
            (f, hf.ftable((k, g.lookup[v]) for k, v in f.pairs))
            for f in hf.sorted_elements(hxy)
        )

    return rule


def _is_element(v, h):
    """v is one of the tables that the hom object h holds, not a copy."""
    return any(v is e for e in h.order)


def _unbuilt(monkeypatch, thunk):
    """thunk's value, computed while hf.ftable refuses to build a table."""

    def refuse(pairs):
        raise AssertionError("a table was built")

    with monkeypatch.context() as m:
        m.setattr(hf, "ftable", refuse)
        return thunk()


def _seed_morphisms(cat):
    return [f for x in cat.objects() for y in cat.objects() for f in cat.hom(x, y)]


def test_hom2_mor_finds_the_oracle_tables_in_the_hom_object(sets2, monkeypatch):
    mors = _seed_morphisms(sets2.cat)
    evaluated = 0
    for f, g in itertools.product(mors, repeat=2):
        act, oracle = sets2.hom2_mor(f, g), _hom2_rule_oracle(f, g)
        for t in hf.sorted_elements(act.dom):
            got = _unbuilt(monkeypatch, lambda: act.apply(t))
            assert got == oracle(t)
            assert _is_element(got, act.cod)
            evaluated += 1
    assert (len(mors), evaluated) == (27, 935)


def test_L_finds_the_oracle_tables_in_the_hom_objects(sets2, monkeypatch):
    # the inner composites are found too: no table is built at all
    cat = sets2.cat
    evaluated = 0
    for x, y, z in itertools.product(cat.objects(), repeat=3):
        L, oracle = sets2.L(x, y, z), _L_rule_oracle(cat.make_hom(x, y))
        for g in hf.sorted_elements(L.dom):
            got = _unbuilt(monkeypatch, lambda: L.apply(g))
            assert got == oracle(g)
            assert _is_element(got, L.cod)
            evaluated += 1
    assert evaluated == 5 * 27  # x, and g in each hom-set of the seeds


def test_tables_outside_a_materialized_hom_object_are_built(sets2):
    cat = sets2.cat
    two = hf.fset([A0, A1])
    stray = hf.atom("b0")
    # an image outside the codomain: the oracle's table, in no hom object
    f = cat.identity(two)
    g = SetMor(two, two, lambda v: stray)
    act = sets2.hom2_mor(f, g)
    for t in hf.sorted_elements(act.dom):
        got = act.apply(t)
        assert got == _hom2_rule_oracle(f, g)(t)
        assert got not in act.cod.elements
    L = sets2.L(two, two, two)
    bad = hf.ftable([(A0, stray), (A1, A0)])
    got = L.apply(bad)
    assert got == _L_rule_oracle(cat.make_hom(two, two))(bad)
    assert got not in L.cod.elements
    assert not all(c in cat.make_hom(two, two).elements for c in got.lookup.values())
    # a virtual hom object: 2**13 tables on 13 points
    big = hf.fset(hf.atom(f"b{k}") for k in range(13))
    one = hf.fset([A0])
    f = SetMor(big, one, lambda v: A0)
    g = cat.identity(two)
    act = sets2.hom2_mor(f, g)
    assert isinstance(act.cod, HomObj)
    for t in hf.sorted_elements(act.dom):
        assert act.apply(t) == _hom2_rule_oracle(f, g)(t)


def test_setmor_equality_is_pointwise(sets2):
    cat = sets2.cat
    x = hf.fset([A0])
    f1 = SetMor(x, x, lambda v: v)
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
        (f, SetMor(f.dom, f.cod, mapping=f.mapping()))
        for f in (sets2.L(x, x, x), sets2.i(x))
    ]
    _forbid_hf_key(monkeypatch)
    for f, copy in pairs:
        assert f is not copy and f == copy
        assert hash(f) == hash(copy)
        assert len({f, copy}) == 1


def test_a_second_hash_hashes_no_table(sets2, monkeypatch):
    x = hf.fset([A0, A1])
    f = sets2.L(x, x, x)
    copy = SetMor(f.dom, f.cod, mapping=f.mapping())
    first = hash(f)
    hashed = []
    real = hf.HF.__hash__

    def counted(v):
        hashed.append(v)
        return real(v)

    monkeypatch.setattr(hf.HF, "__hash__", counted)
    assert hash(f) == first
    assert hashed == []
    # a first hash does hash the table's values
    assert hash(copy) == first
    assert hashed


def test_equal_tables_with_other_codomain_are_distinct(monkeypatch):
    one = hf.fset([A0])
    f = SetMor(one, one, mapping={A0: A0})
    g = SetMor(one, hf.fset([A0, A1]), mapping={A0: A0})
    _forbid_hf_key(monkeypatch)
    assert f.mapping() == g.mapping()
    assert f != g
    assert len({f, g}) == 2


def test_a_morphism_prints_its_table_without_building_a_table_value(sets2, monkeypatch):
    cat = sets2.cat
    mors = [f for x, y in itertools.product(cat.objects(), repeat=2) for f in cat.hom(x, y)]
    built = []
    ftable = hf.ftable
    monkeypatch.setattr(hf, "ftable", lambda pairs: built.append(1) or ftable(pairs))
    printed = [str(f) for f in mors]
    assert built == []
    monkeypatch.undo()
    assert printed == [hf.pretty(f.table_value()) for f in mors]


def _finset_bodies() -> dict[str, types.CodeType]:
    """The code of each function defined inside build_finset_closed, by
    its path of names below it ("hom2_action.rule")."""
    found, stack = {}, [("", build_finset_closed.__code__)]
    while stack:
        path, code = stack.pop()
        for c in code.co_consts:
            if isinstance(c, types.CodeType):
                name = f"{path}.{c.co_name}" if path else c.co_name
                found[name] = c
                stack.append((name, c))
    return found


def _body_calls(run) -> dict[str, int]:
    """How often each function defined inside build_finset_closed ran
    during run(), as cProfile counts calls."""
    prof = cProfile.Profile()
    prof.runcall(run)
    calls = Counter()
    for entry in prof.getstats():
        calls[entry.code] += entry.callcount
    return {name: calls[code] for name, code in _finset_bodies().items()}


def test_the_finset_check_derives_each_action_and_point_once(capsys):
    # hom2_mor is asked 17,102 times over 894 distinct pairs, and each L
    # for its points 8,407 times over 672 distinct ones
    calls = _body_calls(
        lambda: cli.main(["check", "--suite", "all", "instance:finset"])
    )
    assert "FAIL" not in capsys.readouterr().out
    assert calls["hom2_mor"] > 4 * calls["hom2_action"]
    assert calls["hom2_action"] <= 3666
    assert calls["hom2_action.rule"] <= 7065
    assert calls["L.rule"] <= 672


def test_set_bridge_builds_each_closed_form_once_and_checks_every_use(
    bench_worker, monkeypatch
):
    ctx: dict = {}
    bench_worker.setup_set_bridge(ctx)
    cs = ctx["cs"]
    gamma, asked = cs.gamma, []
    object.__setattr__(cs, "gamma", lambda f: asked.append(f) or gamma(f))
    real, checked = closed.gamma_inverse, []

    def counted(s, g, x, y):
        before = len(asked)
        f = real(s, g, x, y)
        if s.gamma_inv is not None:
            checked.append((s is cs, len(asked) > before))
        return f

    monkeypatch.setattr(closed, "gamma_inverse", counted)
    ops = bench_worker.set_bridge_ops()
    calls = _body_calls(lambda: [op.run(ctx) for op in ops])
    assert 0 < calls["gamma_inv"] <= 837 < len(checked)
    assert set(checked) == {(True, True)}


def test_a_cached_closed_form_that_disagrees_with_gamma_is_refused_every_time(sets2):
    x = y = hf.fset([A0, A1])
    p, q = sets2.cat.hom(sets2.unit, sets2.hom2_obj(x, y))[:2]
    # each point is answered with the stored closed form of the other
    swapped = dataclasses.replace(
        sets2, gamma_inv=lambda g, x, y: sets2.gamma_inv(q if g == p else p, x, y)
    )
    at = re.escape(f"of {p} in hom({x},{y}) disagrees")
    hits = sets2.gamma_inv.cache_info().hits
    for _ in range(3):
        with pytest.raises(NotBijective, match=at):
            gamma_inverse(swapped, p, x, y)
    assert sets2.gamma_inv.cache_info().hits >= hits + 2


def test_a_refusal_inside_a_cached_action_or_point_is_refused_again(sets2):
    cat = sets2.cat
    # a materialized pair whose hom objects hold tables deeper than MAX_DEPTH
    h = hf.fset([A0])
    for _ in range(MAX_DEPTH):
        h = cat.make_hom(h, h)
    f = cat.identity(h)
    for _ in range(2):
        with pytest.raises(BudgetExceeded, match="exceeds depth"):
            sets2.hom2_mor(f, f)
    # a point of L whose composites range over a virtual hom object
    two = hf.fset([A0, A1])
    big = hf.fset(hf.atom(f"b{k}") for k in range(13))
    L = sets2.L(big, two, two)
    g = cat.identity(two).table_value()
    for _ in range(2):
        with pytest.raises(BudgetExceeded, match="cannot enumerate virtual"):
            L.apply(g)
    assert L._rule.cache_info().currsize == 0
