"""Multicategories: axiom checking, the strict-monoidal construction, and
the group-multiplication oracle for the two-element group instance."""

import itertools

import pytest

from closedcat import instances, multicat
from closedcat.core import Bounds, Functor, NaturalTransformation, TabularCategory
from closedcat.errors import BudgetExceeded, StrictnessError
from closedcat.multicat import (
    MMor,
    StrictMonoidalCategory,
    TabularMulticategory,
    check_multicategory_axioms,
    check_multifunctor,
    check_multinat,
    check_strict_monoidal,
    from_strict_monoidal,
    tabularize_multicat,
)

CAPS = Bounds(3)


@pytest.fixture(scope="module")
def z2():
    return instances.get("z2").build()


def test_terminal_multicategory_passes():
    # trivial monoid: one object, singleton homs at every arity
    cat = TabularCategory("one", ["*"], {("*", "*"): ["1"]}, {("1", "1"): "1"}, {"*": "1"})
    smc = StrictMonoidalCategory(cat, lambda x, y: "*", lambda a, b: "1", "*")
    m = from_strict_monoidal(smc, "one")
    assert check_multicategory_axioms(m, CAPS).ok
    for xs, y in m.signatures(CAPS):
        assert len(m.hom(xs, y)) == 1


def test_z2_axioms_and_group_oracle(z2):
    m, w = z2
    assert check_multicategory_axioms(m, CAPS).ok

    # group-multiplication oracle: composition sums parities
    def parity(f):
        return 0 if f.raw == "e" else 1

    for ys, z in m.signatures(Bounds(2)):
        for g in m.hom(ys, z):
            for doms in itertools.product(m.profiles(1), repeat=len(ys)):
                fs = []
                for i, d in enumerate(doms):
                    fs.append(m.hom(d, ys[i])[0])
                fs = tuple(fs)
                got = m.compose(fs, g)
                assert parity(got) == (sum(map(parity, fs)) + parity(g)) % 2


def test_hom_sets_are_group_elements(z2):
    m, _ = z2
    for n in range(4):
        fs = m.hom(("g",) * n, "g")
        assert sorted(f.raw for f in fs) == ["e", "s"]


def test_strictness_checked():
    # a tensor that is not strictly unital must be rejected
    cat = TabularCategory("one", ["*"], {("*", "*"): ["1"]}, {("1", "1"): "1"}, {"*": "1"})
    bad = StrictMonoidalCategory(cat, lambda x, y: None, lambda a, b: "1", "*")
    assert not check_strict_monoidal(bad).ok
    with pytest.raises(StrictnessError):
        from_strict_monoidal(bad, "one-bad")


def test_degenerate_tensor_rejected():
    # projection-to-the-left is functorial but not unital on morphisms
    elems = ["r0", "r1", "r2"]

    def add(a, b):
        return f"r{(int(a[1]) + int(b[1])) % 3}"

    cat = TabularCategory(
        "z3",
        ["g"],
        {("g", "g"): elems},
        {(a, b): add(a, b) for a in elems for b in elems},
        {"g": "r0"},
    )
    bad = StrictMonoidalCategory(cat, lambda x, y: "g", lambda a, b: a, "g")
    rep = check_strict_monoidal(bad)
    assert "monoidal/unit-strict-mor" in {it.check for it in rep.failures()}

    # swapping arguments in one slot breaks interchange on a noncommutative
    # composite pattern: tensor(a, b) := b . a is still unital but fails
    # interchange exactly on the non-commuting pairs; the cyclic group is
    # abelian, so instead corrupt a single tensor entry
    tweaked = {(a, b): add(a, b) for a in elems for b in elems}
    tweaked[("r1", "r2")] = "r1"
    bad2 = StrictMonoidalCategory(
        cat, lambda x, y: "g", lambda a, b: tweaked[(a, b)], "g"
    )
    rep2 = check_strict_monoidal(bad2)
    assert "monoidal/interchange" in {it.check for it in rep2.failures()}


def test_corrupted_composition_localized():
    m, _ = instances.get("z2mc-badcompose").build()
    rep = check_multicategory_axioms(m, CAPS)
    failing = {it.check for it in rep.failures()}
    assert failing == {"mc/assoc"}
    assert all(it.locus for it in rep.failures())
    # the flipped entry itself composes wrongly: independent recomputation
    got = m.compose((("s", 1), ("s", 1)), ("e", 2))
    assert got == ("s", 2)  # corrupted value; the true parity sum is e


def test_rule_backed_vs_tabular_oracle(z2):
    # the twin renames objects in order, so signatures pair by position
    m, _ = z2
    tab = tabularize_multicat(m, CAPS)
    assert check_multicategory_axioms(tab, CAPS).ok
    pairs = list(zip(m.signatures(CAPS), tab.signatures(CAPS), strict=True))
    for (xs, y), (txs, ty) in pairs:
        assert len(tab.hom(txs, ty)) == len(m.hom(xs, y))


def _hand_built_z2mc_badcompose():
    """z2mc-badcompose as written out by hand before it was derived from
    z2's walk, kept as its oracle: every inner arity tuple within three,
    each composite the parity sum, one entry flipped."""
    max_arity = 3
    hom = {(("g",) * n, "g"): [("e", n), ("s", n)] for n in range(max_arity + 1)}

    def gen_doms(k, left):
        if k == 0:
            yield ()
            return
        for ln in range(left + 1):
            for rest in gen_doms(k - 1, left - ln):
                yield (ln,) + rest

    compose = {}
    for xs, _ in hom:
        n = len(xs)
        for g_par in "es":
            for doms in gen_doms(n, max_arity):
                for pars in itertools.product("es", repeat=n):
                    fs = tuple(zip(pars, doms))
                    par = (pars.count("s") + (g_par == "s")) % 2
                    compose[(fs, (g_par, n))] = ("es"[par], sum(doms))
    compose[((("s", 1), ("s", 1)), ("e", 2))] = ("s", 2)
    return TabularMulticategory("z2mc-badcompose", ["g"], hom, compose, {"g": ("e", 1)})


def test_z2mc_badcompose_is_z2_with_one_entry_flipped():
    m, _ = instances.get("z2mc-badcompose").build()
    oracle = _hand_built_z2mc_badcompose()
    assert m._compose == oracle._compose and len(m._compose) == 418
    assert m._hom == oracle._hom
    assert m._identity == oracle._identity


def test_freemon3_cap_behavior():
    m, _ = instances.get("freemon3").build()
    caps1 = Bounds(1)
    assert check_multicategory_axioms(m, caps1).ok
    assert len(m.hom(("x1", "x1", "x1"), "x3")) == 1
    with pytest.raises(BudgetExceeded):
        m.hom(("x2", "x2"), "x3")


def test_multifunctors_on_z2(z2):
    m, _ = z2
    for F in [
        Functor.identity(m),
        instances.z2_inversion(m),
        instances.z2_shift(m),
    ]:
        assert check_multifunctor(F, CAPS).ok, F.name


def test_broken_multifunctor_fails(z2):
    m, _ = z2

    def mor_map(f: MMor) -> MMor:
        # flip everything: does not preserve identities
        return MMor(f.dom, f.cod, "s" if f.raw == "e" else "e")

    F = Functor("flip", m, m, lambda x: x, mor_map)
    rep = check_multifunctor(F, CAPS)
    assert not rep.ok
    assert "mf/identity" in {it.check for it in rep.failures()}


def test_identity_multinat_passes(z2):
    m, _ = z2
    F = Functor.identity(m)
    assert check_multinat(NaturalTransformation.identity(F), CAPS).ok


def test_only_trivial_multinat_on_identity(z2):
    # the equation forces the component to be neutral: r = n.r + r for all n
    m, _ = z2
    F = Functor.identity(m)
    good, bad = [], []
    for cand in m.hom(("g",), "g"):
        r = NaturalTransformation("cand", F, F, lambda x, c=cand: c)
        (good if check_multinat(r, CAPS).ok else bad).append(cand.raw)
    assert good == ["e"] and bad == ["s"]


# The monoidal instances, each at the cap its memo test walks.
MONOIDAL = {
    "z2": CAPS,
    "heyting2mc": CAPS,
    "truncadd-badev": CAPS,
    "truncadd-badunit": CAPS,
    "freemon3": Bounds(instances.get("freemon3").max_arity),
}


@pytest.mark.parametrize("name", MONOIDAL)
def test_memoized_compose_and_plug_match_their_oracles(name):
    # compose reads a memo of _compose, and plug a memo of the base
    # Multicategory.plug; every value equals the one evaluated afresh,
    # so a memo keyed by part of its arguments fails
    caps = MONOIDAL[name]
    m = instances.get(name).build()[0]
    fresh = instances.get(name).build()[0]
    afresh = m._composite.__wrapped__
    for g, _, fs in multicat._composables(m, caps):
        assert m.compose(fs, g) == afresh(fs, g)
    homs = multicat._walk_table(m, caps)[0]
    for (ys, _), gs in homs.items():
        for g, i in itertools.product(gs, range(len(ys))):
            for d in m.profiles(caps.max_arity + 1 - len(ys)):
                for f in homs[(d, ys[i])]:
                    want = multicat.Multicategory.plug(fresh, g, i, f)
                    assert m.plug(g, i, f) == want
    assert m._composite.cache_info().hits > 0
    assert m._plugged.cache_info().misses > 0


def _refused(name):
    """A structure, a composite (fs, g) that its compose refuses, and the
    type and message of the refusal."""
    m = instances.get(name).build()[0]
    if name == "freemon3":
        # the profiles match, but the tensor x2 (x) x2 lies past the cap
        i2 = m.identity("x2")
        g = MMor(("x2", "x2"), "x3", "i3")
        message = "freemon3: tensor undefined on ('i2', 'i2')"
        return m, (i2, i2), g, BudgetExceeded, message
    xs, y = next(s for s in m.signatures(CAPS) if len(s[0]) == 2 and m.hom(*s))
    g = m.hom(xs, y)[0]  # nothing plugged into its two inputs
    return m, (), g, ValueError, f"profile mismatch composing into {g}"


@pytest.mark.parametrize("name", MONOIDAL)
def test_a_refused_composite_is_refused_again(name):
    # the memos keep no exception: a second call refuses as the first did
    m, fs, g, error, message = _refused(name)
    calls = [lambda: m.compose(fs, g)]
    if fs:
        calls.append(lambda: m.plug(g, 0, fs[0]))
    for call in calls:
        for _ in range(2):
            with pytest.raises(error) as exc:
                call()
            assert (exc.type, str(exc.value)) == (error, message)
    assert m._composite.cache_info().currsize == 0
    assert m._plugged.cache_info().currsize == 0


def test_mmor_is_a_value():
    # a morphism built outside its structure, as a witness or a functor
    # builds it, is its hom-set's member in equality and hash
    m, w = instances.get("z2").build()
    shift = instances.z2_shift(m)
    built = [w.ev1[("g", "g")], w.unit.u]
    for xs, y in m.signatures(CAPS):
        built += [shift.mor_map(f) for f in m.hom(xs, y)]
    for f in built:
        assert f in m.hom(f.dom, f.cod) and f in set(m.hom(f.dom, f.cod))
    f = MMor(("g", "g"), "g", "e")
    assert str(f) == "e:g,g->g"
    assert repr(f) == "MMor(dom=('g', 'g'), cod='g', raw='e')"
    assert str(w.unit.u) == "e:->g"


def test_heyting2mc_axioms():
    m, w = instances.get("heyting2mc").build()
    assert check_multicategory_axioms(m, CAPS).ok
    # subsingleton homs: nonempty exactly when the meet is below the target
    def meet(xs):
        return "1" if all(x == "1" for x in xs) else "0"

    for xs, y in m.signatures(CAPS):
        expect = 1 if (meet(xs) <= y) else 0
        assert len(m.hom(xs, y)) == expect


def _broken_derived():
    from closedcat.multicat import MonoidalMulticategory

    base = instances.build_broken_compose()
    smc = StrictMonoidalCategory(
        base, lambda x, y: "g", lambda a, b: base.compose(a, b), "g"
    )
    return MonoidalMulticategory(smc, "broken-derived")


def test_monoidal_construction_reflects_broken_axioms():
    # a corrupted base category yields a multicategory that fails its own
    # axiom suite at matching loci (the construction does not repair)
    rep = check_multicategory_axioms(_broken_derived(), Bounds(2))
    assert not rep.ok
    assert "mc/assoc" in {it.check for it in rep.failures()}


def _assert_gate_matches_walk(m, caps):
    """The report of check_multicategory_axioms equals the one whose
    mc/assoc comes from the exhaustive walk alone."""
    gated = check_multicategory_axioms(m, caps).render_text()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multicat, "_assoc_holds", lambda m, table, n: False)
        walked = check_multicategory_axioms(m, caps).render_text()
    assert gated == walked


MULTICATS = sorted(n for n, i in instances.REGISTRY.items() if i.kind == "multicat")


@pytest.mark.parametrize("name", MULTICATS)
def test_assoc_gate_matches_walk_on_registry(name):
    info = instances.get(name)
    caps = Bounds(2) if name.startswith("truncadd") else Bounds(info.max_arity)
    _assert_gate_matches_walk(info.build()[0], caps)


def test_assoc_gate_matches_walk_on_broken_derived():
    _assert_gate_matches_walk(_broken_derived(), Bounds(2))


def _single_entry_corruptions(tab: TabularMulticategory, keys):
    """Every table that differs from tab in one composite of keys, set to
    another morphism of the same hom-set."""
    for key in keys:
        out = tab._compose[key]
        for alt in tab._hom[tab._sig[out]]:
            if alt != out:
                yield type(tab)(
                    f"{tab.name}[{key}:={alt}]",
                    tab.objects(),
                    tab._hom,
                    {**tab._compose, key: alt},
                    tab._identity,
                )


@pytest.mark.parametrize(
    "name,count",
    [
        ("z2mc-badcompose", 4),
        ("z2", 4),
        ("truncadd-badev", 4),
        ("heyting2mc", 30),
        ("freemon3", 20),
    ],
)
def test_axiom_check_fetches_each_hom_set_once_in_signature_order(name, count):
    # One walk table serves every law, the failing walk of mc/assoc too
    # (z2mc-badcompose, truncadd-badev), at the instance's own horizon.
    info = instances.get(name)
    m, caps = info.build()[0], Bounds(info.max_arity)
    guard, fetched = multicat.guard_hom, []

    def counted(m, xs, y, bounds):
        fetched.append((xs, y))
        return guard(m, xs, y, bounds)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multicat, "guard_hom", counted)
        check_multicategory_axioms(m, caps)
    assert len(fetched) == count
    assert fetched == list(m.signatures(caps))


@pytest.mark.parametrize("name,count", [("z2", 62), ("truncadd-badev", 384)])
def test_assoc_gate_matches_walk_on_corruptions(name, count):
    caps = Bounds(2)
    tab = tabularize_multicat(instances.get(name).build()[0], caps)
    mutants = list(_single_entry_corruptions(tab, tab._compose))
    assert len(mutants) == count
    for mutant in mutants:
        _assert_gate_matches_walk(mutant, caps)


def test_assoc_gate_matches_walk_on_three_entry_corruptions():
    # Below cap 3 no composite has three non-identity inputs, and the
    # one-slot triples see every composite of two; a corrupted composite
    # of three is seen only by the decomposition into one-slot composites.
    caps = Bounds(3)
    tab = tabularize_multicat(instances.get("z2").build()[0], caps)
    ((x, unit),) = tab._identity.items()
    (gen,) = (f for f in tab.hom((x,), x) if f != unit)
    keys = [k for k in tab._compose if k.startswith(f"{gen},{gen},{gen}|")]
    mutants = list(_single_entry_corruptions(tab, keys))
    assert len(mutants) == 2
    for mutant in mutants:
        _assert_gate_matches_walk(mutant, caps)


MONOID_TABLES = {
    "z2": lambda a, b: (a + b) % 2,
    "z3": lambda a, b: (a + b) % 3,
    "bool-or": lambda a, b: max(a, b),
    "bool-and": lambda a, b: min(a, b),
    "min3": lambda a, b: min(a, b),
    "truncadd3": lambda a, b: min(a + b, 2),
}

MONOID_SIZE = {"z2": 2, "z3": 3, "bool-or": 2, "bool-and": 2, "min3": 3, "truncadd3": 3}
MONOID_UNIT = {"z2": 0, "z3": 0, "bool-or": 0, "bool-and": 1, "min3": 2, "truncadd3": 0}


@pytest.mark.parametrize("name", sorted(MONOID_TABLES))
def test_commutative_monoids_give_closed_multicategories(name):
    # every commutative monoid is a one-object strict monoidal category;
    # the derived multicategory passes its axioms and is closed with the
    # neutral element as evaluation
    from closedcat.closedmc import ClosednessWitness, check_closedness

    op = MONOID_TABLES[name]
    size = MONOID_SIZE[name]
    unit = MONOID_UNIT[name]
    elems = [f"x{k}" for k in range(size)]

    def add(a, b):
        return f"x{op(int(a[1:]), int(b[1:]))}"

    cat = TabularCategory(
        name,
        ["g"],
        {("g", "g"): elems},
        {(a, b): add(a, b) for a in elems for b in elems},
        {"g": f"x{unit}"},
    )
    smc = StrictMonoidalCategory(cat, lambda x, y: "g", add, "g")
    m = from_strict_monoidal(smc, name)
    caps = Bounds(2)
    assert check_multicategory_axioms(m, caps).ok
    w = ClosednessWitness(
        m, {("g", "g"): "g"}, {("g", "g"): MMor(("g", "g"), "g", f"x{unit}")}
    )
    assert check_closedness(w, caps).ok


def _inner_profiles(m, ys, cap):
    """All tuples of domain profiles (one per input of ys) with total
    arity at most cap, in canonical order."""
    if not ys:
        yield ()
        return
    for p in m.profiles(cap):
        for tail in _inner_profiles(m, ys[1:], cap - len(p)):
            yield (p,) + tail


def _nested_walk(m, caps, hom=None):
    """The plain nest that ``_composables`` replaces, kept as its oracle:
    every domain tuple, empty hom-sets included, every hom-set fetched
    where it is used."""
    hom = hom or m.hom
    for ys, z in m.signatures(caps):
        for g in hom(ys, z):
            for doms in _inner_profiles(m, ys, caps.max_arity):
                choices = [hom(doms[i], ys[i]) for i in range(len(ys))]
                for fs in itertools.product(*choices):
                    yield g, doms, fs


def _assert_walk_matches_oracle(m, caps):
    calls = []

    def hom(xs, y):
        calls.append((xs, y))
        return m.hom(xs, y)

    assert list(multicat._composables(m, caps, hom)) == list(_nested_walk(m, caps))
    assert sorted(calls) == sorted(set(m.signatures(caps)))  # once each


@pytest.mark.parametrize("name", MULTICATS)
def test_composables_match_nested_walk_on_registry(name):
    info = instances.get(name)
    _assert_walk_matches_oracle(info.build()[0], Bounds(info.max_arity))


@pytest.fixture(scope="module")
def representing():
    from closedcat.correspond import build_representing_multicategory

    return {
        name: build_representing_multicategory(instances.get(name).build(), CAPS).m
        for name in ["heyting2", "z2closed"]
    }


@pytest.mark.parametrize("name", ["heyting2", "z2closed"])
def test_composables_match_nested_walk_on_representing(representing, name):
    # at the arity cap of the represent-reload benchmark
    _assert_walk_matches_oracle(representing[name], Bounds(4))


def test_multicat_to_json_through_nested_walk(representing):
    # the dump of rep(heyting2), where most domain tuples meet an empty
    # hom-set, is the one the plain nest builds with one compose per
    # composite
    from closedcat import interchange

    m = representing["heyting2"]
    doc = interchange.multicat_to_json(m, CAPS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multicat, "_composables", _nested_walk)
        mp.setattr(
            type(m), "keyed_composites", multicat.Multicategory.keyed_composites
        )
        assert interchange.multicat_to_json(m, CAPS) == doc
    assert len(doc["compose"]) > 0
