"""The representing multicategory of a finite closed category, and the
comparison isomorphism with its underlying closed category."""

import pytest

from closedcat import instances, interchange
from closedcat.closedmc import check_closedness, check_unit_object
from closedcat.correspond import (
    RepresentingMorphism,
    RepresentingMulticat,
    build_representing_multicategory,
    check_representation,
    underlying_closed_category,
    verify_essential_surjectivity,
)
from closedcat.closed import check_cc_axioms, tabular_closed
from closedcat.errors import KernelError
from closedcat.core import Bounds, TabularCategory, guard_hom
from closedcat.multicat import (
    Multicategory,
    _composables,
    check_multicategory_axioms,
)

CAPS = Bounds(3)

NAMES = ["terminal", "heyting2", "z2closed"]

# Not thin and with two objects: hom(0*g, 1*g) holds two parallel
# morphisms, where every represented registry instance is thin or has one
# object.
PRODUCT = "heyting2xz2closed"

# Not thin, with two objects, and not a product: its families do not
# factor into those of two smaller closed categories.
ZERO = "zero"

CAP3_NAMES = NAMES + [PRODUCT, ZERO]


def product_closed(c, d):
    """The product of two closed categories on tabular categories, read
    off the factors' tables: every datum is the pair of the factors'."""
    cc, dc = c.cat, d.cat

    def o(a, b):
        return f"{a}*{b}"

    def m(f, g):
        return f"{f}*{g}"

    pairs = [(a, b) for a in cc.objects() for b in dc.objects()]
    mors = [(f, g) for f in cc.all_morphisms() for g in dc.all_morphisms()]
    cat = TabularCategory(
        f"{cc.name}x{dc.name}",
        [o(a, b) for a, b in pairs],
        {
            (o(a, b), o(a2, b2)): [
                m(f, g) for f in cc.hom(a, a2) for g in dc.hom(b, b2)
            ]
            for a, b in pairs
            for a2, b2 in pairs
        },
        {
            (m(f, g), m(f2, g2)): m(cc.compose(f, f2), dc.compose(g, g2))
            for f, g in mors
            for f2, g2 in mors
            if cc.cod(f) == cc.dom(f2) and dc.cod(g) == dc.dom(g2)
        },
        {o(a, b): m(cc.identity(a), dc.identity(b)) for a, b in pairs},
    )

    def per_object(c_map, d_map):
        return {o(a, b): m(c_map(a), d_map(b)) for a, b in pairs}

    return tabular_closed(
        cat.name,
        cat,
        o(c.unit, d.unit),
        {
            (o(a, b), o(a2, b2)): o(c.hom2_obj(a, a2), d.hom2_obj(b, b2))
            for a, b in pairs
            for a2, b2 in pairs
        },
        {
            (m(f, g), m(f2, g2)): m(c.hom2_mor(f, f2), d.hom2_mor(g, g2))
            for f, g in mors
            for f2, g2 in mors
        },
        per_object(c.i, d.i),
        per_object(c.i_inv, d.i_inv),
        per_object(c.j, d.j),
        {
            (o(*p), o(*q), o(*r)): m(c.L(p[0], q[0], r[0]), d.L(p[1], q[1], r[1]))
            for p in pairs
            for q in pairs
            for r in pairs
        },
    )


def zero_closed():
    """The closed category on a unit I and a zero object Z in which hom(I, I)
    is the commutative monoid {1, a, 0} with a.a = 0: every morphism
    through Z is 0, which absorbs.  The internal hom is [I, I] = I and Z
    otherwise, and it acts on hom(I, I) by multiplication."""
    monoid = ["1", "a", "0"]

    def mul(f, g):
        return g if f == "1" else f if g == "1" else "0"

    hom = {
        ("I", "I"): monoid,
        ("I", "Z"): ["I>Z"],
        ("Z", "I"): ["Z>I"],
        ("Z", "Z"): ["Z>Z"],
    }
    ends = {f: xy for xy, fs in hom.items() for f in fs}

    def through_zero(x, y):
        """The morphism x -> y that factors through Z."""
        return "0" if (x, y) == ("I", "I") else hom[(x, y)][0]

    def compose(f, g):
        if f in monoid and g in monoid:
            return mul(f, g)
        return through_zero(ends[f][0], ends[g][1])

    def h2(x, y):
        return "I" if (x, y) == ("I", "I") else "Z"

    def hom2_mor(f, g):
        # [cod f, dom g] -> [dom f, cod g], t |-> f.t.g; both ends are I
        # only when f and g lie in the monoid
        if f in monoid and g in monoid:
            return mul(f, g)
        return through_zero(h2(ends[f][1], ends[g][0]), h2(ends[f][0], ends[g][1]))

    def L(x, y, w):
        # [y, w] -> [[x, y], [x, w]]: the identity of I, or unique
        src, tgt = h2(y, w), h2(h2(x, y), h2(x, w))
        return "1" if (src, tgt) == ("I", "I") else hom[(src, tgt)][0]

    objs = ["I", "Z"]
    mors = list(ends)
    ident = {"I": "1", "Z": "Z>Z"}
    cat = TabularCategory(
        "zero",
        objs,
        hom,
        {
            (f, g): compose(f, g)
            for f in mors
            for g in mors
            if ends[f][1] == ends[g][0]
        },
        ident,
    )
    return tabular_closed(
        "zero",
        cat,
        "I",
        {(x, y): h2(x, y) for x in objs for y in objs},
        {(f, g): hom2_mor(f, g) for f in mors for g in mors},
        ident,
        ident,
        {"I": "1", "Z": "I>Z"},
        {(x, y, w): L(x, y, w) for x in objs for y in objs for w in objs},
    )


def _closed(name):
    if name == ZERO:
        return zero_closed()
    if name == PRODUCT:
        return product_closed(
            instances.get("heyting2").build(), instances.get("z2closed").build()
        )
    return instances.get(name).build()


@pytest.fixture(scope="module")
def witnesses():
    return {
        name: build_representing_multicategory(_closed(name), CAPS)
        for name in CAP3_NAMES
    }


def test_product_has_parallel_morphisms(witnesses):
    cs = _closed(PRODUCT)
    assert check_cc_axioms(cs).ok
    assert len(cs.cat.objects()) == 2
    assert len(cs.cat.hom("0*g", "1*g")) == 2
    mcv = witnesses[PRODUCT].m
    sizes = {len(mcv.hom(xs, y)) for xs, y in mcv.signatures(CAPS)}
    assert sizes == {0, 2}


def test_zero_is_closed_and_not_thin(witnesses):
    cs = _closed(ZERO)
    assert check_cc_axioms(cs).ok
    assert len(cs.cat.hom("I", "I")) == 3
    mcv = witnesses[ZERO].m
    sizes = {len(mcv.hom(xs, y)) for xs, y in mcv.signatures(CAPS)}
    assert sizes == {1, 3}


@pytest.mark.parametrize("name", CAP3_NAMES)
def test_multicategory_axioms(witnesses, name):
    rep = check_multicategory_axioms(witnesses[name].m, CAPS)
    assert rep.ok, [it.line() for it in rep.failures()]


@pytest.mark.parametrize("name", ["heyting2", "z2closed"])
def test_composites_are_hom_set_members(witnesses, name):
    # equality is identity, so every composite within the cap must be the
    # very member of its hom-set
    assert RepresentingMorphism.__eq__ is object.__eq__
    assert RepresentingMorphism.__hash__ is object.__hash__
    mcv = witnesses[name].m
    for g, doms, fs in _composables(mcv, CAPS):
        h = mcv.compose(fs, g)
        assert any(h is r for r in mcv.hom(sum(doms, ()), g.cod))


@pytest.mark.parametrize("name", CAP3_NAMES)
def test_closedness_and_unit(witnesses, name):
    w = witnesses[name]
    rep = check_closedness(w, CAPS)
    assert rep.ok, [it.line() for it in rep.failures()]
    assert check_unit_object(w, CAPS).ok


@pytest.mark.parametrize("name", CAP3_NAMES)
def test_representation_bijection(witnesses, name):
    rep = check_representation(witnesses[name], CAPS)
    assert rep.ok, [it.line() for it in rep.failures()]


@pytest.mark.parametrize("name", CAP3_NAMES)
def test_essential_surjectivity(witnesses, name):
    rep = verify_essential_surjectivity(witnesses[name], CAPS)
    assert rep.ok, [it.line() for it in rep.failures()]


def test_terminal_representation_is_terminal(witnesses):
    mcv = witnesses["terminal"].m
    for xs, y in mcv.signatures(CAPS):
        assert len(mcv.hom(xs, y)) == 1


def test_heyting_homs_mirror_iterated_implication(witnesses):
    # a hom-set of the representing multicategory has exactly as many
    # members as the implication chain has points: 1 when the meet of the
    # sources is below the target, else the point count of the nested
    # implication object (still 0 or 1 here)
    mcv = witnesses["heyting2"].m
    def imp(x, y):
        return "0" if (x == "1" and y == "0") else "1"
    for xs, y in mcv.signatures(CAPS):
        nested = y
        for x in xs:
            nested = imp(x, nested)
        expected = 1 if nested == "1" else 0
        assert len(mcv.hom(xs, y)) == expected, (xs, y)


def test_ev_satisfies_its_coordinate_equation(witnesses):
    for name in NAMES:
        rw = witnesses[name]
        ek = rw.m.ek
        w = ek.closed
        for x in rw.m.objects():
            for z in rw.m.objects():
                ev = rw.ev1[(x, z)]
                assert ev.gamma_name == ek.elt_atom(
                    w.cat.identity(w.hom2_obj(x, z))
                ).name


def test_unit_family_is_inverse_i(witnesses):
    for name in NAMES:
        rw = witnesses[name]
        w = rw.m.base
        comps = dict(zip(rw.m.objects(), rw.unit.u.components))
        for a in rw.m.objects():
            assert comps[a] == w.i_inv(a)


def test_underlying_of_representation_isomorphic_to_base():
    # full chain: the normalized base embeds isomorphically, and composing
    # with the normalization isomorphism reaches the original structure
    from closedcat.closed import check_cf_axioms, compose_closed_functors
    from closedcat.closed import ClosedFunctor, ek_normalize
    from closedcat.core import Functor

    for name in NAMES:
        ek, iso = ek_normalize(_closed(name), CAPS)
        w = ek.closed
        mcv = RepresentingMulticat(ek, CAPS)
        ucs = underlying_closed_category(mcv.witness, CAPS)

        def l_of(f, mcv=mcv, w=w):
            comps = tuple(
                w.hom2_mor(f, w.cat.identity(a)) for a in mcv.objects()
            )
            return mcv._find((w.cat.dom(f),), w.cat.cod(f), comps)

        phi = Functor("L", w.cat, ucs.cat, lambda x: x, l_of)
        lfun = ClosedFunctor(
            w,
            ucs,
            phi,
            lambda x, y: ucs.cat.identity(w.hom2_obj(x, y)),
            ucs.cat.identity(w.unit),
        )
        chain = compose_closed_functors(iso, lfun)
        assert check_cf_axioms(chain).ok, name


def test_representation_requires_hom_closed_objects():
    # the lazy sets instance does not enumerate its nested hom objects, so
    # the construction refuses it rather than truncating
    cs = instances.get("finset").build()
    with pytest.raises(KernelError):
        build_representing_multicategory(cs, CAPS)


def test_step_table_changes_no_composite(witnesses):
    # every composite of the dump equals the one computed with each step
    # evaluated afresh
    from closedcat import interchange

    mcv = witnesses["heyting2"].m
    text = interchange.dumps(interchange.multicat_to_json(mcv, CAPS))
    assert mcv._step.cache_info().hits > 0
    fresh = build_representing_multicategory(
        instances.get("heyting2").build(), CAPS
    ).m
    fresh._step = fresh._step.__wrapped__
    assert interchange.dumps(interchange.multicat_to_json(fresh, CAPS)) == text


def whole_tuple_compose(mcv, fs, g):
    """The composite of fs after g with every component computed: each
    inner family whiskered and composed pointwise at every object, then
    the one member of the hom-set with exactly those components."""
    objs = mcv.objects()
    pos = {x: k for k, x in enumerate(objs)}
    compose = mcv.base.cat.compose
    acc_profile, acc_target = (), ()
    acc = tuple(mcv.base.cat.identity(a) for a in objs)
    for f in fs:
        image = mcv.functor_of(acc_profile).obj_map
        whisker = mcv.functor_of(f.dom).mor_action
        acc = tuple(
            compose(f.components[pos[image(a)]], whisker(m))
            for a, m in zip(objs, acc)
        )
        acc_profile += (f.cod,)
        acc_target += f.dom
    mors = tuple(compose(t, m) for t, m in zip(g.components, acc))
    (hit,) = [r for r in mcv.hom(acc_target, g.cod) if r.components == mors]
    return hit


def codomain_chain_compose(mcv, fs, g):
    """The composite of fs after g along the component at the codomain
    alone: each inner family's component at the image of the codomain
    under the composite left hom functor of the profile so far, after the
    whiskered previous component; then the one member of the hom-set with
    that component at the codomain."""
    objs = mcv.objects()
    pos = {x: k for k, x in enumerate(objs)}
    compose = mcv.base.cat.compose
    k = pos[g.cod]
    acc_profile, acc_target = (), ()
    m = mcv.base.cat.identity(g.cod)
    for f in fs:
        image = mcv.functor_of(acc_profile).obj_map(g.cod)
        whisker = mcv.functor_of(f.dom).mor_action
        m = compose(f.components[pos[image]], whisker(m))
        acc_profile += (f.cod,)
        acc_target += f.dom
    m = compose(g.components[k], m)
    (hit,) = [r for r in mcv.hom(acc_target, g.cod) if r.components[k] == m]
    return hit


def _agrees_with_oracles(mcv, composables):
    n = 0
    for g, _, fs in composables:
        h = mcv.compose(fs, g)
        assert h is whole_tuple_compose(mcv, fs, g), (fs, g)
        assert h is codomain_chain_compose(mcv, fs, g), (fs, g)
        n += 1
    return n


@pytest.mark.parametrize("name", NAMES)
def test_codomain_chain_matches_whole_tuple_composition(name):
    # one cached step per inner family picks the same member as composing
    # every component, and as following the codomain chain through the
    # composite left hom functors
    caps = Bounds(4)
    mcv = build_representing_multicategory(instances.get(name).build(), caps).m
    assert _agrees_with_oracles(mcv, _composables(mcv, caps)) > 0


def test_codomain_chain_matches_on_a_zero_object(witnesses):
    # compose reads each inner family at the codomain's image under the
    # profile before that family; read after it instead, the component of
    # a family into Z at Z replaces the one at I and the chain breaks
    mcv = witnesses[ZERO].m
    assert _agrees_with_oracles(mcv, _composables(mcv, CAPS)) > 0


def test_codomain_chain_matches_on_the_dump_horizon():
    # `represent --arity-cap 4` dumps the composites one arity further, where
    # hom-sets outside the construction's own horizon read as empty
    mcv = build_representing_multicategory(
        instances.get("heyting2").build(), Bounds(4)
    ).m
    dump = Bounds(5)
    walk = _composables(
        mcv, dump, lambda xs, y: guard_hom(mcv, xs, y, dump, partial=True)
    )
    assert _agrees_with_oracles(mcv, walk) > 0


def _keyed_table(groups):
    """{key: out} of the keyed composites a walk yields, each key once."""
    table = {}
    for keys, out in groups:
        for key in keys.split("\n"):
            assert key not in table, key
            table[key] = out
    return table


def _matches_the_base_walk(mcv, bounds, hom=None):
    # the base class's keys, one compose per composite, are the oracle
    name = interchange._Namer("m")
    want = _keyed_table(Multicategory.keyed_composites(mcv, bounds, hom, name))
    assert want
    assert _keyed_table(mcv.keyed_composites(bounds, hom, name)) == want


def _dump_horizon(mcv):
    """The bounds and hom-sets of the dump of `represent --arity-cap 4`."""
    dump = Bounds(5)
    return dump, lambda xs, y: guard_hom(mcv, xs, y, dump, partial=True)


@pytest.mark.parametrize("name", ["heyting2", "z2closed", "terminal", PRODUCT])
def test_composites_share_prefixes_exactly(name):
    # caching the keys of each state of the codomain chain, and adding a
    # name to every key of a state at once, yields the keys of the walk
    caps = Bounds(4)
    mcv = build_representing_multicategory(_closed(name), caps).m
    _matches_the_base_walk(mcv, caps)


def test_composites_share_prefixes_exactly_on_a_zero_object(witnesses):
    _matches_the_base_walk(witnesses[ZERO].m, CAPS)


def test_composites_share_prefixes_exactly_on_the_dump_horizon():
    mcv = build_representing_multicategory(
        instances.get("heyting2").build(), Bounds(4)
    ).m
    _matches_the_base_walk(mcv, *_dump_horizon(mcv))


def test_composites_step_each_prefix_once():
    # the dump of `represent --arity-cap 4` steps each state of the codomain
    # chain once, however many prefixes reach it; stepping each prefix of
    # the trie of slot fillings once made 108,047 lookups, and walking each
    # domain tuple's fillings on their own 268,739
    mcv = build_representing_multicategory(
        instances.get("heyting2").build(), Bounds(4)
    ).m
    before = mcv._step.cache_info()
    for _ in mcv.keyed_composites(*_dump_horizon(mcv), interchange._Namer("m")):
        pass
    after = mcv._step.cache_info()
    misses = after.misses - before.misses
    assert after.hits - before.hits + misses == 4358
    assert misses == 249


def test_dump_groups_the_keys_of_each_composite():
    # the dump of `represent --arity-cap 4` yields 4,452 groups holding
    # 59,940 keys, each once, and the writer keeps them as those groups,
    # with no table keyed by each key
    mcv = build_representing_multicategory(
        instances.get("heyting2").build(), Bounds(4)
    ).m
    dump, hom = _dump_horizon(mcv)
    walk = mcv.keyed_composites(dump, hom, interchange._Namer("m"))
    groups = [keys.split("\n") for keys, _ in walk]
    assert len(groups) == 4452
    assert sum(map(len, groups)) == len(set().union(*groups)) == 59940
    doc = interchange.multicat_to_json(mcv, dump)
    assert isinstance(doc["compose"], interchange._KeyGroups)
    assert len(doc["compose"]) == 4452


def test_keyed_composites_keep_the_text_of_a_kernel_error():
    # a composite family missing from its hom-set raises from _member as
    # compose raises it, not a refusal that leaves the composite out
    mcv = build_representing_multicategory(
        instances.get("heyting2").build(), Bounds(2)
    ).m
    x = mcv.objects()[0]
    want = str(mcv._not_natural((x, x), x))
    for key in [key for key in mcv._index if key[:2] == ((x, x), x)]:
        del mcv._index[key]
    with pytest.raises(KernelError) as got:
        list(mcv.keyed_composites(Bounds(2), None, interchange._Namer("m")))
    assert str(got.value) == want


def _represent_file(w, cap):
    """The text of the file `represent --arity-cap <cap>` writes for w."""
    return interchange.dumps(interchange.multicat_to_json(w.m, Bounds(cap + 1), w))


def _matches_the_base_file(monkeypatch, w, cap):
    got = _represent_file(w, cap)
    with monkeypatch.context() as mp:
        mp.setattr(
            RepresentingMulticat, "keyed_composites", Multicategory.keyed_composites
        )
        assert got == _represent_file(w, cap)


@pytest.mark.parametrize("cap", [2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_represent_file_is_the_one_the_base_walk_writes(monkeypatch, cap):
    w = build_representing_multicategory(instances.get("heyting2").build(), Bounds(cap))
    _matches_the_base_file(monkeypatch, w, cap)


@pytest.mark.parametrize("name", [ZERO, PRODUCT])
def test_represent_file_is_the_one_the_base_walk_writes_on(
    monkeypatch, witnesses, name
):
    _matches_the_base_file(monkeypatch, witnesses[name], CAPS.max_arity)


def test_represent_composes_once_per_check_not_per_composite(monkeypatch, tmp_path):
    # the dump of `represent --arity-cap 4` holds 59,940 composites; only
    # the representation checks call compose
    from closedcat import cli

    calls = []
    real = RepresentingMulticat.compose

    def counted(self, fs, g):
        calls.append(g)
        return real(self, fs, g)

    monkeypatch.setattr(RepresentingMulticat, "compose", counted)
    out = tmp_path / "rep.json"
    argv = ["represent", "instance:heyting2", "--arity-cap", "4", "--out", str(out)]
    assert cli.main(argv) == 0
    assert out.read_text().count("|") == 59940
    assert 0 < len(calls) <= 200


@pytest.mark.parametrize("name", NAMES)
def test_each_identity_family_is_found_once(name):
    # the multicategory laws ask for identities thousands of times; the
    # structure finds the family of each object once and keeps it
    mcv = build_representing_multicategory(instances.get(name).build(), CAPS).m
    assert check_multicategory_axioms(mcv, CAPS).ok
    info = mcv.identity.cache_info()
    assert info.misses == len(mcv.objects())
    assert info.hits > 100 * info.misses
    for x in mcv.objects():
        assert mcv.identity(x) is mcv._identity(x)


@pytest.mark.parametrize(
    "at_0,at_1",
    [
        # hom(1;1) of heyting2 holds one family, with components
        # (id_0, id_1): the first tuple agrees with it at the codomain
        # only, the second has a codomain entry of no family
        ("1", "1"),
        ("0", "0"),
    ],
)
def test_find_requires_every_component(witnesses, at_0, at_1):
    mcv = witnesses["heyting2"].m
    ident = mcv.base.cat.identity
    assert mcv.identity("1").components == (ident("0"), ident("1"))
    with pytest.raises(KernelError, match=r"missing from hom\(1;1\)"):
        mcv._find(("1",), "1", (ident(at_0), ident(at_1)))


def test_families_sharing_a_codomain_component_are_refused(monkeypatch):
    # the codomain component keys the index only while the representation
    # is a bijection; a duplicated family breaks it
    from closedcat import correspond

    real = correspond.enumerate_vnat_families
    monkeypatch.setattr(
        correspond,
        "enumerate_vnat_families",
        lambda *args: list(real(*args)) * 2,
    )
    with pytest.raises(KernelError, match="share their component"):
        build_representing_multicategory(instances.get("z2closed").build(), CAPS)
