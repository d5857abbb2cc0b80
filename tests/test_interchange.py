"""Interchange files: parse-print round trips are the identity on the
abstract structure, every registry instance serializes, and a
multicategory file's compose table, kept keyed by its text, agrees with
the tuple-keyed parse of every key."""

import gc
import itertools
import json
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from closedcat import instances, interchange
from closedcat.closed import check_cc_axioms
from closedcat.core import Bounds, check_category_axioms
from closedcat.correspond import build_representing_multicategory
from closedcat.errors import BudgetExceeded, FormatError
from closedcat.multicat import TabularMulticategory, check_multicategory_axioms


def roundtrip_doc(doc: dict) -> dict:
    return json.loads(interchange.dumps(doc))


def test_category_roundtrip():
    cat = instances.get("broken-compose").build()
    doc = roundtrip_doc(interchange.category_to_json(cat))
    parsed = interchange.category_from_json(doc)
    doc2 = roundtrip_doc(interchange.category_to_json(parsed))
    assert doc == doc2
    # the corruption survives the round trip
    assert not check_category_axioms(parsed).ok


def test_closed_roundtrip_all_tabular():
    for name in ["terminal", "heyting2", "z2closed", "broken-j", "broken-hom2"]:
        cs = instances.get(name).build()
        doc = roundtrip_doc(interchange.closed_to_json(cs))
        parsed = interchange.closed_from_json(doc)
        doc2 = roundtrip_doc(interchange.closed_to_json(parsed))
        assert doc == doc2, name
        assert check_cc_axioms(parsed).ok == check_cc_axioms(cs).ok, name


def test_closed_lazy_instances_dump_by_reference():
    # nested hom objects of the lazy instance are not seed objects, so the
    # tabular dump refuses and the reference form round-trips instead
    cs = instances.get("finset").build()
    with pytest.raises(FormatError):
        interchange.closed_to_json(cs)
    doc = roundtrip_doc(interchange.closed_ref_to_json("finset", {"max_size": 2}))
    parsed = interchange.closed_from_json(doc)
    assert parsed.cat.name == "finset(2)"
    assert roundtrip_doc(interchange.closed_ref_to_json("finset", {"max_size": 2})) == doc


def test_multicat_roundtrip():
    caps = Bounds(3)
    for name in ["z2", "heyting2mc"]:
        m, w = instances.get(name).build()
        doc = roundtrip_doc(interchange.multicat_to_json(m, Bounds(4), w))
        m2, w2 = interchange.multicat_from_json(doc)
        doc2 = roundtrip_doc(interchange.multicat_to_json(m2, Bounds(4), w2))
        assert doc == doc2, name
        assert check_multicategory_axioms(m2, caps).ok


def test_multicat_keys_shape():
    m, w = instances.get("z2").build()
    doc = roundtrip_doc(interchange.multicat_to_json(m, Bounds(2), w))
    assert ";" in next(iter(doc["hom"]))
    assert any("|" in k for k in doc["compose"])
    assert doc["unit"]["unit"] in doc["objects"]


def test_malformed_files_raise():
    with pytest.raises(FormatError):
        interchange.loads("not json at all {")
    with pytest.raises(FormatError):
        interchange.loads(json.dumps({"no": "kind"}))
    with pytest.raises(FormatError):
        interchange.category_from_json({"kind": "category"})
    with pytest.raises(FormatError):
        interchange.multicat_from_json({"kind": "multicategory", "hom": {"bad": []}})


def test_every_registry_instance_serializes_and_roundtrips():
    from closedcat.errors import FormatError as FE

    for name, info in sorted(instances.REGISTRY.items()):
        built = info.build()
        if info.kind == "category":
            doc = roundtrip_doc(interchange.category_to_json(built))
            parsed = interchange.category_from_json(doc)
            assert roundtrip_doc(interchange.category_to_json(parsed)) == doc, name
        elif info.kind == "closed":
            try:
                doc = roundtrip_doc(interchange.closed_to_json(built))
            except FE:
                doc = roundtrip_doc(interchange.closed_ref_to_json(name, {"max_size": 2}))
                parsed = interchange.closed_from_json(doc)
                continue
            parsed = interchange.closed_from_json(doc)
            assert roundtrip_doc(interchange.closed_to_json(parsed)) == doc, name
        else:
            m, w = built
            caps = Bounds(min(3, info.max_arity) + 1)
            doc = roundtrip_doc(interchange.multicat_to_json(m, caps, w))
            m2, w2 = interchange.multicat_from_json(doc)
            assert roundtrip_doc(interchange.multicat_to_json(m2, caps, w2)) == doc, name


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


@pytest.mark.parametrize(
    "fixture,parse,edit,named",
    [
        (
            "broken-compose.json",
            interchange.category_from_json,
            lambda d: d["hom"].update({"o0,o1": 5}),
            'hom entry "o0,o1"',
        ),
        (
            "broken-j.json",
            interchange.closed_from_json,
            lambda d: d["hom2"]["obj"].update({"o0,o0": ["o0"]}),
            'hom2.obj entry "o0,o0"',
        ),
        (
            "broken-j.json",
            interchange.closed_from_json,
            lambda d: d.update(unit=0),
            "unit must be a name",
        ),
        (
            "z2mc-badcompose.json",
            interchange.multicat_from_json,
            lambda d: d["compose"].update({"m0,m0,m0|m6": None}),
            'compose entry "m0,m0,m0|m6"',
        ),
    ],
    ids=["category-hom", "closed-hom2", "closed-unit", "multicat-compose"],
)
def test_wrong_typed_values_name_their_entry(fixture, parse, edit, named):
    doc = json.loads((FIXTURES / fixture).read_text())
    edit(doc)
    with pytest.raises(FormatError, match=re.escape(named)):
        parse(doc)


def test_multicat_dump_skips_refused_signatures_but_bounds_hom_sets():
    # freemon3 refuses every signature whose tensor passes length three
    m, _ = instances.get("freemon3").build()
    with pytest.raises(BudgetExceeded, match="tensor undefined"):
        m.hom(("x3", "x1"), "x0")
    doc = interchange.multicat_to_json(m, Bounds(4))
    assert "o3,o1;o0" not in doc["hom"]
    with pytest.raises(BudgetExceeded, match="over budget"):
        interchange.multicat_to_json(m, Bounds(3, max_homset=0))


# Keys and strings mix ASCII, escapes ("\\", quotes, control characters)
# and characters outside ASCII, inside and outside the BMP.
TEXT = st.text(st.sampled_from('_ab"\\/\n\t\x00\x7fé€𝄞'), max_size=4)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(TEXT, JSON, max_size=5))
def test_dumps_is_json_dumps_with_an_indent(doc):
    # empty dicts and lists, nesting, escapes, ints, bools and None all
    # print as json.dumps prints them, every key included
    want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert interchange.dumps(doc) == want


def test_dumps_refuses_what_json_cannot_write():
    with pytest.raises(TypeError, match="set"):
        interchange.dumps({"kind": {1}})


# -- compose tables read as the file keys them -------------------------------


def _oracle_keyed(table: dict, label: str, sep: str) -> dict:
    """The tuple-keyed parse of a multicategory table, key by key: each key
    "X1,...,Xn<sep>Y" to ((X1, ..., Xn), Y), raising the loader's message
    at the first key without one separator or with an empty name in its
    profile."""
    out = {}
    for key, v in table.items():
        split = key.split(sep)
        if len(split) != 2:
            raise FormatError(
                f'{label} key "{key}" must have 2 parts separated by "{sep}"'
            )
        left, y = split
        xs = tuple(left.split(",")) if left else ()
        if "" in xs:
            raise FormatError(f'{label} key "{key}" has an empty name')
        out[(xs, y)] = v
    return out


def _oracle_multicat(doc: dict) -> TabularMulticategory:
    return TabularMulticategory(
        doc["name"],
        doc["objects"],
        _oracle_keyed(doc["hom"], "hom", ";"),
        _oracle_keyed(doc["compose"], "compose", "|"),
        doc["id"],
    )


def _represent_text(cap: int) -> str:
    """The file `represent instance:heyting2 --arity-cap <cap>` writes."""
    w = build_representing_multicategory(instances.get("heyting2").build(), Bounds(cap))
    return interchange.dumps(interchange.multicat_to_json(w.m, Bounds(cap + 1), w))


def _represent_doc(cap: int) -> dict:
    return json.loads(_represent_text(cap))


def _instance_text(name: str) -> str:
    """The file `instance dump <name>` writes."""
    info = instances.get(name)
    m, w = info.build()
    return interchange.dumps(
        interchange.multicat_to_json(m, Bounds(info.max_arity + 1), w)
    )


def _instance_doc(name: str) -> dict:
    return json.loads(_instance_text(name))


MULTICATS = sorted(n for n, i in instances.REGISTRY.items() if i.kind == "multicat")


@pytest.mark.parametrize(
    "source",
    [
        *MULTICATS,
        "represent-2",
        "represent-3",
        "represent-4",
        pytest.param("represent-5", marks=pytest.mark.slow),
    ],
)
def test_written_multicategory_file_is_json_dumps_text(source):
    # the compose section, written a group of keys at a time (one key a
    # group in an instance dump, many in a represent file), is the text
    # json.dumps writes for the object of its entries
    kind, _, cap = source.partition("-")
    text = _represent_text(int(cap)) if kind == "represent" else _instance_text(source)
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


def _missing_composites(oracle: TabularMulticategory):
    """Composites that no file entry holds: each entry with its last input
    dropped or doubled, an undeclared input, and every well-typed
    (f, 1, ..., 1).g past the file's arity horizon, for g of arity at
    least two and f of the horizon's arity."""
    n = max(len(xs) for xs, _ in oracle._hom)
    for fs, g in oracle._compose:
        if fs:
            yield fs[:-1], g
            yield fs + fs[-1:], g
        yield ("undeclared",) + fs[1:], g
    for (ys, _), gs in oracle._hom.items():
        if len(ys) < 2:
            continue
        ones = tuple(map(oracle.identity, ys[1:]))
        for (xs, y), fs in oracle._hom.items():
            if len(xs) == n and y == ys[0]:
                for f, g in itertools.product(fs, gs):
                    yield (f,) + ones, g


@pytest.mark.parametrize(
    "source",
    [
        "represent-2",
        "represent-3",
        "represent-4",
        "z2mc-badcompose",
        "z2",
        "heyting2mc",
    ],
)
def test_file_compose_agrees_with_tuple_keyed_oracle(source):
    kind, _, arg = source.partition("-")
    if kind == "represent":
        doc = _represent_doc(int(arg))
    elif source == "z2mc-badcompose":
        doc = json.loads((FIXTURES / "z2mc-badcompose.json").read_text())
    else:
        doc = _instance_doc(source)
    m, _ = interchange.multicat_from_json(doc)
    oracle = _oracle_multicat(doc)
    assert m._compose is doc["compose"]  # the file's table, not a copy
    assert len(m._compose) == len(oracle._compose)
    for (fs, g), out in oracle._compose.items():
        assert m.compose(fs, g) == out
    missing = 0
    for fs, g in _missing_composites(oracle):
        assert (fs, g) not in oracle._compose
        with pytest.raises(FormatError) as want:
            oracle.compose(fs, g)
        with pytest.raises(FormatError) as got:
            m.compose(fs, g)
        assert str(got.value) == str(want.value)
        missing += 1
    assert missing > len(oracle._compose)


# Keys of compose tables: a profile and an outer name joined by "|", each
# name drawn from a few names, the empty name, a name with a line break
# and names that hold a separator; and free mixtures of names, separators
# and line breaks, some without a "|".  A table mixes both kinds, so a
# single bad key is often the only one.
NAME = st.sampled_from(["m0", "m1", "a\nb", "", "m0|m1", "m0,m1"])
JOINED = st.builds(
    lambda fs, g: ",".join(fs) + "|" + g, st.lists(NAME, max_size=3), NAME
)
MIXED = st.lists(st.sampled_from(["m0", "a\nb", ",", "|", ""]), max_size=6).map(
    "".join
)


@settings(max_examples=1000, deadline=None)
@given(st.dictionaries(JOINED | MIXED, st.just("m0"), max_size=4))
def test_compose_key_check_is_the_per_key_walk(compose):
    doc = {
        "kind": "multicategory",
        "name": "t",
        "objects": ["o"],
        "hom": {"o;o": ["m0"], "o,o;o": ["m1"]},
        "compose": compose,
        "id": {"o": "m0"},
    }
    try:
        _oracle_keyed(compose, "compose", "|")
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            interchange.multicat_from_json(doc)
        assert str(got.value) == str(exc)
    else:
        m, _ = interchange.multicat_from_json(doc)
        assert m._compose is compose


def test_dump_refuses_a_unit_its_hom_section_does_not_declare(monkeypatch):
    # a hom-set the dump lists as empty leaves u undeclared, and a file
    # naming it would fail its own check
    m, w = instances.get("z2").build()
    real = type(m).hom
    monkeypatch.setattr(
        type(m), "hom", lambda self, xs, y: real(self, xs, y) if xs else ()
    )
    with pytest.raises(FormatError) as got:
        interchange.multicat_to_json(m, Bounds(3), w)
    assert str(got.value) == (
        'z2: unit entry "u" names a morphism of arity 0 that the file, '
        "written to arity 3, does not declare"
    )


def test_loader_retains_a_fifth_of_the_tuple_keyed_parse():
    doc = _represent_doc(3)
    assert len(doc["compose"]) == 5971

    def retained(parse):
        gc.collect()
        tracemalloc.start()
        try:
            kept = parse(doc)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del kept
        return size

    oracle = retained(_oracle_multicat)
    loaded = retained(interchange.multicat_from_json)
    assert loaded * 5 <= oracle, (loaded, oracle)
