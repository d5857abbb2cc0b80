"""Interchange files: parse-print round trips are the identity on the
abstract structure, and every registry instance serializes."""

import json
import re
from pathlib import Path

import pytest

from closedcat import instances, interchange
from closedcat.closed import check_cc_axioms
from closedcat.core import Bounds, check_category_axioms
from closedcat.errors import BudgetExceeded, FormatError
from closedcat.multicat import check_multicategory_axioms


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
        m, w, uw = instances.get(name).build()
        doc = roundtrip_doc(interchange.multicat_to_json(m, Bounds(4), w, uw))
        m2, w2, uw2 = interchange.multicat_from_json(doc)
        doc2 = roundtrip_doc(interchange.multicat_to_json(m2, Bounds(4), w2, uw2))
        assert doc == doc2, name
        assert check_multicategory_axioms(m2, caps).ok


def test_multicat_keys_shape():
    m, w, uw = instances.get("z2").build()
    doc = interchange.multicat_to_json(m, Bounds(2), w, uw)
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
            m, w, uw = built
            caps = Bounds(min(3, info.max_arity) + 1)
            doc = roundtrip_doc(interchange.multicat_to_json(m, caps, w, uw))
            m2, w2, uw2 = interchange.multicat_from_json(doc)
            assert roundtrip_doc(interchange.multicat_to_json(m2, caps, w2, uw2)) == doc, name


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
    m, _, _ = instances.get("freemon3").build()
    with pytest.raises(BudgetExceeded, match="tensor undefined"):
        m.hom(("x3", "x1"), "x0")
    doc = interchange.multicat_to_json(m, Bounds(4))
    assert "o3,o1;o0" not in doc["hom"]
    with pytest.raises(BudgetExceeded, match="over budget"):
        interchange.multicat_to_json(m, Bounds(3, max_homset=0))
