"""The order contract: every structure enumerates its objects and hom-sets
in its canonical order, fixed when it is built, so no consumer sorts them
again.  Tabular structures read from a file take ``name_key`` order
(length, then text) whatever order the file lists, which is the order a
dump writes.  The ``sort-keys`` rule of ``tests/policy.py`` keeps the
per-consumer sort keys from coming back."""

from closedcat.core import Bounds, check_category_axioms
from closedcat.interchange import (
    category_from_json,
    category_to_json,
    multicat_from_json,
)

NAMES = [f"o{k}" for k in range(11)]
SHUFFLED = sorted(NAMES, reverse=True)  # o9, o8, ..., o10, o1, o0


def _category_doc(objects, hom, compose, ids, name="order"):
    return {
        "kind": "category",
        "name": name,
        "objects": objects,
        "hom": hom,
        "compose": compose,
        "id": ids,
    }


def test_a_category_file_loads_in_name_key_order():
    hom = {f"{x},{x}": [f"i{x}"] for x in SHUFFLED}
    hom["o0,o1"] = ["m10", "m2"]
    compose = {f"i{x};i{x}": f"i{x}" for x in NAMES}
    compose.update({f"io0;{f}": f for f in ("m2", "m10")})
    compose.update({f"{f};io1": f for f in ("m2", "m10")})
    cat = category_from_json(
        _category_doc(SHUFFLED, hom, compose, {x: f"i{x}" for x in SHUFFLED})
    )
    assert list(cat.objects()) == NAMES
    assert cat.hom("o0", "o1") == ("m2", "m10")
    assert check_category_axioms(cat).ok
    doc = category_to_json(cat)
    assert doc["objects"] == NAMES  # renamed o_k -> o_k: the dump's order
    assert doc["hom"]["o0,o1"] == ["m1", "m2"]


def test_a_multicategory_file_loads_in_name_key_order():
    hom = {f"{x};{x}": [f"i{x}"] for x in SHUFFLED}
    hom["o0,o2;o1"] = ["m10", "m2"]
    m, w = multicat_from_json(
        {
            "kind": "multicategory",
            "name": "order",
            "objects": SHUFFLED,
            "hom": hom,
            "compose": {},
            "id": {x: f"i{x}" for x in SHUFFLED},
        }
    )
    assert w is None
    assert list(m.objects()) == NAMES
    assert m.hom(("o0", "o2"), "o1") == ("m2", "m10")
    assert [y for _, y in m.signatures(Bounds(0))] == NAMES


def test_failure_loci_of_an_eleven_object_category_come_in_name_key_order():
    # Every object's identity is n0's, so the identity endpoints fail at
    # n1..n10; the str order would list n10 after n1.
    objs = [f"n{k}" for k in range(11)]
    doc = _category_doc(
        sorted(objs), {"n0,n0": ["1"]}, {"1;1": "1"}, {x: "1" for x in objs}
    )
    rep = check_category_axioms(category_from_json(doc))
    loci = [it.locus for it in rep.failures()]
    assert loci == [f"endpoints {x}" for x in objs[1:]]
    assert {it.check for it in rep.failures()} == {"category/identity"}
