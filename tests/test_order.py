"""The order contract: every structure enumerates its objects and hom-sets
in its canonical order, fixed when it is built, so no consumer sorts them
again.  Tabular structures read from a file take ``name_key`` order
(length, then text) whatever order the file lists, which is the order a
dump writes.  A walk of the source keeps the per-consumer sort keys from
coming back."""

import ast
from pathlib import Path

from closedcat.core import Bounds, check_category_axioms
from closedcat.interchange import (
    category_from_json,
    category_to_json,
    multicat_from_json,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "closedcat"

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


# -- ratchet: no consumer-side sort keys --------------------------------------

# Category.obj_key stays: the benchmark's ek summary (perfbench/worker.py)
# sorts a normalized category's objects by ``w.cat.obj_key`` and that
# output is golden-digested.  It is the position in objects(), which is
# the canonical order of every category, so no category refines it.
OBJ_KEY_OWNERS = {"Category.obj_key"}


def _sort_key_uses(source: str) -> set[str]:
    """Where ``source`` names mor_key at all, or defines or reads obj_key
    outside OBJ_KEY_OWNERS: the qualified name of the enclosing function or
    class, or "<module>"."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
            if node.name == "mor_key" or (
                node.name == "obj_key" and inner not in OBJ_KEY_OWNERS
            ):
                found.add(inner)
            scope = inner
        name = None
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.asname or node.name
        if name == "mor_key" or (name == "obj_key" and scope not in OBJ_KEY_OWNERS):
            found.add(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_the_walk_finds_sort_keys():
    source = '''
from .core import obj_key

class Category:
    def obj_key(self, x):
        return self.objects().index(x)

class _WCategory(Category):
    def obj_key(self, x):
        return self._base.obj_key(x)

class Other(Category):
    def obj_key(self, x):
        return x

    def mor_key(self, f):
        return f

def consumer(cat):
    return sorted(cat.objects(), key=cat.obj_key)

def bijection(table, target, cat):
    return bijective(table, target, cat.mor_key)

def fine(cat):
    return cat.objects()
'''
    assert _sort_key_uses(source) == {
        "<module>",
        "_WCategory.obj_key",
        "Other.obj_key",
        "Other.mor_key",
        "consumer",
        "bijection",
    }


def test_no_consumer_sorts_by_a_structure_key():
    found = {
        f"{path.name}:{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _sort_key_uses(path.read_text())
    }
    assert not found
