"""Textual interchange formats for categories, closed structures, and
multicategories.

A category serializes as objects, hom table keyed "X,Y", composition
table keyed "f;g", and identity table.  Closed structures add the unit,
the internal hom tables (object part keyed "X,Y", morphism part keyed
"f,g"), and the i, i_inv, j, L tables.  Multicategories key hom-sets by
"X1,X2;Y" and composites by "f1,f2|g"; an attached closedness witness
uses "X;Z" keys and the unit block names its object and nullary morphism.

Serialization renames every object and morphism to a stable generated
name, so structures whose native identifiers are not plain strings (lazy
sets, transported points, enriched families) dump uniformly.  Bit
equality is not promised across dump/parse/dump; identity of the abstract
structure is, and the test suite checks it.
"""

from __future__ import annotations

import itertools
import json

from .closed import ClosedStructure, tabular_closed
from .closedmc import ClosednessWitness, UnitWitness
from .core import (
    DEFAULT_BOUNDS,
    Bounds,
    Category,
    TabularCategory,
    guard_hom,
    guard_objects,
    require_declared,
    require_declared_keys,
)
from .errors import BudgetExceeded, FormatError
from .multicat import (
    Multicategory,
    TabularMulticategory,
    _composables,
)


class _Namer:
    def __init__(self, prefix: str):
        self.prefix = prefix
        self.names: dict = {}

    def __call__(self, item) -> str:
        if item not in self.names:
            self.names[item] = f"{self.prefix}{len(self.names)}"
        return self.names[item]


def category_to_json(cat: Category, bounds: Bounds = DEFAULT_BOUNDS) -> dict:
    objs = sorted(guard_objects(cat, bounds), key=cat.obj_key)
    oname = _Namer("o")
    mname = _Namer("m")
    for x in objs:
        oname(x)
    hom = {}
    for x in objs:
        for y in objs:
            fs = sorted(cat.hom(x, y), key=cat.mor_key)
            hom[f"{oname(x)},{oname(y)}"] = [mname(f) for f in fs]
    compose = {}
    for x in objs:
        for y in objs:
            for f in cat.hom(x, y):
                for z in objs:
                    for g in cat.hom(y, z):
                        compose[f"{mname(f)};{mname(g)}"] = mname(cat.compose(f, g))
    ids = {oname(x): mname(cat.identity(x)) for x in objs}
    return {
        "kind": "category",
        "name": cat.name,
        "objects": [oname(x) for x in objs],
        "hom": hom,
        "compose": compose,
        "id": ids,
        "_namer": (oname, mname),
    }


def _strip(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if not k.startswith("_")}


def _names(label: str, v, many: bool = False):
    """A file value that must be a name, or a list of names when ``many``;
    anything else raises a FormatError that says where it sits."""
    if many:
        ok = isinstance(v, list) and all(isinstance(x, str) for x in v)
    else:
        ok = isinstance(v, str)
    if not ok:
        want = "a list of names" if many else "a name"
        raise FormatError(f"{label} must be {want}, got {json.dumps(v)}")
    return v


def _objects(doc: dict) -> list:
    """The ``objects`` list of a structure file, each name once."""
    objs = _names("objects", doc["objects"], many=True)
    seen = set()
    for x in objs:
        if x in seen:
            raise FormatError(f'objects lists "{x}" twice')
        seen.add(x)
    return objs


def _entries(doc: dict, *path: str, many: bool = False):
    """The entries of the table at ``doc[path[0]][path[1]]...``, each value
    checked by ``_names`` under its key in the file's own syntax."""
    table = doc
    for depth, part in enumerate(path, 1):
        table = table[part]
        if not isinstance(table, dict):
            raise FormatError(
                f"{'.'.join(path[:depth])} must be an object, got {json.dumps(table)}"
            )
    # One pass over the value types in C; only a bad table is walked in
    # Python, to name the entry.
    if many or not set(map(type, table.values())) <= {str}:
        label = ".".join(path)
        for key, v in table.items():
            _names(f'{label} entry "{key}"', v, many)
    return table.items()


def _keyed(doc: dict, *path: str, sep: str, parts: int, many: bool = False):
    """The entries of a table whose keys join ``parts`` names with ``sep``,
    as (tuple of key parts, value); a key with another number of parts
    raises a FormatError naming it."""
    for key, v in _entries(doc, *path, many=many):
        split = tuple(key.split(sep))
        if len(split) != parts:
            raise FormatError(
                f'{".".join(path)} key "{key}" must have {parts} parts '
                f'separated by "{sep}"'
            )
        yield split, v


def category_from_json(doc: dict) -> TabularCategory:
    try:
        return TabularCategory(
            doc.get("name", "category"),
            _objects(doc),
            dict(_keyed(doc, "hom", sep=",", parts=2, many=True)),
            dict(_keyed(doc, "compose", sep=";", parts=2)),
            dict(_entries(doc, "id")),
        )
    except (KeyError, ValueError) as exc:
        raise FormatError(f"malformed category file: {exc}") from exc


def closed_ref_to_json(name: str, params: dict | None = None) -> dict:
    """Reference form for lazy instances: registry name plus parameters."""
    return {"kind": "closed-category", "ref": name, "params": params or {}}


def closed_to_json(cs: ClosedStructure, bounds: Bounds = DEFAULT_BOUNDS) -> dict:
    objs = sorted(guard_objects(cs.cat, bounds), key=cs.cat.obj_key)
    homs = (cs.hom2_obj(x, y) for x in objs for y in objs)
    if not set(objs).issuperset(homs):
        raise FormatError(
            f"{cs.name}: objects are not closed under internal homs; "
            "dump this structure by registry reference instead"
        )
    doc = category_to_json(cs.cat, bounds)
    oname, mname = doc.pop("_namer")
    mors = [f for f in cs.cat.all_morphisms()]
    doc["kind"] = "closed-category"
    doc["unit"] = oname(cs.unit)
    doc["hom2"] = {
        "obj": {
            f"{oname(x)},{oname(y)}": oname(cs.hom2_obj(x, y))
            for x in objs
            for y in objs
        },
        "mor": {
            f"{mname(f)},{mname(g)}": mname(cs.hom2_mor(f, g))
            for f in mors
            for g in mors
        },
    }
    doc["i"] = {oname(x): mname(cs.i(x)) for x in objs}
    doc["i_inv"] = {oname(x): mname(cs.i_inv(x)) for x in objs}
    doc["j"] = {oname(x): mname(cs.j(x)) for x in objs}
    doc["L"] = {
        f"{oname(x)},{oname(y)},{oname(z)}": mname(cs.L(x, y, z))
        for x in objs
        for y in objs
        for z in objs
    }
    return doc


def closed_from_json(doc: dict) -> ClosedStructure:
    if "ref" in doc:
        from .setcat import build_finset_closed

        name = _names("ref", doc["ref"])
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise FormatError(f"params must be an object, got {json.dumps(params)}")
        if name == "finset":
            size = params.get("max_size", 2)
            if type(size) is not int or size < 1:
                raise FormatError(
                    "params.max_size must be an integer of at least 1, "
                    f"got {json.dumps(size)}"
                )
            return build_finset_closed(size)
        from . import instances

        info = instances.get(name)
        if info.kind != "closed":
            raise FormatError(f"referenced instance {name!r} is not closed")
        return info.build()
    cat = category_from_json(doc)
    try:
        return tabular_closed(
            doc.get("name", "closed"),
            cat,
            _names("unit", doc["unit"]),
            dict(_keyed(doc, "hom2", "obj", sep=",", parts=2)),
            dict(_keyed(doc, "hom2", "mor", sep=",", parts=2)),
            dict(_entries(doc, "i")),
            dict(_entries(doc, "i_inv")),
            dict(_entries(doc, "j")),
            dict(_keyed(doc, "L", sep=",", parts=3)),
        )
    except (KeyError, ValueError) as exc:
        raise FormatError(f"malformed closed-category file: {exc}") from exc


def multicat_to_json(
    m: Multicategory,
    bounds: Bounds = DEFAULT_BOUNDS,
    witness: ClosednessWitness | None = None,
    unit: UnitWitness | None = None,
) -> dict:
    oname = _Namer("o")
    mname = _Namer("m")
    objs = sorted(m.objects(), key=m.obj_key)
    for x in objs:
        oname(x)

    def hom_within(xs, y):
        return guard_hom(m, xs, y, bounds, partial=True)

    hom = {}
    for xs, y in m.signatures(bounds):
        fs = sorted(hom_within(xs, y), key=m.mor_key)
        if not fs:
            continue  # empty hom-sets stay implicit
        key = ",".join(oname(x) for x in xs) + ";" + oname(y)
        hom[key] = [mname(f) for f in fs]
    compose = {}
    names = mname.names
    for g, _, fs in _composables(m, bounds, hom_within):
        try:
            out = m.compose(fs, g)
        except (ValueError, BudgetExceeded, FormatError):
            continue  # outside this structure's tabulated horizon
        if out in names:
            key = ",".join(map(names.__getitem__, fs)) + "|" + names[g]
            compose[key] = names[out]
    doc = {
        "kind": "multicategory",
        "name": m.name,
        "objects": [oname(x) for x in objs],
        "hom": hom,
        "compose": compose,
        "id": {oname(x): mname(m.identity(x)) for x in objs},
    }
    if witness is not None:
        doc["hom_obj"] = {
            f"{oname(x)};{oname(z)}": oname(witness.hom_obj1[(x, z)])
            for x in objs
            for z in objs
            if (x, z) in witness.hom_obj1
        }
        doc["ev"] = {
            f"{oname(x)};{oname(z)}": mname(witness.ev1[(x, z)])
            for x in objs
            for z in objs
            if (x, z) in witness.ev1
        }
    if unit is not None:
        doc["unit"] = {"unit": oname(unit.unit), "u": mname(unit.u)}
    return doc


def _pair_entry(key) -> str:
    """A witness key (x, z) in the file's syntax "x;z"."""
    return f"{key[0]};{key[1]}"


def _require_signature(name, label, entry, m, f, xs, y) -> None:
    """The morphism f that ``entry`` of table ``label`` names runs
    xs -> y; otherwise raise a FormatError naming the entry, with both
    signatures in the syntax of hom keys, "X1,X2;Y"."""
    if m.dom(f) != xs or m.cod(f) != y:
        have = ",".join(m.dom(f)) + ";" + m.cod(f)
        raise FormatError(
            f'{name}: {label} entry "{entry}" names "{f}" of signature "{have}", '
            f'needs "{",".join(xs)};{y}"'
        )


def multicat_from_json(
    doc: dict,
) -> tuple[TabularMulticategory, ClosednessWitness | None, UnitWitness | None]:
    try:
        hom = {}
        for (left, y), fs in _keyed(doc, "hom", sep=";", parts=2, many=True):
            hom[(tuple(p for p in left.split(",") if p), y)] = fs
        compose = {}
        for (left, g), h in _keyed(doc, "compose", sep="|", parts=2):
            compose[(tuple(p for p in left.split(",") if p), g)] = h
        name = doc.get("name", "multicategory")
        m = TabularMulticategory(
            name,
            _objects(doc),
            hom,
            compose,
            dict(_entries(doc, "id")),
        )
        objects = set(m.objects())
        declared = {f for fs in hom.values() for f in fs}
        witness = None
        if "hom_obj" in doc:
            hom_obj1 = dict(_keyed(doc, "hom_obj", sep=";", parts=2))
            ev1 = dict(_keyed(doc, "ev", sep=";", parts=2)) if "ev" in doc else {}
            for label, table in (("hom_obj", hom_obj1), ("ev", ev1)):
                require_declared_keys(name, label, table, objects, show=_pair_entry)
            require_declared(
                name, "hom_obj", hom_obj1, objects, _pair_entry, what="object"
            )
            require_declared(name, "ev", ev1, declared, _pair_entry)
            for key in itertools.product(m.objects(), repeat=2):
                for label, table in (("hom_obj", hom_obj1), ("ev", ev1)):
                    if key not in table:
                        raise FormatError(
                            f'{name}: {label} table has no entry "{_pair_entry(key)}"'
                        )
                x, z = key
                _require_signature(
                    name, "ev", _pair_entry(key), m, ev1[key], (x, hom_obj1[key]), z
                )
            witness = ClosednessWitness(m, hom_obj1, ev1)
        unit = None
        if "unit" in doc:
            block = dict(_entries(doc, "unit"))
            x, u = block["unit"], block["u"]
            require_declared(name, "unit", {"unit": x}, objects, what="object")
            require_declared(name, "unit", {"u": u}, declared)
            _require_signature(name, "unit", "u", m, u, (), x)
            unit = UnitWitness(x, u)
        return m, witness, unit
    except (KeyError, ValueError) as exc:
        raise FormatError(f"malformed multicategory file: {exc}") from exc


def dumps(doc: dict) -> str:
    return json.dumps(_strip(doc), indent=2, sort_keys=True) + "\n"


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError("missing 'kind' field")
    return doc


REPORT_SCHEMA = {
    "type": "object",
    "required": ["title", "items", "summary"],
    "properties": {
        "title": {"type": "string"},
        "items": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["check", "anchor", "status", "locus"],
                "properties": {
                    "check": {"type": "string"},
                    "anchor": {"type": "string"},
                    "status": {"enum": ["pass", "fail", "skipped"]},
                    "locus": {"type": "string"},
                },
            },
        },
        "summary": {
            "type": "object",
            "properties": {
                "pass": {"type": "integer"},
                "fail": {"type": "integer"},
                "skipped": {"type": "integer"},
            },
        },
    },
}
