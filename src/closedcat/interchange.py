"""Textual interchange formats for categories, closed structures, and
multicategories.

A category serializes as objects, hom table keyed "X,Y", composition
table keyed "f;g", and identity table.  Closed structures add the unit,
the internal hom tables (object part keyed "X,Y", morphism part keyed
"f,g"), and the i, i_inv, j, L tables.  Multicategories key hom-sets by
"X1,X2;Y" and composites by "f1,f2|g", so a name in a multicategory file
is non-empty and holds none of ",", ";" and "|"; an attached closedness
witness uses "X;Z" keys and the unit block names its object and nullary
morphism.

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
    hom_entry,
    require_declared,
    require_declared_keys,
)
from .errors import FormatError
from .multicat import Multicategory, TextKeyedMulticategory


class _Namer:
    def __init__(self, prefix: str):
        self.prefix = prefix
        self.names: dict = {}

    def __call__(self, item) -> str:
        if item not in self.names:
            self.names[item] = f"{self.prefix}{len(self.names)}"
        return self.names[item]


def category_to_json(cat: Category, bounds: Bounds = DEFAULT_BOUNDS) -> dict:
    return _category_doc(cat, bounds)[0]


def _category_doc(cat: Category, bounds: Bounds):
    """The category file of cat with the object and morphism namers that
    wrote it, so that a closed structure's file names its tables alike."""
    objs = guard_objects(cat, bounds)
    oname = _Namer("o")
    mname = _Namer("m")
    for x in objs:
        oname(x)
    hom = {}
    for x in objs:
        for y in objs:
            hom[f"{oname(x)},{oname(y)}"] = [mname(f) for f in cat.hom(x, y)]
    compose = {}
    for x in objs:
        for y in objs:
            for f in cat.hom(x, y):
                for z in objs:
                    for g in cat.hom(y, z):
                        compose[f"{mname(f)};{mname(g)}"] = mname(cat.compose(f, g))
    ids = {oname(x): mname(cat.identity(x)) for x in objs}
    doc = {
        "kind": "category",
        "name": cat.name,
        "objects": [oname(x) for x in objs],
        "hom": hom,
        "compose": compose,
        "id": ids,
    }
    return doc, oname, mname


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


def _table(doc: dict, *path: str, many: bool = False) -> dict:
    """The table at ``doc[path[0]][path[1]]...``, each value checked by
    ``_names`` under its key in the file's own syntax."""
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
    return table


def _keyed(doc: dict, *path: str, sep: str, parts: int, many: bool = False):
    """The entries of a table whose keys join ``parts`` names with ``sep``,
    as (tuple of key parts, value); a key with another number of parts
    raises a FormatError naming it."""
    for key, v in _table(doc, *path, many=many).items():
        split = tuple(key.split(sep))
        if len(split) != parts:
            raise _parts_error(".".join(path), key, parts, sep)
        yield split, v


def _parts_error(label: str, key: str, parts: int, sep: str) -> FormatError:
    return FormatError(
        f'{label} key "{key}" must have {parts} parts separated by "{sep}"'
    )


def _profile_keyed(table: dict, label: str, sep: str) -> dict:
    """The table ``label`` of a multicategory file, keyed "X1,...,Xn<sep>Y",
    as {((X1, ..., Xn), Y): value}.  The nullary key "<sep>Y" has the empty
    profile; a key with an empty name in its profile raises a FormatError
    naming it.  One flat loop over every key."""
    out = {}
    for key, v in table.items():
        split = key.split(sep)
        if len(split) != 2:
            raise _parts_error(label, key, 2, sep)
        left, y = split
        xs = tuple(left.split(",")) if left else ()
        if "" in xs:
            raise FormatError(f'{label} key "{key}" has an empty name')
        out[(xs, y)] = v
    return out


def _compose_keyed(table: dict) -> dict:
    """The compose table of a multicategory file as the file holds it,
    keyed "f1,...,fn|g", once its keys pass the grammar that
    ``_profile_keyed`` checks.  A dump holds tens of thousands of keys, so
    they are checked in C: every key holds a "|" and there are as many
    "|" as keys, so each holds exactly one; and their text, a line break
    before each key, holds no ",,", ",|" or line break before a ",".
    Only a table that this pass flags is walked key by key, and that walk
    alone raises, naming the first bad key; a flagged table that the walk
    accepts (",," in the outer name, say) is kept as it stands."""
    text = "\n" + "\n".join(table)
    if (
        text.count("|") != len(table)
        or not all(map(str.__contains__, table, itertools.repeat("|")))
        or ",," in text
        or ",|" in text
        or "\n," in text
    ):
        _profile_keyed(table, "compose", "|")
    return table


def _require_plain_names(table: dict, label) -> None:
    """Every name that ``table`` lists under a key is non-empty and holds
    none of the key separators ",", ";" and "|", so each key that the
    file's syntax writes names one entry; otherwise raise a FormatError
    naming the first bad name and ``label(key)``.  One pass in C over the
    joined names; only a bad table is walked in Python."""
    lists = table.values()
    text = "".join(itertools.chain.from_iterable(lists))
    if all(map(all, lists)) and not any(sep in text for sep in ",;|"):
        return
    for key, names in table.items():
        for x in names:
            if not x:
                raise FormatError(f"{label(key)} lists an empty name")
            for sep in ",;|":
                if sep in x:
                    raise FormatError(
                        f'{label(key)} lists "{x}", which contains "{sep}"'
                    )


def category_from_json(doc: dict) -> TabularCategory:
    try:
        return TabularCategory(
            _names("name", doc.get("name", "category")),
            _objects(doc),
            dict(_keyed(doc, "hom", sep=",", parts=2, many=True)),
            dict(_keyed(doc, "compose", sep=";", parts=2)),
            _table(doc, "id"),
        )
    except (KeyError, ValueError) as exc:
        raise FormatError(f"malformed category file: {exc}") from exc


def closed_ref_to_json(name: str, params: dict) -> dict:
    """Reference form for lazy instances: registry name plus parameters."""
    return {"kind": "closed-category", "ref": name, "params": params}


def closed_to_json(cs: ClosedStructure, bounds: Bounds = DEFAULT_BOUNDS) -> dict:
    objs = guard_objects(cs.cat, bounds)
    homs = (cs.hom2_obj(x, y) for x in objs for y in objs)
    if not set(objs).issuperset(homs):
        raise FormatError(
            f"{cs.name}: objects are not closed under internal homs; "
            "dump this structure by registry reference instead"
        )
    doc, oname, mname = _category_doc(cs.cat, bounds)
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


def _only_params(params: dict, ref: str, *takes: str) -> None:
    """A reference's params name only the keys it takes."""
    for key in params:
        if key not in takes:
            raise FormatError(
                f"params has unknown key {json.dumps(key)}; "
                f"{ref} takes {', '.join(takes) or 'no params'}"
            )


def closed_from_json(doc: dict) -> ClosedStructure:
    if "ref" in doc:
        from .setcat import build_finset_closed

        name = _names("ref", doc["ref"])
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise FormatError(f"params must be an object, got {json.dumps(params)}")
        if name == "finset":
            _only_params(params, name, "max_size")
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
        _only_params(params, name)
        return info.build()
    cat = category_from_json(doc)
    try:
        return tabular_closed(
            _names("name", doc.get("name", "closed")),
            cat,
            _names("unit", doc["unit"]),
            dict(_keyed(doc, "hom2", "obj", sep=",", parts=2)),
            dict(_keyed(doc, "hom2", "mor", sep=",", parts=2)),
            _table(doc, "i"),
            _table(doc, "i_inv"),
            _table(doc, "j"),
            dict(_keyed(doc, "L", sep=",", parts=3)),
        )
    except (KeyError, ValueError) as exc:
        raise FormatError(f"malformed closed-category file: {exc}") from exc


def multicat_to_json(
    m: Multicategory,
    bounds: Bounds = DEFAULT_BOUNDS,
    witness: ClosednessWitness | None = None,
) -> dict:
    oname = _Namer("o")
    mname = _Namer("m")
    objs = m.objects()
    for x in objs:
        oname(x)

    def hom_within(xs, y):
        return guard_hom(m, xs, y, bounds, partial=True)

    hom = {}
    for xs, y in m.signatures(bounds):
        fs = hom_within(xs, y)
        if not fs:
            continue  # empty hom-sets stay implicit
        hom[hom_entry((tuple(map(oname, xs)), oname(y)))] = [mname(f) for f in fs]
    names = mname.names

    def declared(label, entry, f) -> str:
        """The name of f, which a witness entry may use only once the hom
        section declares it, or the loader refuses the file."""
        if f not in names:
            raise FormatError(
                f'{m.name}: {label} entry "{entry}" names a morphism of arity '
                f"{len(m.dom(f))} that the file, written to arity "
                f"{bounds.max_arity}, does not declare"
            )
        return names[f]

    compose = {}
    for keys, out in m.keyed_composites(bounds, hom_within, names.__getitem__):
        if out in names:
            compose.update(dict.fromkeys(keys, names[out]))
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
        doc["ev"] = ev = {}
        for x, z in itertools.product(objs, repeat=2):
            if (x, z) in witness.ev1:
                entry = f"{oname(x)};{oname(z)}"
                ev[entry] = declared("ev", entry, witness.ev1[(x, z)])
        if witness.unit is not None:
            unit = witness.unit
            u = declared("unit", "u", unit.u)
            doc["unit"] = {"unit": oname(unit.unit), "u": u}
    return doc


def _pair_entry(key) -> str:
    """A witness key (x, z) in the file's syntax "x;z"."""
    return f"{key[0]};{key[1]}"


def _require_signature(name, label, entry, m, f, xs, y) -> None:
    """The morphism f that ``entry`` of table ``label`` names runs
    xs -> y; otherwise raise a FormatError naming the entry, with both
    signatures in the syntax of hom keys, "X1,X2;Y"."""
    if m.dom(f) != xs or m.cod(f) != y:
        have = hom_entry((m.dom(f), m.cod(f)))
        raise FormatError(
            f'{name}: {label} entry "{entry}" names "{f}" of signature "{have}", '
            f'needs "{hom_entry((xs, y))}"'
        )


def multicat_from_json(
    doc: dict,
) -> tuple[TextKeyedMulticategory, ClosednessWitness | None]:
    """The multicategory of a file and, if it has ``hom_obj``, its witness
    with the unit block, which is checked in either case."""
    try:
        homs = _table(doc, "hom", many=True)
        hom = _profile_keyed(homs, "hom", ";")
        _require_plain_names(homs, 'hom entry "{}"'.format)
        compose = _compose_keyed(_table(doc, "compose"))
        name = _names("name", doc.get("name", "multicategory"))
        objs = _objects(doc)
        _require_plain_names({"objects": objs}, str)
        m = TextKeyedMulticategory(name, objs, hom, compose, _table(doc, "id"))
        objects = set(m.objects())
        declared = {f for fs in hom.values() for f in fs}
        tables = None
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
            tables = (hom_obj1, ev1)
        unit = None
        if "unit" in doc:
            block = _table(doc, "unit")
            x, u = block["unit"], block["u"]
            require_declared(name, "unit", {"unit": x}, objects, what="object")
            require_declared(name, "unit", {"u": u}, declared)
            _require_signature(name, "unit", "u", m, u, (), x)
            unit = UnitWitness(x, u)
        if tables is None:
            return m, None
        return m, ClosednessWitness(m, *tables, unit)
    except (KeyError, ValueError) as exc:
        raise FormatError(f"malformed multicategory file: {exc}") from exc


def dumps(doc: dict) -> str:
    """The text of ``json.dumps(doc, indent=2, sort_keys=True)`` and a
    newline, for a document of dicts with string keys, lists, strings,
    ints, bools and None.  json.dumps runs its pure-Python encoder when it
    indents, so the layout is written here and each string goes through
    the C encoder."""
    out: list[str] = []
    _encode(doc, "\n", out)
    out.append("\n")
    return "".join(out)


_quote = json.encoder.encode_basestring_ascii


def _encode(v, pad: str, out: list[str]) -> None:
    """Append the text of v to out, where pad is the line break and indent
    that close v's own brackets."""
    if isinstance(v, str):
        out.append(_quote(v))
    elif v is None:
        out.append("null")
    elif v is True:
        out.append("true")
    elif v is False:
        out.append("false")
    elif isinstance(v, int):
        out.append(int.__repr__(v))
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for k in sorted(v):
            x = v[k]
            if isinstance(x, str):  # most entries: one chunk each
                out.append(f"{sep}{_quote(k)}: {_quote(x)}")
            else:
                out.append(f"{sep}{_quote(k)}: ")
                _encode(x, inner, out)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(v, list):
        if not v:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for x in v:
            out.append(sep)
            _encode(x, inner, out)
            sep = "," + inner
        out.append(pad + "]")
    else:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


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
