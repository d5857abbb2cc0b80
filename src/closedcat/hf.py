"""Hereditarily finite values: the carrier universe for set-based instances.

A value is an atom, a finite set, or a finite function table.  Values
are immutable and hashable, and equality is extensional: two tables are
equal exactly when their domains agree as sets and their images agree
pointwise.  Sets and tables are stored as frozensets, so
ordering of construction never influences equality or hashing.  A set
also keeps its elements in canonical (hf_key) order, fixed when it is
built, so iterating it in that order never sorts.
"""

from __future__ import annotations

import itertools
from typing import Iterable

ATOM = "atom"
SET = "set"
TABLE = "table"

_KIND_RANK = {ATOM: 0, SET: 1, TABLE: 2}


class HF:
    """One hereditarily finite value. Construct via atom/fset/ftable.

    Immutable: setting or deleting an attribute raises."""

    # kind and payload; a table's entries as a key -> value dict, kept
    # from ftable's single-valuedness check (lookup); a set's elements in
    # hf_key order, fixed when the set is built (order); the hash.  lookup
    # and order are None for the other kinds.
    __slots__ = ("kind", "payload", "lookup", "order", "_hash")

    def __init__(self, kind: str, payload: object, lookup=None, order=None):
        # Values are compared constantly in the checkers; caching the hash
        # at construction keeps deep-table comparisons cheap.
        _set_kind(self, kind)
        _set_payload(self, payload)
        _set_lookup(self, lookup)
        _set_order(self, order)
        _set_hash(self, hash((kind, payload)))

    def __setattr__(self, name, value):
        raise AttributeError(f"HF values are immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"HF values are immutable: cannot delete {name}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, HF):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return self.kind == other.kind and self.payload == other.payload

    def __repr__(self) -> str:
        return pretty(self)

    # Accessors raise on kind mismatch so misuse fails early and loudly.
    @property
    def name(self) -> str:
        if self.kind != ATOM:
            raise TypeError(f"not an atom: {pretty(self)}")
        return self.payload  # type: ignore[return-value]

    @property
    def elements(self) -> frozenset["HF"]:
        if self.kind != SET:
            raise TypeError(f"not a set: {pretty(self)}")
        return self.payload  # type: ignore[return-value]

    @property
    def pairs(self) -> frozenset[tuple["HF", "HF"]]:
        if self.kind != TABLE:
            raise TypeError(f"not a table: {pretty(self)}")
        return self.payload  # type: ignore[return-value]

    def apply(self, arg: "HF") -> "HF":
        """Look up a table at a point of its domain."""
        if self.kind != TABLE:
            raise TypeError(f"not a table: {pretty(self)}")
        v = self.lookup.get(arg)
        if v is None:
            raise KeyError(f"{pretty(arg)} not in domain of {pretty(self)}")
        return v


# The slots' own setters, which __init__ writes through past __setattr__.
_set_kind, _set_payload, _set_lookup, _set_order, _set_hash = (
    getattr(HF, slot).__set__ for slot in HF.__slots__
)


def atom(name: str) -> HF:
    if not isinstance(name, str):
        raise TypeError("atom name must be a string")
    return HF(ATOM, name)


def fset(elements: Iterable[HF]) -> HF:
    elems = frozenset(elements)
    _check_all(elems)
    return HF(SET, elems, order=tuple(sorted(elems, key=hf_key)))


def function_space(a: HF, b: HF) -> HF:
    """The set of all function tables from the set a to the set b.

    The tables come out of ``itertools.product`` over b's sorted elements
    on a's sorted domain, which is already their hf_key order: two tables
    on one domain compare by their images in domain order.  So the set
    keeps that order and sorts nothing.  The keys are a's distinct
    elements and the images b's, both checked by fset, so each table is
    built without ftable's per-entry checks."""
    dom = sorted_elements(a)
    images = itertools.product(sorted_elements(b), repeat=len(dom))
    entries = (tuple(zip(dom, image)) for image in images)
    tables = tuple(HF(TABLE, frozenset(e), dict(e)) for e in entries)
    return HF(SET, frozenset(tables), order=tables)


def ftable(pairs: Iterable[tuple[HF, HF]]) -> HF:
    """Function table. The mapping must be single-valued on its domain."""
    entries = frozenset((k, v) for k, v in pairs)
    seen: dict[HF, HF] = {}
    for k, v in entries:
        _check_one(k)
        _check_one(v)
        if k in seen and seen[k] != v:
            raise ValueError(f"table not single-valued at {pretty(k)}")
        seen[k] = v
    return HF(TABLE, entries, seen)


def _check_one(v: object) -> None:
    if not isinstance(v, HF):
        raise TypeError(f"expected HF value, got {type(v).__name__}")


def _check_all(vs: Iterable[object]) -> None:
    for v in vs:
        _check_one(v)


def hf_equal(a: HF, b: HF) -> bool:
    """Extensional equality, by explicit structural recursion.

    This is the reference comparison: tables are compared domain-as-set
    plus pointwise images.  It must agree with ``==`` (which compares the
    frozenset payloads directly); the test suite checks the agreement.
    """
    if a.kind != b.kind:
        return False
    if a.kind == ATOM:
        return a.name == b.name
    if a.kind == SET:
        return _set_covers(a.elements, b.elements) and _set_covers(
            b.elements, a.elements
        )
    dom_a = {k for k, _ in a.pairs}
    dom_b = {k for k, _ in b.pairs}
    if not (_set_covers(dom_a, dom_b) and _set_covers(dom_b, dom_a)):
        return False
    return all(hf_equal(a.apply(k), b.apply(k)) for k in dom_a)


def _set_covers(xs: frozenset[HF] | set[HF], ys: frozenset[HF] | set[HF]) -> bool:
    return all(any(hf_equal(x, y) for y in ys) for x in xs)


def hf_key(v: HF):
    """Canonical sort key: a total order used for deterministic iteration."""
    rank = _KIND_RANK[v.kind]
    if v.kind == ATOM:
        return (rank, v.name)
    if v.kind == SET:
        return (rank, tuple(hf_key(x) for x in v.order))
    return (rank, tuple(sorted((hf_key(k), hf_key(x)) for k, x in v.pairs)))


def sorted_elements(v: HF) -> tuple[HF, ...]:
    """A set's elements in hf_key order, as stored when it was built."""
    if v.kind != SET:
        raise TypeError(f"not a set: {pretty(v)}")
    return v.order


def depth(v: HF) -> int:
    """Nesting depth of tables; a plain set of values does not count as
    an extra level, so a hom-set sits at the depth of its tables."""
    if v.kind == ATOM:
        return 0
    if v.kind == SET:
        return max((depth(x) for x in v.elements), default=0)
    return 1 + max((max(depth(k), depth(x)) for k, x in v.pairs), default=0)


def pretty(v: HF) -> str:
    if v.kind == ATOM:
        return v.name
    if v.kind == SET:
        return "{" + ", ".join(pretty(x) for x in sorted_elements(v)) + "}"
    return pretty_table(v.pairs)


def pretty_table(pairs: Iterable[tuple[HF, HF]]) -> str:
    """The text of a function table, keys in hf_key order, from its
    (key, value) pairs: a table value's or a stored map's items."""
    entries = sorted(pairs, key=lambda kv: hf_key(kv[0]))
    return "[" + ", ".join(f"{pretty(k)}↦{pretty(x)}" for k, x in entries) + "]"
