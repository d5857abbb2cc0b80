"""The lazy category of finite sets, as a closed structure.

Objects are hereditarily finite sets.  The enumerated seed objects are
the subsets of a fixed atom pool plus the chosen one-point set; internal
hom objects are materialized only while they have at most
MATERIALIZE_LIMIT elements of depth at most MAX_DEPTH, and
otherwise exist as opaque hom terms that can be composed through but not
enumerated.  Morphisms are function rules with a stated domain; they
materialize to tables on demand, and two morphisms are equal when their
endpoints agree and their tables agree pointwise.

A function table a -> b whose hom object is materialized is not built
but found in that hom object, at the index its images give; equal
tables are then one shared value.  Only a table into a virtual hom
object, or one with an image outside b, is built and checked anew.

The closed structure is the usual one on sets: the unit is the one-point
set, i sends a point to the constant table on it, j picks the identity
table, and L sends g to the precompose-then-g table.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Union

from . import hf
from .closed import ClosedStructure
from .core import MAX_OBJECTS, Category
from .errors import BudgetExceeded, NotComposable

STAR = hf.atom("*")
MATERIALIZE_LIMIT = 4096  # larger hom objects stay virtual terms
MAX_DEPTH = 4  # function tables nested deeper are refused


@dataclass(frozen=True)
class HomObj:
    """A hom object too large to enumerate, kept as a term."""

    src: "SetObj"
    dst: "SetObj"

    def __repr__(self) -> str:
        return f"hom({self.src!r},{self.dst!r})"


SetObj = Union[hf.HF, HomObj]


def elements(o: SetObj) -> tuple[hf.HF, ...]:
    if isinstance(o, hf.HF):
        return hf.sorted_elements(o)
    raise BudgetExceeded(f"cannot enumerate virtual hom object {o!r}")


def table_apply(t: hf.HF, k: hf.HF) -> hf.HF:
    return t.lookup[k]


class SetMor:
    """A morphism of the lazy sets category: a rule with stated endpoints.

    Equality and hashing force materialization over the (enumerable)
    domain; composition stays lazy so that arrows with huge domains can
    participate in composites that are only ever sampled pointwise.
    """

    __slots__ = ("dom", "cod", "_rule", "_map", "_hash")

    def __init__(self, dom: SetObj, cod: SetObj, rule=None, mapping=None):
        self.dom = dom
        self.cod = cod
        self._rule = rule
        self._map = dict(mapping) if mapping is not None else None
        self._hash = None

    @staticmethod
    def from_table(dom: SetObj, cod: SetObj, mapping) -> "SetMor":
        return SetMor(dom, cod, mapping=mapping)

    @staticmethod
    def from_rule(dom: SetObj, cod: SetObj, rule: Callable) -> "SetMor":
        return SetMor(dom, cod, rule=rule)

    def apply(self, v: hf.HF) -> hf.HF:
        if self._map is not None:
            return self._map[v]
        return self._rule(v)

    def mapping(self) -> dict:
        self._materialize()
        return dict(self._map)

    def _materialize(self) -> None:
        if self._map is None:
            self._map = {x: self._rule(x) for x in elements(self.dom)}

    def table_value(self) -> hf.HF:
        """The morphism as a function-table value of the universe."""
        self._materialize()
        return hf.ftable(self._map.items())

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SetMor):
            return NotImplemented
        if self.dom != other.dom or self.cod != other.cod:
            return False
        self._materialize()
        other._materialize()
        return self._map == other._map

    def __hash__(self):
        # Hash exactly what __eq__ compares. HF hashes are cached at
        # construction, so this never walks the nested tables; hf_key is
        # reserved for ordering output.  A materialized table never
        # changes, so the hash is kept from the first call.
        if self._hash is None:
            self._materialize()
            self._hash = hash((self.dom, self.cod, frozenset(self._map.items())))
        return self._hash

    def __str__(self):
        # Printed from the stored map: a table value would be built and
        # checked only to be printed.
        try:
            self._materialize()
        except BudgetExceeded:
            return f"<rule:{self.dom!r}->{self.cod!r}>"
        return hf.pretty_table(self._map.items())

    def __repr__(self):
        return str(self)


class FinSetCategory(Category):
    """Seed objects in ``hf_key`` order, each hom-set in ``hf_key`` order
    of its tables."""

    def __init__(self, max_size: int):
        if max_size < 1:
            raise ValueError("max_size must be at least 1")
        self.name = f"finset({max_size})"
        # The seeds are the 2**max_size subsets of the pool and the unit.
        if 2 ** min(max_size, MAX_OBJECTS) + 1 > MAX_OBJECTS:
            raise BudgetExceeded(
                f"{self.name}: 2**{max_size} + 1 seed objects exceed budget {MAX_OBJECTS}"
            )
        self.unit = hf.fset([STAR])
        pool = [hf.atom(f"a{i}") for i in range(max_size)]
        seeds = [
            hf.fset(sub)
            for r in range(max_size + 1)
            for sub in itertools.combinations(pool, r)
        ]
        seeds.append(self.unit)
        self._seeds = tuple(sorted(set(seeds), key=hf.hf_key))
        # Memos keyed by objects, whose hashes HF keeps.
        self.make_hom = functools.cache(self._make_hom)
        self.hom = functools.cache(self._hom)
        self.identity = functools.cache(self._identity)
        # Each element's index in a set's order, for finding a table in
        # its hom object.
        self.positions = functools.cache(
            lambda b: {v: k for k, v in enumerate(b.order)}
        )
        # Hom-sets of many pairs share an end: walk each end's depth once.
        self._depth = functools.cache(hf.depth)

    def objects(self):
        return self._seeds

    def _make_hom(self, a: SetObj, b: SetObj) -> SetObj:
        """The set of all function tables a -> b, or a virtual term when
        it has more than MATERIALIZE_LIMIT elements."""
        if not (isinstance(a, hf.HF) and isinstance(b, hf.HF)):
            return HomObj(a, b)
        na, nb = len(a.elements), len(b.elements)
        if nb**na > MATERIALIZE_LIMIT:
            return HomObj(a, b)
        # Every table a -> b has a's elements as keys, and some table takes
        # b's deepest element as an image, so the deepest table has depth
        # 1 + max(depth(a), depth(b)).  On an empty a there is one table,
        # of depth 1; on a nonempty a with b empty there is none.
        if na and nb and 1 + max(self._depth(a), self._depth(b)) > MAX_DEPTH:
            raise BudgetExceeded(f"{self.name}: hom element exceeds depth {MAX_DEPTH}")
        return hf.function_space(a, b)

    def _hom(self, x: SetObj, y: SetObj):
        h = self.make_hom(x, y)
        if isinstance(h, HomObj):
            raise BudgetExceeded(f"{self.name}: hom({x!r},{y!r}) over budget")
        return tuple(
            SetMor.from_table(x, y, t.lookup) for t in hf.sorted_elements(h)
        )

    def _identity(self, x: SetObj):
        return SetMor.from_table(x, x, {e: e for e in elements(x)})

    def table(self, a: SetObj, b: SetObj, image: Callable) -> hf.HF:
        """The function table a -> b that sends x to image(x).

        hf.function_space lists the tables of a materialized hom object
        in itertools.product order over b's order on a's order, so the
        table with images v_1..v_n is the one at index
        sum_k pos_b(v_k) * |b|**(n - k).  It is taken from there; a
        virtual hom object, or an image outside b, builds it instead."""
        dom = elements(a)
        images = [image(x) for x in dom]
        h = self.make_hom(a, b)
        if isinstance(h, hf.HF):
            pos, n, index = self.positions(b), len(b.order), 0
            for v in images:
                k = pos.get(v)
                if k is None:
                    break
                index = index * n + k
            else:
                return h.order[index]
        return hf.ftable(zip(dom, images))

    def compose(self, f: SetMor, g: SetMor) -> SetMor:
        if f.cod != g.dom:
            raise NotComposable(f"cannot compose {f} with {g}")
        if f._map is not None:
            return SetMor.from_table(
                f.dom, g.cod, {k: g.apply(v) for k, v in f._map.items()}
            )
        return SetMor.from_rule(f.dom, g.cod, lambda v: g.apply(f.apply(v)))

    def obj_key(self, x):
        return hf.hf_key(x)


def build_finset_closed(max_size: int) -> ClosedStructure:
    cat = FinSetCategory(max_size)

    def hom2_mor(f: SetMor, g: SetMor) -> SetMor:
        # f : A' -> A, g : B -> B'; the action sends t : A -> B to
        # f then t then g, a table on A'.
        a2, b2 = f.dom, g.cod

        def rule(t: hf.HF) -> hf.HF:
            return cat.table(a2, b2, lambda x: g.apply(table_apply(t, f.apply(x))))

        return SetMor.from_rule(
            cat.make_hom(f.cod, g.dom), cat.make_hom(f.dom, g.cod), rule
        )

    def i(x: SetObj) -> SetMor:
        return SetMor.from_table(
            x,
            cat.make_hom(cat.unit, x),
            {e: cat.table(cat.unit, x, lambda _: e) for e in elements(x)},
        )

    def i_inv(x: SetObj) -> SetMor:
        return SetMor.from_rule(
            cat.make_hom(cat.unit, x), x, lambda t: table_apply(t, STAR)
        )

    def j(x: SetObj) -> SetMor:
        ident = cat.table(x, x, lambda e: e)
        return SetMor.from_table(cat.unit, cat.make_hom(x, x), {STAR: ident})

    @functools.cache
    def L(x: SetObj, y: SetObj, z: SetObj) -> SetMor:
        hxy, hxz = cat.make_hom(x, y), cat.make_hom(x, z)

        def rule(g: hf.HF) -> hf.HF:
            gd = g.lookup

            def then_g(f: hf.HF) -> hf.HF:  # the composite table x -> z
                return cat.table(x, z, lambda k: gd[f.lookup[k]])

            return cat.table(hxy, hxz, then_g)

        return SetMor.from_rule(cat.make_hom(y, z), cat.make_hom(hxy, hxz), rule)

    def gamma_inv(point: SetMor, x: SetObj, y: SetObj) -> SetMor:
        # A point of und(X,Y) is a one-entry table holding the function
        # table of the morphism it names; unfold it.
        tbl = point.apply(STAR)
        return SetMor.from_rule(x, y, lambda v: table_apply(tbl, v))

    return ClosedStructure(
        cat.name,
        cat,
        cat.unit,
        cat.make_hom,
        hom2_mor,
        i,
        i_inv,
        j,
        L,
        gamma_inv=gamma_inv,
    )
