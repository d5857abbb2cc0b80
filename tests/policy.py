"""The source policy of ``src/closedcat``: one index of its definitions and
one table of rules, each a name, a query on the index, its reason and the
sites the query may find in the source.

``index`` parses each module once into scopes, named ``module.Qualname``:
the module's own code (``<module>``), each class body and each function,
nested ones included.  A scope records the calls, references and imports
of the code that runs in it (decorators, arguments and body, nested
definitions aside), and a function's parameter annotations and decorators."""

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _refs(n) -> tuple[str, ...]:
    """The name or attribute name that node n refers to, and "C.name" for
    an attribute name read off a name or attribute C."""
    if isinstance(n, ast.Name):
        return (n.id,)
    if isinstance(n, ast.Attribute):
        owner = getattr(n.value, "id", None) or getattr(n.value, "attr", None)
        return (n.attr, f"{owner}.{n.attr}") if owner else (n.attr,)
    return ()


def _names(node, quoted=False) -> set[str]:
    """The references in node, and with ``quoted`` those in its strings,
    as in an annotation."""
    names = {r for n in ast.walk(node) for r in _refs(n)}
    for n in ast.walk(node) if quoted else ():
        if isinstance(n, ast.Constant) and isinstance(n.value, str):
            names |= _names(ast.parse(n.value, mode="eval"), True)
    return names


def _callee(node) -> str | None:
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", None) or getattr(node.func, "id", None)
    return None


class Scope:
    """A module's own code, a class body, or a function or method."""

    def __init__(self, module: str, node, parent: "Scope | None" = None):
        self.module, self.node, self.parent = module, node, parent
        self.name = getattr(node, "name", "<module>")
        outer = parent.parent if parent else None
        self.qualname = f"{parent.qualname}.{self.name}" if outer else self.name
        self.key = f"{module}.{self.qualname}"
        self.is_function = isinstance(node, _FUNCTIONS)
        self.is_class = isinstance(node, ast.ClassDef)
        # inside a function, so built anew by each call of it
        self.local = parent is not None and (parent.is_function or parent.local)
        # a unit is a top-level function or a method of a top-level class;
        # top is the unit that holds this scope
        self.unit = self.is_function and (not outer or not outer.parent and parent.is_class)
        self.top = self if self.unit else parent.top if parent else None
        self.calls: dict[str, list[ast.Call]] = {}
        self.refs, self.imports = set(), set()
        self.decorators = {n for d in getattr(node, "decorator_list", ()) for n in _names(d)}
        a = node.args if self.is_function else None
        params = (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if a else ()
        self.annotations = {
            n for p in params if p and p.annotation for n in _names(p.annotation, True)
        }


def index(sources: dict[str, str]) -> list[Scope]:
    """Every scope of the modules in ``sources`` (name -> text)."""
    scopes = []

    def add(scope):
        scopes.append(scope)
        visit(scope, scope.node)

    def visit(scope, node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*_FUNCTIONS, ast.ClassDef)):
                add(Scope(scope.module, child, scope))
                continue
            if isinstance(child, ast.Call):
                scope.calls.setdefault(_callee(child), []).append(child)
            elif isinstance(child, ast.alias):
                scope.imports.add(child.asname or child.name)
            scope.refs.update(_refs(child))
            visit(scope, child)

    for module, text in sources.items():
        add(Scope(module, ast.parse(text)))
    return scopes


def read(pattern: str) -> list[Scope]:
    """The index of the files under the repository root that match."""
    return index({p.stem: p.read_text() for p in sorted(ROOT.glob(pattern))})


# -- queries and the sets they exempt -----------------------------------------


def calling(name: str) -> Callable[[list[Scope]], set[str]]:
    """The scopes that call ``name``, as ``x.name(`` or ``name(``."""
    return lambda ix: {s.key for s in ix if name in s.calls}


# What a witness already holds, so no parameter may pass it beside one.
HELD = {"ClosedStructure", "RepresentingMulticat", "EKClosedStructure"}


def unfolded(ix) -> set[str]:
    """Functions with a parameter annotated UnitWitness, or one annotated
    ClosednessWitness beside one annotated with a type in HELD."""
    return {
        s.key
        for s in ix
        if "UnitWitness" in s.annotations
        or ("ClosednessWitness" in s.annotations and s.annotations & HELD)
    }


def forwarders(ix) -> set[str]:
    """A module-level table_apply or closed.gamma, SetMor.from_table or
    from_rule, an obj_key method outside Category, and the unit around a
    function-local import in closedmc."""
    return {
        s.key
        for s in ix
        if s.unit
        and (
            s.key == "closed.gamma"
            or s.qualname in ("table_apply", "SetMor.from_table", "SetMor.from_rule")
            or (s.name == "obj_key" and s.qualname != "Category.obj_key")
        )
    } | {s.top.key for s in ix if s.module == "closedmc" and s.top and s.imports}


SHOW_OBJ_OWNERS = {"core.Category.show_obj"}
ENDPOINT_OWNERS = {"core.Category", "multicat.Multicategory"}


def _reads_own_field(fn) -> bool:
    """fn's body, past a docstring, is ``return arg.attr`` for one of its
    arguments other than self."""
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    value, args = body[0].value, {a.arg for a in fn.args.args[1:]}
    return isinstance(value, ast.Attribute) and getattr(value.value, "id", None) in args


def print_layers(ix) -> set[str]:
    """Each method show_mor, each show_obj outside SHOW_OBJ_OWNERS, and
    each dom or cod outside ENDPOINT_OWNERS that only reads its
    argument's field."""
    return {
        s.key
        for s in ix
        if s.unit
        and s.parent.is_class
        and (
            s.name == "show_mor"
            or (s.name == "show_obj" and s.key not in SHOW_OBJ_OWNERS)
            or s.name in ("dom", "cod")
            and s.parent.key not in ENDPOINT_OWNERS
            and _reads_own_field(s.node)
        )
    }


def reached(ix, roots) -> set[Scope]:
    """The units that a chain of references from ``roots`` reaches.  A
    unit is reached by its name, a static method C.name only by "C.name";
    once a unit is reached, the references of its scopes count."""
    by_name, body = {}, {}
    for s in ix:
        if s.unit:
            key = s.qualname if "staticmethod" in s.decorators else s.name
            by_name.setdefault(key, []).append(s)
        if s.top:
            body.setdefault(s.top, set()).update(s.refs)
    live, seen, todo = set(), set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            live.update(by_name.get(name, ()))
            todo.extend(r for s in by_name.get(name, ()) for r in body[s])
    return live


def _dunder(s) -> bool:
    return s.parent.is_class and s.name.startswith("__") and s.name.endswith("__")


def uncalled(ix) -> set[str]:
    """Units, dunder methods aside, that no chain of references from
    module-level code, class bodies, decorators or dunder methods reaches.
    A chain of dead functions, or a pair that only call each other, is
    named whole."""
    roots = set()
    for s in ix:
        if s.top is None or _dunder(s.top):
            roots |= s.refs
        elif s.unit:
            roots |= s.decorators
    live = reached(ix, roots)
    return {s.key for s in ix if s.unit and not _dunder(s) and s not in live}


# The benchmark's ek summary sorts a normalized category's objects by
# Category.obj_key, the position in objects(); no category refines it.
OBJ_KEY_OWNERS = {"core.Category.obj_key"}


def sort_keys(ix) -> set[str]:
    """Where mor_key is defined or named at all, or obj_key outside
    OBJ_KEY_OWNERS."""
    return {
        s.key
        for s in ix
        for names in ({s.name}, s.refs | s.imports)
        if "mor_key" in names or ("obj_key" in names and s.key not in OBJ_KEY_OWNERS)
    }


# plug itself, the inner unit law, and the parallel clause of _assoc_holds,
# which plugs into two inputs at once.
PADDING_READERS = {
    "multicat.Multicategory.plug",
    "multicat.check_multicategory_axioms",
    "multicat._assoc_holds",
}


def _entries(arg):
    """The entries of a tuple display, a concatenation of them, or a
    splice into one: the expressions composed into the inputs."""
    if isinstance(arg, ast.Tuple):
        for e in arg.elts:
            yield from _entries(e) if isinstance(e, ast.Starred) else (e,)
    elif isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add):
        yield from _entries(arg.left)
        yield from _entries(arg.right)
        yield from (x for x in (arg.left, arg.right) if isinstance(x, ast.Call))
    elif isinstance(arg, ast.Starred):
        yield arg.value


def padding(ix) -> set[str]:
    """Scopes with a compose call whose tuple holds an identity or splices
    identities_for, or that read identities_for outside PADDING_READERS."""
    return {
        s.key
        for s in ix
        if ("identities_for" in s.refs and s.key not in PADDING_READERS)
        or any(
            _callee(e) in ("identity", "identities_for")
            for call in s.calls.get("compose", ())
            for e in _entries(call.args[0] if call.args else None)
        )
    }


CACHES = {"cache", "lru_cache", "cached_property"}


def static_caches(ix) -> set[str]:
    """Functions at module or class level that a cache decorates, and
    module or class bodies that call one."""
    return {
        s.key
        for s in ix
        if not s.local and (s.decorators if s.is_function else s.calls.keys()) & CACHES
    }


# -- the table ----------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    name: str
    query: Callable[[list[Scope]], set[str]]
    reason: str
    allowed: frozenset = frozenset()


def _sites(text: str) -> frozenset:
    return frozenset(text.split())


# Uncalled units that the tests reach, and that the benchmark's worker reaches.
ORACLES = {
    "core.tabularize": "oracle of lazy categories",
    "multicat.tabularize_multicat": "oracle of rule-backed multicategories",
    "hf.hf_equal": "oracle of hf equality, by mutual inclusion",
    "hf._set_covers": "the inclusion test of hf_equal",
}
BENCHMARK = {
    "closed.check_ek_axioms": "set-bridge: CC0 and CC5' of the normalization",
    "enriched.pushforward": "set-bridge: base change along the hom embedding",
    "enriched.build_underlying_V_category":
        "set-bridge: the self-enrichment it pushes forward along E",
    "core.Category.obj_key": "set-bridge: the ek summary sorts objects by it",
    "core.Category.show_obj": "set-bridge: the ek summary prints objects with it",
}
_TWO_CELLS = """multicat.check_multifunctor multicat.check_multinat closed.check_cn_axioms
    core.check_natural correspond.check_U_functoriality correspond.check_2cell_transfer
    closed.compose_closed_functors closed.compose_cn_horizontal closed.compose_cn_vertical
    correspond.underlying_closed_transformation core.Functor.then
    core.NaturalTransformation.identity closed.ClosedFunctor.identity
    closed.ClosedTransformation.identity"""
UNCALLED = {
    **ORACLES,
    **BENCHMARK,
    **dict.fromkeys(_sites(_TWO_CELLS), "the 2-cells of the 2-equivalence (ROADMAP item 5)"),
    # the enriched layer and unit search (ROADMAP items 6 and 12)
    "enriched.check_v_category": "enriched categories such as a pushforward",
    "closedmc.find_unit_object": "whether a multicategory file has a unit",
}

RULES = [
    Rule("profile-readers", calling("profiles"),
         "slot fillings are enumerated once, by the trie of multicat._walk_table;"
         " the others list signatures or read profiles for a law's own quantifier",
         _sites("""multicat.Multicategory.signatures multicat._walk_table
         closedmc.check_closedness closedmc.check_nary_factorization
         correspond.RepresentingMulticat.__init__ correspond.check_representation""")),
    Rule("composables-readers", calling("_composables"),
         "every table of composites comes from Multicategory.composites, or for a"
         " representing multicategory's file from its keyed_composites walk",
         _sites("""multicat.Multicategory.composites multicat.check_multifunctor
         closedmc.verify_internal_lemmas""")),
    Rule("unfolded-witness", unfolded, "the witness carries its unit and owns U(M),"
         " and reaches the representing multicategory and its normalized base"),
    Rule("forwarders", forwarders, "code that holds an answer is called directly:"
         " SetMor(...), t.lookup[k], cs.gamma(f), and U(M) built beside the witness"),
    Rule("print-and-endpoint-layers", print_layers,
         "objects and morphisms print as str and carry their own endpoints"),
    Rule("uncalled", uncalled, "each is named with its reason", frozenset(UNCALLED)),
    Rule("sort-keys", sort_keys, "every structure enumerates in its canonical order"),
    Rule("hand-padding", padding, "g o_i f is Multicategory.plug(g, i, f)"),
    Rule("static-caches", static_caches, "a memo is a cache of the structure, freed with it"),
]
