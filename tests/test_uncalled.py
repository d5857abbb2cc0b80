"""A ratchet on code that no part of the package calls: a walk of the
source lists every top-level function, and every method of a top-level
class other than a dunder method, of ``src/closedcat`` that no chain of
references from module-level code reaches.  Each such function is named
below with the reason it stays; a new one fails the test until it gains
a caller or a reason, and one that gains a caller or is deleted leaves
the list with it.  A reference from a function that is itself unreached
reaches nothing, so a chain of dead functions, or a pair that only call
each other, is named whole.  A method is named ``Class.method``.  A
static method is called by its class, so only a reference
``Class.method`` counts for it: a common name such as ``identity`` is no
sign that some other ``.identity`` calls it."""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "closedcat"

_TWO_CELLS = "the 2-cell layer of the 2-equivalence suite (ROADMAP item 5)"

UNCALLED = {
    # test-only oracles of the rule-backed structures and of hf equality
    "tabularize": "oracle of lazy categories",
    "tabularize_multicat": "oracle of rule-backed multicategories",
    "hf_equal": "oracle of hf equality, by mutual inclusion",
    "_set_covers": "the inclusion test of hf_equal",
    # what the set-bridge workload of the benchmark runs
    "check_ek_axioms": "set-bridge: CC0 and CC5' of the normalization",
    "pushforward": "set-bridge: base change along the hom embedding",
    "Category.obj_key": "set-bridge: the ek summary sorts objects by it",
    "FinSetCategory.obj_key": "set-bridge: the ek summary sorts objects by it",
    "_WCategory.obj_key": "set-bridge: the ek summary sorts objects by it",
    "Category.show_obj": "set-bridge: the ek summary prints objects with it",
    # the 2-cell layer, for a check of the 2-equivalence (ROADMAP item 5)
    "check_multifunctor": _TWO_CELLS,
    "check_multinat": _TWO_CELLS,
    "check_cn_axioms": _TWO_CELLS,
    "check_natural": _TWO_CELLS,
    "check_U_functoriality": _TWO_CELLS,
    "check_2cell_transfer": _TWO_CELLS,
    "compose_closed_functors": _TWO_CELLS,
    "compose_cn_horizontal": _TWO_CELLS,
    "compose_cn_vertical": _TWO_CELLS,
    "underlying_closed_transformation": _TWO_CELLS,
    "Functor.then": _TWO_CELLS,
    "NaturalTransformation.identity": _TWO_CELLS,
    "ClosedFunctor.identity": _TWO_CELLS,
    "ClosedTransformation.identity": _TWO_CELLS,
    # the enriched layer and unit search (ROADMAP items 6 and 12)
    "check_v_category": "enriched categories such as a pushforward",
    "find_unit_object": "whether a multicategory file has a unit",
}


def _names(node):
    """The names and attribute names that node refers to, and "C.name"
    for each attribute name read off a name or attribute C."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
            owner = getattr(n.value, "id", None) or getattr(n.value, "attr", None)
            if owner:
                yield f"{owner}.{n.attr}"


def _is_function(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_static(fn) -> bool:
    return any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)


def _uncalled(sources: dict[str, str]) -> set[str]:
    """Top-level functions and methods of top-level classes (dunder
    methods aside) of the modules in ``sources`` (name -> text) that no
    walk from module-level code reaches.  Module-level code, decorators
    and the dunder methods and other statements of a class body are live;
    a function is live once a live part refers to it, and then its body
    is live too.  A static method C.name is reached only by a reference
    "C.name"."""
    # name or "C.name" -> the (module, qualified name, body) of each
    # function that a reference to it reaches
    defined = defaultdict(list)
    roots = []  # the names that module-level code refers to
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            functions, rest = [], [stmt]
            if _is_function(stmt):
                functions, rest = [(stmt.name, stmt)], []
            elif isinstance(stmt, ast.ClassDef):
                rest = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
                for part in stmt.body:
                    if _is_function(part) and not _is_dunder(part.name):
                        functions.append((f"{stmt.name}.{part.name}", part))
                    else:
                        rest.append(part)
            for qualname, fn in functions:
                key = qualname if _is_static(fn) else fn.name
                body = [*fn.args.defaults, *fn.body]
                defined[key].append((module, qualname, body))
                rest += fn.decorator_list  # not part of its body
            for part in rest:
                roots.extend(_names(part))
    live, seen, todo = set(), set(), roots
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for module, qualname, body in defined.get(name, ()):
            live.add((module, qualname))
            for part in body:
                todo.extend(_names(part))
    return {
        qualname
        for functions in defined.values()
        for module, qualname, _ in functions
        if (module, qualname) not in live
    }


def test_the_walk_finds_functions_referenced_only_by_themselves():
    sources = {
        "a": """
def used(): return 1

def recursive(n): return recursive(n - 1) if n else used()

def imported_only(): pass

def by_attribute(): pass

def ping(n): return pong(n - 1) if n else 0

def pong(n): return ping(n - 1) if n else 0

def dead_root(): return only_from_dead()

def only_from_dead(): pass

x = used

class C:
    def __init__(self): self.hook = self.set_in_a_dunder

    def set_in_a_dunder(self): pass

    def by_method(self): return self.recursive_method()

    def recursive_method(self): return self.recursive_method()

    def unused(self): pass

    def __private(self): pass

    def __repr__(self): return "C"

    @staticmethod
    def called_from_b(): pass

    @staticmethod
    def identity(): pass

    @staticmethod
    def by_its_class(): pass
""",
        "b": """
from a import imported_only
import a

a.by_attribute()
a.C.called_from_b()
a.C.by_its_class()
other.identity()
""",
    }
    assert _uncalled(sources) == {
        "recursive",
        "imported_only",
        "C.by_method",
        "C.recursive_method",
        "C.unused",
        "C.__private",
        "C.identity",
        "ping",
        "pong",
        "dead_root",
        "only_from_dead",
    }


def test_uncalled_functions_are_the_named_ones():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _uncalled(sources) == set(UNCALLED)
