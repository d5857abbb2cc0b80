"""A ratchet on code that no part of the package calls: a walk of the
source lists every top-level function, and every method of a top-level
class other than a dunder method, of ``src/closedcat`` that nothing in
``src/closedcat`` references outside the function's own body.  Each
such function is named below with the reason it stays; a new one fails
the test until it gains a caller or a reason, and one that gains a
caller or is deleted leaves the list with it.  A method is named
``Class.method``."""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "closedcat"

UNCALLED = {
    # test-only oracles of the rule-backed structures
    "tabularize": "oracle of lazy categories",
    "tabularize_multicat": "oracle of rule-backed multicategories",
    # what the set-bridge workload of the benchmark runs
    "build_E_functor": "set-bridge: the hom embedding into sets",
    "check_ek_axioms": "set-bridge: CC0 and CC5' of the normalization",
    "pushforward": "set-bridge: base change along the hom embedding",
    "_WCategory.obj_key": "set-bridge: the ek summary sorts objects by it",
    # the 2-cell layer, for a check of the 2-equivalence (ROADMAP item 1)
    "check_multifunctor": "multifunctors of the 2-equivalence",
    "check_U_functoriality": "U on 1-cells and 2-cells",
    "check_2cell_transfer": "U on multinatural transformations",
    "compose_cn_horizontal": "horizontal composition of closed 2-cells",
    "compose_cn_vertical": "vertical composition of closed 2-cells",
    # the enriched layer, for an enriched suite (ROADMAP item 6)
    "check_v_category": "enriched categories such as a pushforward",
    "find_unit_object": "whether a multicategory file has a unit",
}


def _names(node):
    """The names and attribute names that node refers to."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _is_function(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _uncalled(sources: dict[str, str]) -> set[str]:
    """Top-level functions and methods of top-level classes (dunder
    methods aside) of the modules in ``sources`` (name -> text) that no
    name or attribute outside their own body refers to."""
    defined = set()
    # name -> the (module, qualified name of the enclosing function or
    # None) of each reference to it
    owners = defaultdict(set)
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
                defined.add((module, qualname, fn.name))
                rest += fn.decorator_list  # not part of its body
                for part in [*fn.args.defaults, *fn.body]:
                    for n in _names(part):
                        owners[n].add((module, qualname))
            for part in rest:
                for n in _names(part):
                    owners[n].add((module, None))
    return {
        qualname
        for module, qualname, name in defined
        if not owners[name] - {(module, qualname)}
    }


def test_the_walk_finds_functions_referenced_only_by_themselves():
    sources = {
        "a": """
def used(): return 1

def recursive(n): return recursive(n - 1) if n else used()

def imported_only(): pass

def by_attribute(): pass

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
""",
        "b": """
from a import imported_only
import a

a.by_attribute()
a.C.called_from_b()
""",
    }
    assert _uncalled(sources) == {
        "recursive",
        "imported_only",
        "C.by_method",
        "C.unused",
        "C.__private",
    }


def test_uncalled_functions_are_the_named_ones():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _uncalled(sources) == set(UNCALLED)
