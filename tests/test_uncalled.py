"""A ratchet on code that no part of the package calls: a walk of the
source lists every top-level function of ``src/closedcat`` that nothing
in ``src/closedcat`` references outside the function's own body.  Each
such function is named below with the reason it stays; a new one fails
the test until it gains a caller or a reason, and one that gains a
caller or is deleted leaves the list with it."""

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
    # the 2-cell layer, for a check of the 2-equivalence (ROADMAP item 1)
    "check_multifunctor": "multifunctors of the 2-equivalence",
    "check_U_functoriality": "U on 1-cells and 2-cells",
    "check_2cell_transfer": "U on multinatural transformations",
    "compose_cn_horizontal": "horizontal composition of closed 2-cells",
    "compose_cn_vertical": "vertical composition of closed 2-cells",
    "verify_closing_lemmas": "closing transformations",
    "verify_closing_composite": "closing transformations",
    "verify_closing_multinat": "closing transformations",
    # the enriched layer, for an enriched suite (ROADMAP item 3)
    "check_v_category": "enriched categories such as a pushforward",
    "check_v_functor": "enriched functors",
    "check_v_natural": "enriched natural transformations",
    "build_Lf": "the enriched transformation of a morphism",
    "find_unit_object": "whether a multicategory file has a unit",
}


def _names(node):
    """The names and attribute names that node refers to."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _uncalled(sources: dict[str, str]) -> set[str]:
    """Top-level functions of the modules in ``sources`` (name -> text)
    that no name or attribute outside their own body refers to."""
    defined = set()
    # name -> the (module, enclosing top-level function or None) of each
    # reference to it
    owners = defaultdict(set)
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add((module, stmt.name))
                for d in stmt.decorator_list:  # not part of its body
                    for n in _names(d):
                        owners[n].add((module, None))
                for part in [*stmt.args.defaults, *stmt.body]:
                    for n in _names(part):
                        owners[n].add((module, stmt.name))
            else:
                for n in _names(stmt):
                    owners[n].add((module, None))
    return {name for module, name in defined if not owners[name] - {(module, name)}}


def test_the_walk_finds_functions_referenced_only_by_themselves():
    sources = {
        "a": """
def used(): return 1

def recursive(n): return recursive(n - 1) if n else used()

def imported_only(): pass

def by_attribute(): pass

x = used
""",
        "b": """
from a import imported_only
import a

a.by_attribute()
""",
    }
    assert _uncalled(sources) == {"recursive", "imported_only"}


def test_uncalled_functions_are_the_named_ones():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _uncalled(sources) == set(UNCALLED)
