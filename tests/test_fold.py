"""A ratchet on the closed multicategory as one value: the witness
carries its unit and owns its underlying closed category U(M), and the
witness of a representing multicategory reaches that multicategory and
its normalized base, so no function of ``src/closedcat`` takes a unit
beside a witness, or a closed structure, a ``RepresentingMulticat`` or an
``EKClosedStructure`` that the witness already holds.  A walk of the
source fails on a parameter annotated ``UnitWitness``, and on a parameter
annotated ``ClosedStructure``, ``RepresentingMulticat`` or
``EKClosedStructure`` in a function with one annotated
``ClosednessWitness``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "closedcat"

# What a witness already holds, so no parameter may pass it beside one.
HELD = {"ClosedStructure", "RepresentingMulticat", "EKClosedStructure"}


def _annotation_names(node) -> set[str]:
    """The names an annotation refers to, quoted ones included."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            names |= _annotation_names(ast.parse(n.value, mode="eval"))
    return names


def _unfolded(source: str) -> set[str]:
    """Functions of ``source`` that take the unit, U(M), a representing
    multicategory or its normalized base apart from the witness."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        names = set()
        for p in params:
            if p is not None and p.annotation is not None:
                names |= _annotation_names(p.annotation)
        if "UnitWitness" in names or ("ClosednessWitness" in names and names & HELD):
            found.add(node.name)
    return found


def test_the_walk_finds_unfolded_parameters():
    source = '''
def unit_apart(w: ClosednessWitness, uw: UnitWitness): pass

def optional_unit(uw: "UnitWitness | None" = None): pass

def category_apart(F, w: ClosednessWitness, cs: ClosedStructure): pass

def keyword_category(w: closedmc.ClosednessWitness, *, cs: ClosedStructure): pass

def representing_apart(w: ClosednessWitness, mcv: "RepresentingMulticat"): pass

def normalization_apart(ek: EKClosedStructure, w: ClosednessWitness): pass

def witness_alone(w: ClosednessWitness, bounds: Bounds): pass

def representing_alone(mcv: RepresentingMulticat, ek: EKClosedStructure): pass

def structure_alone(cs: ClosedStructure, bounds: Bounds): pass

class Holder:
    unit: UnitWitness | None = None

    def method(self, uw: UnitWitness): pass
'''
    assert _unfolded(source) == {
        "unit_apart",
        "optional_unit",
        "category_apart",
        "keyword_category",
        "representing_apart",
        "normalization_apart",
        "method",
    }


def test_no_function_takes_the_unit_or_U_apart_from_the_witness():
    found = {
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _unfolded(path.read_text())
    }
    assert not found
