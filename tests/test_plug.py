"""One-slot composition: g o_i f, f plugged into input i of g with
identities in the others, is ``Multicategory.plug(g, i, f)``.  A walk of
the source keeps hand-padded composites from coming back: no compose
call pads its tuple with identities, and only three places read
``identities_for``: ``plug`` itself, the inner unit law of
``check_multicategory_axioms`` and the parallel clause of
``_assoc_holds``, which plugs into two inputs at once."""

import ast
from pathlib import Path

from closedcat import instances
from closedcat.core import Bounds

SRC = Path(__file__).resolve().parents[1] / "src" / "closedcat"

PADDING_READERS = {
    "Multicategory.plug",
    "check_multicategory_axioms",
    "_assoc_holds",
}


def test_plug_is_the_padded_composite():
    m, w = instances.get("z2").build()
    for xs, y in m.signatures(Bounds(2)):
        for g in m.hom(xs, y):
            ids = m.identities_for(xs)
            for i, x in enumerate(xs):
                for f in m.hom((x, x), x):
                    want = m.compose(ids[:i] + (f,) + ids[i + 1 :], g)
                    assert m.plug(g, i, f) == want


def _callee(node) -> str | None:
    if isinstance(node, ast.Call):
        f = node.func
        return getattr(f, "attr", None) or getattr(f, "id", None)
    return None


def _entries(arg):
    """The entries of a tuple display, a concatenation of them, or a
    splice into one: the expressions composed into the inputs."""
    if isinstance(arg, ast.Tuple):
        for e in arg.elts:
            yield from _entries(e) if isinstance(e, ast.Starred) else (e,)
    elif isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add):
        yield from _entries(arg.left)
        yield from _entries(arg.right)
        for side in (arg.left, arg.right):
            if isinstance(side, ast.Call):
                yield side
    elif isinstance(arg, ast.Starred):
        yield arg.value


def _padding(source: str) -> set[str]:
    """Where ``source`` pads a composite by hand: the qualified name of the
    function or class around a compose call whose tuple holds an identity
    or splices ``identities_for``, or around a read of ``identities_for``
    outside PADDING_READERS ("<module>" at top level)."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if _callee(node) == "compose" and node.args:
            if any(
                _callee(e) in ("identity", "identities_for")
                for e in _entries(node.args[0])
            ):
                found.add(scope or "<module>")
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if name == "identities_for" and scope not in PADDING_READERS:
            found.add(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_the_walk_finds_padding():
    source = """
class Multicategory:
    def identities_for(self, xs):
        return tuple(self.identity(x) for x in xs)

    def plug(self, g, i, f):
        ids = self.identities_for(self.dom(g))
        return self.compose(ids[:i] + (f,) + ids[i + 1 :], g)

def held(m, f, g, y):
    return m.compose((f, m.identity(y)), g)

def _assoc_holds(m, xs, f, g):
    ids = list(m.identities_for(xs))
    return m.compose(ids[1:] + m.identities_for(xs[:1]) + (f,), g)

def starred(m, xs, f, g):
    return m.compose((*m.identities_for(xs), f), g)

def read(m, xs):
    return list(m.identities_for(xs))

def check_multicategory_axioms(m, xs, f):
    return m.compose(m.identities_for(xs), f)

def unit_laws(cat, m, f, y):
    return cat.compose(cat.identity(y), f), m.compose((f,), m.identity(y))

def plugged(m, f, g):
    return m.plug(g, 0, f)
"""
    assert _padding(source) == {
        "held",
        "_assoc_holds",
        "starred",
        "read",
    }


def test_no_composite_is_padded_by_hand():
    found = {
        f"{path.name}:{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _padding(path.read_text())
    }
    assert not found
