"""Slot fillings are enumerated once: the trie of ``multicat._walk_table``
holds, for inputs ys and an arity room, every way to fill the slots of ys
with non-empty hom-sets, and every walk over composables reads it.  A
walk of the source keeps a second enumeration from coming back: only the
functions in PROFILE_READERS call ``.profiles(``, the domain profiles
from which fillings are built.  The rest list signatures or read
profiles for a law's own quantifier, not for filling slots.  Likewise
only the functions in COMPOSABLES_READERS call ``_composables(``; every
table of composites, such as a file or a tabulated fixture, comes from
``Multicategory.composites``."""

import ast
from pathlib import Path

import pytest

from closedcat import instances, multicat
from closedcat.core import Bounds, guard_hom

SRC = Path(__file__).resolve().parents[1] / "src" / "closedcat"

PROFILE_READERS = {
    "multicat.Multicategory.signatures",
    "multicat._walk_table",
    "closedmc.check_closedness",
    "closedmc.check_nary_factorization",
    "correspond.RepresentingMulticat.__init__",
    "correspond.check_representation",
}

COMPOSABLES_READERS = {
    "multicat.Multicategory.composites",
    "multicat.check_multifunctor",
    "closedmc.verify_internal_lemmas",
}


def _callers(source: str, name: str) -> set[str]:
    """The qualified name of each function or class around a call of
    ``name`` in ``source`` ("<module>" at top level): a method call
    ``x.name(`` or, for a function, ``name(``."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and name in (
            getattr(node.func, "attr", None),
            getattr(node.func, "id", None),
        ):
            found.add(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def _found_in_src(name: str) -> set[str]:
    return {
        f"{path.stem}.{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _callers(path.read_text(), name)
    }


def test_the_walk_finds_profile_readers():
    source = """
class M:
    def profiles(self, n):
        return ()

    def signatures(self, bounds):
        return list(self.profiles(bounds.max_arity))

def fill(m, ys, n):
    def inner(room):
        return [d for d in m.profiles(room)]
    return inner(n)

profiles = None
x = M().profiles(2)

def reads_a_name(profiles):
    return profiles
"""
    assert _callers(source, "profiles") == {"M.signatures", "fill.inner", "<module>"}


def test_only_the_named_functions_read_profiles():
    assert _found_in_src("profiles") == PROFILE_READERS


def test_the_walk_finds_composables_callers():
    source = """
from .multicat import _composables
import multicat

class M:
    def composites(self, bounds):
        return list(_composables(self, bounds))

def check(m, bounds):
    return [g for g, _, fs in multicat._composables(m, bounds)]

def passes_it_on(m, bounds):
    walk = _composables
    return walk
"""
    assert _callers(source, "_composables") == {"M.composites", "check"}


def test_only_the_named_functions_walk_composables():
    assert _found_in_src("_composables") == COMPOSABLES_READERS


def _fillings(m, ys, room, bounds):
    """Every (doms, choices) filling the inputs ys within total arity
    room, straight from the profiles, in canonical order: a domain tuple
    is kept when each of its hom-sets is non-empty."""
    out = []

    def go(i, left, doms, choices):
        if i == len(ys):
            out.append((doms, choices))
            return
        for d in m.profiles(left):
            fs = guard_hom(m, d, ys[i], bounds)
            if fs:
                go(i + 1, left - len(d), doms + (d,), choices + (fs,))

    go(0, room, (), ())
    return out


def _trie_leaves(trie, ys, room):
    """The fillings reached by walking the trie depth first."""
    if not ys:
        return [((), ())]
    return [
        ((d,) + doms, (fs,) + choices)
        for d, fs, rest in trie(ys, room)
        for doms, choices in _trie_leaves(trie, ys[1:], room - len(d))
    ]


def _assert_no_dead_prefix(trie, ys, room):
    """Every branch's rest is the leaf or has a branch of its own."""
    for d, _, rest in trie(ys, room):
        assert len(ys) == 1 or rest, (ys, room, d)
        _assert_no_dead_prefix(trie, ys[1:], room - len(d))


@pytest.mark.parametrize("name", ["z2", "heyting2mc", "freemon3", "z2mc-badcompose"])
def test_the_trie_holds_every_filling_and_no_dead_prefix(name):
    info = instances.get(name)
    m, cap = info.build()[0], info.max_arity
    trie = multicat._walk_table(m, Bounds(cap))[1]
    for ys in m.profiles(cap):
        for room in range(cap + 1):
            want = _fillings(m, ys, room, Bounds(cap))
            assert _trie_leaves(trie, ys, room) == want, (ys, room)
            _assert_no_dead_prefix(trie, ys, room)
