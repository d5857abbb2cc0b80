"""Slot fillings are enumerated once: the trie of ``multicat._walk_table``
holds, for inputs ys and an arity room, every way to fill the slots of ys
with non-empty hom-sets, and every walk over composables reads it.  The
``profile-readers`` and ``composables-readers`` rules of
``tests/policy.py`` keep a second enumeration from coming back."""

import pytest

from closedcat import instances, multicat
from closedcat.core import Bounds, guard_hom


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
