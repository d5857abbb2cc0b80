"""Hereditarily finite values: extensional equality laws."""

import pytest
from hypothesis import given, settings, strategies as st

from closedcat import hf


def atoms():
    return st.sampled_from([hf.atom(n) for n in "abcxyz"])


def hf_values(max_depth=3):
    return st.recursive(
        atoms(),
        lambda children: st.one_of(
            st.lists(children, max_size=3).map(hf.fset),
            st.lists(st.tuples(children, children), max_size=3).map(
                lambda ps: hf.ftable(_dedupe(ps))
            ),
        ),
        max_leaves=8,
    )


def _dedupe(pairs):
    seen = {}
    for k, v in pairs:
        seen[k] = v
    return seen.items()


def test_atom_identity():
    assert hf.hf_equal(hf.atom("x"), hf.atom("x"))
    assert not hf.hf_equal(hf.atom("x"), hf.atom("y"))


def test_table_order_independence():
    a, b = hf.atom("0"), hf.atom("1")
    t1 = hf.ftable([(a, b), (b, a)])
    t2 = hf.ftable([(b, a), (a, b)])
    assert hf.hf_equal(t1, t2)
    assert t1 == t2


def test_unequal_domains():
    a, b = hf.atom("0"), hf.atom("1")
    t1 = hf.ftable([(a, b), (b, a)])
    t2 = hf.ftable([(a, b)])
    assert not hf.hf_equal(t1, t2)
    assert t1 != t2


def test_table_must_be_single_valued():
    a, b = hf.atom("0"), hf.atom("1")
    with pytest.raises(ValueError):
        hf.ftable([(a, a), (a, b)])


def test_kinds_are_disjoint():
    assert not hf.hf_equal(hf.fset([]), hf.ftable([]))
    assert hf.fset([]) != hf.ftable([])


def test_values_are_immutable():
    a = hf.atom("a")
    t = hf.ftable([(a, a)])
    for v in (a, hf.fset([a, t]), t):
        before = (v.kind, v.payload, v.lookup, v.order, hash(v))
        for name in ("kind", "payload", "lookup", "order", "_hash", "extra"):
            with pytest.raises(AttributeError):
                setattr(v, name, None)
            with pytest.raises(AttributeError):
                delattr(v, name)
        assert (v.kind, v.payload, v.lookup, v.order, hash(v)) == before


@given(hf_values())
@settings(max_examples=200)
def test_equality_reflexive(v):
    assert hf.hf_equal(v, v)


@given(hf_values(), hf_values())
@settings(max_examples=200)
def test_equality_symmetric_and_agrees_with_eq(a, b):
    assert hf.hf_equal(a, b) == hf.hf_equal(b, a)
    assert hf.hf_equal(a, b) == (a == b)


@given(hf_values(), hf_values(), hf_values())
@settings(max_examples=200)
def test_equality_transitive(a, b, c):
    if hf.hf_equal(a, b) and hf.hf_equal(b, c):
        assert hf.hf_equal(a, c)


@given(hf_values(), hf_values())
@settings(max_examples=200)
def test_hash_respects_equality(a, b):
    if a == b:
        assert hash(a) == hash(b)
        assert hf.hf_key(a) == hf.hf_key(b)


def _subvalues(v):
    """v and every value nested in it."""
    yield v
    if v.kind == hf.SET:
        children = v.elements
    elif v.kind == hf.TABLE:
        children = [x for pair in v.pairs for x in pair]
    else:
        children = ()
    for c in children:
        yield from _subvalues(c)


@given(hf_values())
@settings(max_examples=100)
def test_key_total_order_consistent(v):
    # keys are comparable and pretty-printing is a function of the key
    assert hf.hf_key(v) <= hf.hf_key(v)
    assert isinstance(hf.pretty(v), str)
    # every set keeps the order that sorting its elements by key gives
    for s in _subvalues(v):
        if s.kind == hf.SET:
            assert hf.sorted_elements(s) == tuple(sorted(s.elements, key=hf.hf_key))


def test_depth_counts_tables_not_sets():
    a = hf.atom("a")
    assert hf.depth(a) == 0
    assert hf.depth(hf.fset([a])) == 0
    t = hf.ftable([(a, a)])
    assert hf.depth(t) == 1
    assert hf.depth(hf.fset([t])) == 1
    assert hf.depth(hf.ftable([(t, t)])) == 2
