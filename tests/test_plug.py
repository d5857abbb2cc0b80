"""One-slot composition: g o_i f, f plugged into input i of g with
identities in the others, is ``Multicategory.plug(g, i, f)``.  The
``hand-padding`` rule of ``tests/policy.py`` keeps hand-padded composites
from coming back."""

from closedcat import instances
from closedcat.core import Bounds


def test_plug_is_the_padded_composite():
    m, w = instances.get("z2").build()
    for xs, y in m.signatures(Bounds(2)):
        for g in m.hom(xs, y):
            ids = m.identities_for(xs)
            for i, x in enumerate(xs):
                for f in m.hom((x, x), x):
                    want = m.compose(ids[:i] + (f,) + ids[i + 1 :], g)
                    assert m.plug(g, i, f) == want
