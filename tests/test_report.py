"""Reports: one law becomes one PASS or one FAIL per failing locus."""

import pytest

from closedcat.report import FAIL, PASS, Report


def test_law_without_loci_is_one_pass():
    rep = Report("t")
    assert rep.law("x/law", "anchor", iter(())) == []
    assert [(it.check, it.anchor, it.status, it.locus) for it in rep.items] == [
        ("x/law", "anchor", PASS, "")
    ]


def test_law_fails_once_per_locus_in_order_and_returns_them():
    rep = Report("t")
    rep.law("x/before", "", [])
    loci = rep.law("x/law", "anchor", (s for s in ["b", "a", "c"]))
    assert loci == ["b", "a", "c"]
    assert [(it.check, it.status, it.locus) for it in rep.items[1:]] == [
        ("x/law", FAIL, "b"),
        ("x/law", FAIL, "a"),
        ("x/law", FAIL, "c"),
    ]
    assert rep.counts() == {"pass": 1, "fail": 3, "skipped": 0}


def test_law_whose_loci_raise_adds_nothing():
    def loci():
        yield "first"
        raise ValueError("equation could not be evaluated")

    rep = Report("t")
    with pytest.raises(ValueError):
        rep.law("x/law", "anchor", loci())
    assert rep.items == []
