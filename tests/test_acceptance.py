"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  All comparisons are exact; every value in play is discrete.

Run as: pytest tests/test_acceptance.py -v -s
"""

import subprocess
import sys
from pathlib import Path

import pytest

from closedcat import instances
from closedcat.closed import (
    check_cc_axioms,
    check_cf_axioms,
    check_ek_axioms,
    ek_normalize,
    verify_derived_cc_theorems,
)
from closedcat.closedmc import (
    check_closedness,
    check_internal_category,
    check_unit_object,
    curry,
    verify_internal_lemmas,
)
from closedcat.core import (
    Bounds,
    Functor,
    NaturalTransformation,
    check_category_axioms,
    tabularize,
)
from closedcat.correspond import (
    build_representing_multicategory,
    check_2cell_transfer,
    check_injectivity,
    check_representation,
    closed_functors_equal,
    lift_closed_functor,
    multifunctors_equal,
    underlying_closed_category,
    underlying_closed_functor,
    verify_essential_surjectivity,
    verify_u_construction,
)
from closedcat.enriched import build_underlying_V_category, pushforward
from closedcat.closed import build_E_functor
from closedcat.multicat import check_multicategory_axioms, tabularize_multicat
from closedcat.setcat import FinSetCategory, build_finset_closed
from closedcat import hf

CAPS = Bounds(3)
ROOT = Path(__file__).resolve().parents[1]


def _line(num: int, ok: bool, what: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {what}")
    assert ok, what


def test_criterion_1_axiom_suites():
    ok = True
    details = []
    for name in ["terminal", "heyting2", "finset"]:
        cs = instances.get(name).build()
        r = check_cc_axioms(cs)
        ok &= r.ok
        details += [it.line() for it in r.failures()]
    m, w = instances.get("z2").build()
    for r in (
        check_multicategory_axioms(m, CAPS),
        check_closedness(w, CAPS),
        check_unit_object(w, CAPS),
    ):
        ok &= r.ok
        details += [it.line() for it in r.failures()]
    _line(1, ok, "axiom suites on terminal/heyting2/finset(2) and z2 " + ";".join(details))


def test_criterion_2_derived_suites_and_negative_fixtures():
    ok = True
    details = []
    for name in ["terminal", "heyting2", "finset", "z2closed"]:
        r = verify_derived_cc_theorems(instances.get(name).build())
        ok &= r.ok
        details += [it.line() for it in r.failures()]
    for name in ["z2", "heyting2mc"]:
        m, w = instances.get(name).build()
        r0 = check_internal_category(w, CAPS)
        r1 = verify_internal_lemmas(w, CAPS)
        r2 = check_cf_axioms(
            underlying_closed_functor(Functor.identity(m), w, w, CAPS), CAPS
        )
        for r in (r0, r1, r2):
            ok &= r.ok
            details += [it.line() for it in r.failures()]

    # negative fixtures: under each suite, a fixture fails exactly the
    # check ids it advertises for that suite, each with a locus
    suites = {
        "broken-j": "cc",
        "broken-hom2": "cc",
        "broken-compose": "category",
        "z2mc-badcompose": "mc",
        "truncadd-badev": "closed",
        "truncadd-badunit": "unit",
    }
    for name, suite in suites.items():
        info = instances.get(name)
        expected = {c for c in info.advertised_failure if c.startswith(f"{suite}/")}
        built = info.build()
        if suite == "cc":
            rep = check_cc_axioms(built)
        elif suite == "category":
            rep = check_category_axioms(built)
        elif suite == "mc":
            rep = check_multicategory_axioms(built[0], CAPS)
        elif suite == "closed":
            rep = check_closedness(built[1], CAPS)
        else:
            rep = check_unit_object(built[1], CAPS)
        failing = {it.check for it in rep.failures()}
        if not expected or failing != expected:
            ok = False
            details.append(f"{name}: failing set {failing} != {expected}")
        if not all(it.locus for it in rep.failures()):
            ok = False
            details.append(f"{name}: failure without locus")
    _line(2, ok, "derived/lemma suites and negative fixtures " + ";".join(details))


def test_criterion_3_u_construction():
    m, w = instances.get("z2").build()
    ucs = underlying_closed_category(w, CAPS)
    r1 = check_cc_axioms(ucs)
    r2 = verify_u_construction(w, CAPS)
    named = [it.check for it in r2.items]
    ok = (
        r1.ok
        and r2.ok
        and named
        == [
            "u/CC1-internal-identities",
            "u/CC2-unit-law",
            "u/CC3-internal-functoriality",
            "u/CC4-contraction",
            "u/CC5-gamma-factorization",
        ]
    )
    _line(3, ok, "underlying closed category of z2 with named proof obligations")


def test_criterion_4_round_trips():
    ok = True
    details = []
    cases = [("z2", "inversion"), ("z2", "identity"), ("heyting2mc", "identity")]
    for iname, fname in cases:
        m, w = instances.get(iname).build()
        F = (
            Functor.identity(m)
            if fname == "identity"
            else instances.FUNCTORS[fname][1](m)
        )
        UF = underlying_closed_functor(F, w, w, CAPS)
        lifted = lift_closed_functor(UF, w, w, CAPS)
        eq1, l1 = multifunctors_equal(lifted, F, CAPS)
        UL = underlying_closed_functor(lifted, w, w, CAPS)
        eq2, l2 = closed_functors_equal(UL, UF)
        inj = check_injectivity(F, lifted, UF, UL, CAPS)
        cell = check_2cell_transfer(NaturalTransformation.identity(F), UF, UF, CAPS)
        if not (eq1 and eq2 and inj.ok and cell.ok):
            ok = False
            details.append(f"{iname}/{fname}: {l1} {l2}")
    _line(4, ok, "lift/underlying round trips, injectivity, 2-cells " + ";".join(details))


def test_criterion_5_essential_surjectivity():
    ok = True
    details = []
    for name in ["terminal", "heyting2"]:
        w = build_representing_multicategory(instances.get(name).build(), CAPS)
        reports = [
            check_multicategory_axioms(w.m, CAPS),
            check_closedness(w, CAPS),
            check_unit_object(w, CAPS),
            check_representation(w, CAPS),
            verify_essential_surjectivity(w, CAPS),
        ]
        for r in reports:
            ok &= r.ok
            details += [f"{name}:{it.line()}" for it in r.failures()]
        # the explicit identifications hold exactly
        surj = reports[-1]
        items = {it.check: it.status for it in surj.items}
        ok &= items.get("surj/structure-identified") == "pass"
        repr_items = {it.check: it.status for it in reports[3].items}
        ok &= repr_items.get("repr/ev-coordinate") == "pass"
    _line(5, ok, "representing multicategory on terminal and heyting2 " + ";".join(details))


def test_criterion_6_ek_bridge():
    ok = True
    details = []
    sets = build_finset_closed(2)
    for name in ["finset", "heyting2"]:
        cs = instances.get(name).build()
        ek, iso = ek_normalize(cs)
        r1 = check_ek_axioms(ek)
        r2 = check_cf_axioms(iso)
        ok &= r1.ok and r2.ok
        details += [it.line() for it in r1.failures() + r2.failures()]
        # gamma a bijection on every hom-set
        for x in cs.cat.objects():
            for y in cs.cat.objects():
                if len(cs.cat.hom(x, y)) != len(ek.closed.cat.hom(x, y)):
                    ok = False
                    details.append(f"{name}: hom size mismatch at {x},{y}")
        # pushforward along the hom embedding agrees structurally with W
        E = build_E_functor(cs, sets)
        EA = pushforward(E, build_underlying_V_category(cs))
        w = ek.closed
        for x in w.cat.objects():
            for y in w.cat.objects():
                ea = sorted(a.name for a in EA.hom_obj(x, y).elements)
                wm = sorted(ek.elt_atom(t).name for t in w.cat.hom(x, y))
                if ea != wm:
                    ok = False
                    details.append(f"{name}: element mismatch at {x},{y}")
        for x in w.cat.objects():
            for y in w.cat.objects():
                for z in w.cat.objects():
                    Lm = EA.L(x, y, z)
                    for g in w.cat.hom(y, z):
                        tbl = Lm.apply(ek.elt_atom(g))
                        for f in w.cat.hom(x, y):
                            got = tbl.lookup[ek.elt_atom(f)].name
                            if got != ek.elt_atom(w.cat.compose(f, g)).name:
                                ok = False
                                details.append(f"{name}: compose mismatch")
    _line(6, ok, "set-functor normalization with CC0/CC5' and pushforward agreement " + ";".join(details))


def test_criterion_7_oracle_equivalences():
    ok = True
    # lazy vs tabular category agreement
    lazy = FinSetCategory(2)
    tab = tabularize(lazy)
    ok &= check_category_axioms(lazy).ok == check_category_axioms(tab).ok is True

    # rule-backed vs tabular multicategory composition agreement
    m, w = instances.get("z2").build()
    tabm = tabularize_multicat(m, CAPS)
    ok &= check_multicategory_axioms(tabm, CAPS).ok

    # curry found by search equals closed-form group division
    def divide(f_raw: str, ev_raw: str) -> str:
        # g with g + ev = f, i.e. g = f - ev; inverses are self in z2
        return "e" if f_raw == ev_raw else "s"

    ev_raw = w.ev1[("g", "g")].raw
    for n in range(1, 4):
        for f in m.hom(("g",) * n, "g"):
            got = curry(w, f, 1, CAPS)
            if got.raw != divide(f.raw, ev_raw):
                ok = False
    _line(7, ok, "lazy/tabular, rule/tabular, and search/division oracles agree")


def test_criterion_8_determinism():
    def run():
        return subprocess.run(
            [sys.executable, "-m", "closedcat.cli", "check", "--suite", "all"],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=600,
        )

    a, b = run(), run()
    ok = a.stdout == b.stdout and a.returncode == b.returncode
    _line(8, ok, "two full-registry check runs are byte-identical")
