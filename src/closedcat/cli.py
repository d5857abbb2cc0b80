"""Command-line front end.

Verbs:
  check      run checker suites over registry instances or structure files
  construct  build a derived structure (underlying closed category, or
             the normalized closed category with its set-valued functor)
  roundtrip  verify lift-then-underlying and underlying-then-lift on a
             multicategory and a functor
  represent  build the representing multicategory of a closed category
             and emit it as a multicategory file
  instance   list registry instances or dump one as a file

Exit status: 0 when every executed check passed, 1 when any check failed,
2 on parse or input errors and on kernel errors raised outside a check
(a construction whose input violates its premises, e.g. a gamma that is
not bijective); inside ``check`` a kernel error is a FAIL line of the
check that raised it.  Output is deterministic: two runs over the same
inputs and flags produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import instances, interchange
from .closed import (
    check_cc_axioms,
    check_cf_axioms,
    ek_normalize,
    verify_derived_cc_theorems,
)
from .closedmc import (
    check_closedness,
    check_internal_category,
    check_nary_factorization,
    check_unit_object,
    verify_internal_lemmas,
)
from .core import DEFAULT_BOUNDS, Bounds, check_category_axioms
from .correspond import (
    build_representing_multicategory,
    check_injectivity,
    check_representation,
    lift_closed_functor,
    multifunctors_equal,
    closed_functors_equal,
    underlying_closed_functor,
    verify_essential_surjectivity,
    verify_u_construction,
)
from .errors import FormatError, KernelError
from .multicat import MultiFunctor, check_multicategory_axioms
from .report import Report


def _bounds(args, own_arity: int = DEFAULT_BOUNDS.max_arity) -> Bounds:
    """The arity horizon ``own_arity`` unless --arity-cap overrides it,
    with every enumerated hom-set bounded by --budget."""
    arity = own_arity if args.arity_cap is None else args.arity_cap
    return Bounds(arity, args.budget)


def _load_target(spec: str):
    """Resolve 'instance:NAME' or 'file:PATH' to (name, kind, payload)."""
    if spec.startswith("instance:"):
        name = spec.split(":", 1)[1]
        info = instances.get(name)
        return name, info.kind, info.build(), info
    if spec.startswith("file:"):
        path = Path(spec.split(":", 1)[1])
        doc = interchange.loads(path.read_text())
        kind = doc["kind"]
        if kind == "category":
            return str(path), "category", interchange.category_from_json(doc), None
        if kind == "closed-category":
            return str(path), "closed", interchange.closed_from_json(doc), None
        if kind == "multicategory":
            return str(path), "multicat", interchange.multicat_from_json(doc), None
        raise FormatError(f"unknown structure kind {kind!r}")
    raise FormatError(f"target must be instance:NAME or file:PATH, got {spec!r}")


def _check_target(name: str, kind: str, payload, info, args) -> Report:
    rep = Report(name)
    # Registry instances may declare their own arity horizon (partial
    # tensors); an explicit --arity-cap overrides it.
    bounds = _bounds(args, info.max_arity) if info is not None else _bounds(args)
    axioms = args.suite in ("axioms", "all")
    theorems = args.suite in ("theorems", "all")

    def run(tag, fn):
        try:
            rep.extend(fn(), prefix=f"{name}/")
        except FormatError:
            raise  # malformed input: exit 2 from main, not a FAIL line
        except KernelError as exc:
            rep.law(f"{name}/{tag}/error", type(exc).__name__, [str(exc)[:200]])

    if kind == "category":
        if axioms:
            run("category", lambda: check_category_axioms(payload, bounds))
        return rep

    if kind == "closed":
        cs = payload
        if axioms:
            run("category", lambda: check_category_axioms(cs.cat, bounds))
            run("cc", lambda: check_cc_axioms(cs, bounds))
        if theorems:
            run("derived", lambda: verify_derived_cc_theorems(cs, bounds))
        return rep

    m, w = payload
    if axioms:
        run("mc", lambda: check_multicategory_axioms(m, bounds))
        if w is not None:
            run("closed", lambda: check_closedness(w, bounds))
        if w is not None and w.unit is not None:
            run("unit", lambda: check_unit_object(w, bounds))
    if theorems and w is not None:
        run("nary", lambda: check_nary_factorization(w, bounds))

        def lemmas():
            r = check_internal_category(w, bounds)
            r.extend(verify_internal_lemmas(w, bounds))
            return r

        run("lemmas", lemmas)
        if w.unit is not None:
            run("u-construction", lambda: verify_u_construction(w, bounds))
    return rep


def cmd_check(args) -> int:
    targets = args.target or [f"instance:{n}" for n in sorted(instances.REGISTRY)]
    out = Report("check")
    for spec in targets:
        name, kind, payload, info = _load_target(spec)
        out.extend(_check_target(name, kind, payload, info, args))
    text = _render(out, args)
    _write(text, args.out)
    return 0 if out.ok else 1


def cmd_construct(args) -> int:
    name, kind, payload, info = _load_target(args.target)
    bounds = _bounds(args)
    if args.what == "underlying":
        if kind != "multicat":
            raise FormatError("construct underlying expects a multicategory")
        m, w = payload
        if w is None or w.unit is None:
            raise FormatError("multicategory lacks a closedness witness or unit")
        doc = interchange.closed_to_json(w.underlying(bounds), bounds)
    elif args.what == "ek":
        if kind != "closed":
            raise FormatError("construct ek expects a closed category")
        ek, iso = ek_normalize(payload, bounds)
        doc = interchange.closed_to_json(ek.closed, bounds)
    else:
        raise FormatError(f"unknown construction {args.what!r}")
    _write(interchange.dumps(doc), args.out)
    return 0


def cmd_represent(args) -> int:
    name, kind, payload, info = _load_target(args.target)
    if kind != "closed":
        raise FormatError("represent expects a closed category")
    bounds = _bounds(args)
    bundle = build_representing_multicategory(payload, bounds)
    rep = Report(f"represent {name}")
    rep.extend(check_representation(bundle, bounds))
    rep.extend(verify_essential_surjectivity(bundle, bounds))
    dump = Bounds(bounds.max_arity + 1, bounds.max_homset)
    doc = interchange.multicat_to_json(bundle.mcv, dump, bundle.witness)
    _write(interchange.dumps(doc), args.out)
    sys.stdout.write(_render(rep, args))
    return 0 if rep.ok else 1


def cmd_roundtrip(args) -> int:
    name, kind, payload, info = _load_target(args.target)
    if kind != "multicat":
        raise FormatError("roundtrip expects a multicategory target")
    m, w = payload
    if w is None or w.unit is None:
        raise FormatError("multicategory lacks a closedness witness or unit")
    bounds = _bounds(args)

    if args.functor.startswith("functor:"):
        fname = args.functor.split(":", 1)[1]
        if fname == "identity":
            F = MultiFunctor.identity(m)
        else:
            if fname not in instances.FUNCTORS:
                raise FormatError(f"unknown functor {fname!r}")
            home, make = instances.FUNCTORS[fname]
            if info is None or info.name != home:
                msg = f"{args.functor} acts on instance:{home} only"
                raise FormatError(f"{msg}, not on {args.target}")
            F = make(m)
    else:
        raise FormatError("functor must be functor:NAME")

    rep = Report(f"roundtrip {name} {F.name}")
    UF = underlying_closed_functor(F, w, w, bounds)
    rep.extend(check_cf_axioms(UF, bounds), prefix="U/")
    lifted = lift_closed_functor(UF, w, w, bounds)
    eq, locus = multifunctors_equal(lifted, F, bounds)
    rep.law("roundtrip/lift-after-U", "lift(U(F)) = F", [] if eq else [locus])
    UL = underlying_closed_functor(lifted, w, w, bounds)
    eq2, locus2 = closed_functors_equal(UL, UF, bounds)
    rep.law("roundtrip/U-after-lift", "U(lift(Phi)) = Phi", [] if eq2 else [locus2])
    rep.extend(check_injectivity(F, lifted, UF, UL, bounds))
    text = _render(rep, args)
    _write(text, args.out)
    return 0 if rep.ok else 1


def cmd_instance(args) -> int:
    if args.action == "list":
        lines = []
        for name in sorted(instances.REGISTRY):
            info = instances.REGISTRY[name]
            flag = " (negative)" if info.advertised_failure else ""
            lines.append(f"{name:18s} {info.kind:9s} {info.description}{flag}")
        _write("\n".join(lines) + "\n", args.out)
        return 0
    info = instances.get(args.name)
    bounds = _bounds(args, info.max_arity)
    if info.kind == "category":
        doc = interchange.category_to_json(info.build(), bounds)
    elif info.kind == "closed":
        try:
            doc = interchange.closed_to_json(info.build(), bounds)
        except FormatError:
            # lazy instance: dump by registry reference
            params = {"max_size": 2} if args.name == "finset" else {}
            doc = interchange.closed_ref_to_json(args.name, params)
    else:
        m, w = info.build()
        dump = Bounds(bounds.max_arity + 1, bounds.max_homset)
        doc = interchange.multicat_to_json(m, dump, w)
    _write(interchange.dumps(doc), args.out)
    return 0


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _render(rep: Report, args) -> str:
    if args.format == "json":
        return interchange.dumps(rep.to_json())
    return rep.render_text() + "\n"


def _count(text: str) -> int:
    """A bound given on the command line: an integer of at least 0."""
    if not (text.isascii() and text.isdigit()):
        msg = f"must be an integer of at least 0, got {text!r}"
        raise argparse.ArgumentTypeError(msg)
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=_count, default=4096, help="max hom-set size")
    common.add_argument(
        "--arity-cap",
        type=_count,
        default=None,
        help="max total arity checked (default 3, or the registry instance's own)",
    )
    common.add_argument("--format", choices=["text", "json"], default="text")
    common.add_argument("--out", default=None, help="write output to a file")

    p = argparse.ArgumentParser(
        prog="closedcat",
        description="axiom checker for finite closed categories and closed multicategories",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("check", parents=[common], help="run checker suites")
    c.add_argument("--suite", choices=["axioms", "theorems", "all"], default="all")
    c.add_argument("target", nargs="*", help="instance:NAME or file:PATH")
    c.set_defaults(fn=cmd_check)

    c = sub.add_parser("construct", parents=[common], help="build a derived structure")
    c.add_argument("what", choices=["underlying", "ek"])
    c.add_argument("target")
    c.set_defaults(fn=cmd_construct)

    c = sub.add_parser(
        "represent", parents=[common], help="build the representing multicategory"
    )
    c.add_argument("target")
    c.set_defaults(fn=cmd_represent)

    c = sub.add_parser(
        "roundtrip", parents=[common], help="verify lift/underlying round trips"
    )
    c.add_argument("target")
    c.add_argument("functor")
    c.set_defaults(fn=cmd_roundtrip)

    c = sub.add_parser("instance", parents=[common], help="registry access")
    c.add_argument("action", choices=["list", "dump"])
    c.add_argument("name", nargs="?", default=None)
    c.set_defaults(fn=cmd_instance)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verb == "instance" and args.action == "dump" and not args.name:
        print("instance dump requires a name", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (FormatError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KernelError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
