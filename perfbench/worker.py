"""One measured process of the closedcat benchmark.

``run.py`` starts this script in a fresh interpreter for every pass, so
each pass pays what a user of the command line pays: interpreter start,
``import closedcat`` and the instance builds, with no cache warmed by an
earlier pass.  The script

1. sets up: imports every module of the package and builds the
   instances the workload uses, then notes the time at which the first
   operation starts;
2. runs every operation of the workload once, in the order fixed by the
   seed, one at a time (a closed loop with one client);
3. checks every output against the known answer and the golden digests;
4. prints one JSON line with timings, verdicts and, for a traced pass,
   the per-layer counters.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py --workload NAME --seed N [--setup-only | --traced]
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import random
import re
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
# Relative to the repository root, which is the working directory: the
# path is part of the `check file:` report, so it must not vary.
REPRESENT_OUT = "perfbench/out/work/heyting2-rep.json"
LAYERS = (
    "hf", "core", "setcat", "closed", "enriched", "multicat",
    "closedmc", "correspond", "instances", "interchange", "report", "cli",
)
FAIL_LINE = re.compile(r"^\[FAIL\] (\S+)", re.M)
# Methods that the traced pass leaves unwrapped.  `MonoidalMulticategory.
# compose` calls each about 6 million times in `registry-check`, and there
# each is a dict lookup (`tensor_list` is called on the empty profile) of
# well under the microsecond a wrapper costs a call.  Wrapped, they
# would more than double that traced pass, beyond the run's time limit on
# a slow machine, and their net times would be smaller than the error of
# the wrapper-cost estimate.  Their time counts in their callers' self
# time.
UNTRACED = frozenset({
    "core.TabularCategory.dom",
    "core.TabularCategory.cod",
    "core.TabularCategory.identity",
    "multicat.MonoidalMulticategory.tensor_list",
})


def sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@dataclasses.dataclass
class Op:
    """One operation: ``run(ctx)`` returns its raw output, ``outputs``
    turns that into the digested texts, and ``verdict`` checks it against
    the known answer.  ``needs`` names operations that must run earlier
    in the same pass."""

    name: str
    run: Callable
    verdict: Callable
    outputs: Callable
    needs: tuple = ()


# -- command-line operations -------------------------------------------------


def cli_op(name, argv, expect_rc, must_fail=(), needs=(), files=()):
    """A `closedcat` command run through ``cli.main``.  ``files`` are
    written by the command; they are deleted first, so a stale file can
    never pass for a new one."""

    def run(ctx):
        from closedcat import cli

        for f in files:
            Path(f).unlink(missing_ok=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        return rc, buf.getvalue()

    def outputs(out):
        texts = {"stdout": out[1]}
        for f in files:
            texts[f"file:{Path(f).name}"] = Path(f).read_bytes()
        return texts

    def verdict(out):
        rc, text = out
        errs = []
        if rc != expect_rc:
            errs.append(f"exit code {rc}, expected {expect_rc}")
        failing = set(FAIL_LINE.findall(text))
        for check in must_fail:
            if check not in failing:
                errs.append(f"advertised failure {check} did not fail")
        return errs

    return Op(name, run, verdict, outputs, tuple(needs))


def registry_check_ops():
    from closedcat import instances

    ops = []
    for name in sorted(instances.REGISTRY):
        info = instances.REGISTRY[name]
        # Known answer from the registry's metadata: a positive instance
        # passes every check, a negative fixture exits 1 and fails at
        # least the checks it advertises.
        ops.append(
            cli_op(
                f"check-{name}",
                ["check", "--suite", "all", f"instance:{name}"],
                1 if info.advertised_failure else 0,
                must_fail=[f"{name}/{c}" for c in info.advertised_failure],
            )
        )
    return ops


def represent_reload_ops():
    represent = cli_op(
        "represent",
        ["represent", "instance:heyting2", "--arity-cap", "4", "--out", REPRESENT_OUT],
        0,
        files=[REPRESENT_OUT],
    )
    return [
        represent,
        cli_op(
            "check-file",
            ["check", "--suite", "all", f"file:{REPRESENT_OUT}"],
            0,
            needs=["represent"],
        ),
        cli_op("roundtrip-z2-shift", ["roundtrip", "instance:z2", "functor:shift"], 0),
        cli_op("roundtrip-z2-inversion", ["roundtrip", "instance:z2", "functor:inversion"], 0),
        cli_op(
            "roundtrip-heyting2mc-identity",
            ["roundtrip", "instance:heyting2mc", "functor:identity"],
            0,
        ),
    ]


# -- library operations (the ek bridge of acceptance criterion 6) ------------


def report_op(name, make, needs=()):
    """An operation whose output is a Report that must pass (``finset``
    is a positive instance)."""

    def verdict(rep):
        return [] if rep.ok else [f"{len(rep.failures())} failed checks"]

    return Op(name, make, verdict, lambda rep: {"report": rep.render_text()}, tuple(needs))


def set_bridge_ops():
    # Functions are looked up on their modules at call time, so that a
    # traced pass calls the wrappers.
    from closedcat import closed, enriched

    def normalize(ctx):
        ctx["ek"], ctx["iso"] = closed.ek_normalize(ctx["cs"])
        return ctx["ek"]

    def ek_summary(ek):
        w = ek.closed
        objs = sorted(w.cat.objects(), key=w.cat.obj_key)
        lines = []
        for x in objs:
            for y in objs:
                names = sorted(ek.elt_atom(t).name for t in w.cat.hom(x, y))
                lines.append(f"{w.cat.show_obj(x)} {w.cat.show_obj(y)} {names}")
        return "\n".join(lines)

    def normalize_verdict(ek):
        """gamma is a bijection on every hom-set of the base."""
        cat = ek.base.cat
        return [
            f"hom size mismatch at {x!r},{y!r}"
            for x in cat.objects()
            for y in cat.objects()
            if len(cat.hom(x, y)) != len(ek.closed.cat.hom(x, y))
        ]

    def compare(ctx):
        """Hom objects of the pushforward of the underlying V-category
        along E, against the hom-sets of the normalized category."""
        cs, ek = ctx["cs"], ctx["ek"]
        E = closed.build_E_functor(cs, ctx["sets"])
        EA = enriched.pushforward(E, enriched.build_underlying_V_category(cs))
        w = ek.closed
        homs, bad = [], []
        for x in w.cat.objects():
            for y in w.cat.objects():
                ea = sorted(a.name for a in EA.hom_obj(x, y).elements)
                wm = sorted(ek.elt_atom(t).name for t in w.cat.hom(x, y))
                homs.append(ea)
                if ea != wm:
                    bad.append(f"elements at {x!r},{y!r}")
        return sorted(homs), bad

    return [
        Op("ek_normalize", normalize, normalize_verdict, lambda ek: {"homs": ek_summary(ek)}),
        report_op("check_ek_axioms", lambda ctx: closed.check_ek_axioms(ctx["ek"]), ["ek_normalize"]),
        report_op("check_cf_axioms-iso", lambda ctx: closed.check_cf_axioms(ctx["iso"]), ["ek_normalize"]),
        report_op(
            "check_cf_axioms-E",
            lambda ctx: closed.check_cf_axioms(closed.build_E_functor(ctx["cs"], ctx["sets"])),
        ),
        Op(
            "pushforward-compare",
            compare,
            lambda out: out[1],
            lambda out: {"homs": repr(out[0])},
            ("ek_normalize",),
        ),
    ]


# -- workloads ---------------------------------------------------------------

# Set-up builds the registry instances a workload uses.  The command-line
# operations build their own copies again, as the command does; building
# here puts the builds in `setup_s` and stops a run early if an instance
# no longer builds.  The builds are dropped at once, as no operation uses
# them, so that they do not count in the pass's peak RSS.


def setup_registry_check(ctx):
    from closedcat import instances

    for _, info in sorted(instances.REGISTRY.items()):
        info.build()


def setup_set_bridge(ctx):
    from closedcat import instances
    from closedcat.setcat import build_finset_closed

    ctx["cs"] = instances.get("finset").build()
    ctx["sets"] = build_finset_closed(2)


def setup_represent_reload(ctx):
    from closedcat import instances

    Path(REPRESENT_OUT).parent.mkdir(parents=True, exist_ok=True)
    for name in ("heyting2", "z2", "heyting2mc"):
        instances.get(name).build()


WORKLOADS = {
    "registry-check": (setup_registry_check, registry_check_ops),
    "set-bridge": (setup_set_bridge, set_bridge_ops),
    "represent-reload": (setup_represent_reload, represent_reload_ops),
}

def seeded_order(ops: list[Op], seed: int) -> list[Op]:
    """A random order of ``ops`` fixed by ``seed`` that runs every
    operation after the ones it needs."""
    rng = random.Random(seed)
    left = list(ops)
    done: set[str] = set()
    order = []
    while left:
        ready = [op for op in left if all(n in done for n in op.needs)]
        op = ready[rng.randrange(len(ready))]
        left.remove(op)
        done.add(op.name)
        order.append(op)
    return order


# -- tracing -----------------------------------------------------------------


class WasteCounters:
    """Counters computed from the arguments of wrapped calls.  Each holds
    strong references to what it has seen, so ``id`` values stay unique
    for the length of the pass."""

    def __init__(self):
        self.hashed: dict[int, object] = {}
        self.hash_repeats = 0
        self.owners: dict[int, object] = {}
        self.composes = {"multicat": [0, set()], "correspond": [0, set()]}
        self.bytes_written = 0
        self.report_items = 0

    def on_setmor_hash(self, args, result):
        obj = args[0]
        if id(obj) in self.hashed:
            self.hash_repeats += 1
        else:
            self.hashed[id(obj)] = obj

    def compose_observer(self, group):
        rec = self.composes[group]

        def observe(args, result):
            m, fs, g = args[0], args[1], args[2]
            self.owners[id(m)] = m
            rec[0] += 1
            rec[1].add((id(m), tuple(fs), g))

        return observe

    def on_dumps(self, args, result):
        self.bytes_written += len(result.encode("utf-8"))

    def on_render(self, args, result):
        self.report_items += len(args[0].items)

    def observers(self):
        return {
            "setcat.SetMor.hash": self.on_setmor_hash,
            "multicat.MonoidalMulticategory.compose": self.compose_observer("multicat"),
            "multicat.TabularMulticategory.compose": self.compose_observer("multicat"),
            "correspond.RepresentingMulticat.compose": self.compose_observer("correspond"),
            "interchange.dumps": self.on_dumps,
            "report.Report.render_text": self.on_render,
        }

    def metrics(self, stats) -> dict:
        def ratio(num, den):
            return num / den if den else 0.0

        hash_calls = stats["setcat.SetMor.hash"][0]
        mc_calls, mc_keys = self.composes["multicat"]
        rc_calls, rc_keys = self.composes["correspond"]
        return {
            "setcat.SetMor.hash.repeat_ratio": ratio(self.hash_repeats, hash_calls),
            "multicat.compose.distinct_ratio": ratio(len(mc_keys), mc_calls),
            "correspond.RepresentingMulticat.compose.distinct_ratio": ratio(len(rc_keys), rc_calls),
            "interchange.bytes_written": self.bytes_written,
            "report.items": self.report_items,
        }


def install_tracer(tracer, waste):
    from closedcat import instances

    modules = [importlib.import_module(f"closedcat.{m}") for m in LAYERS]
    tracer.install(modules, waste.observers(), UNTRACED)
    # The registry keeps its own references to the build functions, so
    # each entry is replaced by one whose build is wrapped.
    for name, info in list(instances.REGISTRY.items()):
        build = tracer.wrap(tracer.wrapped(info.build), "instances.build")
        tracer.setitem(instances.REGISTRY, name, dataclasses.replace(info, build=build))


# -- the pass ----------------------------------------------------------------


def run_pass(ops, ctx, tracer=None, calibrate=None):
    """Run ``ops`` in order; return the wall seconds of the pass (the sum
    of the operations' times), seconds per operation, raw outputs and the
    exceptions raised.

    In a traced pass, ``calibrate`` measures the tracer's cost again after
    each operation, outside the operations' times.  Each operation's
    estimated overhead is scaled by the mean of the levels measured just
    before and after it, the tracer's ``scale`` is set to the weighted
    mean of these factors, and operation times are net of the scaled
    estimate.  The levels and the scale are returned too."""
    raw, times, raised = {}, {}, {}
    overheads, levels = [], []
    if tracer is not None:
        levels.append(tracer.costs.level)
    clock = time.perf_counter
    for op in ops:
        o0 = 0.0 if tracer is None else tracer.overhead_s
        t0 = clock()
        try:
            if tracer is not None:
                with tracer.span(f"op.{op.name}"):
                    raw[op.name] = op.run(ctx)
            else:
                raw[op.name] = op.run(ctx)
        except Exception:
            raised[op.name] = traceback.format_exc(limit=3)
        times[op.name] = clock() - t0
        if tracer is not None:
            overheads.append(tracer.overhead_s - o0)
            levels.append(calibrate(reps=3).level)
    wall = sum(times.values())
    if tracer is not None:
        factors = [(a + b) / (2 * levels[0]) for a, b in zip(levels, levels[1:])]
        for op, ov, k in zip(ops, overheads, factors):
            times[op.name] -= k * ov
        est = sum(overheads)
        tracer.scale = sum(k * ov for ov, k in zip(overheads, factors)) / est if est else 1.0
    return wall, times, raw, raised, levels


def check_outputs(ops, raw, raised, golden):
    """Digests of every output and the errors found, per operation."""
    digests, errors = {}, {}
    for op in ops:
        if op.name in raised:
            errors[op.name] = [raised[op.name]]
            continue
        errs = list(op.verdict(raw[op.name]))
        digests[op.name] = {k: sha(v) for k, v in op.outputs(raw[op.name]).items()}
        if golden is not None:
            want = golden.get(op.name)
            if want != digests[op.name]:
                errs.append(f"digest {digests[op.name]} differs from golden {want}")
        if errs:
            errors[op.name] = errs
    return digests, errors


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--traced", action="store_true")
    p.add_argument("--no-golden", action="store_true", help="skip the digest comparison")
    p.add_argument("--spans-out", default=None, help="write the traced pass's spans here")
    args = p.parse_args(argv)

    setup, make_ops = WORKLOADS[args.workload]
    # Every layer is loaded before the first operation, as `closedcat`
    # on the command line loads it, so traced and untraced passes start
    # alike and the imports count in `setup_s`.
    for m in LAYERS:
        importlib.import_module(f"closedcat.{m}")
    ctx: dict = {}
    setup(ctx)
    ops = seeded_order(make_ops(), args.seed)
    first_op = time.perf_counter()
    result = {"first_op_t": first_op}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = waste = calibrate = None
    if args.traced:
        from tracer import Tracer, calibrate  # next to this script

        costs = calibrate()
        result["tracer_costs"] = dataclasses.asdict(costs)
        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}", costs=costs)
        waste = WasteCounters()
        install_tracer(tracer, waste)
    try:
        wall, times, raw, raised, levels = run_pass(ops, ctx, tracer, calibrate)
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    golden = None if args.no_golden else json.loads(GOLDEN.read_text())[args.workload]
    digests, errors = check_outputs(ops, raw, raised, golden)
    result.update(
        wall_s=wall,
        order=[op.name for op in ops],
        op_s=times,
        digests=digests,
        errors=errors,
        attempted=len(ops),
        failed=len(errors),
        peak_rss_mb=peak_rss_mb,
    )
    if tracer is not None:
        m = tracer.metrics()
        m.update(waste.metrics(tracer.stats))
        for layer, s in tracer.layer_self().items():
            m[f"layer.{layer}.raw_self_s"] = s
        for layer, s in tracer.layer_self(net=True).items():
            m[f"layer.{layer}.net_self_s"] = s
        m["trace.overhead_s"] = tracer.overhead_s
        result["trace"] = m
        result["tracer_levels"] = levels
        result["tracer_scale"] = tracer.scale
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(tracer.spans_json()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
