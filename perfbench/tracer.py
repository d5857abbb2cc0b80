"""Per-layer tracer that instruments the closedcat package from outside.

The tracer replaces functions and methods of the package's modules with
timing wrappers and puts the originals back on ``restore``.  Nothing in
``src/`` knows about it.

* A class method is wrapped on the class itself, so every caller,
  including ``self.method`` calls inside the package, goes through the
  wrapper.
* A module function is wrapped at every module-level name that refers
  to it, because ``from .closed import check_cc_axioms`` copies the
  function into the importing module's namespace.
* Every wrapped function keeps aggregated counters: calls, total time and
  self time.  Self time is total time minus the time of wrapped calls
  made inside it.  When a function is already running further up the
  stack (recursion, as in ``hf.hf_key``), the inner call is counted but
  not timed: its time belongs to the outermost call.
* The wrappers' own work lands in the measured times: in the caller's
  self time for the work outside a call's window, in the call's own self
  time for the work inside it, in the enclosing call for a recursive
  call.  ``calibrate`` measures these costs per call on the machine at
  hand, and the tracer keeps, next to each raw time, the estimated
  wrapper work (and the measured time of observers) inside it; the net
  time is the raw time less that estimate, times ``scale`` (see
  ``Tracer``).
* Entry points (names matched by ``SPAN_NAMES``) also record a span:
  ``(id, name, start, end, parent)``.  Spans stay in memory until
  ``spans_json`` is called at the end of the run; hot leaves such as
  ``compose``, ``__hash__`` and ``hf_key`` only have counters.
"""

from __future__ import annotations

import dataclasses
import re
import statistics
import time
import types
from typing import Callable

# Dunder methods that are wrapped; they are reported without underscores
# (``setcat.SetMor.__hash__`` becomes ``setcat.SetMor.hash``).
DUNDERS = {"__hash__": "hash", "__eq__": "eq"}

SPAN_NAMES = re.compile(
    r"(^|\.)(main|cmd_\w+|check_\w+|verify_\w+|build_\w+|build|ek_normalize|"
    r"pushforward|enumerate_vnat_families|lift_closed_functor|"
    r"underlying_closed_\w+|\w+_to_json|\w+_from_json|dumps|loads|"
    r"render_text|tabularize\w*)$"
)


@dataclasses.dataclass(frozen=True)
class Costs:
    """Estimated seconds of wrapper work per wrapped call, by where the
    work is measured.

    ``caller``: a timed call, outside its own window, so in its caller's
    self time.  ``own``: a timed call, inside its window, so in its own
    self time.  ``nested``: a recursive call that is counted but not timed,
    in the self time of the call that encloses it.  ``observe``: timing an
    observer, beyond the observer's own time, which is measured.
    """

    caller: float = 0.0
    own: float = 0.0
    nested: float = 0.0
    observe: float = 0.0

    @property
    def level(self) -> float:
        """The cost of a timed and a nested call: a measure of the
        machine's speed, to compare calibrations made at different times."""
        return self.caller + self.own + self.nested


class Tracer:
    """Counters and spans for wrapped callables.

    ``clock`` returns seconds; tests pass a fake clock to check the
    arithmetic exactly.  ``costs`` are the wrapper costs that net times
    leave out; ``calibrate`` measures them.  The machine's speed can
    change while the tracer runs, so the estimate is multiplied by
    ``scale`` when net times are read: the ratio of the wrapper cost while
    the calls ran to ``costs`` (1 by default).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        run_id: str = "",
        costs: Costs = Costs(),
    ):
        self.clock = clock
        self.run_id = run_id
        self.costs = costs
        self.scale = 1.0
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []
        self._next_span = 0
        # One accumulator of child time per running (timed) call; the
        # bottom entry collects the time of top-level wrapped calls.
        # ``_overhead_frames`` does the same for the estimated overhead
        # inside the children.
        self._frames: list[float] = [0.0]
        self._overhead_frames: list[float] = [0.0]
        # Estimated wrapper work plus measured observer time, so far.
        self._overhead: list[float] = [0.0]
        self._span_stack: list[int | None] = [None]
        self._patches: list[Callable[[], None]] = []
        # id(original) -> (original, wrapper), for module functions
        self._wrappers: dict[int, tuple[Callable, Callable]] = {}

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn: Callable, name: str, observe: Callable | None = None) -> Callable:
        """Return a timing wrapper of ``fn`` reporting under ``name``.

        ``observe(args, result)`` runs after each successful call, for
        counters computed from arguments or results; its time counts as
        time of the call in the raw times and is left out of the net ones.
        """
        # [calls, total_s, self_s, running, overhead in total_s, overhead
        # in self_s]; the fourth entry marks a call in progress, so that
        # recursive calls are counted but not timed.
        rec = self.stats.setdefault(name, [0, 0.0, 0.0, False, 0.0, 0.0])
        frames, ov_frames, overhead = self._frames, self._overhead_frames, self._overhead
        push, pop = frames.append, frames.pop
        ov_push, ov_pop = ov_frames.append, ov_frames.pop
        clock = self.clock
        c_caller, c_own, c_nested, c_observe = dataclasses.astuple(self.costs)
        call = self._spanned(fn, name) if SPAN_NAMES.search(name) else fn

        # Calling with an empty ``**kwargs`` costs more than the rest of
        # the wrapper, hence the two call forms.
        def wrapper(*args, **kwargs):
            if rec[3]:
                rec[0] += 1
                overhead[0] += c_nested
                result = call(*args, **kwargs) if kwargs else call(*args)
                if observe is not None:
                    o, t = overhead[0], clock()
                    observe(args, result)
                    overhead[0] = o + clock() - t + c_observe
                return result
            rec[3] = True
            push(0.0)
            ov_push(0.0)
            # The caller's share is counted before this call's window opens.
            overhead[0] += c_caller
            o0 = overhead[0]
            t0 = clock()
            try:
                result = call(*args, **kwargs) if kwargs else call(*args)
                if observe is not None:
                    # Set, not added to: wrapped calls made by the observer
                    # are part of the observer's time.
                    o, t = overhead[0], clock()
                    observe(args, result)
                    overhead[0] = o + clock() - t + c_observe
            finally:
                dt = clock() - t0
                overhead[0] += c_own
                ov = overhead[0] - o0
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - pop()
                rec[4] += ov
                rec[5] += ov - ov_pop()
                rec[3] = False
                frames[-1] += dt
                ov_frames[-1] += ov
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _spanned(self, fn: Callable, name: str) -> Callable:
        def spanned(*args, **kwargs):
            with _Span(self, name):
                return fn(*args, **kwargs)

        return spanned

    def wrapped(self, fn: Callable) -> Callable:
        """The wrapper ``install`` made for the module function ``fn``, or
        ``fn`` itself."""
        return self._wrappers.get(id(fn), (None, fn))[1]

    def span(self, name: str):
        """A span around a block of benchmark code (one operation)."""
        return _Span(self, name)

    # -- patching -----------------------------------------------------------

    def setattr(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` and remember the old value for ``restore``."""
        old = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._patches.append(lambda: setattr(owner, attr, old))

    def setitem(self, mapping: dict, key, value) -> None:
        old = mapping[key]
        mapping[key] = value
        self._patches.append(lambda: mapping.__setitem__(key, old))

    def install(
        self,
        modules,
        observers: dict[str, Callable] | None = None,
        skip: frozenset[str] = frozenset(),
    ) -> None:
        """Wrap the public functions and methods defined in ``modules``,
        except those whose reported name is in ``skip``.

        Each module's functions are reported as ``<short>.<name>`` and its
        classes' methods as ``<short>.<Class>.<name>``, where ``<short>``
        is the last component of the module name.  Only code written in
        the module's own source file is wrapped, which leaves out
        dataclass-generated methods and inherited builtins.
        """
        observers = observers or {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                qual = f"{short}.{name}"
                if _is_own_function(obj, mod) and not name.startswith("_") and qual not in skip:
                    if id(obj) not in self._wrappers:
                        self._wrappers[id(obj)] = (obj, self.wrap(obj, qual, observers.get(qual)))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._install_class(obj, qual, mod, observers, skip)
        # Rebind every module-level name that refers to a wrapped function.
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                original, wrapper = self._wrappers.get(id(obj), (None, None))
                if original is obj:
                    self.setattr(mod, name, wrapper)

    def _install_class(self, cls: type, prefix: str, mod, observers, skip) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            kind = type(val)
            fn = val.__func__ if kind in (staticmethod, classmethod) else val
            if not _is_own_function(fn, mod):
                continue
            qual = f"{prefix}.{DUNDERS.get(attr, attr)}"
            if qual in skip:
                continue
            w = self.wrap(fn, qual, observers.get(qual))
            self.setattr(cls, attr, kind(w) if kind in (staticmethod, classmethod) else w)

    def restore(self) -> None:
        """Put back every patched attribute, last patch first."""
        while self._patches:
            self._patches.pop()()
        self._wrappers.clear()

    # -- results ------------------------------------------------------------

    @property
    def overhead_s(self) -> float:
        """Estimated wrapper work plus observer time so far, times
        ``scale``, in seconds."""
        return self.scale * self._overhead[0]

    def metrics(self) -> dict[str, float]:
        """Flat ``<name>.calls`` / ``.total_s`` / ``.self_s`` values and
        their net counterparts ``.net_total_s`` / ``.net_self_s``."""
        out = {}
        k = self.scale
        for name, (calls, total, self_s, _, ov_total, ov_self) in sorted(self.stats.items()):
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
            out[f"{name}.net_total_s"] = total - k * ov_total
            out[f"{name}.net_self_s"] = self_s - k * ov_self
        return out

    def layer_self(self, net: bool = False) -> dict[str, float]:
        """Self time, raw or net, summed per module (the first component of
        a name)."""
        k = self.scale if net else 0.0
        out: dict[str, float] = {}
        for name, rec in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + rec[2] - k * rec[5]
        return out

    def spans_json(self) -> dict:
        t0 = min((s[2] for s in self.spans), default=0.0)
        return {
            "run_id": self.run_id,
            "fields": ["id", "name", "start_s", "end_s", "parent"],
            "spans": [
                [sid, name, start - t0, end - t0, parent]
                for sid, name, start, end, parent in self.spans
            ],
        }


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.sid = tr._next_span
        tr._next_span += 1
        self.parent = tr._span_stack[-1]
        tr._span_stack.append(self.sid)
        self.t0 = tr.clock()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        t1 = tr.clock()
        tr._span_stack.pop()
        tr.spans.append((self.sid, self.name, self.t0, t1, self.parent))
        return False


def _is_own_function(obj, mod) -> bool:
    return (
        isinstance(obj, types.FunctionType)
        and obj.__module__ == mod.__name__
        and obj.__code__.co_filename == mod.__file__
    )


def calibrate(clock: Callable[[], float] = time.perf_counter, n: int = 20_000, reps: int = 7) -> Costs:
    """Measure the wrapper's cost per call, as the median of ``reps``
    rounds of ``n`` calls each.

    A loop calls a two-argument no-op ``n`` times, once unwrapped and once
    with both loop and no-op wrapped.  The wrapped loop's self time beyond
    an idle loop is the ``caller`` cost; the no-op's self time beyond an
    unwrapped call is the ``own`` cost.  The same with a no-op observer
    gives ``observe``, and a recursion ``depth`` deep gives ``nested``.
    A cost that measures below 0 is taken as 0.
    """
    depth = 50

    def leaf(a, b):
        return None

    def loop(f, k):
        for _ in range(k):
            f(1, 2)

    def idle(f, k):
        for _ in range(k):
            pass

    def rec(k, f):
        if k:
            f(k - 1, f)

    def rec_loop(f, k):
        for _ in range(k):
            f(depth, f)

    def timed(fn, *args):
        t0 = clock()
        fn(*args)
        return clock() - t0

    def self_s(tr, name):
        return tr.stats[name][2]

    m = n // depth
    samples: dict[str, list[float]] = {f.name: [] for f in dataclasses.fields(Costs)}
    for _ in range(reps):
        t_idle = timed(idle, leaf, n)
        per_call = (timed(loop, leaf, n) - t_idle) / n

        tr = Tracer(clock)
        tr.wrap(loop, "loop")(tr.wrap(leaf, "leaf"), n)
        caller = (self_s(tr, "loop") - t_idle) / n
        own = self_s(tr, "leaf") / n - per_call

        tr = Tracer(clock)
        tr.wrap(loop, "loop")(tr.wrap(leaf, "leaf", lambda args, result: None), n)
        observe = (self_s(tr, "leaf") - tr.overhead_s) / n - per_call - own

        # The outermost call of each recursion is timed and pays ``own``;
        # the ``depth`` calls under it are nested.
        raw = timed(rec_loop, rec, m) - timed(idle, rec, m) - m * per_call
        tr = Tracer(clock)
        w = tr.wrap(rec, "rec")
        tr.wrap(rec_loop, "loop")(w, m)
        nested = (tr.stats["rec"][1] - m * own - raw) / (m * depth)

        for name, v in zip(samples, (caller, own, nested, observe)):
            samples[name].append(v)
    return Costs(**{k: max(statistics.median(v), 0.0) for k, v in samples.items()})
