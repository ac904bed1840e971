"""Per-layer spans and counts, recorded from outside the package.

`Tracer.install` replaces bidiropt's public functions with timing wrappers at
every binding: the defining module, every module that imported the function
by name (`canonical_text` in `cost`, `known_bits` in `passes` and `reverse`,
...), and the `FORWARD_PASSES` table, whose entries `reverse_variants` calls
directly for its paired-undo filter. A span's self time is its duration minus
the time of the spans it encloses. Nothing under `src/` changes.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

FORWARD = ("const-fold", "identity-simplify", "strength-reduce", "divmul-to-rem",
           "add-to-or", "reassociate", "cse", "cond-prop", "simplifycfg",
           "mem2reg", "licm", "dse", "dce")
REVERSE = ("rev-instexpand-rem", "rev-instexpand-shl", "rev-instexpand-or",
           "rev-reassociate", "rev-split-block", "rev-licm-sink", "reg2mem",
           "rev-insert-dead-store")

# (module, function) -> span name; reverse_variants is split by pass name
_SPANS = (
    ("ir", "parse_module"), ("ir", "print_function"), ("ir", "canonical_text"),
    ("ir", "canonical_hash"),
    ("analysis", "known_bits"), ("analysis", "compute_dominators"),
    ("analysis", "find_natural_loops"), ("analysis", "use_def"),
    ("cost", "rank_key"), ("cost", "static_cost"),
    ("interp", "interpret"), ("interp", "dynamic_cost_total"),
    ("interp", "differential_check"),
    ("search", "exhaustive_search"), ("search", "ibo"),
    ("search", "explore_sep_class"),
    ("reverse", "reverse_variants"),
    ("cli", "main"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec: list[tuple[str, str, str]] = []

    def span(name: str) -> None:
        spec.append((f"{name}.calls", "count", "lower"))
        spec.append((f"{name}.self_s", "s", "lower"))

    for fn in ("parse_module", "print_function", "canonical_text", "canonical_hash"):
        span(f"ir.{fn}")
    spec.append(("ir.canonical_per_program", "calls/program", "lower"))
    for fn in ("known_bits", "compute_dominators", "find_natural_loops", "use_def"):
        span(f"analysis.{fn}")
    for p in FORWARD:
        span(f"passes.{p}")
        spec.insert(-1, (f"passes.{p}.fires", "count", "lower"))
    spec.append(("passes.fire_rate", "ratio", "higher"))
    for r in REVERSE:
        span(f"reverse.{r}")
        spec.insert(-1, (f"reverse.{r}.variants", "count", "lower"))
    span("cost.rank_key")
    span("cost.static_cost")
    span("interp.interpret")
    spec.append(("interp.steps", "count", "lower"))
    spec.append(("interp.steps_per_s", "1/s", "higher"))
    span("interp.dynamic_cost_total")
    spec.append(("interp.dynamic_evals_per_program", "evals/program", "lower"))
    span("interp.differential_check")
    span("search.exhaustive_search")
    spec.append(("search.ibo.self_s", "s", "lower"))
    spec.append(("search.explore_sep_class.self_s", "s", "lower"))
    spec += [("search.programs_explored", "count", "lower"),
             ("search.pruned_by_hash", "count", "lower"),
             ("search.passcache.applies", "count", "lower"),
             ("search.passcache.hit_rate", "ratio", "higher"),
             ("search.subsearch_hits", "count", "higher"),
             ("search.class_nodes", "count", "lower"),
             ("search.class_edges", "count", "lower")]
    span("cli.main")
    spec += [("trace.untraced_wall_s", "s", "lower"),
             ("trace.traced_wall_s", "s", "lower"),
             ("trace.overhead_ratio", "ratio", "lower")]
    return spec


def _counts(name: str, result, counts: Counter) -> None:
    """Counters read off a call's result, where the work happens."""
    if name.startswith("passes."):
        counts[name + ".fires"] += bool(result.changed)
    elif name.startswith("reverse."):
        counts[name + ".variants"] += len(result)
    elif name == "interp.interpret":
        counts["interp.steps"] += result.steps
    elif name == "search.exhaustive_search":
        counts["search.programs_explored"] += result.explored
        counts["search.pruned_by_hash"] += result.pruned_by_hash
    elif name == "search.ibo":
        counts["search.subsearch_hits"] += sum(it.cache_hits for it in result.iterations)
    elif name == "search.explore_sep_class":
        counts["search.class_nodes"] += len(result.nodes)
        counts["search.class_edges"] += len(result.edges)


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[float] = []  # child time of each open span
        self._undo: list = []

    def _wrap(self, name, fn):
        calls, self_s, counts, stack = self.calls, self.self_s, self.counts, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = f"reverse.{args[0]}" if name == "reverse" else name
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[label] += dt - stack.pop()
                calls[label] += 1
                if stack:
                    stack[-1] += dt
            _counts(label, result, counts)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the loaded bidiropt modules; `uninstall` puts them back."""
        mods = {n.rpartition(".")[2]: m for n, m in sys.modules.items()
                if n.startswith("bidiropt.")}
        swap = {}
        for mod, fn in _SPANS:
            orig = getattr(mods[mod], fn)
            name = "reverse" if fn == "reverse_variants" else f"{mod}.{fn}"
            swap[id(orig)] = (orig, self._wrap(name, orig))
        table = mods["passes"].FORWARD_PASSES
        for pname, orig in list(table.items()):
            swap[id(orig)] = (orig, self._wrap(f"passes.{pname}", orig))
            table[pname] = swap[id(orig)][1]
            self._undo.append((table.__setitem__, pname, orig))
        for m in list(mods.values()) + [sys.modules["bidiropt"]]:
            for attr, value in list(vars(m).items()):
                hit = swap.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(m, attr, hit[1])
                    self._undo.append((functools.partial(setattr, m), attr, value))

        cache_cls = mods["search"].PassCache
        apply, counts = cache_cls.apply, self.counts

        def counted_apply(cache, name, f, digest):
            before = cache.hits
            out = apply(cache, name, f, digest)
            counts["search.passcache.applies"] += 1
            counts["search.passcache.hits"] += cache.hits - before
            return out

        cache_cls.apply = counted_apply
        self._undo.append((functools.partial(setattr, cache_cls), "apply", apply))

    def uninstall(self) -> None:
        for put, key, value in reversed(self._undo):
            put(key, value)
        self._undo.clear()

    def metrics(self, programs: int, untraced_wall: float, traced_wall: float,
                time_factor: float) -> dict[str, float]:
        """Every per-layer metric of `per_layer_spec`, for `programs` distinct
        programs visited by the workload. Self times are multiplied by
        `time_factor`, the traced round's host factor; the two walls are
        already scaled."""
        out: dict[str, float] = {}
        for name, _, _ in per_layer_spec():
            stem, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self.calls[stem]
            elif field == "self_s":
                out[name] = self.self_s[stem] * time_factor
            else:
                out[name] = self.counts[name]
        pass_calls = sum(self.calls[f"passes.{p}"] for p in FORWARD)
        pass_fires = sum(self.counts[f"passes.{p}.fires"] for p in FORWARD)
        applies = self.counts["search.passcache.applies"]
        interp_s = self.self_s["interp.interpret"] * time_factor
        out.update({
            "ir.canonical_per_program": self.calls["ir.canonical_text"] / programs,
            "passes.fire_rate": pass_fires / pass_calls if pass_calls else 0.0,
            "interp.steps_per_s": self.counts["interp.steps"] / interp_s if interp_s else 0.0,
            "interp.dynamic_evals_per_program":
                self.calls["interp.dynamic_cost_total"] / programs,
            "search.passcache.hit_rate":
                self.counts["search.passcache.hits"] / applies if applies else 0.0,
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_ratio": traced_wall / untraced_wall,
        })
        return out
