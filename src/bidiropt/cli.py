"""Command-line interface.

Exit codes: 0 success, 1 validation or equivalence failure, 2 usage or
config error, or a dynamic-metric workload the input program does not
finish on (trap or step limit; the report names the case), 3 the program
budget ran out before the search finished (the report holds the best result
found and has budget_exceeded set).

Every report is a single JSON object {command, input, config, outcome} so
runs are comparable across machines; --format text renders the same data
as indented key: value lines.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .config import FORMATS, METRICS, SETTINGS, Config, ConfigError, load_config, override
from .cost import rank_key
from .interp import (
    WorkloadDiverged,
    default_workload,
    differential_check,
    dynamic_cost_total,
    interpret,
    load_workload,
)
from .ir import (
    Function,
    ParseError,
    canonical_hash,
    parse_module,
    print_function,
    validate_module,
)
from .passes import FORWARD_PASSES, apply_pass
from .reverse import REVERSE_PASSES
from .search import (
    IboOutcome,
    PassCache,
    ReplayDiverged,
    SearchOutcome,
    check_closure,
    exhaustive_search,
    explore_sep_class,
    ibo,
    is_site_index,
    replay_sequence,
)


def _emit(report: dict, cfg: Config) -> None:
    if cfg.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _emit_text(report)


def _emit_text(report: dict, indent: str = "") -> None:
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _emit_text(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{indent}{key}:")
            for item in value:
                _emit_text(item, indent + "  ")
                print()
        else:
            print(f"{indent}{key}: {value}")


def _key_json(key: tuple) -> list:
    # final element is the canonical-text tie-break; the IR itself is reported
    return list(key[:-1])


def _config_json(cfg: Config) -> dict:
    d = asdict(cfg)
    for k in ("passes", "reverses"):
        if d[k] is not None:
            d[k] = list(d[k])
    return d


def _report(command: str, cfg: Config, **fields) -> dict:
    rep = {"command": command, "config": _config_json(cfg)}
    rep.update(fields)
    return rep


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(2)


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        print(f"error: cannot write {path}: {e}", file=sys.stderr)
        raise SystemExit(2)


def _load(path: str, function: str | None = None) -> Function:
    try:
        m = parse_module(_read(path))
    except ParseError as e:
        print(f"{path}:{e.line}:{e.col}: {e.message}", file=sys.stderr)
        raise SystemExit(1)
    errs = validate_module(m)
    if errs:
        for err in errs:
            print(f"{path}: {err.kind} at {err.where}: {err.message}", file=sys.stderr)
        raise SystemExit(1)
    if function is not None:
        try:
            return m.function(function)
        except KeyError:
            print(f"error: no function @{function} in {path}", file=sys.stderr)
            raise SystemExit(2)
    if len(m.functions) != 1:
        names = ", ".join(f.name for f in m.functions)
        print(f"error: {path} defines {len(m.functions)} functions ({names}); pass --function",
              file=sys.stderr)
        raise SystemExit(2)
    return m.functions[0]


def _input_json(path: str, f: Function, cfg: Config) -> dict:
    return {"file": str(path), "function": f.name,
            "key": _key_json(rank_key(f, cfg.model()))}


def _workload(cfg: Config, f: Function, count: int = 1000):
    if cfg.workload:
        try:
            wl = load_workload(Path(cfg.workload), f.name)
            for row in wl.args:
                if len(row) != len(f.params):
                    raise ValueError(f"row {list(row)} has {len(row)} value(s), "
                                     f"@{f.name} takes {len(f.params)}")
            return wl
        except (OSError, ValueError) as e:
            print(f"error: cannot load workload {cfg.workload}: {e}", file=sys.stderr)
            raise SystemExit(2)
    return default_workload(f, seed=cfg.seed, count=count)


def _trace(f: Function, steps, cfg: Config, cache: PassCache, workload=None) -> list:
    """Replay a reported sequence step by step, recording the key after each.
    Each key comes from the run's cache, and each replayed program is
    interned there, so a program the search measured is not measured or
    printed again."""
    rows = []
    g = f
    for step in steps:
        g = cache.intern(replay_sequence(g, [step]))
        key = cache.rank(g, canonical_hash(g), cfg.model(), workload, cfg.step_limit)
        rows.append({"step": step, "key": _key_json(key)})
    return rows


def _diverged_json(wl, e: WorkloadDiverged) -> dict:
    return {"cases": len(wl.args), "diverged_args": list(e.args),
            "outcome": e.result.outcome, "reason": e.result.reason}


def _search_json(out: SearchOutcome, f: Function, cfg: Config, cache: PassCache,
                 workload=None) -> dict:
    return {
        "best_ir": print_function(out.best_function),
        "best_key": _key_json(out.best_key),
        "sequence": list(out.best_sequence),
        "trace": _trace(f, out.best_sequence, cfg, cache, workload),
        "start_key": _key_json(out.start_key),
        "explored": out.explored,
        "saturated_leaves": out.saturated_leaves,
        "pruned_by_hash": out.pruned_by_hash,
        "truncated": out.truncated,
        "skipped_oversize": out.skipped_oversize,
    }


def _ibo_json(out: IboOutcome, f: Function, cfg: Config, cache: PassCache,
              workload=None) -> dict:
    return {
        "best_ir": print_function(out.best_function),
        "best_key": _key_json(out.best_key),
        "sequence": list(out.best_provenance),
        "trace": _trace(f, out.best_provenance, cfg, cache, workload),
        "baseline": _search_json(out.baseline, f, cfg, cache, workload),
        "iterations": [
            {
                "iteration": it.iteration,
                "frontier_size": it.frontier_size,
                "variants_generated": it.variants_generated,
                "searches_run": it.searches_run,
                "cache_hits": it.cache_hits,
                "best_key": _key_json(it.best_key),
                "improved": it.improved,
            }
            for it in out.iterations
        ],
        "total_programs": out.total_programs,
    }


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(args, cfg: Config) -> int:
    text = _read(args.file)
    report = _report("validate", cfg, input={"file": args.file})
    try:
        m = parse_module(text)
    except ParseError as e:
        report["outcome"] = {
            "valid": False,
            "errors": [{"kind": "ParseError", "where": f"line {e.line}",
                        "message": e.message}],
        }
        _emit(report, cfg)
        return 1
    errs = validate_module(m)
    report["outcome"] = {
        "valid": not errs,
        "functions": [f.name for f in m.functions],
        "errors": [{"kind": e.kind, "where": e.where, "message": e.message}
                   for e in errs],
    }
    _emit(report, cfg)
    return 0 if not errs else 1


def cmd_run(args, cfg: Config) -> int:
    if cfg.workload and args.args:
        print("error: run takes integer arguments or a workload, not both", file=sys.stderr)
        return 2
    f = _load(args.file, args.function)
    report = _report("run", cfg, input=_input_json(args.file, f, cfg))
    if cfg.workload:
        wl = _workload(cfg, f)
        try:
            total = dynamic_cost_total(f, wl, limit=cfg.step_limit, model=cfg.model())
        except WorkloadDiverged as e:
            report["outcome"] = _diverged_json(wl, e)
        else:
            report["outcome"] = {"cases": len(wl.args), "dynamic_cost_total": total}
        _emit(report, cfg)
        return 0
    try:
        vals = [int(s, 0) & 0xFFFFFFFF for s in args.args]
    except ValueError:
        print("error: arguments must be integers", file=sys.stderr)
        return 2
    if len(vals) != len(f.params):
        print(f"error: @{f.name} takes {len(f.params)} argument(s), got {len(vals)}",
              file=sys.stderr)
        return 2
    res = interpret(f, vals, limit=cfg.step_limit, model=cfg.model())
    report["outcome"] = {
        "args": vals, "outcome": res.outcome, "value": res.value,
        "reason": res.reason, "steps": res.steps, "dynamic_cost": res.dynamic_cost,
    }
    _emit(report, cfg)
    return 0


def cmd_opt(args, cfg: Config) -> int:
    f = _load(args.file, args.function)
    steps = [s for s in args.pipeline.split(",") if s]
    for step in steps:
        name, at, idx = step.partition("@")
        if not ((name in FORWARD_PASSES and not at)
                or (name in REVERSE_PASSES and is_site_index(idx))):
            print(f"error: bad step {step!r}: want a forward pass name or "
                  f"reverse-name@<index>", file=sys.stderr)
            return 2
    g = f
    applied = []
    try:
        for step in steps:
            # replay fails a non-firing forward step; lenient mode skips it
            if args.strict or "@" in step:
                g = replay_sequence(g, [step])
                applied.append(step)
            else:
                out = apply_pass(step, g)
                if out.changed:
                    applied.append(step)
                g = out.function
    except ReplayDiverged as e:
        print(f"error: replay diverged: {e}", file=sys.stderr)
        return 1
    if args.output:
        _write(args.output, print_function(g))
    if cfg.format == "text" and not args.report:
        sys.stdout.write(print_function(g))
        return 0
    report = _report("opt", cfg, input=_input_json(args.file, f, cfg))
    report["outcome"] = {
        "steps": steps, "applied": applied,
        "ir": print_function(g),
        "key": _key_json(rank_key(g, cfg.model())),
    }
    _emit(report, cfg)
    return 0


def cmd_search(args, cfg: Config) -> int:
    f = _load(args.file, args.function)
    wl = _workload(cfg, f) if cfg.metric == "dynamic" else None
    report = _report("search", cfg, input=_input_json(args.file, f, cfg))
    cache = PassCache()
    try:
        out = exhaustive_search(f, cfg.passes, cfg.limits(), cfg.model(), wl, cache)
    except WorkloadDiverged as e:
        report["outcome"] = _diverged_json(wl, e)
        _emit(report, cfg)
        return 2
    report["outcome"] = _search_json(out, f, cfg, cache, wl)
    report["budget_exceeded"] = out.budget_exceeded
    _emit(report, cfg)
    return 3 if out.budget_exceeded else 0


def cmd_ibo(args, cfg: Config) -> int:
    if args.iterations < 0:
        print(f"error: -k must be >= 0, got {args.iterations}", file=sys.stderr)
        return 2
    f = _load(args.file, args.function)
    wl = _workload(cfg, f) if cfg.metric == "dynamic" else None
    report = _report("ibo", cfg, input=_input_json(args.file, f, cfg),
                     iterations_requested=args.iterations)
    cache = PassCache()
    try:
        out = ibo(f, args.iterations, cfg.passes, cfg.reverses, cfg.limits(),
                  cfg.model(), wl, cache)
    except WorkloadDiverged as e:
        report["outcome"] = _diverged_json(wl, e)
        _emit(report, cfg)
        return 2
    report["outcome"] = _ibo_json(out, f, cfg, cache, wl)
    report["budget_exceeded"] = out.budget_exceeded
    _emit(report, cfg)
    return 3 if out.budget_exceeded else 0


def cmd_equiv_class(args, cfg: Config) -> int:
    f = _load(args.file, args.function)
    graph = explore_sep_class(f, cfg.passes, cfg.reverses, cfg.limits())
    rep = check_closure(graph)
    if args.dot:
        _write(args.dot, _dot(graph, cfg))
    report = _report("equiv-class", cfg, input=_input_json(args.file, f, cfg))
    report["outcome"] = {
        "nodes": len(graph.nodes), "edges": len(graph.edges),
        "truncated": graph.truncated, "verdict": rep.verdict,
        "components": rep.components,
        "violations": [list(v) for v in rep.violations],
    }
    _emit(report, cfg)
    return 0 if rep.verdict != "violated" else 1


def _dot(graph, cfg: Config) -> str:
    lines = ["digraph equiv {", '  node [shape=box, fontname="monospace"];']
    for d, g in graph.nodes.items():
        key = rank_key(g, cfg.model())
        extra = ", peripheries=2" if d == graph.start else ""
        lines.append(f'  "{d[:12]}" [label="{d[:12]}\\n{key[0]},{key[1]}"{extra}];')
    for a, label, b in graph.edges:
        style = ', style=dashed' if "@" in label else ""
        lines.append(f'  "{a[:12]}" -> "{b[:12]}" [label="{label}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_compare(args, cfg: Config) -> int:
    """Side-by-side exhaustive vs ibo(k=1..K) over a file or a corpus directory.
    The exhaustive column is ibo's own baseline search."""
    if args.k_max < 0:
        print(f"error: -k must be >= 0, got {args.k_max}", file=sys.stderr)
        return 2
    root = Path(args.path)
    if root.is_dir():
        files = sorted(root.glob("*.ir"))
        if not files:
            print(f"error: no .ir files in {args.path}", file=sys.stderr)
            return 2
    else:
        files = [root]
    model = cfg.model()
    rows = []
    better = worse = ties = 0
    any_budget = any_diverged = any_inequivalent = False
    for fp in files:
        f = _load(str(fp))
        wl = _workload(cfg, f, count=64)
        swl = wl if cfg.metric == "dynamic" else None
        row = {"file": str(fp), "function": f.name,
               "input_key": _key_json(rank_key(f, model))}
        try:
            ib = ibo(f, args.k_max, cfg.passes, cfg.reverses, cfg.limits(), model, swl)
        except WorkloadDiverged as e:
            row["workload_diverged"] = _diverged_json(wl, e)
            any_diverged = True
            rows.append(row)
            continue
        if ib.budget_exceeded:
            row["ibo_budget_exceeded"] = True
            any_budget = True
        ex = ib.baseline
        if ex.budget_exceeded:
            row["exhaustive_budget_exceeded"] = True
        row["exhaustive_key"] = _key_json(ex.best_key)
        row["ibo_key"] = _key_json(ib.best_key)
        row["ibo_keys_by_k"] = {"0": _key_json(ex.best_key)}
        for it in ib.iterations:
            row["ibo_keys_by_k"][str(it.iteration)] = _key_json(it.best_key)
        row["ibo_sequence"] = list(ib.best_provenance)
        # winner is decided on the cost prefix; the canonical-text tie-break
        # only picks a representative, it is not an efficiency difference
        ex_prefix, ib_prefix = ex.best_key[:-1], ib.best_key[:-1]
        if ib_prefix < ex_prefix:
            row["winner"] = "ibo"
            better += 1
        elif ex_prefix < ib_prefix:
            row["winner"] = "exhaustive"
            worse += 1
        else:
            row["winner"] = "tie"
            ties += 1
        reps = [differential_check(f, g, wl, limit=cfg.step_limit)
                for g in (ex.best_function, ib.best_function)]
        eq = all(r.equivalent for r in reps)
        row["equivalent"] = eq
        row["inconclusive_inputs"] = max(r.inconclusive for r in reps)
        if not eq:
            any_inequivalent = True
        rows.append(row)
    outcome = {
        "k": args.k_max,
        "functions": len(rows),
        "ibo_strictly_better": better,
        "ibo_strictly_worse": worse,
        "ties": ties,
        "rows": rows,
    }
    report = _report("compare", cfg, input={"path": args.path}, outcome=outcome)
    if cfg.format == "text":
        print(f"{'function':<24} {'exhaustive':<14} {'ibo(k<=' + str(args.k_max) + ')':<14} "
              f"{'winner':<10} inconclusive")
        cut_rows = 0
        for row in rows:
            if "workload_diverged" in row:
                print(f"{row['function']:<24} workload diverged")
                continue
            ex_s = ",".join(str(v) for v in row["exhaustive_key"])
            ib_s = ",".join(str(v) for v in row["ibo_key"])
            # a budget-cut row's keys are the best found before the cut
            cut = [side for side in ("exhaustive", "ibo") if f"{side}_budget_exceeded" in row]
            cut_rows += bool(cut)
            mark = f"  budget cut: {','.join(cut)}" if cut else ""
            print(f"{row['function']:<24} ({ex_s:<12}) ({ib_s:<12}) {row['winner']:<10} "
                  f"{row['inconclusive_inputs']}{mark}")
        print(f"\nfunctions: {len(rows)}  ibo strictly better: {better}  "
              f"worse: {worse}  ties: {ties}" + (f"  budget cut: {cut_rows}" if cut_rows else ""))
    else:
        _emit(report, cfg)
    if any_inequivalent:
        return 1
    if any_diverged:
        return 2
    if any_budget:
        return 3
    return 0


# ---------------------------------------------------------------------------

def _common(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
    # also accepted after the subcommand; SUPPRESS keeps the top-level value
    p.add_argument("--config", default=argparse.SUPPRESS,
                   help="JSON config file (or $BIDIROPT_CONFIG)")
    p.add_argument("--format", choices=FORMATS, default=argparse.SUPPRESS,
                   help="report format")
    return p


def _names(text: str) -> tuple[str, ...] | None:
    # an empty flag value leaves the configured subset in place
    return tuple(s for s in text.split(",") if s) if text else None


def _budgets(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
    p.add_argument("--budget-seq", type=int, dest="max_sequence_length",
                   help="max pass-sequence length")
    p.add_argument("--budget-programs", type=int, dest="max_programs_explored",
                   help="max distinct programs explored")
    p.add_argument("--budget-instrs", type=int, dest="max_instructions_per_program",
                   help="size envelope for explored programs")
    return p


def _ranking(p: argparse.ArgumentParser,
             workload: str = "JSON workload file (dynamic metric)") -> argparse.ArgumentParser:
    p.add_argument("--passes", type=_names, help="comma-separated forward pass subset")
    p.add_argument("--metric", choices=METRICS)
    p.add_argument("--workload", help=workload)
    p.add_argument("--seed", type=int, help="seed for generated workloads")
    return p


def _detours(p: argparse.ArgumentParser, frontier: bool = True) -> argparse.ArgumentParser:
    p.add_argument("--reverses", type=_names, help="comma-separated reverse pass subset")
    p.add_argument("--cap-per-pass", type=int, dest="cap_per_pass")
    if frontier:
        p.add_argument("--max-frontier", type=int, dest="ibo_max_frontier")
    return p


@functools.cache  # parsing leaves the parser as it was, so one serves every main()
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bidiropt",
        description="mini-IR laboratory for bi-directional pass pipelines")
    ap.add_argument("--config", help="JSON config file (or $BIDIROPT_CONFIG)")
    ap.add_argument("--format", choices=FORMATS, help="report format")
    sub = ap.add_subparsers(dest="command", required=True)

    p = _common(sub.add_parser("validate", help="parse and validate a module"))
    p.add_argument("file")

    p = _common(sub.add_parser("run", help="interpret a function"))
    p.add_argument("file")
    p.add_argument("args", nargs="*", help="integer arguments")
    p.add_argument("--function", help="function name (for multi-function files)")
    p.add_argument("--workload", help="JSON workload; prints dynamic_cost_total")
    p.add_argument("--step-limit", type=int, dest="step_limit")

    p = _common(sub.add_parser("opt", help="apply a pass pipeline"))
    p.add_argument("file")
    p.add_argument("--function")
    p.add_argument("--passes", required=True, dest="pipeline", metavar="PASSES",
                   help="comma-separated: forward names, or reverse name@index")
    p.add_argument("--strict", action="store_true",
                   help="fail if any forward step does not fire (replay mode)")
    p.add_argument("--output", help="write resulting IR to a file")
    p.add_argument("--report", action="store_true",
                   help="emit the report even in text format")

    p = _ranking(_budgets(_common(sub.add_parser(
        "search", help="exhaustive forward phase-ordering search"))))
    p.add_argument("file")
    p.add_argument("--function")

    p = _detours(_ranking(_budgets(_common(sub.add_parser(
        "ibo", help="iterative reverse-then-optimize")))))
    p.add_argument("file")
    p.add_argument("-k", "--iterations", type=int, required=True, dest="iterations",
                   help="number of reverse-then-optimize iterations")
    p.add_argument("--function")

    p = _detours(_budgets(_common(sub.add_parser(
        "equiv-class", help="explore the rewrite neighborhood"))), frontier=False)
    p.add_argument("file")
    p.add_argument("--function")
    p.add_argument("--dot", help="write the class graph as DOT")

    p = _detours(_ranking(_budgets(_common(sub.add_parser(
        "compare", help="table: exhaustive search vs ibo over a file or directory"))),
        "JSON workload file; with a directory it applies to every "
        "function, so all of them must take the same number of arguments"))
    p.add_argument("path", help=".ir file or a directory of .ir files")
    p.add_argument("-k", type=int, default=3, dest="k_max",
                   help="max ibo iterations per function (default 3)")

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        # a flag whose dest is a Config field is a setting; every other flag is an operand
        settings = {k: v for k, v in vars(args).items() if k in SETTINGS}
        cfg = override(load_config(args.config), **settings)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    handlers = {
        "validate": cmd_validate,
        "run": cmd_run,
        "opt": cmd_opt,
        "search": cmd_search,
        "ibo": cmd_ibo,
        "equiv-class": cmd_equiv_class,
        "compare": cmd_compare,
    }
    try:
        return handlers[args.command](args, cfg)
    except SystemExit as e:
        return int(e.code or 0)


if __name__ == "__main__":
    sys.exit(main())
