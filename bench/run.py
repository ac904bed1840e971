"""bidiropt benchmark: the search's wall time, end to end and per module.

    python3 bench/run.py --workload corpus-ibo --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each exists):
  corpus-ibo   `bidiropt ibo <f> -k 2` on every corpus/valid fixture
  dynamic-ibo  `bidiropt ibo <f> -k 1 --metric dynamic --workload <w>` on the
               seven curated workload files
  equiv-class  `bidiropt equiv-class <f> --budget-instrs E` on fixtures whose
               class closes inside E
  all          the three above in one process

One operation is one function: one in-process call of `bidiropt.cli.main`
with stdout captured and parsed. A run repeats whole rounds of its
operations until the next round would pass `--seconds` (at least one round),
then checks every output of the first round against bench/refeval.py and
the method's properties, and requires later rounds to print the same bytes.
With `--trace 1` it runs one round untraced and one round with the
bench/tracer.py wrappers installed, and reports per-layer metrics instead.
Every time is scaled to a reference host speed (see HostSpeed).

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Per-function rows and the full result go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import os
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import refeval  # noqa: E402
from tracer import Tracer, per_layer_spec  # noqa: E402

WORKLOADS = ("corpus-ibo", "dynamic-ibo", "equiv-class")
CORPUS_K = 2      # k=2 is the shallowest depth where ibo wins (bin2bcd: (9,4))
DYNAMIC_K = 1     # one dynamic round is ~7 s; k=2 is ~90 s, too long to repeat
SETUP_REPEATS = 21

# curated workload file -> the fixture it drives
DYNAMIC_CASES = (("bin2bcd_spot", "bin2bcd"),
                 ("loop_counter_alloca", "loop_counter_alloca"),
                 ("loop_hoisted", "loop_hoisted"), ("loop_licm", "loop_licm"),
                 ("loop_sum", "loop_sum"), ("nested_loop", "nested_loop"),
                 ("phi_swap", "phi_swap"))

# fixture -> instruction envelope inside which its class closes: the
# acceptance suite's SEP_CASES plus two larger classes (406 and 624 nodes)
EQUIV_CASES = (("straightline_ret", 4), ("identities", 5), ("divmul", 5),
               ("cse_dup", 6), ("dce_chain", 6), ("strength", 5),
               ("const_expr", 6), ("bin2bcd", 7))

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("programs_per_s", "programs/s"),
              ("peak_rss_mb", "MB"), ("best_cost_sum", "cost"))


@dataclass
class Op:
    """One function of a workload and the CLI call that processes it."""
    function: str
    path: str
    argv: list[str]
    workload_file: str | None = None
    envelope: int | None = None


@dataclass
class Result:
    rc: int
    stdout: str
    error: str = ""
    seconds: float = 0.0


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    programs: int = 0
    best_cost_sum: int = 0


def make_ops(workload: str, depth: int) -> list[Op]:
    if workload == "corpus-ibo":
        return [Op(p.stem, f"corpus/valid/{p.name}",
                   ["ibo", f"corpus/valid/{p.name}", "-k", str(depth)])
                for p in sorted((ROOT / "corpus" / "valid").glob("*.ir"))]
    if workload == "dynamic-ibo":
        return [Op(fn, f"corpus/valid/{fn}.ir",
                   ["ibo", f"corpus/valid/{fn}.ir", "-k", str(depth), "--metric", "dynamic",
                    "--workload", f"corpus/workloads/{wl}.json"],
                   workload_file=f"corpus/workloads/{wl}.json")
                for wl, fn in DYNAMIC_CASES]
    return [Op(fn, f"corpus/valid/{fn}.ir",
               ["equiv-class", f"corpus/valid/{fn}.ir", "--budget-instrs", str(env)],
               envelope=env)
            for fn, env in EQUIV_CASES]


# ---------------------------------------------------------------------------
# set-up and timed operations

def setup(ops: list[Op]) -> float:
    """Import bidiropt afresh, read, parse and validate every input, and load
    every workload file. Returns the seconds it took."""
    for name in [n for n in sys.modules if n == "bidiropt" or n.startswith("bidiropt.")]:
        del sys.modules[name]
    t0 = perf_counter()
    importlib.import_module("bidiropt.cli")
    ir = sys.modules["bidiropt.ir"]
    interp = sys.modules["bidiropt.interp"]
    for op in ops:
        module = ir.parse_module(Path(op.path).read_text())
        if ir.validate_module(module):
            raise SystemExit(f"bench: {op.path} does not validate")
        if op.workload_file:
            interp.load_workload(op.workload_file, op.function)
    return perf_counter() - t0


def call_cli(argv: list[str]) -> Result:
    out, err = io.StringIO(), io.StringIO()
    main = sys.modules["bidiropt.cli"].main
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception:  # an uncaught fault in the program is a failed operation
        return Result(-1, out.getvalue(), traceback.format_exc(), perf_counter() - t0)
    return Result(rc, out.getvalue(), err.getvalue(), perf_counter() - t0)


# The host's speed drifts by tens of percent over tens of seconds (see
# bench/README.md), so every timed figure is scaled to a reference speed. A
# fixed program run by bench/refeval.py, which no change to bidiropt can
# speed up, is timed before each operation; the mean of those samples over
# a timed block, against REFERENCE_PASS_S, gives the block's host factor.
CALIBRATION = refeval.parse("""func @calibrate(%n) {
entry:
  br head
head:
  %i = phi [0, entry], [%i2, body]
  %acc = phi [0, entry], [%acc3, body]
  %c = icmp.ult %i, %n
  condbr %c, body, exit
body:
  %t = mul %i, 7
  %acc2 = add %acc, %t
  %acc3 = xor %acc2, %i
  %i2 = add %i, 1
  br head
exit:
  ret %acc
}
""")
REFERENCE_PASS_S = 0.010  # about one calibration pass when this machine runs fast


class HostSpeed:
    """Calibration samples of one timed block."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        blocks = CALIBRATION.block_map()
        t0 = perf_counter()
        for n in range(60):
            refeval.run(CALIBRATION, (n,), blocks=blocks)
        self.samples.append(perf_counter() - t0)

    def factor(self) -> float:
        """Multiply a time measured in this block by this to get the time at
        the reference speed."""
        return REFERENCE_PASS_S / statistics.mean(self.samples)


def run_round(ops: list[Op]) -> tuple[list[Result], HostSpeed]:
    results, speed = [], HostSpeed()
    for op in ops:
        gc.collect()
        speed.sample()
        results.append(call_cli(op.argv))
    speed.sample()
    return results, speed


# ---------------------------------------------------------------------------
# checks: every output against bench/refeval.py and the method's properties

BOUNDARY = (0, 1, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 0x1999999A)


def check_inputs(prog: refeval.Prog, seed: int) -> list[tuple[int, ...]]:
    """Inputs for a program without loops: 0..255, 32-bit boundary values and
    seeded 32-bit randoms (tuples of them for several parameters)."""
    n = len(prog.params)
    rng = random.Random(f"{seed}:{prog.name}")
    rows = [(i,) * n for i in range(256)]
    if n > 1:
        rows += [(i,) + (0,) * (n - 1) for i in range(256)]
        rows += [tuple(rng.randrange(256) for _ in range(n)) for _ in range(64)]
    if len(BOUNDARY) ** n <= 512:
        rows += list(itertools.product(BOUNDARY, repeat=n))
    else:
        rows += [(b,) * n for b in BOUNDARY]
    rows += [tuple(rng.getrandbits(32) for _ in range(n)) for _ in range(64)]
    return list(dict.fromkeys(rows))


def bin2bcd_reference(v: int) -> int:
    return (((v // 10) << 4) + v % 10) & refeval.MASK


def planted_control(seed: int) -> list[str]:
    """The checker must reject bin2bcd_mul6 with `mul %q, 6` made `mul %q, 5`,
    and accept the unchanged program against bin2bcd."""
    good = (ROOT / "corpus/valid/bin2bcd_mul6.ir").read_text()
    bad = good.replace("mul %q, 6", "mul %q, 5")
    if bad == good:
        return ["negative control: bin2bcd_mul6.ir no longer contains `mul %q, 6`"]
    seed_prog = refeval.parse((ROOT / "corpus/valid/bin2bcd.ir").read_text())
    inputs = check_inputs(seed_prog, seed)
    problems = []
    if refeval.first_mismatch(seed_prog, refeval.parse(good), inputs) is not None:
        problems.append("positive control: bin2bcd_mul6 rejected against bin2bcd")
    if refeval.first_mismatch(refeval.parse(good), refeval.parse(bad), inputs) is None:
        problems.append("negative control: planted `mul %q, 5` was not caught")
    return problems


def _equivalent(what: str, src: refeval.Prog, text: str, inputs, out: Outcome):
    prog = refeval.parse(text)
    bad = refeval.first_mismatch(src, prog, inputs)
    if bad is not None:
        out.problems.append(f"{what}: differs on {bad[0]}: input {bad[1]} vs output {bad[2]}")
    return prog


def _key_check(what: str, prog: refeval.Prog, key: list, dyn_inputs, out: Outcome):
    mine = list(refeval.static_key(prog))
    if dyn_inputs is not None:
        mine.append(refeval.dynamic_cost(prog, dyn_inputs))
    if key != mine:
        out.problems.append(f"{what}: reported key {key}, recomputed {mine}")


def check_ibo(ops: list[Op], results: list[Result], seed: int, k: int,
              dynamic: bool) -> Outcome:
    out = Outcome()
    tally = [0, 0, 0]
    for op, res in zip(ops, results):
        if res.rc != 0:
            continue
        rep = json.loads(res.stdout)
        o = rep["outcome"]
        src = refeval.parse(Path(op.path).read_text())
        loops = refeval.has_cycle(src)
        curated = None
        if op.workload_file or loops:
            wl = op.workload_file or f"corpus/workloads/{op.function}.json"
            curated = [tuple(r) for r in json.loads(Path(wl).read_text())]
        inputs = curated if loops else check_inputs(src, seed)
        for args in curated if loops else ():
            if refeval.run(src, args)[0] != "ret":
                out.problems.append(f"{op.function}: input program does not return on {args}")
                break
        dyn = curated if dynamic else None
        best = _equivalent(f"{op.function} best_ir", src, o["best_ir"], inputs, out)
        base = _equivalent(f"{op.function} baseline best_ir", src,
                           o["baseline"]["best_ir"], inputs, out)
        _key_check(f"{op.function} best_key", best, o["best_key"], dyn, out)
        _key_check(f"{op.function} baseline key", base, o["baseline"]["best_key"], dyn, out)
        _key_check(f"{op.function} input key", src, rep["input"]["key"], None, out)
        if rep["budget_exceeded"]:
            out.problems.append(f"{op.function}: budget exceeded")
        if o["best_key"] > o["baseline"]["best_key"]:
            out.problems.append(f"{op.function}: ibo key {o['best_key']} worse than "
                                f"baseline {o['baseline']['best_key']}")
        ib, ex = o["best_key"][:2], o["baseline"]["best_key"][:2]
        tally[0 if ib < ex else 1 if ib > ex else 2] += 1
        replay = call_cli(["opt", op.path, f"--passes={','.join(o['sequence'])}",
                           "--strict", "--format", "text"])
        if replay.rc != 0 or replay.stdout != o["best_ir"]:
            out.problems.append(f"{op.function}: `opt --passes` does not reproduce best_ir")
        if op.function == "bin2bcd":
            if o["baseline"]["best_key"][:2] != [11, 5]:
                out.problems.append(f"bin2bcd: forward key {o['baseline']['best_key']} != (11,5)")
            if k >= 2 and o["best_key"][:2] != [9, 4]:
                out.problems.append(f"bin2bcd: ibo k={k} key {o['best_key']} != (9,4)")
            for args in inputs:
                got = refeval.run(best, args)
                if got[:2] != ("ret", bin2bcd_reference(args[0])):
                    out.problems.append(f"bin2bcd: best program gives {got[:2]} on {args}")
                    break
        out.programs += o["total_programs"]
        out.best_cost_sum += refeval.static_key(best)[0]
        out.rows.append({"function": op.function, "key": o["best_key"],
                         "baseline_key": o["baseline"]["best_key"],
                         "programs": o["total_programs"], "sequence": o["sequence"]})
    if not dynamic and k == 3 and len(ops) == 28 and tally != [5, 0, 23]:
        out.problems.append(f"corpus tally at k=3 is {tally}, paper claim is 5/0/23")
    out.rows.append({"tally_better_worse_ties": tally})
    return out


def check_equiv(ops: list[Op], results: list[Result], seed: int) -> Outcome:
    out = Outcome()
    config = sys.modules["bidiropt.config"]
    search = sys.modules["bidiropt.search"]
    ir = sys.modules["bidiropt.ir"]
    reverse = sys.modules["bidiropt.reverse"]
    for op, res in zip(ops, results):
        if res.rc != 0:
            continue
        o = json.loads(res.stdout)["outcome"]
        if o["verdict"] != "closed" or o["truncated"] or o["violations"]:
            out.problems.append(f"{op.function}: verdict {o['verdict']}, "
                                f"truncated {o['truncated']}")
        # the report carries counts only; the members come from the public API
        cfg = config.override(config.load_config(None),
                              max_instructions_per_program=op.envelope)
        f = ir.parse_function(Path(op.path).read_text())
        graph = search.explore_sep_class(f, cfg.passes, reverse.REVERSE_PASSES, cfg.limits())
        if (len(graph.nodes), len(graph.edges)) != (o["nodes"], o["edges"]):
            out.problems.append(f"{op.function}: report says {o['nodes']} nodes, "
                                f"{o['edges']} edges; re-exploration gives "
                                f"{len(graph.nodes)}, {len(graph.edges)}")
        src = refeval.parse(Path(op.path).read_text())
        inputs = check_inputs(src, seed)
        sample = random.Random(f"{seed}:{op.function}:members").sample(
            inputs, min(48, len(inputs)))
        members = []
        for d, g in graph.nodes.items():
            text = ir.print_function(g)
            prog = refeval.parse(text)
            key = refeval.static_key(prog)
            if key[1] > op.envelope and d != graph.start:
                out.problems.append(f"{op.function}: member of size {key[1]} "
                                    f"outside envelope {op.envelope}")
            if refeval.first_mismatch(src, prog, sample) is not None:
                out.problems.append(f"{op.function}: class member is not equivalent:\n{text}")
            members.append((key, text))
        cheapest_key, cheapest = min(members)
        _equivalent(f"{op.function} cheapest member", src, cheapest, inputs, out)
        out.programs += o["nodes"]
        out.best_cost_sum += cheapest_key[0]
        out.rows.append({"function": op.function, "envelope": op.envelope,
                         "nodes": o["nodes"], "edges": o["edges"],
                         "verdict": o["verdict"], "cheapest_key": list(cheapest_key)})
    return out


def check(workload: str, ops: list[Op], results: list[Result], seed: int,
          depth: int) -> Outcome:
    if workload == "equiv-class":
        return check_equiv(ops, results, seed)
    return check_ibo(ops, results, seed, depth, workload == "dynamic-ibo")


# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 depth: int | None) -> dict:
    if depth is None:
        depth = DYNAMIC_K if workload == "dynamic-ibo" else CORPUS_K
    ops = make_ops(workload, depth)
    random.Random(seed).shuffle(ops)
    setup_speed = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        setup_speed.sample()
        setups.append(setup(ops))

    rounds: list[list[Result]] = []
    speeds: list[HostSpeed] = []
    tracer = Tracer()
    start = perf_counter()
    while True:
        if trace and rounds:
            tracer.install()
        try:
            results, speed = run_round(ops)
        finally:
            tracer.uninstall()
        rounds.append(results)
        speeds.append(speed)
        if trace:
            if len(rounds) == 2:
                break
        elif perf_counter() - start + sum(r.seconds for r in results) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first = rounds[0]
    failed_ops = [(op, res) for rnd in rounds for op, res in zip(ops, rnd) if res.rc != 0]
    for op, res in failed_ops:
        last = (res.error.strip().splitlines() or [""])[-1]
        print(f"{workload}: {op.function} failed with exit {res.rc}: {last}", file=sys.stderr)
    try:
        outcome = check(workload, ops, first, seed, depth)
    except Exception:  # a malformed report must fail the run, not end it
        outcome = Outcome(problems=[f"checker error:\n{traceback.format_exc()}"])
    outcome.problems += planted_control(seed)
    for rnd in rounds[1:]:
        for op, a, b in zip(ops, first, rnd):
            if a.rc == 0 and b.rc == 0 and a.stdout != b.stdout:
                outcome.problems.append(f"{op.function}: report bytes differ between rounds")

    raw_walls = [sum(r.seconds for r in rnd) for rnd in rounds]
    walls = [w * sp.factor() for w, sp in zip(raw_walls, speeds)]
    setup_s = statistics.median(setups) * setup_speed.factor()
    if trace:
        values = tracer.metrics(max(outcome.programs, 1), walls[0], walls[1],
                                speeds[1].factor())
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in per_layer_spec()}
    else:
        wall_s = statistics.median(walls)
        values = {"setup_s": setup_s, "wall_s": wall_s,
                  "programs_per_s": outcome.programs / wall_s,
                  "peak_rss_mb": peak_rss_mb, "best_cost_sum": outcome.best_cost_sum}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}

    per_op = {op.function: [rnd[i].seconds for rnd in rounds] for i, op in enumerate(ops)}
    for row in outcome.rows:
        if "function" in row:
            row["seconds"] = per_op[row["function"]]
    return {"workload": workload, "seed": seed, "trace": trace, "rounds": len(rounds),
            "correct": not outcome.problems, "problems": outcome.problems,
            "attempted": len(ops) * len(rounds), "failed": len(failed_ops),
            "programs_per_round": outcome.programs, "round_walls_s": walls,
            "raw_round_walls_s": raw_walls, "raw_setup_s": statistics.median(setups),
            "host_factors": {"setup": setup_speed.factor(),
                             "rounds": [sp.factor() for sp in speeds]},
            "host_samples_s": [sp.samples for sp in speeds],
            "rows": outcome.rows, "metrics": metrics}


def _print_result(res: dict) -> None:
    w = res["workload"]
    for row in res["rows"]:
        print(f"{w:12} " + "  ".join(f"{k}={v}" for k, v in row.items()))
    for name, m in res["metrics"].items():
        print(f"{w:12} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{w:12} unscaled: setup_s={res['raw_setup_s']:.6g} round walls="
          f"{[round(x, 3) for x in res['raw_round_walls_s']]} host factors="
          f"{res['host_factors']['setup']:.3f}, "
          f"{[round(x, 3) for x in res['host_factors']['rounds']]}")
    print(f"{w:12} rounds={res['rounds']} attempted={res['attempted']} "
          f"failed={res['failed']} correct={res['correct']}")
    for p in res["problems"]:
        print(f"{w}: CHECK FAILED: {p}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--k", type=int, default=None,
                    help="override the ibo depth of the ibo workloads "
                         "(k=3 on corpus-ibo checks the paper's 5/0/23 tally)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bidiropt" / "__init__.py").is_file() or \
            not (ROOT / "corpus" / "valid").is_dir():
        print(f"bench: no bidiropt sources (src/bidiropt, corpus/) under {ROOT}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.environ.pop("BIDIROPT_CONFIG", None)
    sys.path.insert(0, str(ROOT / "src"))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace), args.k)
               for w in names]
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    for res in results:
        _print_result(res)
        name = f"{res['workload']}-seed{args.seed}-trace{args.trace}.json"
        (outdir / name).write_text(json.dumps(res, indent=1) + "\n")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{n}": m for r in results for n, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
