#!/usr/bin/env python3
"""Digest the reports of a corpus directory, so two checkouts can be diffed.

Runs the CLI in-process and prints one line per report, `exit sha256
command`: `search`, `ibo -k 2` and one `opt --passes P --report` for each
forward pass P on each .ir file of DIR (default corpus/valid), plus
`ibo -k 1 --metric dynamic --workload corpus/workloads/W.json` for each
curated workload W of the file (W is the file's stem, or the stem and an
`_` suffix, as bin2bcd_spot is bin2bcd's; a workload goes to the file with
the longest such stem), and for a file that parses `equiv-class
FILE --budget-instrs N --budget-programs 5000 --dot TMP`, where N is the
instruction count of its (first) function and the digest covers the report
and then the DOT text, written to a temporary file that the line names TMP;
then `compare DIR -k 2`. Every class of corpus/valid closes within 5,000
nodes (the largest has 40); the bound keeps a larger function's walk,
such as corpus/regress/crowd2's, to seconds. Reports name their input file
as given, so run it from the root of each checkout with the same DIR; a
change that keeps every report byte-identical, exit code included, keeps
this output identical.

Then it checks each forward pass on its own, one line per pass, `name
fired/applications sha256`: the pass runs on every program of DIR's two-step
neighbourhood (the functions of DIR, every forward pass output and every
reverse variant at cap 8 of them, and the same again of those; deduplicated
by canonical digest, in digest order), and the digest covers each
application's changed flag and printed output. Then one line per reverse
pass, `name variants/programs sha256`: the pass enumerates its variants at
cap 8 of every program of the same neighbourhood, and the digest covers
each variant's step and printed IR. A pass change that keeps these lines
identical keeps every output of the pass identical on them.

Last, one line per curated workload W of a file of DIR, `W.json
programs diverged@10000=N diverged@25=M sha256`: every program of that
file's own two-step neighbourhood is measured by
interp.dynamic_cost_total on W at the default step limit and at 25 steps,
which cuts the curated loops mid-loop; the digest covers each total, or
the diverged row, outcome, reason, steps and dynamic cost:

    python3 scripts/report_digest.py > before.txt   # in the old checkout
    python3 scripts/report_digest.py > after.txt    # in the new one
    diff before.txt after.txt
"""

import argparse
import hashlib
import io
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from bidiropt.cli import main as cli
from bidiropt.cost import static_size
from bidiropt.interp import DEFAULT_STEP_LIMIT, WorkloadDiverged, dynamic_cost_total, load_workload
from bidiropt.ir import (
    ParseError,
    canonical_hash,
    parse_module,
    print_function,
    validate_module,
)
from bidiropt.passes import FORWARD_PASSES, apply_pass
from bidiropt.reverse import REVERSE_PASSES, reverse_variants


def digest(argv: list[str], dot: Path | None = None) -> str:
    """With `dot`, the command also writes its DOT output there, the digest
    covers that text after the report, and the line names the file TMP."""
    if dot is not None:
        dot.unlink(missing_ok=True)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli(argv if dot is None else [*argv, "--dot", str(dot)])
    if dot is not None:
        buf.write(dot.read_text() if dot.exists() else "")
        argv = [*argv, "--dot", "TMP"]
    return f"{code} {hashlib.sha256(buf.getvalue().encode()).hexdigest()} {' '.join(argv)}"


def size_of(path: Path) -> int | None:
    """The instruction count of the first function of path, if it parses."""
    try:
        module = parse_module(path.read_text())
    except ParseError:
        return None
    return static_size(module.functions[0]) if module.functions else None


def neighbourhood(paths: list[Path], steps: int = 2, cap: int = 8) -> list:
    """The functions of paths and every program up to `steps` forward passes
    or reverse variants away, one per canonical digest, in digest order."""
    seen = {}
    for path in paths:
        try:
            module = parse_module(path.read_text())
        except ParseError:
            continue  # passes take valid functions; the reports record the error
        if not validate_module(module):
            for f in module.functions:
                seen.setdefault(canonical_hash(f), f)
    frontier = list(seen.values())
    for _ in range(steps):
        found = []
        for f in frontier:
            outs = [apply_pass(name, f).function for name in FORWARD_PASSES]
            outs += [v.function for name in REVERSE_PASSES
                     for v in reverse_variants(name, f, cap=cap)]
            for g in outs:
                d = canonical_hash(g)
                if d not in seen:
                    seen[d] = g
                    found.append(g)
        frontier = found
    return [seen[d] for d in sorted(seen)]


def pass_digest(name: str, programs: list) -> str:
    h = hashlib.sha256()
    fired = 0
    for f in programs:
        out = apply_pass(name, f)
        fired += out.changed
        h.update(f"{out.changed}\n{print_function(out.function)}".encode())
    return f"{name} {fired}/{len(programs)} {h.hexdigest()}"


def reverse_digest(name: str, programs: list) -> str:
    h = hashlib.sha256()
    made = 0
    for f in programs:
        for v in reverse_variants(name, f, cap=8):
            made += 1
            h.update(f"{v.step}\n{print_function(v.function)}".encode())
    return f"{name} {made}/{len(programs)} {h.hexdigest()}"


WORKLOADS = Path("corpus/workloads")
CUT_LIMIT = 25  # ends every curated loop workload's longer rows mid-loop


def curated_workloads(paths: list[Path]) -> dict[Path, list[Path]]:
    """The curated workloads of each file: a workload belongs to the file
    with the longest stem that is its own stem or prefixes it before `_`."""
    mine: dict[Path, list[Path]] = {p: [] for p in paths}
    for w in sorted(WORKLOADS.glob("*.json")):
        fits = [p for p in paths if w.stem == p.stem or w.stem.startswith(p.stem + "_")]
        if fits:
            mine[max(fits, key=lambda p: len(p.stem))].append(w)
    return mine


def dynamic_digest(path: Path, workload: Path) -> str:
    programs = neighbourhood([path])
    if not programs:
        return f"{workload.name} 0"
    wl = load_workload(workload, programs[0].name)
    h = hashlib.sha256()
    diverged = []
    for limit in (DEFAULT_STEP_LIMIT, CUT_LIMIT):
        n = 0
        for f in programs:
            try:
                h.update(f"{limit} {dynamic_cost_total(f, wl, limit)}\n".encode())
            except WorkloadDiverged as e:
                n += 1
                r = e.result
                h.update(f"{limit} {list(e.args)} {r.outcome} {r.reason} {r.steps} "
                         f"{r.dynamic_cost}\n".encode())
        diverged.append(f"diverged@{limit}={n}")
    return f"{workload.name} {len(programs)} {' '.join(diverged)} {h.hexdigest()}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir", nargs="?", default="corpus/valid",
                    help="directory of .ir files (default: corpus/valid)")
    d = ap.parse_args(argv).dir
    paths = sorted(Path(d).glob("*.ir"))
    workloads = curated_workloads(paths)
    with tempfile.TemporaryDirectory() as tmp:
        for path in paths:
            print(digest(["search", str(path)]), flush=True)
            print(digest(["ibo", str(path), "-k", "2"]), flush=True)
            for name in FORWARD_PASSES:
                print(digest(["opt", str(path), "--passes", name, "--report"]), flush=True)
            for workload in workloads[path]:
                print(digest(["ibo", str(path), "-k", "1", "--metric", "dynamic",
                              "--workload", str(workload)]), flush=True)
            size = size_of(path)
            if size is not None:
                print(digest(["equiv-class", str(path), "--budget-instrs", str(size),
                              "--budget-programs", "5000"], Path(tmp) / "class.dot"),
                      flush=True)
    print(digest(["compare", d, "-k", "2"]), flush=True)
    programs = neighbourhood(paths)
    for name in FORWARD_PASSES:
        print(pass_digest(name, programs), flush=True)
    for name in REVERSE_PASSES:
        print(reverse_digest(name, programs), flush=True)
    for path in paths:
        for workload in workloads[path]:
            print(dynamic_digest(path, workload), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
