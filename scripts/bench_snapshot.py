#!/usr/bin/env python3
"""Write BENCH_<n>.json: the benchmark's end-to-end medians, per-layer
counters and the src/ line count of a checkout, optionally beside those of
its parent.

    python3 scripts/bench_snapshot.py 31 --parent ../parent-checkout

runs `bench/run.py --workload all --seed S --seconds 4 --trace 0` of each
checkout as a subprocess, once for each of the ten seeds n, ..., n + 9 (the
two checkouts take turns to run first, so that drift of the host falls on
both sides alike), then one `--trace 1` run per checkout at seed n. For each
checkout it records the median and the runs of every end-to-end metric, the
per-layer metrics of the traced run, whether every run was correct, how many
operations failed, and the line count of src/bidiropt/*.py. Nothing under
bench/ changes; each run prints to, and writes .bench_out/ of, its own
checkout. BENCH_<n>.json is written at the root of this checkout.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD, SECONDS, PAIRS = "all", 4.0, 10


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last stdout line of one bench/run.py run of checkout, parsed."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines(checkout: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((checkout / "src" / "bidiropt").glob("*.py")))


def snapshot(checkouts: dict[str, Path], workload: str, seeds: list[int],
             seconds: float) -> dict:
    runs: dict[str, list[dict]] = {name: [] for name in checkouts}
    for k, seed in enumerate(seeds):
        order = list(checkouts) if k % 2 else list(checkouts)[::-1]
        for name in order:
            runs[name].append(bench(checkouts[name], workload, seed, seconds, 0))
    out = {}
    for name, path in checkouts.items():
        metrics = {m: {"unit": runs[name][0]["metrics"][m]["unit"],
                       "median": statistics.median(r["metrics"][m]["value"] for r in runs[name]),
                       "runs": [r["metrics"][m]["value"] for r in runs[name]]}
                   for m in runs[name][0]["metrics"]}
        traced = bench(path, workload, seeds[0], seconds, 1)
        out[name] = {
            "correct": all(r["correct"] for r in runs[name]) and traced["correct"],
            "failed": sum(r["failed"] for r in runs[name]) + traced["failed"],
            "end_to_end": metrics,
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
            "src_lines": src_lines(path),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("n", type=int, help="the number in BENCH_<n>.json")
    ap.add_argument("--parent", type=Path, default=None,
                    help="a checkout of the parent commit, measured alongside")
    args = ap.parse_args(argv)

    seeds = list(range(args.n, args.n + PAIRS))
    checkouts = {"change": ROOT}
    if args.parent is not None:
        checkouts["parent"] = args.parent.resolve()
    result = {
        "n": args.n,
        "command": f"bench/run.py --workload {WORKLOAD} --seconds {SECONDS}",
        "seeds": seeds,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "system": platform.system()},
        "checkouts": snapshot(checkouts, WORKLOAD, seeds, SECONDS),
    }
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for name, c in result["checkouts"].items():
        walls = {m: v["median"] for m, v in c["end_to_end"].items() if m.endswith("wall_s")}
        print(f"{name}: correct={c['correct']} failed={c['failed']} "
              f"src_lines={c['src_lines']} " + " ".join(f"{m}={v:.4f}" for m, v in walls.items()))
    print(f"wrote {path}")
    return 0 if all(c["correct"] and not c["failed"] for c in result["checkouts"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
