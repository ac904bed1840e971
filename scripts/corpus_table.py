#!/usr/bin/env python3
"""Exhaustive forward search versus reverse-then-optimize, from a compare report.

Reads the JSON report of `bidiropt compare` (a file argument, or stdin) and
prints one row per function: its input key, the optimal forward phase
ordering's key (ibo's own baseline search), ibo's key and the winner.
Winners are decided on the cost key alone; the canonical-text tie-break only
picks a representative program. A row whose search ran out of
--budget-programs is marked budget-cut and compares partial results. Ends
with a tally of which reverse steps appear in winning derivations.

    bidiropt compare corpus/valid -k 3 | python3 scripts/corpus_table.py
"""

import argparse
import json
import sys
from collections import Counter


def key(k):
    return ",".join(str(x) for x in k)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report", nargs="?", type=argparse.FileType("r"), default=sys.stdin,
                    help="compare report (default: stdin)")
    outcome = json.load(ap.parse_args(argv).report)["outcome"]

    cut, used = 0, Counter()
    print(f"{'function':<22} {'start':>8} {'forward':>8} {'ibo':>8}  winner")
    for row in outcome["rows"]:
        if "workload_diverged" in row:
            print(f"{row['function']:<22} workload diverged")
            continue
        note = ""
        if row.get("ibo_budget_exceeded"):
            cut += 1
            note = "  budget-cut" + (" (forward too)" if row.get("exhaustive_budget_exceeded") else "")
        if row["winner"] == "ibo":
            note += f"  {row['ibo_sequence']}"
            used.update(s.partition("@")[0] for s in row["ibo_sequence"] if "@" in s)
        print(f"{row['function']:<22} {key(row['input_key']):>8} {key(row['exhaustive_key']):>8} "
              f"{key(row['ibo_key']):>8}  {row['winner']}{note}")

    print(f"\n{outcome['functions']} functions at k={outcome['k']}, "
          f"{outcome['ibo_strictly_better']} strictly improved by reversing, {cut} budget-cut")
    if used:
        print("reverse steps in winning derivations:")
        for name, n in used.most_common():
            print(f"  {name:<24} {n}")
    return 3 if cut else 0


if __name__ == "__main__":
    sys.exit(main())
