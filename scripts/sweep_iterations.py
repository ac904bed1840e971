#!/usr/bin/env python3
"""How far does each extra degrade-and-reoptimize round get you?

Reads the JSON report of `bidiropt compare` (a file argument, or stdin) and
prints each function's best key after every round up to the report's k
(`ibo_keys_by_k`; round i of a k-round run is exactly a k=i run, since the
frontier evolution does not depend on the target), marking the round where
each function stops improving.

    bidiropt compare corpus/valid -k 3 | python3 scripts/sweep_iterations.py
"""

import argparse
import json
import sys


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report", nargs="?", type=argparse.FileType("r"), default=sys.stdin,
                    help="compare report (default: stdin)")
    outcome = json.load(ap.parse_args(argv).report)["outcome"]
    k_max = outcome["k"]

    head = " ".join(f"{'k=' + str(k):>8}" for k in range(k_max + 1))
    print(f"{'function':<22} {head}  settles at")
    improved_at = [0] * (k_max + 1)
    for row in outcome["rows"]:
        if "ibo_keys_by_k" not in row:
            print(f"{row['function']:<22} workload diverged")
            continue
        by_k = row["ibo_keys_by_k"]
        keys = [by_k[str(k)] for k in range(len(by_k))]
        keys += [keys[-1]] * (k_max + 1 - len(keys))  # frontier went empty
        settle = 0
        for i in range(1, len(keys)):
            if keys[i] < keys[i - 1]:
                settle = i
                improved_at[i] += 1
        cols = " ".join(f"{','.join(str(x) for x in k):>8}" for k in keys)
        print(f"{row['function']:<22} {cols}  k={settle}")

    print(f"\n{outcome['functions']} functions")
    for k in range(1, k_max + 1):
        print(f"functions still improving at round {k}: {improved_at[k]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
