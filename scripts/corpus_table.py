#!/usr/bin/env python3
"""Exhaustive forward search versus reverse-then-optimize over a corpus.

For every function: the optimal forward phase ordering (exhaustive over all
pass sequences, digest-pruned) against the iterated degrade-and-reoptimize
loop at the given k; the forward column is ibo's own baseline search.
Winners are decided on the cost key alone; the canonical-text tie-break only
picks a representative program. A row whose search ran out of
--budget-programs is marked budget-cut and compares partial results. Ends
with a tally of which reverse steps actually appear in winning derivations.
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

from bidiropt.ir import parse_function
from bidiropt.search import BudgetExceeded, SearchLimits, ibo

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("corpus", nargs="?", default=ROOT / "corpus" / "valid",
                    type=Path)
    ap.add_argument("-k", type=int, default=3, help="reverse iterations")
    ap.add_argument("--budget-programs", type=int, default=None)
    args = ap.parse_args(argv)

    limits = SearchLimits()
    if args.budget_programs:
        limits = SearchLimits(max_programs_explored=args.budget_programs)

    files = sorted(args.corpus.glob("*.ir"))
    if not files:
        print(f"no .ir files under {args.corpus}", file=sys.stderr)
        return 2

    wins, cut, used = 0, 0, Counter()
    print(f"{'function':<22} {'start':>8} {'forward':>8} {'reverse+':>8}  winner")
    t0 = time.monotonic()
    for path in files:
        f = parse_function(path.read_text())
        try:
            ib = ibo(f, args.k, limits=limits)
            note = ""
        except BudgetExceeded as e:
            ib = e.partial
            cut += 1
            note = "  budget-cut" + (" (forward too)" if ib.baseline.budget_exceeded else "")
        ex = ib.baseline
        a, b = ex.best_key[:-1], ib.best_key[:-1]
        winner = "reverse+" if b < a else ("forward" if a < b else "tie")
        if b < a:
            wins += 1
            for step in ib.best_provenance:
                if "@" in step:
                    used[step.partition("@")[0]] += 1
        start = ",".join(str(x) for x in ex.start_key[:-1])
        print(f"{f.name:<22} {start:>8} "
              f"{','.join(str(x) for x in a):>8} "
              f"{','.join(str(x) for x in b):>8}  {winner}"
              + note + (f"  {list(ib.best_provenance)}" if b < a else ""))

    print(f"\n{len(files)} functions, {wins} strictly improved by reversing, "
          f"{cut} budget-cut, {time.monotonic() - t0:.1f}s")
    if used:
        print("reverse steps in winning derivations:")
        for name, n in used.most_common():
            print(f"  {name:<24} {n}")
    return 3 if cut else 0


if __name__ == "__main__":
    sys.exit(main())
