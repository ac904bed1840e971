#!/usr/bin/env python3
"""Walk the packed-BCD seed program out of its forward-search local optimum.

Exhaustive phase ordering over all thirteen forward passes saturates at
static key (11, 5): the remainder/divide pair and the shift are already in
their cheapest individual forms, so no ordering improves them. Expanding
both back into costlier equivalents first (two reverse steps) exposes a
shared multiply chain that reassociation collapses, and forward search
from the degraded program lands at (9, 4), strictly better than anything
reachable forward-only. This script reads the JSON report of `bidiropt ibo`
(a file argument, or stdin) and replays the derivation it found step by
step, showing the program after each step.

    bidiropt ibo corpus/valid/bin2bcd.ir -k 2 | python3 scripts/escape_demo.py
"""

import argparse
import json
import sys
from pathlib import Path

from bidiropt.cost import rank_key
from bidiropt.interp import default_workload, differential_check
from bidiropt.ir import parse_module, print_function
from bidiropt.passes import apply_pass
from bidiropt.reverse import reverse_variants


def show(title, f):
    print(f"--- {title}  key={rank_key(f)[:2]}")
    print(print_function(f))


def replay(f, step):
    """One provenance step: a forward pass, or name@site of a reverse pass."""
    name, _, index = step.partition("@")
    if not index:
        return apply_pass(name, f).function
    return next(v.function for v in reverse_variants(name, f) if v.site_index == int(index))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report", nargs="?", type=argparse.FileType("r"), default=sys.stdin,
                    help="ibo report (default: stdin)")
    report = json.load(ap.parse_args(argv).report)
    outcome, base = report["outcome"], report["outcome"]["baseline"]

    src = report["input"]
    f = parse_module(Path(src["file"]).read_text()).function(src["function"])
    show("seed", f)
    print(f"forward search: explored {base['explored']} programs, "
          f"best key {tuple(base['best_key'])} via {base['sequence']}\n")

    g = f
    for step in outcome["sequence"]:
        g = replay(g, step)
        show(step, g)

    wl = default_workload(f)
    rep = differential_check(f, g, wl)
    print(f"equivalent to the seed on {len(wl.args)} inputs ({wl.name}): {rep.equivalent}")
    print(f"iterated reverse-then-optimize, k={report['iterations_requested']}: "
          f"best key {tuple(outcome['best_key'])}, {outcome['total_programs']} programs total")
    ok = print_function(g) == outcome["best_ir"] and rep.equivalent
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
