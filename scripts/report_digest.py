#!/usr/bin/env python3
"""Digest the reports of a corpus directory, so two checkouts can be diffed.

Runs the CLI in-process and prints one line per report, `exit sha256
command`: `search`, `ibo -k 2` and one `opt --passes P --report` for each
forward pass P on each .ir file of DIR (default corpus/valid), plus
`ibo -k 1 --metric dynamic --workload corpus/workloads/STEM.json` for a file
whose stem has a workload there, then `compare DIR -k 2`. Reports name their
input file as given, so run it from the root of each checkout with the same
DIR; a change that keeps every report byte-identical, exit code included,
keeps this output identical:

    python3 scripts/report_digest.py > before.txt   # in the old checkout
    python3 scripts/report_digest.py > after.txt    # in the new one
    diff before.txt after.txt
"""

import argparse
import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

from bidiropt.cli import main as cli
from bidiropt.passes import FORWARD_PASSES


def digest(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli(argv)
    return f"{code} {hashlib.sha256(buf.getvalue().encode()).hexdigest()} {' '.join(argv)}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir", nargs="?", default="corpus/valid",
                    help="directory of .ir files (default: corpus/valid)")
    d = ap.parse_args(argv).dir
    for path in sorted(Path(d).glob("*.ir")):
        print(digest(["search", str(path)]), flush=True)
        print(digest(["ibo", str(path), "-k", "2"]), flush=True)
        for name in FORWARD_PASSES:
            print(digest(["opt", str(path), "--passes", name, "--report"]), flush=True)
        workload = Path("corpus/workloads") / f"{path.stem}.json"
        if workload.exists():
            print(digest(["ibo", str(path), "-k", "1", "--metric", "dynamic",
                          "--workload", str(workload)]), flush=True)
    print(digest(["compare", d, "-k", "2"]), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
