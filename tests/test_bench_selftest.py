"""The benchmark's own self-test, run as part of the test suite.

bench/tracer.py wraps bidiropt functions at every module binding (for
example `canonical_text` in both `ir` and `cost`), so a change to `src/`
that moves or renames one of those bindings breaks the benchmark's traced
run. Running bench/selftest.py here makes that a test failure too.
"""

import subprocess
import sys

from conftest import ROOT


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: ok"
