"""The benchmark's own self-test, run as part of the test suite.

bench/tracer.py wraps bidiropt functions at every module binding (for
example `canonical_text` in both `ir` and `cost`), so a change to `src/`
that moves or renames one of those bindings breaks the benchmark's traced
run. Running bench/selftest.py here makes that a test failure too.
"""

import json
import subprocess
import sys

from conftest import ROOT, VALID, WORKLOADS, run_cli


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: ok"


def test_tracer_sees_the_interpreter():
    # bench/selftest.py does not drive the interpreter, so check here that the
    # traced dynamic-ibo run still counts interpreter calls and steps
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(ROOT / "bench"))
    import bidiropt.cli  # noqa: F401  (the tracer wraps loaded modules only)

    workload = WORKLOADS / "bin2bcd_spot.json"
    cases = len(json.loads(workload.read_text()))
    tracer = Tracer()
    tracer.install()
    try:
        code, _ = run_cli("ibo", VALID / "bin2bcd.ir", "-k", "1", "--metric", "dynamic",
                          "--workload", workload)
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counts["interp.steps"] > 0
    assert tracer.calls["interp.dynamic_cost_total"] > 0
    assert tracer.calls["interp.interpret"] == tracer.calls["interp.dynamic_cost_total"] * cases
