"""The benchmark's own self-test, run as part of the test suite.

bench/tracer.py wraps bidiropt functions at every module binding (for
example `canonical_text` in both `ir` and `cost`), so a change to `src/`
that moves or renames one of those bindings breaks the benchmark's traced
run. The tests here make that a test failure too.

bench/selftest.py's evaluator, checker and BENCHMARK.json checks run as they
are. Its `test_tracer` also counts `divmul-to-rem` calls made inside
`reverse_variants`, from when that function ran each variant's paired forward
pass; it no longer does, so that check fails until bench/selftest.py is
updated. `test_tracer_wraps_every_binding` checks the rest of what it checks.
"""

import json
import subprocess
import sys
from time import perf_counter

import pytest

from conftest import ROOT, VALID, WORKLOADS, load, run_cli

SELFTEST_CHECKS = ("test_evaluator", "test_checker", "test_benchmark_json")


def _tracer_class():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(ROOT / "bench"))
    import bidiropt.cli  # noqa: F401  (the tracer wraps loaded modules only)
    return Tracer


@pytest.mark.parametrize("check", SELFTEST_CHECKS)
def test_bench_selftest_check_passes(check):
    script = f"import selftest; selftest.{check}(); print(selftest.FAILURES)"
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT / "bench",
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_tracer_wraps_every_binding():
    Tracer = _tracer_class()
    from bidiropt import cli, cost, ir, passes, reverse

    def bindings():
        return (ir.canonical_text, cost.canonical_text, reverse.known_bits,
                passes.FORWARD_PASSES["dce"], cli.main)

    originals = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert cost.canonical_text is ir.canonical_text is not originals[0]
        t0 = perf_counter()
        code, out = run_cli("ibo", VALID / "bin2bcd.ir", "-k", "1")
        seconds = perf_counter() - t0
        self_total = sum(tracer.self_s.values())
        before = sum(tracer.calls[f"passes.{p}"] for p in passes.FORWARD_PASSES)
        variants = reverse.reverse_variants("rev-instexpand-rem", load("bin2bcd"))
        reverse_pass_calls = sum(tracer.calls[f"passes.{p}"]
                                 for p in passes.FORWARD_PASSES) - before
        table_calls = tracer.calls["passes.divmul-to-rem"]
        undone = passes.apply_pass("divmul-to-rem", variants[0].function)
        table_calls = tracer.calls["passes.divmul-to-rem"] - table_calls
    finally:
        tracer.uninstall()
    assert code == 0
    assert bindings() == originals
    programs = json.loads(out)["outcome"]["total_programs"]
    m = tracer.metrics(programs, 1.0, 1.5, 1.0)
    assert m["cli.main.calls"] == 1 and m["search.ibo.self_s"] > 0
    assert m["reverse.rev-instexpand-rem.calls"] > 0
    assert m["ir.canonical_per_program"] >= 1
    assert abs(m["trace.overhead_ratio"] - 1.5) < 1e-12
    assert self_total <= seconds * 1.05  # self times do not double count
    # reverse_variants applies no forward pass; apply_pass reaches the
    # FORWARD_PASSES table binding and its fire counter
    assert variants and reverse_pass_calls == 0
    assert undone.changed and table_calls == 1
    assert tracer.counts["passes.divmul-to-rem.fires"] >= 1


def test_tracer_sees_the_interpreter(monkeypatch):
    # bench/selftest.py does not drive the interpreter, so check here that the
    # traced dynamic-ibo run still counts interpreter calls and steps
    from bidiropt.search import PassCache

    caches = []
    real_init = PassCache.__init__

    def init(cache):
        real_init(cache)
        caches.append(cache)

    monkeypatch.setattr(PassCache, "__init__", init)
    Tracer = _tracer_class()
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
    # every program ranked is measured once, as before control slices; the
    # report's traces read their keys from the run's cache (and bin2bcd's
    # sequences are empty)
    assert tracer.calls["interp.dynamic_cost_total"] == 14
    # but the workload runs once per distinct control slice of the command,
    # whose one slice memo the search and the report's traces share
    (cache,) = caches
    assert len(cache.slices) == 1
    assert tracer.calls["interp.interpret"] == cases * len(cache.slices)
