"""Fast self-test of the benchmark's evaluator, checker and tracer.

    python3 bench/selftest.py

Runs in about a second. Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refeval  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, per_layer_spec  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    if not cond:
        FAILURES.append(what)


def ev(text: str, *args) -> tuple:
    return refeval.run(refeval.parse(text), args)


ARITH = """func @f(%x, %y) {
entry:
  %a = sub %x, %y      ; wraps below zero
  %b = shl %a, 33      ; shift amount taken modulo 32
  %c = lshr %b, 1
  %d = icmp.ult %x, %y
  %e = select %d, %c, 7
  ret %e
}
"""

DIV = """func @f(%x, %y) {
entry:
  %q = udiv %x, %y
  %r = urem %q, 3
  ret %r
}
"""

SWAP = """func @f(%n, %a, %b) {
entry:
  br head
head:
  %x = phi [%a, entry], [%y, latch]
  %y = phi [%b, entry], [%x, latch]
  %i = phi [0, entry], [%i2, latch]
  %c = icmp.ult %i, %n
  condbr %c, latch, exit
latch:
  %i2 = add %i, 1
  br head
exit:
  ret %x
}
"""

MEMORY = """func @f(%x) {
entry:
  %p = alloca
  %c = icmp.eq %x, 0
  condbr %c, skip, write
write:
  store %x, %p
  br skip
skip:
  %v = load %p
  ret %v
}
"""

SPIN = """func @f(%x) {
entry:
  br loop
loop:
  br loop
}
"""


def test_evaluator() -> None:
    expect(ev(ARITH, 1, 2)[:2] == ("ret", ((0xFFFFFFFF << 1) & 0xFFFFFFFF) >> 1),
           "sub wraps, shl by 33 shifts by 1")
    expect(ev(ARITH, 5, 2)[:2] == ("ret", 7), "select picks the else value")
    expect(ev(DIV, 7, 0)[:2] == ("trap", "div0"), "udiv by zero traps")
    expect(ev(DIV, 100, 7)[:2] == ("ret", 14 % 3), "udiv then urem")
    expect(ev(SWAP, 0, 4, 9)[:2] == ("ret", 4), "phi swap, zero trips")
    expect(ev(SWAP, 3, 4, 9)[:2] == ("ret", 9), "phi swap is a parallel copy")
    expect(ev(MEMORY, 5)[:2] == ("ret", 5), "store then load")
    expect(ev(MEMORY, 0)[:2] == ("trap", "uninit"), "load of a never-stored cell traps")
    expect(refeval.run(refeval.parse(SPIN), (1,), limit=50)[0] == "limit", "step limit")
    expect(refeval.has_cycle(refeval.parse(SWAP)), "loop found")
    expect(not refeval.has_cycle(refeval.parse(MEMORY)), "diamond is not a loop")
    expect(refeval.static_key(refeval.parse(ARITH)) == (6, 6), "static key of ARITH")
    expect(refeval.static_key(refeval.parse(MEMORY)) == (8, 7), "alloca free, memory 2")
    seed = refeval.parse((run.ROOT / "corpus/valid/bin2bcd.ir").read_text())
    expect(refeval.static_key(seed) == (11, 5), "bin2bcd is (11,5) by the README table")
    # entry br, three header visits (icmp + condbr), two latches (add + br), ret
    expect(refeval.dynamic_cost(refeval.parse(SWAP), [(2, 0, 0)]) == 1 + 3 * 2 + 2 * 2 + 1,
           "dynamic cost counts executed instructions, phis free")


def test_checker() -> None:
    inputs = run.check_inputs(refeval.parse(DIV), seed=1)
    expect((0, 0) in inputs and (2**32 - 1, 2**31 + 1) in inputs, "boundary pairs")
    expect(inputs == run.check_inputs(refeval.parse(DIV), seed=1), "inputs repeat per seed")
    expect(inputs != run.check_inputs(refeval.parse(DIV), seed=2), "inputs follow the seed")
    expect(run.planted_control(seed=1) == [], "planted mul %q, 5 is caught, mul 6 accepted")
    spin = refeval.parse(SPIN)
    expect(refeval.first_mismatch(spin, spin, [(0,)]) is not None,
           "two step-limit hits are not an agreement")
    off_by_one = DIV.replace("urem %q, 3", "urem %q, 4")
    expect(refeval.first_mismatch(refeval.parse(DIV), refeval.parse(off_by_one), inputs)
           is not None, "changed constant is caught")
    expect(refeval.first_mismatch(refeval.parse(DIV), refeval.parse(DIV), inputs) is None,
           "a program agrees with itself, traps included")
    expect(all(run.bin2bcd_reference(v) == int(str(v), 16) for v in range(100)),
           "bin2bcd reference packs two decimal digits")


def test_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "end-to-end metrics match run.END_TO_END")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == per_layer_spec(), "per-layer metrics match tracer.per_layer_spec")


def test_tracer() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import bidiropt.cli
    from bidiropt import cost, ir, passes, reverse

    originals = (ir.canonical_text, cost.canonical_text, reverse.known_bits,
                 passes.FORWARD_PASSES["dce"], bidiropt.cli.main)
    tracer = Tracer()
    tracer.install()
    try:
        expect(cost.canonical_text is ir.canonical_text is not originals[0],
               "canonical_text wrapped at both bindings")
        res = run.call_cli(["ibo", str(run.ROOT / "corpus/valid/bin2bcd.ir"), "-k", "1"])
        self_total = sum(tracer.self_s.values())
        before = tracer.calls["passes.divmul-to-rem"]
        seed = ir.parse_function((run.ROOT / "corpus/valid/bin2bcd.ir").read_text())
        n_variants = len(reverse.reverse_variants("rev-instexpand-rem", seed))
        undo_calls = tracer.calls["passes.divmul-to-rem"] - before
    finally:
        tracer.uninstall()
    expect(res.rc == 0, "traced ibo runs")
    expect((ir.canonical_text, cost.canonical_text, reverse.known_bits,
            passes.FORWARD_PASSES["dce"], bidiropt.cli.main) == originals,
           "uninstall restores every binding")
    m = tracer.metrics(json.loads(res.stdout)["outcome"]["total_programs"], 1.0, 1.5, 1.0)
    expect(m["cli.main.calls"] == 1 and m["search.ibo.self_s"] > 0, "ibo span recorded")
    expect(m["reverse.rev-instexpand-rem.calls"] > 0, "reverse spans split by pass")
    expect(n_variants >= 1 and undo_calls >= n_variants,
           "paired-undo filter calls reach the pass wrappers")
    expect(m["ir.canonical_per_program"] >= 1, "every program is canonicalized")
    expect(abs(m["trace.overhead_ratio"] - 1.5) < 1e-12, "overhead is traced/untraced")
    expect(self_total <= res.seconds * 1.05, "self times do not double count")


def main() -> int:
    for test in (test_evaluator, test_checker, test_benchmark_json, test_tracer):
        test()
    for f in FAILURES:
        print(f"FAIL: {f}")
    print(f"selftest: {'ok' if not FAILURES else f'{len(FAILURES)} failed'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
