"""Interpreter: values, traps, costs, step-limit cuts, differential checking,
and agreement with the tree-walking reference interpreter."""

import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidiropt import interp
from bidiropt.cost import DEFAULT_COST_MODEL, CostModel
from bidiropt.interp import (
    DEFAULT_STEP_LIMIT,
    MAX_MISMATCHES,
    ExecResult,
    LoweredFunction,
    Workload,
    WorkloadDiverged,
    control_slice,
    default_workload,
    differential_check,
    dynamic_cost_total,
    interpret,
    load_workload,
)
from bidiropt.ir import (
    BINOP_FUNCS,
    BINOPS,
    may_trap,
    parse_function,
    print_function,
    validate_function,
)
from bidiropt.passes import FORWARD_PASSES, apply_pass
from bidiropt.reverse import REVERSE_PASSES, reverse_variants

from conftest import (
    ROOT,
    VALID,
    VALID_FILES,
    WORKLOADS,
    canonical_prints,
    fresh,
    load,
    memory_cfg,
    one_step_neighbours,
    reference_binop,
    reference_dynamic_cost_total,
    reference_interpret,
    run_cli,
    straightline,
    workload_for,
)


# Hand-checked outputs. bin2bcd(45) = 0x45 is the whole point of the fixture.
SPOT = [
    ("bin2bcd", [45], 69),
    ("bin2bcd", [255], 405),
    ("time_scale", [3725], 501),     # 62 minutes 5 seconds
    ("nibble_pack", [45], 144),
    ("scale_split", [45], 30),
    ("loop_sum", [10], 45),
    ("identities", [123], 0),        # urem x, 1 collapses the chain
]


@pytest.mark.parametrize("name,args,expected", SPOT,
                         ids=[f"{n}({','.join(map(str, a))})" for n, a, _ in SPOT])
def test_spot_values(name, args, expected):
    res = interpret(load(name), args)
    assert res.outcome == "returned"
    assert res.value == expected


def test_dynamic_cost_charges_the_table():
    # udiv 4 + shl 1 + urem 4 + add 1 + ret 1
    res = interpret(load("bin2bcd"), [45])
    assert res.dynamic_cost == 11
    assert res.steps == 5


def test_wrapping_arithmetic():
    f = parse_function("func @f(%x) {\nentry:\n  %a = add %x, 1\n  ret %a\n}\n")
    assert interpret(f, [0xFFFFFFFF]).value == 0


def test_parallel_phi_swap():
    f = load("phi_swap")
    # both phis read incoming values before either writes
    assert interpret(f, [0, 7, 9]).value == 7
    assert interpret(f, [1, 7, 9]).value == 9
    assert interpret(f, [2, 7, 9]).value == 7
    assert interpret(f, [5, 7, 9]).value == 9


# --- traps -------------------------------------------------------------------

def test_div_by_zero_traps():
    f = parse_function("func @f(%x) {\nentry:\n  %a = udiv 1, %x\n  ret %a\n}\n")
    res = interpret(f, [0])
    assert res.outcome == "trapped"
    assert res.reason == "DivByZero"
    assert interpret(f, [2]).value == 0


def test_rem_by_zero_traps():
    f = parse_function("func @f(%x) {\nentry:\n  %a = urem 1, %x\n  ret %a\n}\n")
    assert interpret(f, [0]).reason == "DivByZero"


def test_uninitialized_load_traps():
    f = parse_function(
        "func @f(%x) {\nentry:\n  %p = alloca\n  %v = load %p\n  ret %v\n}\n")
    res = interpret(f, [1])
    assert res.outcome == "trapped"
    assert res.reason == "UninitLoad"


def test_step_limit():
    f = load("loop_sum")
    res = interpret(f, [0xFFFFFFFF], limit=100)
    assert res.outcome == "steplimit"
    # the first step past the budget aborts the run
    assert res.steps == 101


# --- step-limit and trap boundaries ------------------------------------------
#
# loop_sum(n) runs br, then the head (2 phis, icmp, condbr) n+1 times and the
# body (add, add, br) n times, then ret: 7n+6 steps at cost 5n+4.

HEAVY = CostModel({"mul": 10, "phi": 2})


def _both(f, args, limit, model=None):
    """interpret's result, after checking it against the reference."""
    res = interpret(f, args, limit, model)
    assert res == reference_interpret(f, args, limit, model)
    return res


def test_exact_step_budget_returns_and_one_less_cuts_at_the_last_step():
    f = load("loop_sum")
    assert _both(f, [10], 76) == ExecResult("returned", value=45, steps=76, dynamic_cost=54)
    assert _both(f, [10], 75) == ExecResult("steplimit", steps=76, dynamic_cost=54)
    # phis cost 2 each under HEAVY: 2 phis x 11 head visits
    assert _both(f, [10], 76, HEAVY).dynamic_cost == 54 + 44
    assert _both(f, [10], 75, HEAVY) == ExecResult("steplimit", steps=76,
                                                   dynamic_cost=54 + 44)


@pytest.mark.parametrize("limit", [0, -3])
def test_budget_of_zero_or_less_cuts_the_first_step(limit):
    assert _both(load("bin2bcd"), [45], limit) == ExecResult(
        "steplimit", steps=1, dynamic_cost=4)


@pytest.mark.parametrize("model,cost", [(None, 1), (HEAVY, 5)])
def test_cut_inside_a_phi_group(model, cost):
    # br, first phi; the second phi is the step past the budget
    assert _both(load("loop_sum"), [10], 2, model) == ExecResult(
        "steplimit", steps=3, dynamic_cost=cost)


@pytest.mark.parametrize("model,cost", [(None, 5), (HEAVY, 9)])
def test_cut_in_the_middle_of_a_body(model, cost):
    # br, phi, phi, icmp, condbr, add; the second add is cut
    assert _both(load("loop_sum"), [10], 6, model) == ExecResult(
        "steplimit", steps=7, dynamic_cost=cost)


DIV_AFTER_PHI = """func @f(%x) {
entry:
  %z = add %x, 0
  br next
next:
  %p = phi [%z, entry]
  %a = mul %p, 3
  %c = udiv %a, %p
  %d = add %c, 1
  ret %d
}
"""

LOAD_MID_BLOCK = """func @f(%x) {
entry:
  %p = alloca
  %a = mul %x, 3
  %v = load %p
  %r = add %v, %a
  ret %r
}
"""


@pytest.mark.parametrize("model,cost", [(None, 9), (HEAVY, 18)])
def test_div_by_zero_in_the_middle_of_a_block(model, cost):
    # add, br, phi, mul, then udiv traps
    f = parse_function(DIV_AFTER_PHI)
    assert _both(f, [0], DEFAULT_STEP_LIMIT, model) == ExecResult(
        "trapped", reason="DivByZero", steps=5, dynamic_cost=cost)
    # a budget that ends on the trapping udiv cuts before it runs
    assert _both(f, [0], 4, model).outcome == "steplimit"
    assert _both(f, [2], DEFAULT_STEP_LIMIT, model).value == 4


@pytest.mark.parametrize("model,cost", [(None, 5), (HEAVY, 12)])
def test_uninit_load_in_the_middle_of_a_block(model, cost):
    # alloca, mul, then the load traps
    f = parse_function(LOAD_MID_BLOCK)
    assert _both(f, [7], DEFAULT_STEP_LIMIT, model) == ExecResult(
        "trapped", reason="UninitLoad", steps=3, dynamic_cost=cost)
    assert _both(f, [7], 2, model) == ExecResult("steplimit", steps=3, dynamic_cost=cost)


# --- agreement with the reference interpreter ---------------------------------

BOUNDARY = (0, 1, 2, 3, 7, 45, 255, 2**31, 2**32 - 1)
LIMITS = (1, 7, 50, DEFAULT_STEP_LIMIT)


def _rows(n_params):
    """Boundary values, rotated so every parameter sees each of them."""
    return [tuple(BOUNDARY[(i + 3 * j) % len(BOUNDARY)] for j in range(n_params))
            for i in range(len(BOUNDARY))]


def _derived(f):
    """f, every reverse variant (cap 8) and every single forward-pass output."""
    out = [f]
    for r in REVERSE_PASSES:
        out += [v.function for v in reverse_variants(r, f, cap=8)]
    for name in FORWARD_PASSES:
        step = apply_pass(name, f)
        if step.changed:
            out.append(step.function)
    return out


@pytest.mark.parametrize("name", [p.stem for p in VALID_FILES])
def test_matches_reference_interpreter_on_corpus_and_neighbours(name):
    for g in _derived(load(name)):
        lowered = LoweredFunction(g)
        for args in _rows(len(g.params)):
            for limit in LIMITS:
                got = interpret(g, args, limit, lowered=lowered)
                assert got == reference_interpret(g, args, limit), (g, args, limit)


@pytest.mark.parametrize("name", ["loop_counter_alloca", "phi_swap", "bin2bcd"])
def test_matches_reference_interpreter_under_another_model(name):
    for g in _derived(load(name)):
        lowered = LoweredFunction(g, HEAVY)
        for args in _rows(len(g.params)):
            for limit in LIMITS:
                assert interpret(g, args, limit, HEAVY, lowered) == reference_interpret(
                    g, args, limit, HEAVY), (g, args, limit)


@settings(max_examples=150, deadline=None)
@given(straightline(), st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2),
       st.sampled_from(LIMITS))
def test_matches_reference_interpreter_on_generated(text, args, limit):
    f = parse_function(text)
    args = args[:len(f.params)]
    assert interpret(f, args, limit) == reference_interpret(f, args, limit)


def test_exec_result_matches():
    assert ExecResult("returned", value=3).matches(ExecResult("returned", value=3))
    assert not ExecResult("returned", value=3).matches(ExecResult("returned", value=4))
    assert ExecResult("trapped", reason="DivByZero").matches(
        ExecResult("trapped", reason="DivByZero"))
    assert not ExecResult("trapped", reason="DivByZero").matches(
        ExecResult("trapped", reason="UninitLoad"))
    # two runs that both blow the budget are indistinguishable
    assert ExecResult("steplimit", steps=50).matches(ExecResult("steplimit", steps=99))
    assert not ExecResult("returned", value=0).matches(ExecResult("steplimit"))


# --- workloads and differential checking -------------------------------------

def test_default_workload_unary_is_exhaustive_u8():
    w = default_workload(load("bin2bcd"), seed=7, count=10)
    assert w.args == tuple((i,) for i in range(256))


def test_default_workload_nary_is_seeded():
    f = load("phi_swap")
    w1 = default_workload(f, seed=7, count=10)
    w2 = default_workload(f, seed=7, count=10)
    assert w1.args == w2.args
    assert len(w1.args) == 10
    assert all(len(row) == 3 for row in w1.args)
    assert default_workload(f, seed=8, count=10).args != w1.args


def test_load_workload_masks_to_u32(tmp_path):
    p = tmp_path / "w.json"
    p.write_text("[[4294967296], [1]]")
    w = load_workload(p)
    assert w.args == ((0,), (1,))


def test_load_workload_rejects_non_arrays(tmp_path):
    p = tmp_path / "w.json"
    p.write_text('{"not": "rows"}')
    with pytest.raises(ValueError):
        load_workload(p)


def test_differential_equal_functions():
    f = load("bin2bcd")
    wl = default_workload(f)
    rep = differential_check(f, f, wl)
    assert rep.equivalent
    assert rep.checked == 256
    assert rep.mismatches == ()
    assert rep.inconclusive == 0


def test_differential_counts_both_sides_out_of_steps_as_inconclusive():
    spin = parse_function("func @f(%x) {\nentry:\n  br loop\nloop:\n  br loop\n}\n")
    ret = parse_function("func @f(%x) {\nentry:\n  ret %x\n}\n")
    wl = Workload("w", ((0,), (1,), (2,)))
    rep = differential_check(spin, spin, wl, limit=50)
    assert rep.equivalent and rep.inconclusive == 3
    rep = differential_check(spin, ret, wl, limit=50)
    assert not rep.equivalent and rep.inconclusive == 0


def test_differential_catches_wrong_constant():
    f = load("bin2bcd")
    g = parse_function(f"""func @bin2bcd(%val) {{
entry:
  %q = udiv %val, 10
  %h = shl %q, 4
  %r = urem %val, 10
  %s = add %h, %r
  %t = add %s, 1
  ret %t
}}
""")
    wl = default_workload(f, seed=0, count=32)
    rep = differential_check(f, g, wl)
    assert not rep.equivalent
    assert 1 <= len(rep.mismatches) <= MAX_MISMATCHES
    m = rep.mismatches[0]
    assert m.left.value is not None and m.right.value == (m.left.value + 1) & 0xFFFFFFFF


def test_differential_reports_the_rows_it_ran():
    # every row mismatches, so the check stops after MAX_MISMATCHES rows
    f = parse_function("func @f(%x) {\nentry:\n  ret %x\n}\n")
    g = parse_function("func @f(%x) {\nentry:\n  %y = add %x, 1\n  ret %y\n}\n")
    wl = Workload("w", tuple((i,) for i in range(256)))
    rep = differential_check(f, g, wl)
    assert (rep.checked, len(rep.mismatches)) == (MAX_MISMATCHES, MAX_MISMATCHES)
    # both spin on 0, on every other row: inconclusive counts those of the
    # rows run, up to the last mismatch (row 2 * MAX_MISMATCHES - 1)
    spin = "func @f(%x) {\nentry:\n  %z = icmp.eq %x, 0\n  condbr %z, loop, out\n" \
           "loop:\n  br loop\nout:\n  ret %x\n}\n"
    f, g = parse_function(spin), parse_function(spin.replace("ret %x", "%y = add %x, 1\n  ret %y"))
    wl = Workload("w", tuple((0,) if i % 2 == 0 else (i,) for i in range(256)))
    rep = differential_check(f, g, wl, limit=50)
    assert (rep.checked, rep.inconclusive) == (2 * MAX_MISMATCHES, MAX_MISMATCHES)
    rep = differential_check(f, f, wl, limit=50)
    assert rep.equivalent and (rep.checked, rep.inconclusive) == (256, 128)


def test_differential_treats_matching_traps_as_equal():
    t = "func @f(%x) {\nentry:\n  %a = udiv 1, %x\n  ret %a\n}\n"
    f = parse_function(t)
    g = parse_function(t.replace("udiv 1", "udiv 2"))
    from bidiropt.interp import Workload
    wl = Workload("zeros", ((0,), (4,)))
    rep = differential_check(f, g, wl)
    # both trap at 0 with the same reason; at 4 both return 0
    assert rep.equivalent


def test_dynamic_cost_total_sums_and_raises():
    f = load("bin2bcd")
    from bidiropt.interp import Workload
    assert dynamic_cost_total(f, Workload("w", ((45,), (255,)))) == 22
    g = parse_function("func @f(%x) {\nentry:\n  %a = udiv 1, %x\n  ret %a\n}\n")
    with pytest.raises(WorkloadDiverged) as ei:
        dynamic_cost_total(g, Workload("w", ((0,),)))
    assert ei.value.args == (0,)
    assert ei.value.result.reason == "DivByZero"


def test_curated_workloads_load():
    for p in sorted(WORKLOADS.glob("*.json")):
        w = load_workload(p)
        assert len(w.args) > 0


# --- the generated code -------------------------------------------------------

EDGES = (0, 1, 2**31 - 1, 2**31, 2**32 - 1, 31, 32, 33, 64)


@pytest.mark.parametrize("opcode", BINOPS)
def test_binops_match_the_reference_on_32_bit_boundaries(opcode):
    # BINOP_FUNCS (const-fold) and the generated expressions come from one
    # table; both must agree with the reference on every boundary pair,
    # shift amounts of 32 and more included.
    for a, b in product(EDGES, EDGES):
        want, trap = reference_binop(opcode, a, b)
        if trap is None:
            assert BINOP_FUNCS[opcode](a, b) == want, (a, b)
    texts = [f"%r = {opcode} %a, %b"]
    texts += [f"%r = {opcode} {a}, %b" for a in EDGES] + [f"%r = {opcode} %a, {b}" for b in EDGES]
    for text in texts:
        f = parse_function(f"func @f(%a, %b) {{\nentry:\n  {text}\n  ret %r\n}}\n")
        lowered = LoweredFunction(f)
        for args in product(EDGES, EDGES):
            assert interpret(f, args, lowered=lowered) == reference_interpret(f, args), (text, args)


# A loop whose head traps behind its phi group: udiv by %i when %n is even
# (after %n/2 turns), a load of a never-stored cell on exit when %m is 0, and
# a run past any budget when %n is 2**32-1.
TRAP_BEHIND_PHIS = """func @f(%n, %m) {
entry:
  %p = alloca
  %z = icmp.eq %m, 0
  condbr %z, head, init
init:
  store %m, %p
  br head
head:
  %i = phi [%n, entry], [%n, init], [%i2, head]
  %k = phi [0, entry], [0, init], [%k2, head]
  %q = udiv 12, %i
  %k2 = add %k, %q
  %i2 = sub %i, 2
  %c = icmp.ne %i, 1
  condbr %c, head, exit
exit:
  %v = load %p
  %r = add %k2, %v
  ret %r
}
"""

# rows 0, 8, 16 and 24 of each curated loop workload (nested_loop's first
# eight rows never enter the outer loop)
CUT_CASES = [(p.stem, load(p.stem), [list(r) for r in load_workload(p).args[:25:8]])
             for p in sorted(WORKLOADS.glob("*.json")) if (VALID / f"{p.stem}.ir").exists()]
CUT_CASES.append(("trap_behind_phis", parse_function(TRAP_BEHIND_PHIS),
                  [[0, 0], [1, 0], [3, 5], [4, 3], [6, 0], [2**32 - 1, 1]]))


@pytest.mark.parametrize("model", [None, HEAVY], ids=["default", "heavy"])
@pytest.mark.parametrize("name,f,rows", CUT_CASES, ids=[c[0] for c in CUT_CASES])
def test_every_cut_position_matches_the_reference(name, f, rows, model):
    lowered = LoweredFunction(f, model)
    outcomes = set()
    for args in rows:
        full = reference_interpret(f, args, 300, model)
        outcomes.add(full.reason or full.outcome)
        for limit in range(min(full.steps, 300) + 1):
            assert interpret(f, args, limit, model, lowered) == reference_interpret(
                f, args, limit, model), (args, limit)
    if name == "trap_behind_phis":
        assert outcomes == {"returned", "DivByZero", "UninitLoad", "steplimit"}


IR_NAMES_AS_PYTHON = """func @exec(%while, %exec, %args) {
import:
  %v1 = add %while, 1
  %cells = alloca
  store %v1, %cells
  %limit = load %cells
  %None = icmp.ult %limit, %exec
  condbr %None, return, lambda
lambda:
  %R = mul %limit, %args
  br return
return:
  %prev = phi [%limit, import], [%R, lambda]
  %U = phi [%args, import], [%v1, lambda]
  %t = udiv %prev, %U
  ret %t
}
"""


def test_ir_names_never_reach_the_generated_code():
    f = parse_function(IR_NAMES_AS_PYTHON)
    assert validate_function(f) == []
    code = LoweredFunction(f).run.__code__
    assert code.co_filename == "<lowered @exec>"
    fixed = {"args", "limit", "cells", "steps", "cost", "cur", "prev", "t"}
    # values are v0, v1, ...; the block counters are n0, n1, ...
    assert all(n in fixed or re.fullmatch(r"[vn]\d+", n) for n in code.co_varnames)
    assert set(code.co_names) <= {"R", "U", "P", "len", "max", "append", "AssertionError"}
    strings = {c for c in code.co_consts if isinstance(c, str)}
    assert all(s in {"returned", "trapped", "steplimit", "DivByZero", "UninitLoad"}
               or re.fullmatch(r"phis in block \d+ have no incoming for ", s) for s in strings)
    for args in product((0, 1, 7, 2**32 - 1), repeat=3):
        for limit in (0, 3, 9, DEFAULT_STEP_LIMIT):
            assert interpret(f, args, limit) == reference_interpret(f, args, limit), (args, limit)


def _lowered_source(f):
    """The source LoweredFunction generates for f."""
    sources = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interp, "compile", lambda source, *a: sources.append(source) or compile(
            source, *a), raising=False)
        LoweredFunction(f)
    (source,) = sources
    return source


def _assert_each_block_is_emitted_once(f):
    source = _lowered_source(f)
    # one dispatch arm per block, in block order
    assert re.findall(r"^  (?:el)?if cur == (\d+):$", source, re.M) == [
        str(i) for i in range(len(f.blocks))], source
    traps = sum(may_trap(ins) for b in f.blocks for ins in b.instrs)
    # one trap return per instruction that may trap, so no block has a second copy
    assert source.count("'DivByZero'") + source.count("'UninitLoad'") == traps, source
    # the budget is tested before each of them and before each terminator, nowhere else
    assert source.count("limit: break") == traps + len(f.blocks), source


@pytest.mark.parametrize("name", [p.stem for p in VALID_FILES])
def test_the_generated_code_holds_each_block_once(name):
    _assert_each_block_is_emitted_once(load(name))


@settings(max_examples=100, deadline=None)
@given(memory_cfg(), st.integers(0, 2**32 - 1))
def test_the_generated_code_holds_each_block_once_on_generated(text, arg):
    # divide by each `_x` load instead of adding to it, so the program has
    # loads and divisions by loaded values, which may be 0
    f = parse_function(re.sub(r"(%\w+_x) = add (%\w+), (\d+)", r"\1 = udiv \3, \2", text))
    assert validate_function(f) == []
    _assert_each_block_is_emitted_once(f)
    lowered = LoweredFunction(f)
    full = reference_interpret(f, [arg])
    for limit in {0, 1, full.steps // 2, full.steps - 1, full.steps, *LIMITS}:
        assert interpret(f, [arg], limit, lowered=lowered) == reference_interpret(
            f, [arg], limit), limit


def test_dynamic_cost_total_lowers_once_and_interprets_each_row(monkeypatch):
    lowerings, runs = [], []

    class Counting(interp.LoweredFunction):
        def __init__(self, *a, **k):
            lowerings.append(a)
            super().__init__(*a, **k)

    real = interp.interpret
    monkeypatch.setattr(interp, "LoweredFunction", Counting)
    monkeypatch.setattr(interp, "interpret", lambda *a, **k: runs.append(a) or real(*a, **k))
    wl = load_workload(WORKLOADS / "loop_sum.json")
    total = dynamic_cost_total(load("loop_sum"), wl)
    assert total == sum(reference_interpret(load("loop_sum"), r).dynamic_cost for r in wl.args)
    assert len(lowerings) == 1
    assert len(runs) == len(wl.args)


# --- block counts and the control slice ------------------------------------

@pytest.mark.parametrize("name", [p.stem for p in VALID_FILES])
def test_block_counts_match_the_reference(name):
    for g in _derived(load(name)):
        lowered = LoweredFunction(g)
        for args in _rows(len(g.params)):
            for limit in LIMITS:
                got, want = interpret(g, args, limit, lowered=lowered), reference_interpret(
                    g, args, limit)
                assert got.blocks == want.blocks, (g, args, limit)
                if got.outcome == "returned":
                    # a returned run's steps and cost are its counts times its blocks'
                    sizes = [(len(b.instrs),
                              sum(DEFAULT_COST_MODEL.cost(i.opcode) for i in b.instrs))
                             for b in g.blocks]
                    assert got.steps == sum(n * k for n, (k, _) in zip(got.blocks, sizes))
                    assert got.dynamic_cost == sum(n * c for n, (_, c) in zip(got.blocks, sizes))


@settings(max_examples=150, deadline=None)
@given(memory_cfg(), st.integers(0, 2**32 - 1), st.sampled_from(LIMITS))
def test_block_counts_match_the_reference_on_generated(text, arg, limit):
    f = parse_function(text)
    assert interpret(f, [arg], limit).blocks == reference_interpret(f, [arg], limit).blocks


def test_control_slice_keeps_what_decides_the_path():
    f = load("loop_licm")
    # the accumulator's phi cycle feeds only ret, and drops out with it;
    # the blocks keep f's labels and f's order
    assert print_function(control_slice(f)) == """func @loop_licm(%n, %a, %b) {
entry:
  br head
head:
  %i = phi [0, entry], [%i2, body]
  %c = icmp.ult %i, %n
  condbr %c, body, exit
body:
  %i2 = add %i, 1
  br head
exit:
  ret 0
}
"""
    # a possible trap is kept with what it reads; with a load, all memory
    # is, but a cell no load reads before a store is promoted: %q goes, and
    # %s, which fed only its store, goes with it
    g = parse_function("""func @f(%x, %y) {
entry:
  %p = alloca
  %q = alloca
  %s = add %x, 1
  store %s, %q
  %d = udiv %y, %x
  %k = udiv %y, 3
  %v = load %p
  %r = add %d, %k
  ret %r
}
""")
    assert [ins.result or ins.opcode for ins in control_slice(g).blocks[0].instrs] == [
        "p", "d", "v", "ret"]


SWEEP_LIMITS = (DEFAULT_STEP_LIMIT, 12, 25, 60)
SWEEP_FILES = VALID_FILES + sorted((ROOT / "corpus" / "regress").glob("*.ir"))


def test_a_cell_a_load_may_read_before_a_store_stays_in_memory():
    # %c is written on one arm only, so its load may trap; %d is written
    # before every load of it, so it is promoted, and its chain, which fed
    # only ret, drops out
    g = parse_function("""func @f(%x) {
entry:
  %c = alloca
  %d = alloca
  %y = mul %x, 3
  store %y, %d
  %t = icmp.eq %x, 0
  condbr %t, set, join
set:
  store 1, %c
  br join
join:
  %v = load %c
  %w = load %d
  %r = add %v, %w
  ret %r
}
""")
    cut = control_slice(g)
    assert [[ins.result or ins.opcode for ins in b.instrs] for b in cut.blocks] == [
        ["c", "t", "condbr"], ["store", "br"], ["v", "ret"]]
    assert validate_function(cut) == []
    assert interpret(cut, [0]).outcome == "returned"
    assert interpret(cut, [1]) == ExecResult("trapped", None, "UninitLoad", 4, 4)
    with pytest.raises(WorkloadDiverged) as e:
        dynamic_cost_total(g, Workload("rows", ((0,), (1,))))
    assert e.value.args == (1,) and e.value.result == reference_interpret(g, [1])


@pytest.mark.parametrize("path", SWEEP_FILES, ids=[p.stem for p in SWEEP_FILES])
def test_control_slice_is_a_valid_function(path):
    f = parse_function(path.read_text())
    for g in [f, *one_step_neighbours(f)]:
        assert validate_function(control_slice(g)) == [], print_function(g)


@settings(max_examples=150, deadline=None)
@given(memory_cfg())
def test_control_slice_is_a_valid_function_on_generated(text):
    f = parse_function(text)
    for g in [f, *one_step_neighbours(f)]:
        assert validate_function(control_slice(g)) == [], print_function(g)


def _sweep(measure, f, wl, limit):
    """The total, or the args and result of the row that diverged."""
    try:
        return measure(f, wl, limit)
    except WorkloadDiverged as e:
        return e.args, e.result


def _assert_sweeps_agree(programs, wl):
    """dynamic_cost_total equals the per-row sweep on every program, at each
    limit, with one memo per limit shared by all the programs."""
    outcomes = set()
    for limit in SWEEP_LIMITS:
        memo = {}
        for g in programs:
            want = _sweep(reference_dynamic_cost_total, g, wl, limit)
            got = _sweep(lambda g, wl, limit: dynamic_cost_total(g, wl, limit, memo=memo),
                         g, wl, limit)
            assert got == want, (print_function(g), limit)
            outcomes.add(type(want) is int or want[1].reason or want[1].outcome)
    return outcomes


@pytest.mark.parametrize("path", SWEEP_FILES, ids=[p.stem for p in SWEEP_FILES])
def test_dynamic_cost_total_matches_the_per_row_sweep(path):
    f = parse_function(path.read_text())
    outcomes = _assert_sweeps_agree([f, *one_step_neighbours(f)], workload_for(f))
    if (WORKLOADS / f"{f.name}.json").exists():
        # the short limits cut the curated loops mid-loop
        assert "steplimit" in outcomes


@settings(max_examples=80, deadline=None)
@given(st.one_of(memory_cfg(), straightline()))
def test_dynamic_cost_total_matches_the_per_row_sweep_on_generated(text):
    f = parse_function(text)
    wl = Workload("rows", tuple(_rows(len(f.params))))
    _assert_sweeps_agree([f, *one_step_neighbours(f)], wl)


def _assert_nothing_prints(programs, wl):
    """dynamic_cost_total prints no canonical form, on a fresh copy of each
    program, with one memo per limit shared by all the programs: the slice
    memo is keyed by the slice itself."""
    with canonical_prints() as printed:
        for limit in SWEEP_LIMITS:
            memo = {}
            for g in programs:
                _sweep(lambda g, wl, limit: dynamic_cost_total(g, wl, limit, memo=memo),
                       fresh(g), wl, limit)
                assert printed == [], (print_function(g), limit)


@pytest.mark.parametrize("path", SWEEP_FILES, ids=[p.stem for p in SWEEP_FILES])
def test_dynamic_cost_total_never_prints(path):
    f = parse_function(path.read_text())
    _assert_nothing_prints([f, *one_step_neighbours(f)], workload_for(f))


@settings(max_examples=80, deadline=None)
@given(memory_cfg())
def test_dynamic_cost_total_never_prints_on_generated(text):
    f = parse_function(text)
    _assert_nothing_prints([f, *one_step_neighbours(f)], Workload("rows", tuple(_rows(1))))


def _count_runs(monkeypatch):
    """The functions lowered, and the interpret calls, from here on."""
    lowered, runs = [], []

    class Counting(interp.LoweredFunction):
        def __init__(self, g, *a, **k):
            lowered.append(g)
            super().__init__(g, *a, **k)

    real = interp.interpret
    monkeypatch.setattr(interp, "LoweredFunction", Counting)
    monkeypatch.setattr(interp, "interpret", lambda *a, **k: runs.append(a) or real(*a, **k))
    return lowered, runs


@pytest.mark.parametrize("workload", sorted(WORKLOADS.glob("*.json")), ids=lambda p: p.stem)
def test_a_finishing_fixture_runs_only_its_slice(monkeypatch, workload):
    # each curated fixture finishes every row, so only its slice runs: with
    # a load in the slice, the slice keeps the stores that load reads
    lowered, runs = _count_runs(monkeypatch)
    f = load(workload.stem.removesuffix("_spot"))
    wl = load_workload(workload)
    assert dynamic_cost_total(f, wl) == reference_dynamic_cost_total(f, wl)
    assert lowered == [control_slice(f)]
    assert len(runs) == len(wl.args)


def test_programs_with_one_control_slice_share_one_run_per_row(monkeypatch):
    lowered, runs = _count_runs(monkeypatch)
    f = load("loop_licm")
    wl = load_workload(WORKLOADS / "loop_licm.json")
    # licm moves the multiply out of the loop: other block costs, one slice
    hoisted = apply_pass("licm", f).function
    # this swap rewrites the operands of the loop counter's add
    (swapped,) = [v.function for v in reverse_variants("rev-reassociate", f)
                  if v.step == "rev-reassociate@1"]
    memo = {}
    totals = [dynamic_cost_total(g, wl, memo=memo) for g in (f, hoisted, swapped)]
    assert totals == [reference_dynamic_cost_total(g, wl) for g in (f, hoisted, swapped)]
    assert totals[0] != totals[1]
    assert control_slice(f) == control_slice(hoisted)
    assert lowered == [control_slice(f), control_slice(swapped)]
    assert len(runs) == 2 * len(wl.args)


# loop_sum with its loop counter kept in a cell
LOOP_SUM_IN_MEMORY = """func @loop_sum(%n) {
entry:
  %i_m0 = alloca
  br head
head:
  %i = phi [0, entry], [%i2, body]
  %acc = phi [0, entry], [%acc2, body]
  store %i, %i_m0
  %i_l0 = load %i_m0
  %c = icmp.ult %i_l0, %n
  condbr %c, body, exit
body:
  %i_l1 = load %i_m0
  %acc2 = add %acc, %i_l1
  %i_l2 = load %i_m0
  %i2 = add %i_l2, 1
  br head
exit:
  ret %acc
}
"""


def test_a_detour_through_memory_shares_its_slice(monkeypatch):
    f = load("loop_sum")
    wl = load_workload(WORKLOADS / "loop_sum.json")
    # the slice promotes the cell back, so both programs share one slice
    programs = [f, parse_function(LOOP_SUM_IN_MEMORY)]
    lowered, runs = _count_runs(monkeypatch)
    memo = {}
    totals = [dynamic_cost_total(g, wl, memo=memo) for g in programs]
    assert totals == [reference_dynamic_cost_total(g, wl) for g in programs]
    assert totals[0] != totals[1]
    assert lowered == [control_slice(f)]
    assert len(runs) == len(wl.args)


def test_a_dynamic_ibo_round_lowers_each_control_path_once(monkeypatch):
    # `ibo -k 1 --metric dynamic` on each curated workload, the benchmark's
    # dynamic-ibo round: its 87 measured programs take 14 control paths
    lowered, runs = _count_runs(monkeypatch)
    for workload in sorted(WORKLOADS.glob("*.json")):
        fixture = VALID / f"{workload.stem.removesuffix('_spot')}.ir"
        code, _ = run_cli("ibo", fixture, "-k", "1", "--metric", "dynamic",
                          "--workload", workload)
        assert code == 0, workload
    assert (len(lowered), len(runs)) == (14, 609)
