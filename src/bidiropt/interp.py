"""Interpreter: wrapping int32, trapping udiv/urem-by-zero and uninitialized
loads, parallel phi evaluation, per-run dynamic cost and block counts. Each
function is compiled once per workload sweep into one generated Python
function, whose binop expressions and trap tests come from the IR's int32
semantics (ir.BINOP_EXPR, ir.may_trap).

A workload's dynamic cost is measured on the function's control slice
(Weiser, IEEE TSE 1984): what decides the path a run takes and whether it
traps, with its promotable cells promoted (passes.apply_mem2reg). Block
counts fix a run's cost (Ball & Larus, TOPLAS 1994), so every function with
an equal slice (field for field) is measured by one run of the slice per
row, and nothing is printed to measure it."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import accumulate
from operator import mul
from pathlib import Path
from typing import Callable

from .analysis import use_def
from .cost import CostModel, DEFAULT_COST_MODEL
from .ir import (
    BINOP_EXPR,
    MASK32,
    BasicBlock,
    Function,
    Instruction,
    Literal,
    Operand,
    ValueRef,
    may_trap,
)
from .passes import apply_mem2reg

DEFAULT_STEP_LIMIT = 10_000
MAX_MISMATCHES = 5  # differential_check stops after this many

_UNINIT = object()


@dataclass(frozen=True)
class ExecResult:
    """Outcome of one run: 'returned' | 'trapped' | 'steplimit'.

    For a returned run, `blocks` counts the runs of each block, in block
    order; it is () for a run that trapped or hit the step limit. It
    profiles the run rather than being part of its outcome, so equality
    ignores it."""

    outcome: str
    value: int | None = None
    reason: str | None = None
    steps: int = 0
    dynamic_cost: int = 0
    blocks: tuple[int, ...] = field(default=(), compare=False)

    def matches(self, other: "ExecResult") -> bool:
        if self.outcome != other.outcome:
            return False
        if self.outcome == "returned":
            return self.value == other.value
        if self.outcome == "trapped":
            return self.reason == other.reason
        return True  # both hit the step limit


def _run_order(b: BasicBlock) -> list[Instruction]:
    """The instructions a run of b executes: its phis, then the rest up to
    and including the first terminator."""
    rest = [ins for ins in b.instrs if not ins.is_phi]
    end = next((k for k, ins in enumerate(rest) if ins.is_terminator), None)
    if end is None:
        raise ValueError(f"block {b.label} has no terminator")
    return [ins for ins in b.instrs if ins.is_phi] + rest[:end + 1]


class LoweredFunction:
    """A Function compiled for execution under one cost model.

    The generated source is one `def run(args, limit)` (the technique
    `dataclasses` uses for `__init__`): every value is a local v0, v1, ...,
    a `while True` loop dispatches on the block index `cur`, and a block's
    phis are one tuple assignment chosen by the predecessor index `prev`.
    Each block is emitted once, as straight-line code that adds its length
    and cost and counts one more run of itself in its local n0, n1, ...; a
    `ret` returns those counts (ExecResult.blocks). The step budget is
    tested only where running past it could be seen: before each
    instruction that may trap (may_trap) and before the terminator. Past the
    budget, an instruction that cannot trap writes only a local or a cell,
    and the run ends in 'steplimit' at the next test; the block's prefix
    sums of costs then give the exact steps and cost of the cut. Steps
    count phis first, then the rest of the block in order, the terminator
    last. Only value and block indices, integer literals and fixed
    templates reach the source, never IR text.
    """

    def __init__(self, f: Function, model: CostModel | None = None):
        model = model or DEFAULT_COST_MODEL
        regs: dict[str, str] = {}
        index = {b.label: i for i, b in enumerate(f.blocks)}
        has_phis = {i for i, b in enumerate(f.blocks) if any(ins.is_phi for ins in b.instrs)}

        def reg(name: str) -> str:
            return regs.setdefault(name, f"v{len(regs)}")

        def val(op: Operand) -> str:
            if isinstance(op, Literal):
                return ("%d" if op.value >= 0 else "(%d)") % op.value
            return reg(op.name)

        src = ["def run(args, limit):"]
        src += [f" {reg(p)} = args[{i}] & 4294967295" for i, p in enumerate(f.params)]
        counters = [f"n{i}" for i in range(len(f.blocks))]
        src += [f" cells = []; steps = cost = cur = {' = '.join(counters + ['0'])}; prev = -1",
                " while True:"]
        prefixes = []
        for i, b in enumerate(f.blocks):
            seq = _run_order(b)
            phis = [ins for ins in seq if ins.is_phi]
            body, term = seq[len(phis):-1], seq[-1]
            prefix = tuple(accumulate((model.cost(ins.opcode) for ins in seq), initial=0))
            prefixes.append(prefix)
            length, total = len(seq), prefix[-1]
            code: list[str] = []
            if phis:
                dsts = ", ".join(reg(ins.result) for ins in phis)
                arms = []
                for lbl in sorted({lbl for ins in phis for lbl in ins.labels} & index.keys(),
                                  key=index.get):
                    srcs = [next((op for op, l in zip(ins.operands, ins.labels) if l == lbl), None)
                            for ins in phis]
                    if None not in srcs:
                        arms.append(f"if prev == {index[lbl]}: {dsts} = {', '.join(map(val, srcs))}")
                code += ["el" * (k > 0) + arm for k, arm in enumerate(arms)]
                code.append("else: " * bool(arms) +
                            f"raise AssertionError(f'phis in block {i} have no incoming for {{prev}}')")
            for pos, ins in enumerate(body, len(phis)):
                traps = may_trap(ins)
                if traps:
                    code.append(f"if steps + {pos} >= limit: break")
                trap = f"return R('trapped', None, '%s', steps + {pos + 1}, cost + {prefix[pos + 1]})"
                d = None if ins.result is None else reg(ins.result)
                ops = [val(op) for op in ins.operands]
                if ins.opcode == "alloca":
                    code.append(f"{d} = len(cells); cells.append(U)")
                elif ins.opcode == "load":
                    code.append(f"if ({d} := cells[{ops[0]}]) is U: " + trap % "UninitLoad")
                elif ins.opcode == "store":
                    code.append(f"cells[{ops[1]}] = {ops[0]}")
                elif ins.opcode == "select":
                    code.append(f"{d} = {ops[1]} if {ops[0]} else {ops[2]}")
                else:
                    if traps:
                        code.append(f"if not {ops[1]}: " + trap % "DivByZero")
                    code.append(f"{d} = " + BINOP_EXPR[ins.opcode].format(a=ops[0], b=ops[1]))
            code.append(f"if steps + {length} > limit: break")
            if term.opcode == "ret":
                counts = "".join(f"{n}{' + 1' * (j == i)}, " for j, n in enumerate(counters))
                code.append(f"return R('returned', {val(term.operands[0])}, None, steps + {length}, "
                            f"cost + {total}, ({counts}))")
            else:
                targets = [index[lbl] for lbl in term.labels]
                code.append(f"steps += {length}; cost += {total}; n{i} += 1")
                if has_phis.intersection(targets):
                    code.append(f"prev = {i}")
                code.append(f"cur = {targets[0]}" if term.opcode == "br" else
                            f"cur = {targets[0]} if {val(term.operands[0])} else {targets[1]}")
            src += [f"  {'el' * (i > 0)}if cur == {i}:"] + ["   " + line for line in code]
        src += [" t = max(limit - steps, 0)",
                " return R('steplimit', None, None, steps + t + 1, cost + P[cur][t + 1])"]
        namespace = {"R": ExecResult, "U": _UNINIT, "P": tuple(prefixes)}
        exec(compile("\n".join(src), f"<lowered @{f.name}>", "exec"), namespace)
        self.run: Callable[[tuple[int, ...] | list[int], int], ExecResult] = namespace["run"]


def interpret(
    f: Function,
    args: tuple[int, ...] | list[int],
    limit: int = DEFAULT_STEP_LIMIT,
    model: CostModel | None = None,
    lowered: LoweredFunction | None = None,
) -> ExecResult:
    """Run f on args. A caller running many cases passes
    lowered=LoweredFunction(f, model) so f is lowered once for all of them."""
    if len(args) != len(f.params):
        raise ValueError(f"@{f.name} wants {len(f.params)} args, got {len(args)}")
    return (lowered or LoweredFunction(f, model)).run(args, limit)


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Workload:
    """Named list of argument tuples driving dynamic measurements."""

    name: str
    args: tuple[tuple[int, ...], ...]


def default_workload(f: Function, seed: int = 0, count: int = 1000) -> Workload:
    """Exhaustive 0..255 for unary functions, seeded random tuples otherwise."""
    if len(f.params) == 1:
        return Workload("exhaustive-u8", tuple((i,) for i in range(256)))
    rng = random.Random(seed)
    rows = tuple(
        tuple(rng.getrandbits(32) for _ in f.params) for _ in range(count)
    )
    return Workload(f"random-{seed}-{count}", rows)


def load_workload(path: str | Path, name: str | None = None) -> Workload:
    rows = json.loads(Path(path).read_text())
    if not isinstance(rows, list) or not all(
            isinstance(r, list) and all(type(v) is int for v in r) for r in rows):
        raise ValueError(f"workload {path} must be a JSON array of integer argument arrays")
    if not rows:
        raise ValueError(f"workload {path} has no rows")
    return Workload(name or Path(path).stem, tuple(tuple(v & MASK32 for v in r) for r in rows))


class WorkloadDiverged(Exception):
    """A run in the workload trapped or hit the step limit."""

    def __init__(self, args: tuple[int, ...], result: ExecResult):
        super().__init__(f"args={args}: {result.outcome} ({result.reason})")
        self.args = args
        self.result = result


def _weiser_slice(f: Function) -> Function:
    """f cut down to its roots, the branches and the instructions that may
    trap (with a load among them, every alloca and store too: in a valid
    function an address reaches nothing but loads and stores), and every def
    they reach through use-def operands. Every `ret` returns 0."""
    instrs = [ins for b in f.blocks for ins in b.instrs]
    memory = any(ins.opcode == "load" for ins in instrs)

    def root(ins: Instruction) -> bool:
        return (ins.opcode in ("br", "condbr") or may_trap(ins)
                or (memory and ins.opcode in ("alloca", "store")))

    defs = use_def(f).instrs
    live: set[str] = set()
    work = [ins for ins in instrs if root(ins)]
    while work:
        ins = work.pop()
        for op in ins.operands:
            if isinstance(op, ValueRef) and op.name not in live:
                live.add(op.name)
                if op.name in defs:
                    work.append(defs[op.name])
    ret0 = Instruction(None, "ret", (Literal(0),))
    return Function(f.name, f.params, tuple(
        BasicBlock(b.label, tuple(ret0 if ins.opcode == "ret" else ins for ins in b.instrs
                                  if ins.opcode == "ret" or root(ins) or ins.result in live))
        for b in f.blocks))


def control_slice(f: Function) -> Function:
    """f cut down to what decides its path and its traps.

    First the Weiser slice (_weiser_slice), so a value that feeds only `ret`
    (a phi cycle included) drops out. If that slice keeps a cell mem2reg
    can promote (no load may read it before a store, so no UninitLoad is
    lost), the cell is promoted and the result sliced again: a store whose
    value is loaded only for `ret` drops out with its chain, and a program
    that keeps a value in a cell shares the slice of the one that does not
    (`ibo -k 1 --metric dynamic` on the seven curated workloads lowers 14
    slices with the promotion and 20 without). The slice keeps
    every block of f under its own label, in f's order, so equal slices
    have equal block counts, block by block, on every input."""
    cut = _weiser_slice(f)
    if any(ins.opcode == "alloca" for b in cut.blocks for ins in b.instrs):
        promoted = apply_mem2reg(cut)
        if promoted.changed:
            cut = _weiser_slice(promoted.function)
    return cut


def dynamic_cost_total(
    f: Function,
    workload: Workload,
    limit: int = DEFAULT_STEP_LIMIT,
    model: CostModel | None = None,
    memo: dict | None = None,
) -> int:
    """The summed dynamic cost of f over the workload's rows, or
    WorkloadDiverged for the first row on which f traps or runs past `limit`.

    f takes its control slice's path on every row: an instruction outside
    the slice neither traps nor steers. So the slice is lowered and run
    once per row, and a row's cost is its block counts times f's block
    costs, its steps the counts times f's block lengths: each slice block
    runs exactly as often as f's block with the same label. `memo` keeps
    the counts by the slice itself (equal fields, equal slice), so nothing
    is printed; it belongs to one workload and step limit, and then every
    function with that slice is measured with no run at all. f itself runs
    on a row only when the slice does not return there or the row's steps
    in f exceed `limit`, so the divergence reported is f's own.
    """
    model = model or DEFAULT_COST_MODEL
    cut = control_slice(f)
    counts = None if memo is None else memo.get(cut)
    if counts is None:
        lowered_cut = LoweredFunction(cut, model)
        counts = [r.blocks if r.outcome == "returned" else None
                  for r in (interpret(cut, args, limit, model, lowered_cut)
                            for args in workload.args)]
        if memo is not None:
            memo[cut] = counts
    index = {b.label: b for b in f.blocks}
    seqs = [_run_order(index[b.label]) for b in cut.blocks]
    lengths = [len(seq) for seq in seqs]
    costs = [sum(model.cost(ins.opcode) for ins in seq) for seq in seqs]
    total = 0
    lowered = None
    for args, row in zip(workload.args, counts):
        if row is not None and sum(map(mul, row, lengths)) <= limit:
            total += sum(map(mul, row, costs))
            continue
        lowered = lowered or LoweredFunction(f, model)
        r = interpret(f, args, limit, model, lowered)
        if r.outcome != "returned":
            raise WorkloadDiverged(tuple(args), r)
        total += r.dynamic_cost
    return total


@dataclass(frozen=True)
class Mismatch:
    args: tuple[int, ...]
    left: ExecResult
    right: ExecResult


@dataclass(frozen=True)
class DiffReport:
    """`checked` counts the rows run: all of the workload's, or fewer when
    the check stopped at MAX_MISMATCHES. `inconclusive` counts the rows
    among those on which both sides hit the step limit."""

    equivalent: bool
    checked: int
    mismatches: tuple[Mismatch, ...] = ()
    inconclusive: int = 0


def differential_check(
    f1: Function,
    f2: Function,
    workload: Workload,
    limit: int = DEFAULT_STEP_LIMIT,
) -> DiffReport:
    """Run both functions on every tuple; outcomes must match exactly
    (same value, or same trap reason, or both over the step limit)."""
    mism: list[Mismatch] = []
    inconclusive = checked = 0
    low1, low2 = LoweredFunction(f1), LoweredFunction(f2)
    for args in workload.args:
        r1 = interpret(f1, args, limit=limit, lowered=low1)
        r2 = interpret(f2, args, limit=limit, lowered=low2)
        checked += 1
        inconclusive += r1.outcome == r2.outcome == "steplimit"
        if not r1.matches(r2):
            mism.append(Mismatch(tuple(args), r1, r2))
            if len(mism) >= MAX_MISMATCHES:
                break
    return DiffReport(not mism, checked, tuple(mism), inconclusive)
