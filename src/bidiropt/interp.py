"""Interpreter: wrapping int32, trapping udiv/urem-by-zero and uninitialized
loads, parallel phi evaluation, per-run dynamic cost. Each function is
compiled once per workload sweep into one generated Python function."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Callable

from .ir import MASK32, Function, Literal, Operand
from .cost import CostModel, DEFAULT_COST_MODEL

DEFAULT_STEP_LIMIT = 10_000
MAX_MISMATCHES = 5  # differential_check stops after this many

_UNINIT = object()


@dataclass(frozen=True)
class ExecResult:
    """Outcome of one run: 'returned' | 'trapped' | 'steplimit'."""

    outcome: str
    value: int | None = None
    reason: str | None = None
    steps: int = 0
    dynamic_cost: int = 0

    def matches(self, other: "ExecResult") -> bool:
        if self.outcome != other.outcome:
            return False
        if self.outcome == "returned":
            return self.value == other.value
        if self.outcome == "trapped":
            return self.reason == other.reason
        return True  # both hit the step limit


# int32 semantics: one expression template per binop over the atoms {a} and
# {b}. BINOP_FUNCS (shared with const-fold) and the generated code are both
# made from it. udiv and urem by zero trap (DivByZero) before these run.
_BINOP_EXPR = {
    "add": "({a} + {b}) & 4294967295",
    "sub": "({a} - {b}) & 4294967295",
    "mul": "({a} * {b}) & 4294967295",
    "udiv": "{a} // {b}",
    "urem": "{a} % {b}",
    "shl": "({a} << ({b} & 31)) & 4294967295",
    "lshr": "{a} >> ({b} & 31)",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "icmp.eq": "1 if {a} == {b} else 0",
    "icmp.ne": "1 if {a} != {b} else 0",
    "icmp.ult": "1 if {a} < {b} else 0",
    "icmp.ule": "1 if {a} <= {b} else 0",
}
BINOP_FUNCS: dict[str, Callable[[int, int], int]] = {
    op: eval("lambda a, b: " + t.format(a="a", b="b")) for op, t in _BINOP_EXPR.items()}


class LoweredFunction:
    """A Function compiled for execution under one cost model.

    The generated source is one `def run(args, limit)` (the technique
    `dataclasses` uses for `__init__`): every value is a local v0, v1, ...,
    a `while True` loop dispatches on the block index `cur`, and a block's
    phis are one tuple assignment chosen by the predecessor index `prev`.
    A block that fits in the remaining step budget runs as straight-line
    code and adds its length and cost. Otherwise it runs only up to its last
    instruction that can trap (a load, or a udiv/urem whose divisor is not a
    nonzero literal), testing the budget `t` before each one, and the
    block's prefix sums of costs give the exact steps and cost of the cut.
    Steps count phis first, then the rest of the block in order, the
    terminator last. Only value and block indices, integer literals and
    fixed templates reach the source, never IR text.
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
        src += [" cells = []; steps = cost = cur = 0; prev = -1", " while True:"]
        prefixes = []
        for i, b in enumerate(f.blocks):
            phis = [ins for ins in b.instrs if ins.is_phi]
            rest = [ins for ins in b.instrs if not ins.is_phi]
            n_body = next((k for k, ins in enumerate(rest) if ins.is_terminator), None)
            if n_body is None:
                raise ValueError(f"block {b.label} has no terminator")
            seq = phis + rest[:n_body + 1]
            prefix = tuple(accumulate((model.cost(ins.opcode) for ins in seq), initial=0))
            prefixes.append(prefix)
            length, total = len(seq), prefix[-1]
            code: list[tuple[str, int | None]] = []  # (line, position if it may trap)
            if phis:
                dsts = ", ".join(reg(ins.result) for ins in phis)
                arms = []
                for lbl in sorted({lbl for ins in phis for lbl in ins.labels} & index.keys(),
                                  key=index.get):
                    srcs = [next((op for op, l in zip(ins.operands, ins.labels) if l == lbl), None)
                            for ins in phis]
                    if None not in srcs:
                        arms.append(f"if prev == {index[lbl]}: {dsts} = {', '.join(map(val, srcs))}")
                code += [("el" * (k > 0) + arm, None) for k, arm in enumerate(arms)]
                code.append(("else: " * bool(arms) +
                             f"raise AssertionError(f'phis in block {i} have no incoming for {{prev}}')",
                             None))
            for pos, ins in enumerate(rest[:n_body], len(phis)):
                trap = f"return R('trapped', None, '%s', steps + {pos + 1}, cost + {prefix[pos + 1]})"
                d = None if ins.result is None else reg(ins.result)
                ops = [val(op) for op in ins.operands]
                if ins.opcode == "alloca":
                    code.append((f"{d} = len(cells); cells.append(U)", None))
                elif ins.opcode == "load":
                    code.append((f"if ({d} := cells[{ops[0]}]) is U: " + trap % "UninitLoad", pos))
                elif ins.opcode == "store":
                    code.append((f"cells[{ops[1]}] = {ops[0]}", None))
                elif ins.opcode == "select":
                    code.append((f"{d} = {ops[1]} if {ops[0]} else {ops[2]}", None))
                else:
                    if ins.opcode in ("udiv", "urem") and not (
                            isinstance(ins.operands[1], Literal) and ins.operands[1].value):
                        code.append((f"if not {ops[1]}: " + trap % "DivByZero", pos))
                    code.append((f"{d} = " + _BINOP_EXPR[ins.opcode].format(a=ops[0], b=ops[1]), None))
            term = rest[n_body]
            if term.opcode == "ret":
                end = [f"return R('returned', {val(term.operands[0])}, None, steps + {length}, cost + {total})"]
            else:
                targets = [index[lbl] for lbl in term.labels]
                end = [f"steps += {length}; cost += {total}"]
                if has_phis.intersection(targets):
                    end.append(f"prev = {i}")
                end.append(f"cur = {targets[0]}" if term.opcode == "br" else
                           f"cur = {targets[0]} if {val(term.operands[0])} else {targets[1]}")
            # on a cut, only the code up to the last instruction that may trap runs
            last = max((k for k, (_, p) in enumerate(code) if p is not None), default=-1)
            cut = ["t = limit - steps"] * (last >= 0)
            cut += [line for line, p in code[:last + 1]
                    for line in ([f"if t <= {p}: break"] * (p is not None) + [line])]
            src += [f"  {'el' * (i > 0)}if cur == {i}:", f"   if steps + {length} > limit:"]
            src += ["    " + line for line in cut] + ["    break"]
            src += ["   " + line for line, _ in code] + ["   " + line for line in end]
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


def dynamic_cost_total(
    f: Function,
    workload: Workload,
    limit: int = DEFAULT_STEP_LIMIT,
    model: CostModel | None = None,
) -> int:
    total = 0
    lowered = LoweredFunction(f, model)
    for args in workload.args:
        r = interpret(f, args, limit=limit, model=model, lowered=lowered)
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
    equivalent: bool
    checked: int
    mismatches: tuple[Mismatch, ...] = ()
    inconclusive: int = 0  # inputs on which both sides hit the step limit


def differential_check(
    f1: Function,
    f2: Function,
    workload: Workload,
    limit: int = DEFAULT_STEP_LIMIT,
) -> DiffReport:
    """Run both functions on every tuple; outcomes must match exactly
    (same value, or same trap reason, or both over the step limit)."""
    mism: list[Mismatch] = []
    inconclusive = 0
    low1, low2 = LoweredFunction(f1), LoweredFunction(f2)
    for args in workload.args:
        r1 = interpret(f1, args, limit=limit, lowered=low1)
        r2 = interpret(f2, args, limit=limit, lowered=low2)
        inconclusive += r1.outcome == r2.outcome == "steplimit"
        if not r1.matches(r2):
            mism.append(Mismatch(tuple(args), r1, r2))
            if len(mism) >= MAX_MISMATCHES:
                break
    return DiffReport(not mism, len(workload.args), tuple(mism), inconclusive)
