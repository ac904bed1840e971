"""Reference interpreter: wrapping int32, trapping udiv/urem-by-zero and
uninitialized loads, parallel phi evaluation, per-run dynamic cost."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from .ir import MASK32, Function, Instruction, Literal, Operand, ValueRef
from .cost import CostModel, DEFAULT_COST_MODEL

DEFAULT_STEP_LIMIT = 10_000

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


def _binop(opcode: str, a: int, b: int) -> tuple[int | None, str | None]:
    if opcode == "add":
        return (a + b) & MASK32, None
    if opcode == "sub":
        return (a - b) & MASK32, None
    if opcode == "mul":
        return (a * b) & MASK32, None
    if opcode == "udiv":
        return (None, "DivByZero") if b == 0 else (a // b, None)
    if opcode == "urem":
        return (None, "DivByZero") if b == 0 else (a % b, None)
    if opcode == "shl":
        return (a << (b % 32)) & MASK32, None
    if opcode == "lshr":
        return a >> (b % 32), None
    if opcode == "and":
        return a & b, None
    if opcode == "or":
        return a | b, None
    if opcode == "xor":
        return a ^ b, None
    if opcode == "icmp.eq":
        return int(a == b), None
    if opcode == "icmp.ne":
        return int(a != b), None
    if opcode == "icmp.ult":
        return int(a < b), None
    if opcode == "icmp.ule":
        return int(a <= b), None
    raise AssertionError(opcode)


def interpret(
    f: Function,
    args: tuple[int, ...] | list[int],
    limit: int = DEFAULT_STEP_LIMIT,
    model: CostModel | None = None,
) -> ExecResult:
    model = model or DEFAULT_COST_MODEL
    if len(args) != len(f.params):
        raise ValueError(f"@{f.name} wants {len(f.params)} args, got {len(args)}")
    env: dict[str, int] = {p: a & MASK32 for p, a in zip(f.params, args)}
    cells: list[object] = []  # alloca storage; pointer value = cell index
    index = {b.label: b for b in f.blocks}
    cur = f.blocks[0]
    prev: str | None = None
    steps = 0
    cost = 0

    while True:
        # phis read the environment as it was on entry to the block
        phis = [ins for ins in cur.instrs if ins.is_phi]
        if phis:
            snapshot = dict(env)
            for ins in phis:
                steps += 1
                cost += model.cost("phi")
                if steps > limit:
                    return ExecResult("steplimit", steps=steps, dynamic_cost=cost)
                for op, lbl in zip(ins.operands, ins.labels):
                    if lbl == prev:
                        env[ins.result] = (
                            op.value if isinstance(op, Literal) else snapshot[op.name]
                        )
                        break
                else:
                    raise AssertionError(f"phi in {cur.label} has no incoming for {prev}")

        def val(op: Operand) -> int:
            return op.value if isinstance(op, Literal) else env[op.name]

        for ins in cur.instrs:
            if ins.is_phi:
                continue
            steps += 1
            cost += model.cost(ins.opcode)
            if steps > limit:
                return ExecResult("steplimit", steps=steps, dynamic_cost=cost)
            op = ins.opcode
            if op == "ret":
                return ExecResult("returned", value=val(ins.operands[0]),
                                  steps=steps, dynamic_cost=cost)
            if op == "br":
                prev, cur = cur.label, index[ins.labels[0]]
                break
            if op == "condbr":
                taken = ins.labels[0] if val(ins.operands[0]) != 0 else ins.labels[1]
                prev, cur = cur.label, index[taken]
                break
            if op == "alloca":
                cells.append(_UNINIT)
                env[ins.result] = len(cells) - 1
            elif op == "load":
                cell = cells[val(ins.operands[0])]
                if cell is _UNINIT:
                    return ExecResult("trapped", reason="UninitLoad",
                                      steps=steps, dynamic_cost=cost)
                env[ins.result] = cell  # type: ignore[assignment]
            elif op == "store":
                cells[val(ins.operands[1])] = val(ins.operands[0])
            elif op == "select":
                c, t, e = (val(o) for o in ins.operands)
                env[ins.result] = t if c != 0 else e
            else:
                res, trap = _binop(op, val(ins.operands[0]), val(ins.operands[1]))
                if trap is not None:
                    return ExecResult("trapped", reason=trap,
                                      steps=steps, dynamic_cost=cost)
                env[ins.result] = res


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
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError(f"workload {path} must be a JSON array of argument arrays")
    return Workload(name or Path(path).stem, tuple(tuple(int(v) & MASK32 for v in r) for r in rows))


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
    for args in workload.args:
        r = interpret(f, args, limit=limit, model=model)
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
    stop_at: int = 5,
) -> DiffReport:
    """Run both functions on every tuple; outcomes must match exactly
    (same value, or same trap reason, or both over the step limit)."""
    mism: list[Mismatch] = []
    inconclusive = 0
    for args in workload.args:
        r1 = interpret(f1, args, limit=limit)
        r2 = interpret(f2, args, limit=limit)
        inconclusive += r1.outcome == r2.outcome == "steplimit"
        if not r1.matches(r2):
            mism.append(Mismatch(tuple(args), r1, r2))
            if len(mism) >= stop_at:
                break
    return DiffReport(not mism, len(workload.args), tuple(mism), inconclusive)
