"""Interpreter: wrapping int32, trapping udiv/urem-by-zero and uninitialized
loads, parallel phi evaluation, per-run dynamic cost. Each function is
lowered once per workload sweep into register slots and closures."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
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


# int32 binop semantics, shared with const-fold. udiv and urem by zero trap
# (DivByZero) before these run.
BINOP_FUNCS: dict[str, Callable[[int, int], int]] = {
    "add": lambda a, b: (a + b) & MASK32,
    "sub": lambda a, b: (a - b) & MASK32,
    "mul": lambda a, b: (a * b) & MASK32,
    "udiv": lambda a, b: a // b,
    "urem": lambda a, b: a % b,
    "shl": lambda a, b: (a << (b % 32)) & MASK32,
    "lshr": lambda a, b: a >> (b % 32),
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "icmp.eq": lambda a, b: 1 if a == b else 0,
    "icmp.ne": lambda a, b: 1 if a != b else 0,
    "icmp.ult": lambda a, b: 1 if a < b else 0,
    "icmp.ule": lambda a, b: 1 if a <= b else 0,
}


class _Trap(Exception):
    """Raised by a lowered instruction; pos is its index in the block."""

    def __init__(self, reason: str, pos: int):
        self.reason = reason
        self.pos = pos


_RET, _BR, _CONDBR = range(3)


class LoweredFunction:
    """A Function lowered for execution under one cost model.

    Every value and literal gets a register slot; each non-phi instruction
    becomes a closure over its slots (closure generation, Feeley & Lapalme
    1987); each block keeps its length, its cost and the prefix sums of its
    costs. A block that fits in the remaining step budget runs without
    per-step checks; the prefix sums give the exact steps and cost at a trap
    or at the step-limit cut. Steps count phis first, then the rest of the
    block in order, the terminator last.
    """

    def __init__(self, f: Function, model: CostModel | None = None):
        model = model or DEFAULT_COST_MODEL
        self.n_params = len(f.params)
        self._slots: dict[str | int, int] = {}  # value name, or literal value
        self.init: list[int | None] = []  # register file before the params
        for p in f.params:
            self._slot(p)
        index = {b.label: i for i, b in enumerate(f.blocks)}
        self.blocks = [self._lower_block(b, model, index) for b in f.blocks]

    def _slot(self, key: str | int, value: int | None = None) -> int:
        i = self._slots.get(key)
        if i is None:
            i = self._slots[key] = len(self.init)
            self.init.append(value)
        return i

    def _operand(self, op: Operand) -> int:
        return self._slot(op.value, op.value) if isinstance(op, Literal) else self._slot(op.name)

    def _lower_block(self, b, model: CostModel, index: dict[str, int]) -> tuple:
        phis = [ins for ins in b.instrs if ins.is_phi]
        rest = [ins for ins in b.instrs if not ins.is_phi]
        n_body = next((i for i, ins in enumerate(rest) if ins.is_terminator), None)
        if n_body is None:
            raise ValueError(f"block {b.label} has no terminator")
        seq = phis + rest[:n_body + 1]
        prefix = [0]
        for ins in seq:
            prefix.append(prefix[-1] + model.cost(ins.opcode))

        moves = None
        if phis:
            # one parallel copy per predecessor that every phi names
            moves = {}
            dsts = tuple(self._slot(ins.result) for ins in phis)
            for lbl in {lbl for ins in phis for lbl in ins.labels}:
                srcs = [next((op for op, l in zip(ins.operands, ins.labels) if l == lbl), None)
                        for ins in phis]
                if lbl in index and None not in srcs:
                    moves[index[lbl]] = _phi_move(dsts, tuple(map(self._operand, srcs)))

        body = tuple(
            _lower_instr(ins.opcode, len(phis) + i,
                         None if ins.result is None else self._slot(ins.result),
                         tuple(map(self._operand, ins.operands)))
            for i, ins in enumerate(rest[:n_body]))
        term = rest[n_body]
        if term.opcode == "ret":
            shape = (_RET, self._operand(term.operands[0]), None, None)
        elif term.opcode == "br":
            shape = (_BR, index[term.labels[0]], None, None)
        else:
            shape = (_CONDBR, self._operand(term.operands[0]),
                     index[term.labels[0]], index[term.labels[1]])
        return (len(seq), prefix[-1], tuple(prefix), len(phis), moves, body) + shape

    def run(self, args, limit: int) -> ExecResult:
        r = self.init[:]
        r[:self.n_params] = [a & MASK32 for a in args]
        cells: list[object] = []  # alloca storage; pointer value = cell index
        blocks = self.blocks
        steps = cost = 0
        cur, prev = 0, None
        while True:
            # ret reads register x; br goes to block x; condbr tests register x
            # and goes to block y or z
            length, bcost, prefix, n_phis, moves, body, kind, x, y, z = blocks[cur]
            # how many instructions of this block run before the cut
            todo = length if steps + length <= limit else max(limit - steps, 0)
            if todo > n_phis:
                if moves is not None:
                    move = moves.get(prev)
                    if move is None:
                        raise AssertionError(f"phis in block {cur} have no incoming for {prev}")
                    move(r)
                try:
                    if todo == length:
                        for op in body:
                            op(r, cells)
                    else:
                        for op in body[:todo - n_phis]:
                            op(r, cells)
                except _Trap as t:
                    return ExecResult("trapped", reason=t.reason, steps=steps + t.pos + 1,
                                      dynamic_cost=cost + prefix[t.pos + 1])
            if todo < length:
                return ExecResult("steplimit", steps=steps + todo + 1,
                                  dynamic_cost=cost + prefix[todo + 1])
            steps += length
            cost += bcost
            if kind == _RET:
                return ExecResult("returned", value=r[x], steps=steps, dynamic_cost=cost)
            prev = cur
            cur = x if kind == _BR else (y if r[x] != 0 else z)


def _phi_move(dsts: tuple[int, ...], srcs: tuple[int, ...]):
    """Closure (registers) -> None for a block's phis on entry from one
    predecessor: every source is read before any destination is written."""
    if len(dsts) == 1:
        (d,), (s,) = dsts, srcs

        def move(r):
            r[d] = r[s]
    else:
        pairs = tuple(zip(dsts, srcs))

        def move(r):
            vals = [r[s] for _, s in pairs]
            for (d, _), v in zip(pairs, vals):
                r[d] = v
    return move


def _lower_instr(opcode: str, pos: int, d: int | None, srcs: tuple[int, ...]):
    """Closure (registers, cells) -> None for one non-phi, non-terminator at
    position pos of its block, writing register d and reading srcs."""
    if opcode == "alloca":
        def run(r, cells):
            cells.append(_UNINIT)
            r[d] = len(cells) - 1
    elif opcode == "load":
        (p,) = srcs

        def run(r, cells):
            v = cells[r[p]]
            if v is _UNINIT:
                raise _Trap("UninitLoad", pos)
            r[d] = v
    elif opcode == "store":
        v, p = srcs

        def run(r, cells):
            cells[r[p]] = r[v]
    elif opcode == "select":
        c, t, e = srcs

        def run(r, cells):
            r[d] = r[t] if r[c] != 0 else r[e]
    else:
        fn = BINOP_FUNCS[opcode]
        a, b = srcs
        if opcode in ("udiv", "urem"):
            def run(r, cells):
                divisor = r[b]
                if divisor == 0:
                    raise _Trap("DivByZero", pos)
                r[d] = fn(r[a], divisor)
        else:
            def run(r, cells):
                r[d] = fn(r[a], r[b])
    return run


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
