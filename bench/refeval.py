"""Reference evaluator for the bidiropt IR text, written apart from the package.

It reads the printed IR (the format of README.md: `func @f(%a) {`, block
labels, `%r = op a, b`, `store v, p`, `ret v`, `br L`, `condbr c, T, F`,
`%x = phi [v, L], ...`, `%p = alloca`) and executes it with the README's
semantics: unsigned 32-bit wraparound, `udiv`/`urem` by zero and loads from
never-stored cells trap, phis are parallel copies on block entry. Shift
amounts are taken modulo 32. Static cost and size come from the README's
cost table. Nothing here imports `bidiropt`, so an answer from this module is
an independent check on the program's own interpreter, printer and costs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

MASK = 0xFFFFFFFF

# README "Cost model": udiv/urem 4, mul 3, memory 2, phi/alloca free, else 1
COSTS = {"udiv": 4, "urem": 4, "mul": 3, "load": 2, "store": 2,
         "phi": 0, "alloca": 0}

STEP_LIMIT = 1_000_000

_BINOPS = {
    "add": lambda a, b: (a + b) & MASK,
    "sub": lambda a, b: (a - b) & MASK,
    "mul": lambda a, b: (a * b) & MASK,
    "shl": lambda a, b: (a << (b % 32)) & MASK,
    "lshr": lambda a, b: a >> (b % 32),
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "icmp.eq": lambda a, b: int(a == b),
    "icmp.ne": lambda a, b: int(a != b),
    "icmp.ult": lambda a, b: int(a < b),
    "icmp.ule": lambda a, b: int(a <= b),
}
_DIVS = {"udiv": lambda a, b: a // b, "urem": lambda a, b: a % b}

_RE_HEAD = re.compile(r"func\s+@(\w+)\s*\(([^)]*)\)\s*\{$")
_RE_LABEL = re.compile(r"(\w+):$")
_RE_PHI = re.compile(r"\[\s*([^,\]]+?)\s*,\s*(\w+)\s*\]")


class IRTextError(ValueError):
    pass


@dataclass(frozen=True)
class Instr:
    result: str | None
    op: str
    args: tuple  # int literal or str value name
    labels: tuple = ()


@dataclass(frozen=True)
class Prog:
    name: str
    params: tuple[str, ...]
    blocks: tuple[tuple[str, tuple[Instr, ...]], ...]

    def block_map(self) -> dict[str, tuple[Instr, ...]]:
        return dict(self.blocks)


def _operand(tok: str):
    tok = tok.strip()
    if tok.startswith("%"):
        return tok[1:]
    if re.fullmatch(r"-?\d+", tok):
        return int(tok) & MASK
    raise IRTextError(f"bad operand {tok!r}")


def _instr(line: str) -> Instr:
    result = None
    if line.startswith("%"):
        lhs, _, line = line.partition("=")
        result = lhs.strip()[1:]
        line = line.strip()
    op, _, rest = line.partition(" ")
    rest = rest.strip()
    if op == "phi":
        pairs = _RE_PHI.findall(rest)
        if not pairs:
            raise IRTextError(f"bad phi {line!r}")
        return Instr(result, op, tuple(_operand(v) for v, _ in pairs),
                     tuple(lbl for _, lbl in pairs))
    toks = [t.strip() for t in rest.split(",")] if rest else []
    if op == "br":
        return Instr(result, op, (), (toks[0],))
    if op == "condbr":
        return Instr(result, op, (_operand(toks[0]),), (toks[1], toks[2]))
    if op not in _BINOPS and op not in _DIVS and op not in (
            "select", "alloca", "load", "store", "ret"):
        raise IRTextError(f"unknown opcode {op!r}")
    return Instr(result, op, tuple(_operand(t) for t in toks))


def parse(text: str) -> Prog:
    """Parse one function from IR text."""
    name = None
    params: tuple[str, ...] = ()
    blocks: list[tuple[str, list[Instr]]] = []
    for raw in text.splitlines():
        line = raw.split(";", 1)[0].strip()
        if not line or line == "}":
            continue
        m = _RE_HEAD.match(line)
        if m:
            name = m.group(1)
            params = tuple(p.strip()[1:] for p in m.group(2).split(",") if p.strip())
            continue
        m = _RE_LABEL.match(line)
        if m:
            blocks.append((m.group(1), []))
            continue
        if not blocks:
            raise IRTextError(f"instruction outside a block: {line!r}")
        blocks[-1][1].append(_instr(line))
    if name is None or not blocks:
        raise IRTextError("no function found")
    return Prog(name, params, tuple((lbl, tuple(ins)) for lbl, ins in blocks))


def static_key(p: Prog) -> tuple[int, int]:
    """(static cost, static size) by the README's table."""
    ops = [ins.op for _, body in p.blocks for ins in body]
    return sum(COSTS.get(op, 1) for op in ops), len(ops)


def has_cycle(p: Prog) -> bool:
    """True when a block can reach itself (the program may loop)."""
    succ = {lbl: body[-1].labels for lbl, body in p.blocks}
    state: dict[str, int] = {}

    def visit(lbl: str) -> bool:
        state[lbl] = 1
        for s in succ[lbl]:
            if state.get(s) == 1 or (s not in state and visit(s)):
                return True
        state[lbl] = 2
        return False

    return visit(p.blocks[0][0])


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = None


def run(p: Prog, args, limit: int = STEP_LIMIT,
        blocks: dict | None = None) -> tuple[str, object, int]:
    """Execute p on args. Returns (outcome, payload, dynamic_cost) where
    outcome is 'ret' (payload: value), 'trap' (payload: 'div0' or 'uninit')
    or 'limit' (payload: None)."""
    if len(args) != len(p.params):
        raise IRTextError(f"@{p.name} takes {len(p.params)} args, got {len(args)}")
    blocks = blocks if blocks is not None else p.block_map()
    env: dict = {name: a & MASK for name, a in zip(p.params, args)}
    label, prev = p.blocks[0][0], None
    steps = cost = 0

    def val(o):
        return env[o] if o.__class__ is str else o

    while True:
        body = blocks[label]
        phis = [ins for ins in body if ins.op == "phi"]
        incoming = [val(ins.args[ins.labels.index(prev)]) for ins in phis]
        for ins, v in zip(phis, incoming):
            env[ins.result] = v
        steps += len(phis)
        for ins in body[len(phis):]:
            steps += 1
            if steps > limit:
                return "limit", None, cost
            op = ins.op
            cost += COSTS.get(op, 1)
            if op in _BINOPS:
                env[ins.result] = _BINOPS[op](val(ins.args[0]), val(ins.args[1]))
            elif op in _DIVS:
                b = val(ins.args[1])
                if b == 0:
                    return "trap", "div0", cost
                env[ins.result] = _DIVS[op](val(ins.args[0]), b)
            elif op == "select":
                c, t, e = (val(a) for a in ins.args)
                env[ins.result] = t if c else e
            elif op == "alloca":
                env[ins.result] = _Cell()
            elif op == "store":
                val(ins.args[1]).value = val(ins.args[0])
            elif op == "load":
                v = val(ins.args[0]).value
                if v is None:
                    return "trap", "uninit", cost
                env[ins.result] = v
            elif op == "ret":
                return "ret", val(ins.args[0]), cost
            elif op == "br":
                prev, label = label, ins.labels[0]
                break
            elif op == "condbr":
                prev, label = label, ins.labels[0 if val(ins.args[0]) else 1]
                break
            else:
                raise IRTextError(f"cannot execute {op!r}")
        else:
            raise IRTextError(f"block {label} of @{p.name} has no terminator")


def first_mismatch(ref: Prog, cand: Prog, inputs) -> tuple | None:
    """First input on which cand disagrees with ref, or None.

    Agreement is the same returned value or the same trap kind. Running out
    of steps is never agreement, so two programs that both loop forever on
    an input are reported, not passed."""
    rb, cb = ref.block_map(), cand.block_map()
    for args in inputs:
        a = run(ref, args, blocks=rb)[:2]
        b = run(cand, args, blocks=cb)[:2]
        if a != b or a[0] == "limit":
            return tuple(args), a, b
    return None


def dynamic_cost(p: Prog, inputs) -> int:
    """Total dynamic cost over inputs; every run must return."""
    blocks = p.block_map()
    total = 0
    for args in inputs:
        outcome, payload, cost = run(p, args, blocks=blocks)
        if outcome != "ret":
            raise IRTextError(f"@{p.name}{tuple(args)} did not return: {outcome} {payload}")
        total += cost
    return total
