"""Core IR: a tiny SSA language over int32 with explicit blocks and phis.

Values are immutable; every rewrite builds a new Function. Blocks hold a flat
instruction tuple (phis first, one terminator last once validated), which lets
the parser stay lenient and validate() report structural breakage precisely.

The IR's int32 semantics live here too: wrapping arithmetic, shift amounts
taken mod 32, unsigned compares yielding 0 or 1 (BINOP_EXPR, from which
BINOP_FUNCS and the interpreter's generated code are made), and which
instructions may trap (may_trap: a load, which traps on a cell no store has
written, and a udiv/urem whose divisor may be zero).
"""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, NewType

MASK32 = (1 << 32) - 1

BINOPS = (
    "add", "sub", "mul", "udiv", "urem",
    "shl", "lshr", "and", "or", "xor",
    "icmp.eq", "icmp.ne", "icmp.ult", "icmp.ule",
)
TERMINATORS = ("ret", "br", "condbr")
OPCODES = BINOPS + ("select", "alloca", "load", "store", "phi") + TERMINATORS

# operand counts per opcode; labels counted separately
_ARITY = {op: 2 for op in BINOPS}
_ARITY.update(select=3, alloca=0, load=1, store=2, ret=1, br=0, condbr=1)
_LABEL_ARITY = {"br": 1, "condbr": 2}


@dataclass(frozen=True)
class Literal:
    """32-bit unsigned constant; wrapping two's-complement semantics."""

    value: int


@dataclass(frozen=True)
class ValueRef:
    """Use of an SSA value by name (no sigil stored)."""

    name: str


Operand = Literal | ValueRef


@dataclass(frozen=True)
class Instruction:
    """One instruction; phis carry parallel (operands, labels) incoming lists."""

    result: str | None
    opcode: str
    operands: tuple[Operand, ...] = ()
    labels: tuple[str, ...] = ()

    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATORS

    @property
    def is_phi(self) -> bool:
        return self.opcode == "phi"


@dataclass(frozen=True)
class BasicBlock:
    label: str
    instrs: tuple[Instruction, ...] = ()

    @property
    def phis(self) -> tuple[Instruction, ...]:
        n = 0
        for ins in self.instrs:
            if not ins.is_phi:
                break
            n += 1
        return self.instrs[:n]


@dataclass(frozen=True)
class Function:
    name: str
    params: tuple[str, ...] = ()
    blocks: tuple[BasicBlock, ...] = ()

    def block(self, label: str) -> BasicBlock:
        for b in self.blocks:
            if b.label == label:
                return b
        raise KeyError(label)


@dataclass(frozen=True)
class Module:
    functions: tuple[Function, ...] = ()

    def function(self, name: str) -> Function:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)


class ParseError(Exception):
    """Syntax violation with a 1-based source position."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


@dataclass(frozen=True)
class ValidationError:
    kind: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}: {self.message}"


# ---------------------------------------------------------------------------
# int32 semantics

# One expression template per binop over the atoms {a} and {b}. BINOP_FUNCS
# (const-fold) and the interpreter's generated code are both made from it.
# udiv and urem by zero trap (DivByZero) before these run.
BINOP_EXPR = {
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
    op: eval("lambda a, b: " + t.format(a="a", b="b")) for op, t in BINOP_EXPR.items()}


def may_trap(ins: Instruction) -> bool:
    """A load, or a udiv/urem whose divisor is not a nonzero literal."""
    if ins.opcode in ("udiv", "urem"):
        d = ins.operands[1]
        return not (isinstance(d, Literal) and d.value)
    return ins.opcode == "load"


# ---------------------------------------------------------------------------
# printing

def _print(f: Function, canonical: bool) -> str:
    """The one printer, in one sweep over the blocks. Plain, it prints f as
    it is. Canonical, it prints blocks b0, b1, ... in _canonical_order and
    values v0, v1, ... as value_order numbers them, so every name is known
    before the sweep starts. A name with no definition prints as it is, as
    an unknown label does."""
    if canonical:
        pos, blocks = _canonical_order(f)
        lbls = {lbl: f"b{i}" for lbl, i in pos.items()}
        vals = {name: f"%v{i}" for name, i in value_order(f).items()}
    else:
        blocks, lbls, vals = f.blocks, {}, {}
    lines = [f"func @{f.name}({', '.join(vals.get(p) or '%' + p for p in f.params)}) {{"]
    for b in blocks:
        lines.append(f"{lbls.get(b.label, b.label)}:")
        for ins in b.instrs:
            ops = [str(o.value) if type(o) is Literal else vals.get(o.name) or "%" + o.name
                   for o in ins.operands]
            if ins.result is None:  # store and the terminators
                ops += [lbls.get(lbl, lbl) for lbl in ins.labels]
                lines.append(f"  {ins.opcode} {', '.join(ops)}")
                continue
            r = vals.get(ins.result) or "%" + ins.result
            if ins.opcode == "phi":
                inc = ", ".join(f"[{o}, {lbls.get(lbl, lbl)}]" for o, lbl in zip(ops, ins.labels))
                lines.append(f"  {r} = phi {inc}")
            elif ops:
                lines.append(f"  {r} = {ins.opcode} {', '.join(ops)}")
            else:
                lines.append(f"  {r} = {ins.opcode}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def print_function(f: Function) -> str:
    return _print(f, False)


# ---------------------------------------------------------------------------
# parsing

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_RE_FUNC = re.compile(rf"func\s+@({_IDENT})\s*\(([^)]*)\)\s*\{{\s*$")
_RE_LABEL = re.compile(rf"({_IDENT}):\s*$")
_RE_DEF = re.compile(rf"%({_IDENT})\s*=\s*(\S+)\s*(.*)$")
_RE_PHI_INC = re.compile(rf"\[\s*([^,\]]+)\s*,\s*({_IDENT})\s*\]")


def _strip(line: str) -> str:
    if ";" in line:
        line = line[: line.index(";")]
    return line.strip()


def _parse_operand(tok: str, lineno: int) -> Operand:
    tok = tok.strip()
    if tok.startswith("%"):
        name = tok[1:]
        if not re.fullmatch(_IDENT, name):
            raise ParseError(lineno, 1, f"bad value name '{tok}'")
        return ValueRef(name)
    if re.fullmatch(r"-?\d+", tok):
        v = int(tok)
        if not -(1 << 32) < v < (1 << 32):
            raise ParseError(lineno, 1, f"literal out of 32-bit range: {tok}")
        return Literal(v & MASK32)
    raise ParseError(lineno, 1, f"bad operand '{tok}'")


def _split_args(rest: str) -> list[str]:
    rest = rest.strip()
    return [t.strip() for t in rest.split(",")] if rest else []


def _parse_op_body(result: str | None, opcode: str, rest: str, lineno: int) -> Instruction:
    if opcode == "phi":
        # no incomings at all is a phi of a block without predecessors
        incomings = _RE_PHI_INC.findall(rest)
        leftover = _RE_PHI_INC.sub("", rest).replace(",", "").strip()
        if leftover or (rest.strip() and not incomings):
            raise ParseError(lineno, 1, "malformed phi incoming list")
        ops = tuple(_parse_operand(v, lineno) for v, _ in incomings)
        lbls = tuple(lbl for _, lbl in incomings)
        return Instruction(result, "phi", ops, lbls)
    if opcode == "alloca":
        if rest.strip():
            raise ParseError(lineno, 1, "alloca takes no operands")
        return Instruction(result, "alloca")
    if opcode in ("br", "condbr"):
        toks = _split_args(rest)
        nlbl = _LABEL_ARITY[opcode]
        ops: list[Operand] = []
        if opcode == "condbr":
            if not toks:
                raise ParseError(lineno, 1, "condbr needs a condition")
            ops.append(_parse_operand(toks[0], lineno))
            toks = toks[1:]
        if len(toks) != nlbl or not all(re.fullmatch(_IDENT, t) for t in toks):
            raise ParseError(lineno, 1, f"{opcode} expects {nlbl} label(s)")
        return Instruction(result, opcode, tuple(ops), tuple(toks))
    ops = tuple(_parse_operand(t, lineno) for t in _split_args(rest))
    return Instruction(result, opcode, ops)


def _parse_instr(line: str, lineno: int) -> Instruction:
    m = _RE_DEF.match(line)
    if m:
        result, opcode, rest = m.group(1), m.group(2), m.group(3)
        if opcode not in OPCODES or opcode in TERMINATORS or opcode == "store":
            raise ParseError(lineno, line.index("=") + 2, f"unknown or valueless opcode '{opcode}'")
        return _parse_op_body(result, opcode, rest, lineno)
    parts = line.split(None, 1)
    opcode, rest = parts[0], parts[1] if len(parts) > 1 else ""
    if opcode not in ("store", "ret", "br", "condbr"):
        raise ParseError(lineno, 1, f"expected instruction, got '{line}'")
    return _parse_op_body(None, opcode, rest, lineno)


def parse_module(text: str) -> Module:
    """Parse the textual form; raises ParseError on syntax violations.

    Structural problems that the data model can represent (misplaced
    terminators, arity mistakes, unknown labels) are left for validate().
    """
    functions: list[Function] = []
    fname: str | None = None
    params: tuple[str, ...] = ()
    blocks: list[BasicBlock] = []
    label: str | None = None
    instrs: list[Instruction] = []

    def close_block() -> None:
        nonlocal label, instrs
        if label is not None:
            blocks.append(BasicBlock(label, tuple(instrs)))
        label, instrs = None, []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("func"):
            if fname is not None:
                raise ParseError(lineno, 1, "nested func (missing '}'?)")
            m = _RE_FUNC.match(line)
            if not m:
                raise ParseError(lineno, 1, "malformed func header")
            fname = m.group(1)
            ptoks = _split_args(m.group(2))
            for p in ptoks:
                if not p.startswith("%") or not re.fullmatch(_IDENT, p[1:]):
                    raise ParseError(lineno, 1, f"bad parameter '{p}'")
            params = tuple(p[1:] for p in ptoks)
            continue
        if line == "}":
            if fname is None:
                raise ParseError(lineno, 1, "'}' outside function")
            close_block()
            functions.append(Function(fname, params, tuple(blocks)))
            fname, params, blocks = None, (), []
            continue
        if fname is None:
            raise ParseError(lineno, 1, f"expected 'func', got '{line}'")
        m = _RE_LABEL.match(line)
        if m:
            close_block()
            label = m.group(1)
            continue
        if label is None:
            raise ParseError(lineno, 1, "instruction before first block label")
        instrs.append(_parse_instr(line, lineno))
    if fname is not None:
        raise ParseError(len(text.splitlines()) + 1, 1, "unterminated function (missing '}')")
    return Module(tuple(functions))


def parse_function(text: str) -> Function:
    m = parse_module(text)
    if len(m.functions) != 1:
        raise ParseError(1, 1, f"expected exactly one function, got {len(m.functions)}")
    return m.functions[0]


# ---------------------------------------------------------------------------
# CFG helpers

def per_function(analysis):
    """Memoize a pure analysis of a Function on the last object it saw, by
    identity: a search step runs every pass on one program, and each pass
    asks for its analyses itself, so repeats come back to back. The slot
    holds its Function, so its identity is never another's while the slot
    lives. Callers share the result, so the analysis must return immutable
    containers."""
    last: tuple = (None, None)

    @functools.wraps(analysis)
    def cached(f: Function):
        nonlocal last
        if last[0] is not f:
            last = (f, analysis(f))
        return last[1]

    return cached


def successors(b: BasicBlock) -> tuple[str, ...]:
    return b.instrs[-1].labels if b.instrs and b.instrs[-1].is_terminator else ()


@per_function
def predecessors(f: Function) -> MappingProxyType[str, tuple[str, ...]]:
    """Label -> predecessor labels, in block/edge order (duplicates collapsed)."""
    preds: dict[str, list[str]] = {b.label: [] for b in f.blocks}
    for b in f.blocks:
        for s in successors(b):
            if s in preds and b.label not in preds[s]:
                preds[s].append(b.label)
    return MappingProxyType({lbl: tuple(ps) for lbl, ps in preds.items()})


@per_function
def rpo_order(f: Function) -> tuple[str, ...]:
    """Reverse postorder over reachable blocks, entry first; deterministic."""
    if not f.blocks:
        return ()
    index = {b.label: b for b in f.blocks}
    seen: set[str] = set()
    post: list[str] = []

    def visit(lbl: str) -> None:
        stack = [(lbl, iter(successors(index[lbl])))]
        seen.add(lbl)
        while stack:
            cur, it = stack[-1]
            advanced = False
            for s in it:
                if s in index and s not in seen:
                    seen.add(s)
                    stack.append((s, iter(successors(index[s]))))
                    advanced = True
                    break
            if not advanced:
                post.append(cur)
                stack.pop()

    visit(f.blocks[0].label)
    return tuple(reversed(post))


def rpo_instrs(f: Function):
    """(label, index, instruction) of every reachable instruction, blocks in RPO."""
    index = {b.label: b for b in f.blocks}
    for lbl in rpo_order(f):
        for i, ins in enumerate(index[lbl].instrs):
            yield lbl, i, ins


# ---------------------------------------------------------------------------
# defs and renaming

@per_function
def defined_values(f: Function) -> MappingProxyType[str, tuple[str, int] | None]:
    """Value name -> (block label, instr index) for instruction defs, None for params."""
    defs: dict[str, tuple[str, int] | None] = {p: None for p in f.params}
    for b in f.blocks:
        for i, ins in enumerate(b.instrs):
            if ins.result is not None:
                defs[ins.result] = (b.label, i)
    return MappingProxyType(defs)


def resolve(op: Operand, mapping: dict[str, Operand]) -> Operand:
    """Follow op through the substitution chain in mapping to its end."""
    while isinstance(op, ValueRef) and op.name in mapping:
        nxt = mapping[op.name]
        if nxt == op:
            break
        op = nxt
    return op


def fresh_names(f: Function, base: str, count: int = 1) -> list[str]:
    """Deterministic unused value names base0, base1, ... skipping collisions."""
    used = set(defined_values(f))
    out: list[str] = []
    i = 0
    while len(out) < count:
        cand = f"{base}{i}"
        if cand not in used:
            used.add(cand)
            out.append(cand)
        i += 1
    return out


# ---------------------------------------------------------------------------
# canonicalization and hashing

# Stable content digest of the canonicalized text, as 32 hex digits.
CanonicalDigest = NewType("CanonicalDigest", str)


@per_function
def _canonical_order(f: Function) -> tuple[MappingProxyType[str, int], tuple[BasicBlock, ...]]:
    """Each label's canonical block number, and f's blocks in that order:
    reverse postorder from the entry, then the unreachable blocks in f's
    order. _print and value_order share the one sort."""
    order = rpo_order(f)
    reached = set(order)
    pos = {lbl: i for i, lbl in enumerate(
        order + tuple(b.label for b in f.blocks if b.label not in reached))}
    return MappingProxyType(pos), tuple(sorted(f.blocks, key=lambda b: pos[b.label]))


@per_function
def value_order(f: Function) -> MappingProxyType[str, int]:
    """Canonical value numbering: params first, then each result at its
    first definition, blocks in _canonical_order. The one numbering rule:
    canonical_text prints these numbers, and reassociate orders a tree's
    leaves by them."""
    num: dict[str, int] = {}
    for p in f.params:
        num[p] = len(num)
    for b in _canonical_order(f)[1]:
        for ins in b.instrs:
            if ins.result is not None and ins.result not in num:
                num[ins.result] = len(num)
    return MappingProxyType(num)


def canonical_text(f: Function) -> str:
    """Alpha-normal text: blocks b0,b1,... in RPO (unreachables appended in
    original order), values v0,v1,... in value_order; operand order is kept.
    Made for the search alone (cost.rank_key, canonical_hash). Memoized in
    the instance __dict__, since a Function is immutable; the searches
    intern equal programs (search.PassCache), so the memo serves those too."""
    text = f.__dict__.get("_canonical_text")
    if text is None:
        text = f.__dict__["_canonical_text"] = _print(f, True)
    return text


def canonical_hash(f: Function) -> CanonicalDigest:
    """Digest of canonical_text(f), memoized per object like the text."""
    digest = f.__dict__.get("_canonical_hash")
    if digest is None:
        h = hashlib.blake2b(canonical_text(f).encode("utf-8"), digest_size=16)
        digest = f.__dict__["_canonical_hash"] = CanonicalDigest(h.hexdigest())
    return digest


# ---------------------------------------------------------------------------
# validation

def validate_function(f: Function) -> list[ValidationError]:
    """All structural and SSA rules; empty list means valid."""
    errs: list[ValidationError] = []

    def err(kind: str, where: str, msg: str) -> None:
        errs.append(ValidationError(kind, where, msg))

    if not f.blocks:
        err("StructureError", f"@{f.name}", "function has no blocks")
        return errs

    labels = [b.label for b in f.blocks]
    if len(set(labels)) != len(labels):
        err("StructureError", f"@{f.name}", "duplicate block labels")
        return errs
    known = set(labels)

    # SSA: unique definitions
    defs: dict[str, str] = {}
    for p in f.params:
        if p in defs:
            err("SSAError", f"@{f.name}", f"duplicate parameter %{p}")
        defs[p] = "param"
    alloca_vals: set[str] = set()
    for b in f.blocks:
        for ins in b.instrs:
            if ins.result is not None:
                if ins.result in defs:
                    err("SSAError", f"{b.label}", f"%{ins.result} defined more than once")
                defs[ins.result] = b.label
                if ins.opcode == "alloca":
                    alloca_vals.add(ins.result)

    preds = predecessors(f)

    for b in f.blocks:
        where = b.label
        if not b.instrs:
            err("TerminatorError", where, "block has no terminator")
            continue
        for i, ins in enumerate(b.instrs):
            if ins.is_terminator and i != len(b.instrs) - 1:
                err("TerminatorError", where, f"'{ins.opcode}' before end of block")
        if not b.instrs[-1].is_terminator:
            err("TerminatorError", where, "block does not end with a terminator")
        seen_nonphi = False
        for ins in b.instrs:
            if ins.is_phi and seen_nonphi:
                err("PhiError", where, "phi after non-phi instruction")
            if not ins.is_phi:
                seen_nonphi = True
        for ins in b.instrs:
            for lbl in ins.labels:
                if lbl not in known:
                    err("LabelError", where, f"unknown label '{lbl}'")

    entry = f.blocks[0]
    if preds[entry.label]:
        err("StructureError", entry.label, "entry block has predecessors")
    if any(i.is_phi for i in entry.instrs):
        err("PhiError", entry.label, "phi in entry block")

    # arity and operand kinds
    for b in f.blocks:
        for ins in b.instrs:
            where = b.label
            if ins.opcode not in OPCODES:
                err("OpcodeError", where, f"unknown opcode '{ins.opcode}'")
                continue
            if ins.opcode == "phi":
                if len(ins.operands) != len(ins.labels):
                    err("PhiError", where, "phi operand/label count mismatch")
            else:
                want = _ARITY[ins.opcode]
                if len(ins.operands) != want:
                    err("ArityError", where, f"'{ins.opcode}' wants {want} operand(s), got {len(ins.operands)}")
                if len(ins.labels) != _LABEL_ARITY.get(ins.opcode, 0):
                    err("ArityError", where, f"'{ins.opcode}' has wrong label count")
            needs_result = ins.opcode not in TERMINATORS and ins.opcode != "store"
            if needs_result and ins.result is None:
                err("StructureError", where, f"'{ins.opcode}' must define a value")
            if not needs_result and ins.result is not None:
                err("StructureError", where, f"'{ins.opcode}' cannot define a value")

    # operand references and pointer-kind discipline. A value loaded from a
    # cell that holds an address is an address too; both grow to a fixpoint.
    mem = [(ins.opcode, [op.name for op in ins.operands], ins.result)
           for b in f.blocks for ins in b.instrs
           if ins.opcode in ("load", "store") and len(ins.operands) == _ARITY[ins.opcode]
           and all(isinstance(op, ValueRef) for op in ins.operands)]
    addrs = set(alloca_vals)
    while True:
        holders = {ops[1] for opc, ops, _ in mem if opc == "store" and ops[0] in addrs}
        loaded = {res for opc, ops, res in mem if opc == "load" and ops[0] in holders}
        if loaded <= addrs:
            break
        addrs |= loaded
    for b in f.blocks:
        for ins in b.instrs:
            where = b.label
            for j, op in enumerate(ins.operands):
                if isinstance(op, ValueRef) and op.name not in defs:
                    err("UseError", where, f"use of undefined value %{op.name}")
                    continue
                ptr_slot = (ins.opcode == "load" and j == 0) or (ins.opcode == "store" and j == 1)
                if ptr_slot:
                    if not (isinstance(op, ValueRef) and op.name in alloca_vals):
                        err("KindError", where, f"'{ins.opcode}' pointer operand must be an alloca result")
                elif isinstance(op, ValueRef) and op.name in addrs:
                    # addresses may only flow through store *value* position (escape)
                    if not (ins.opcode == "store" and j == 0):
                        what = "alloca" if op.name in alloca_vals else "loaded address"
                        err("KindError", where, f"{what} %{op.name} used as int32 operand")

    # phi incomings match predecessors exactly
    for b in f.blocks:
        bpreds = preds[b.label]
        for ins in b.instrs:
            if not ins.is_phi:
                continue
            inc = list(ins.labels)
            if sorted(inc) != sorted(bpreds):
                err("PhiError", b.label,
                    f"phi incomings {inc} do not match predecessors {list(bpreds)}")
            if len(set(inc)) != len(inc):
                err("PhiError", b.label, "duplicate phi incoming labels")

    if errs:
        return errs

    # dominance over reachable blocks
    from .analysis import compute_dominators

    dt = compute_dominators(f)
    reachable = set(dt.rpo)
    defsite = defined_values(f)

    def dominates_point(dname: str, use_block: str, use_idx: int) -> bool:
        site = defsite[dname]
        if site is None:
            return True  # param
        dblk, didx = site
        if dblk not in reachable:
            return False
        if dblk == use_block:
            return didx < use_idx
        return dt.dominates(dblk, use_block)

    for b in f.blocks:
        if b.label not in reachable:
            continue  # unreachable code only needs the structural checks above
        for i, ins in enumerate(b.instrs):
            if ins.is_phi:
                for op, lbl in zip(ins.operands, ins.labels):
                    if isinstance(op, ValueRef):
                        # incoming value must be available at the end of the pred
                        site = defsite[op.name]
                        if site is not None:
                            dblk, _ = site
                            if lbl in reachable and not dt.dominates(dblk, lbl):
                                errs.append(ValidationError(
                                    "DominanceError", b.label,
                                    f"phi incoming %{op.name} does not dominate end of {lbl}"))
            else:
                for op in ins.operands:
                    if isinstance(op, ValueRef) and not dominates_point(op.name, b.label, i):
                        errs.append(ValidationError(
                            "DominanceError", b.label,
                            f"use of %{op.name} not dominated by its definition"))
    return errs


def validate_module(m: Module) -> list[ValidationError]:
    errs: list[ValidationError] = []
    names = [f.name for f in m.functions]
    if len(set(names)) != len(names):
        errs.append(ValidationError("StructureError", "module", "duplicate function names"))
    for f in m.functions:
        errs.extend(validate_function(f))
    return errs
