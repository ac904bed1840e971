"""Function-level analyses: dominators, natural loops, known bits, use-def.

All analyses assume a valid function and look only at reachable blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .ir import (
    MASK32,
    Function,
    Instruction,
    Literal,
    Operand,
    ValueRef,
    defined_values,
    per_function,
    predecessors,
    rpo_instrs,
    rpo_order,
    successors,
)


@dataclass(frozen=True)
class DomTree:
    """Immediate dominators over reachable blocks; entry maps to itself.
    children maps each reachable block to its dominator-tree children in RPO."""

    idom: MappingProxyType[str, str]
    rpo: tuple[str, ...]
    children: MappingProxyType[str, tuple[str, ...]]

    def dominates(self, a: str, b: str) -> bool:
        # walk idom chain from b up to entry
        cur = b
        while True:
            if cur == a:
                return True
            nxt = self.idom[cur]
            if nxt == cur:
                return False
            cur = nxt


@per_function
def compute_dominators(f: Function) -> DomTree:
    """Iterative RPO dataflow (Cooper-Harvey-Kennedy), plenty for small CFGs."""
    order = rpo_order(f)
    rank = {lbl: i for i, lbl in enumerate(order)}
    preds = predecessors(f)
    idom: dict[str, str] = {order[0]: order[0]}

    def intersect(a: str, b: str) -> str:
        while a != b:
            while rank[a] > rank[b]:
                a = idom[a]
            while rank[b] > rank[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for lbl in order[1:]:
            ps = [p for p in preds[lbl] if p in idom]
            new = ps[0]
            for p in ps[1:]:
                new = intersect(new, p)
            if idom.get(lbl) != new:
                idom[lbl] = new
                changed = True
    kids: dict[str, list[str]] = {lbl: [] for lbl in order}
    for lbl in order[1:]:
        kids[idom[lbl]].append(lbl)
    children = MappingProxyType({lbl: tuple(ks) for lbl, ks in kids.items()})
    return DomTree(idom=MappingProxyType(idom), rpo=order, children=children)


def dom_tree_walk(f: Function, root: str | None = None):
    """Walk f's dominator tree below root (default the entry) in preorder,
    children in RPO: yields (label, True) on entering a block and
    (label, False) on leaving it, after its whole subtree. An explicit
    stack, so a deep tree does not exhaust the recursion limit."""
    dt = compute_dominators(f)
    stack = [(dt.rpo[0] if root is None else root, True)]
    while stack:
        lbl, enter = stack.pop()
        yield lbl, enter
        if enter:
            stack.append((lbl, False))
            stack.extend((c, True) for c in reversed(dt.children[lbl]))


def dominance_frontiers(f: Function) -> dict[str, set[str]]:
    dt = compute_dominators(f)
    preds = predecessors(f)
    df: dict[str, set[str]] = {lbl: set() for lbl in dt.rpo}
    for lbl in dt.rpo:
        ps = [p for p in preds[lbl] if p in df]
        if len(ps) < 2:
            continue
        for p in ps:
            runner = p
            while runner != dt.idom[lbl]:
                df[runner].add(lbl)
                runner = dt.idom[runner]
    return df


@dataclass(frozen=True)
class Loop:
    """One natural loop: header plus every block on a path to a latch."""

    header: str
    body: frozenset[str]
    preheader: str | None


def find_natural_loops(f: Function) -> tuple[Loop, ...]:
    """Every natural loop, innermost first: ordered by (body size, header)."""
    dt = compute_dominators(f)
    preds = predecessors(f)
    index = {b.label: b for b in f.blocks}
    back: dict[str, list[str]] = {}
    for b in f.blocks:
        if b.label not in dt.idom:
            continue
        for s in successors(b):
            if s in dt.idom and dt.dominates(s, b.label):
                back.setdefault(s, []).append(b.label)

    loops: list[Loop] = []
    for header in dt.rpo:
        if header not in back:
            continue
        body = {header}
        stack = list(back[header])
        while stack:
            lbl = stack.pop()
            if lbl in body:
                continue
            body.add(lbl)
            stack.extend(p for p in preds[lbl] if p in dt.idom)
        outside = [p for p in preds[header] if p not in body and p in dt.idom]
        pre = None
        if len(outside) == 1 and len(successors(index[outside[0]])) == 1:
            pre = outside[0]
        loops.append(Loop(header, frozenset(body), pre))
    return tuple(sorted(loops, key=lambda lp: (len(lp.body), lp.header)))


# ---------------------------------------------------------------------------
# memory cells

def accessed_cell(ins: Instruction) -> str | None:
    """The cell (alloca value) a load reads or a store writes; None for any
    other instruction."""
    if ins.opcode == "load":
        return ins.operands[0].name
    if ins.opcode == "store":
        return ins.operands[1].name
    return None


@per_function
def live_cells(f: Function) -> MappingProxyType[str, frozenset[str]]:
    """Reachable block -> the cells (alloca values) that a load may read on
    entry to the block before any store writes them. Backward liveness: a
    block generates the cells it loads before it stores them, and passes on
    the live cells of its successors that it does not touch."""
    index = {b.label: b for b in f.blocks}
    order = rpo_order(f)
    live: dict[str, frozenset[str]] = {}
    touched: dict[str, set[str]] = {}
    for lbl in order:
        gen: set[str] = set()
        t = touched[lbl] = set()
        for ins in index[lbl].instrs:
            p = accessed_cell(ins)
            if p is not None and p not in t:
                t.add(p)
                if ins.opcode == "load":
                    gen.add(p)
        live[lbl] = frozenset(gen)
    changed = True
    while changed:
        changed = False
        for lbl in reversed(order):
            out = set().union(*(live[s] for s in successors(index[lbl])))
            new = live[lbl] | (out - touched[lbl])
            if new != live[lbl]:
                live[lbl] = frozenset(new)
                changed = True
    return MappingProxyType(live)


# ---------------------------------------------------------------------------
# known bits

@dataclass(frozen=True)
class KnownBits:
    """Bit masks proven zero / proven one; zeros & ones is always 0."""

    zeros: int = 0
    ones: int = 0

    @property
    def possible_ones(self) -> int:
        return MASK32 & ~self.zeros

    def meet(self, other: "KnownBits") -> "KnownBits":
        # intersection of knowledge (phi/select join)
        return KnownBits(self.zeros & other.zeros, self.ones & other.ones)


UNKNOWN = KnownBits()


def _kb_literal(v: int) -> KnownBits:
    return KnownBits(zeros=MASK32 & ~v, ones=v)


def _kb_transfer(ins: Instruction, get) -> KnownBits:
    op = ins.opcode
    if op in ("and", "or", "xor", "add"):
        a, b = get(ins.operands[0]), get(ins.operands[1])
        if op == "and":
            return KnownBits(zeros=a.zeros | b.zeros, ones=a.ones & b.ones)
        if op == "or":
            return KnownBits(zeros=a.zeros & b.zeros, ones=a.ones | b.ones)
        if op == "xor":
            return KnownBits(
                zeros=(a.zeros & b.zeros) | (a.ones & b.ones),
                ones=(a.ones & b.zeros) | (a.zeros & b.ones),
            )
        # add: combinable only when no carry can occur anywhere
        if a.possible_ones & b.possible_ones == 0:
            return KnownBits(zeros=a.zeros & b.zeros, ones=a.ones | b.ones)
        return UNKNOWN
    if op in ("shl", "lshr") and isinstance(ins.operands[1], Literal):
        k = ins.operands[1].value % 32
        a = get(ins.operands[0])
        if op == "shl":
            return KnownBits(
                zeros=MASK32 & ((a.zeros << k) | ((1 << k) - 1)),
                ones=MASK32 & (a.ones << k),
            )
        return KnownBits(
            zeros=MASK32 & ((a.zeros >> k) | ~(MASK32 >> k)),
            ones=a.ones >> k,
        )
    if op == "urem" and isinstance(ins.operands[1], Literal) and ins.operands[1].value > 0:
        c = ins.operands[1].value
        width = (c - 1).bit_length()
        return KnownBits(zeros=MASK32 & ~((1 << width) - 1))
    if op == "udiv" and isinstance(ins.operands[1], Literal) and ins.operands[1].value > 1:
        # result < 2^32 / c, so the top floor(log2 c) bits are zero
        c = ins.operands[1].value
        t = c.bit_length() - 1
        return KnownBits(zeros=MASK32 & ~(MASK32 >> t))
    if op in ("phi", "select"):
        vals = ins.operands[1:] if op == "select" else ins.operands
        out: KnownBits | None = None
        for o in vals:
            k = get(o)
            out = k if out is None else out.meet(k)
        return out or UNKNOWN
    return UNKNOWN


@per_function
def known_bits(f: Function) -> MappingProxyType[str, KnownBits]:
    """Sound fixpoint from the all-unknown start; knowledge only grows."""
    kb: dict[str, KnownBits] = {p: UNKNOWN for p in f.params}
    for b in f.blocks:
        for ins in b.instrs:
            if ins.result is not None:
                kb[ins.result] = UNKNOWN

    def get(op: Operand) -> KnownBits:
        if isinstance(op, Literal):
            return _kb_literal(op.value)
        return kb.get(op.name, UNKNOWN)

    changed = True
    while changed:
        changed = False
        for _, _, ins in rpo_instrs(f):
            if ins.result is None or ins.opcode in ("alloca", "load"):
                continue
            new = _kb_transfer(ins, get)
            if new != kb[ins.result]:
                kb[ins.result] = new
                changed = True
    return MappingProxyType(kb)


# ---------------------------------------------------------------------------
# use-def

@dataclass(frozen=True)
class UseDef:
    """Def sites, defining instructions and use sites by value name
    (parameters have a None def site and no instruction)."""

    defs: MappingProxyType[str, tuple[str, int] | None]
    instrs: MappingProxyType[str, Instruction]
    uses: MappingProxyType[str, tuple[tuple[str, int, int], ...]]

    def use_count(self, name: str) -> int:
        return len(self.uses.get(name, ()))


@per_function
def use_def(f: Function) -> UseDef:
    defs = defined_values(f)
    instrs: dict[str, Instruction] = {}
    uses: dict[str, list[tuple[str, int, int]]] = {name: [] for name in defs}
    for b in f.blocks:
        for i, ins in enumerate(b.instrs):
            if ins.result is not None:
                instrs[ins.result] = ins
            for j, op in enumerate(ins.operands):
                if isinstance(op, ValueRef) and op.name in uses:
                    uses[op.name].append((b.label, i, j))
    return UseDef(defs=defs, instrs=MappingProxyType(instrs),
                  uses=MappingProxyType({k: tuple(v) for k, v in uses.items()}))
