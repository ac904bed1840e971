"""Reverse (efficiency-decreasing) rewrites.

Where a forward pass is a function, a reverse pass is an enumerator: it
yields one variant per applicable site, in RPO site order. Every reverse
rewrite is paired with the forward pass that undoes it, and each enumerator
emits only sites whose rewrite that pass undoes, deciding it with the pass's
own rule; this keeps the detour inside optimizable territory (tests check
the pairing on the corpus and its neighbours). Variants are never more
efficient than the input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from .analysis import compute_dominators, find_natural_loops, known_bits, use_def
from .cost import static_size
from .ir import (
    Function,
    Instruction,
    Literal,
    Operand,
    ValueRef,
    canonical_hash,
    fresh_label,
    fresh_names,
    rpo_instrs,
    rpo_order,
    successors,
)
from .passes import (
    disjoint_bits,
    edit,
    freeze,
    licm_movable,
    reassociate_rewrites,
    retarget_incomings,
)

PAIRINGS: dict[str, str] = {
    "rev-instexpand-rem": "divmul-to-rem",
    "rev-instexpand-shl": "strength-reduce",
    "rev-instexpand-or": "add-to-or",
    "rev-reassociate": "reassociate",
    "rev-split-block": "simplifycfg",
    "rev-licm-sink": "licm",
    "reg2mem": "mem2reg",
    "rev-insert-dead-store": "dse",
}


@dataclass(frozen=True)
class Variant:
    reverse_name: str
    site_index: int
    function: Function
    touched: frozenset[str]  # see _touched

    @property
    def step(self) -> str:
        return f"{self.reverse_name}@{self.site_index}"


class Variants(tuple):
    """reverse_variants' result: the variants in site order, and in
    `independent` the number of candidates its `near` filter skipped. A
    skipped rev-reassociate candidate counts even when it would not have
    been a site."""

    independent = 0


# An enumerator yields one (touched, grow, build) triple per candidate site,
# in RPO site order, before it builds anything: `touched` is the touched set
# of the site's rewrite, `grow` the exact change in instruction count the
# rewrite makes, and build() makes the variant. The touched set holds the
# result and the value operands of every instruction the rewrite inserts,
# replaces or erases, old and new version alike; an instruction moved
# unchanged counts as neither.

def _touched(*instrs: Instruction) -> frozenset[str]:
    names = {ins.result for ins in instrs if ins.result is not None}
    for ins in instrs:
        names.update(op.name for op in ins.operands if isinstance(op, ValueRef))
    return frozenset(names)


def _splice(f: Function, lbl: str, i: int, new: list[Instruction]) -> Function:
    blocks = edit(f)
    blocks[lbl][i:i + 1] = new
    return freeze(f, blocks)


# ---------------------------------------------------------------------------
# expression expansions

def _rev_instexpand_rem(f: Function):
    """urem x, c  ->  sub x, (mul (udiv x, c), c); an equivalent udiv already
    dominating the site is reused instead of minting a new one."""
    dt = compute_dominators(f)
    for lbl, i, ins in rpo_instrs(f):
        if ins.opcode != "urem" or not isinstance(ins.operands[1], Literal):
            continue
        if ins.operands[1].value < 1:
            continue
        x, c = ins.operands
        existing = None
        for dlbl, j, dins in rpo_instrs(f):
            if dins.opcode == "udiv" and dins.operands == (x, c):
                same = dlbl == lbl and j < i
                if same or (dlbl != lbl and dt.dominates(dlbl, lbl)):
                    existing = dins.result
                    break
        if existing is None:
            qn, mn = fresh_names(f, "x", 2)
            expansion = [
                Instruction(qn, "udiv", (x, c)),
                Instruction(mn, "mul", (ValueRef(qn), c)),
                Instruction(ins.result, "sub", (x, ValueRef(mn))),
            ]
        else:
            (mn,) = fresh_names(f, "x", 1)
            expansion = [
                Instruction(mn, "mul", (ValueRef(existing), c)),
                Instruction(ins.result, "sub", (x, ValueRef(mn))),
            ]
        yield _touched(ins, *expansion), len(expansion) - 1, partial(_splice, f, lbl, i, expansion)


def _rev_instexpand_shl(f: Function):
    """shl x, k  ->  mul x, 2**k for literal 1 <= k <= 31."""
    for lbl, i, ins in rpo_instrs(f):
        if ins.opcode != "shl" or not isinstance(ins.operands[1], Literal):
            continue
        k = ins.operands[1].value
        if not 1 <= k <= 31:
            continue
        new = Instruction(ins.result, "mul", (ins.operands[0], Literal(1 << k)))
        yield _touched(ins), 0, partial(_splice, f, lbl, i, [new])


def _rev_instexpand_or(f: Function):
    """or a, b  ->  add a, b, only where the bits provably cannot overlap."""
    kb = known_bits(f)
    for lbl, i, ins in rpo_instrs(f):
        if ins.opcode != "or" or not disjoint_bits(kb, *ins.operands):
            continue
        yield _touched(ins), 0, partial(_splice, f, lbl, i, [replace(ins, opcode="add")])


# ---------------------------------------------------------------------------
# shape perturbations

def _rev_reassociate(f: Function):
    """Perturb add trees: swap operands, or rotate a nested single-use add
    (which the rotation absorbs). A perturbation is kept only where
    reassociate rewrites the tree it lands in (a swap onto canonical leaf
    order is already reassociate's form); that test needs the built
    variant, so build() returns None for a candidate that fails it."""
    ud = use_def(f)

    def single_use_add(op: Operand) -> Instruction | None:
        if not isinstance(op, ValueRef) or ud.use_count(op.name) != 1:
            return None
        ins = ud.instrs.get(op.name)
        return ins if ins is not None and ins.opcode == "add" else None

    for lbl, i, ins in rpo_instrs(f):
        if ins.opcode != "add":
            continue
        a, b = ins.operands
        perturbed = [(None, [replace(ins, operands=(b, a))], _touched(ins))]
        (tn,) = fresh_names(f, "x", 1)
        inner = single_use_add(a)
        if inner is not None:
            # (p + q) + b  ->  p + (q + b)
            p, q = inner.operands
            new = [Instruction(tn, "add", (q, b)),
                   Instruction(ins.result, "add", (p, ValueRef(tn)))]
            perturbed.append((ud.defs[inner.result], new, _touched(ins, inner, *new)))
        inner = single_use_add(b)
        if inner is not None:
            # a + (p + q)  ->  (a + p) + q
            p, q = inner.operands
            new = [Instruction(tn, "add", (a, p)),
                   Instruction(ins.result, "add", (ValueRef(tn), q))]
            perturbed.append((ud.defs[inner.result], new, _touched(ins, inner, *new)))
        for site, new, touched in perturbed:
            yield touched, 0, partial(_perturb, f, lbl, i, site, new)


def _perturb(f: Function, lbl: str, i: int, site, new: list[Instruction]) -> Function | None:
    blocks = edit(f)
    if site is not None:
        blocks[site[0]][site[1]] = None  # its one use was the add at (lbl, i)
    blocks[lbl][i:i + 1] = new
    g = freeze(f, blocks)
    return g if reassociate_rewrites(g, new[-1].result) else None


def _rev_split_block(f: Function):
    """Cut a block in two at a legal boundary, joined by an unconditional br.
    The tail moves unchanged, so only the successor phis retargeted onto
    the new block are touched."""
    reach = set(rpo_order(f))
    index = {b.label: b for b in f.blocks}
    for b in f.blocks:
        if b.label not in reach:
            continue
        targets = successors(b)
        touched = _touched(*(ins for t in set(targets) for ins in index[t].instrs
                             if ins.is_phi and b.label in ins.labels))
        new_lbl = fresh_label(f, f"{b.label}_tail")
        # head keeps instrs[:i] (never the terminator); the phi group stays put
        for i in range(len(b.phis), len(b.instrs)):
            yield touched, 1, partial(_split, f, b, i, new_lbl)


def _split(f: Function, b, i: int, new_lbl: str) -> Function:
    blocks = edit(f)
    blocks[b.label] = list(b.instrs[:i]) + [Instruction(None, "br", (), (new_lbl,))]
    blocks[new_lbl] = list(b.instrs[i:])
    # successor phis still name the old block on the moved edge
    retarget_incomings(blocks, successors(b), b.label, new_lbl)
    order = []
    for x in f.blocks:
        order.append(x.label)
        if x.label == b.label:
            order.append(new_lbl)
    return freeze(f, blocks, order=order)


def _rev_licm_sink(f: Function):
    """Push a pure preheader computation used only inside the loop into the
    loop header (right after the phis). The instruction moves unchanged, so
    the touched set is empty."""
    ud = use_def(f)
    index = {b.label: b for b in f.blocks}
    for lp in find_natural_loops(f):
        if lp.preheader is None:
            continue
        pre = index[lp.preheader]
        for i, ins in enumerate(pre.instrs):
            if not licm_movable(ins):
                continue
            uses = ud.uses[ins.result]
            if not uses or not all(u[0] in lp.body for u in uses):
                continue
            yield frozenset(), 0, partial(_sink, f, lp, i, len(index[lp.header].phis))


def _sink(f: Function, lp, i: int, at: int) -> Function:
    blocks = edit(f)
    ins = blocks[lp.preheader].pop(i)
    blocks[lp.header].insert(at, ins)
    return freeze(f, blocks)


# ---------------------------------------------------------------------------
# memory detours

def _reg2mem(f: Function):
    """Demote one SSA value to a stack cell: store after the def, a fresh
    load in front of every use (phi uses load at the tail of the edge's
    predecessor block)."""
    ud = use_def(f)
    reach = set(rpo_order(f))
    index = {b.label: b for b in f.blocks}
    for lbl, i, ins in rpo_instrs(f):
        if ins.result is None or ins.opcode == "alloca":
            continue
        uses = ud.uses[ins.result]
        if any(u[0] not in reach for u in uses):
            continue
        v = ins.result
        (pname,) = fresh_names(f, f"{v}_m", 1)
        load_names = fresh_names(f, f"{v}_l", len(uses))
        users = {(u[0], u[1]) for u in uses}
        touched = _touched(*(index[ulbl].instrs[ui] for ulbl, ui in users))
        touched = touched.union((v, pname), load_names)
        yield touched, 2 + len(uses), partial(_demote, f, lbl, ins, uses, pname, load_names)


def _demote(f: Function, lbl: str, ins: Instruction, uses, pname: str,
            load_names: list[str]) -> Function:
    v = ins.result
    blocks = edit(f)
    # loads first, rewriting whole users bottom-up so indices stay valid
    per_block: dict[str, dict[int, list[tuple[int, str]]]] = {}
    for (ulbl, ui, uj), ln in zip(uses, load_names):
        per_block.setdefault(ulbl, {}).setdefault(ui, []).append((uj, ln))
    for ulbl, by_user in per_block.items():
        instrs = blocks[ulbl]
        for ui in sorted(by_user, reverse=True):
            user = instrs[ui]
            ops = list(user.operands)
            for uj, ln in by_user[ui]:
                ops[uj] = ValueRef(ln)
            instrs[ui] = replace(user, operands=tuple(ops))
            for uj, ln in sorted(by_user[ui], reverse=True):
                if user.is_phi:
                    # the value crosses the edge, so read it at the tail
                    # of that edge's predecessor
                    pb = blocks[user.labels[uj]]
                    pb.insert(len(pb) - 1, Instruction(ln, "load", (ValueRef(pname),)))
                else:
                    instrs.insert(ui, Instruction(ln, "load", (ValueRef(pname),)))
    # store directly after the def (after the whole phi group for a phi)
    dlist = blocks[lbl]
    if ins.is_phi:
        at = 0
        while at < len(dlist) and dlist[at].is_phi:
            at += 1
    else:
        at = dlist.index(ins) + 1
    dlist.insert(at, Instruction(None, "store", (ValueRef(v), ValueRef(pname))))
    entry = blocks[f.blocks[0].label]
    entry.insert(0, Instruction(pname, "alloca", ()))
    return freeze(f, blocks)


def _rev_insert_dead_store(f: Function):
    """Append a never-read stack cell write at the end of a block."""
    reach = set(rpo_order(f))
    (pname,) = fresh_names(f, "dead", 1)
    for b in f.blocks:
        if b.label in reach:
            yield frozenset((pname,)), 2, partial(_dead_store, f, b.label, pname)


def _dead_store(f: Function, lbl: str, pname: str) -> Function:
    blocks = edit(f)
    instrs = blocks[lbl]
    instrs[len(instrs) - 1:len(instrs) - 1] = [
        Instruction(pname, "alloca", ()),
        Instruction(None, "store", (Literal(0), ValueRef(pname))),
    ]
    return freeze(f, blocks)


_ENUMERATORS = {
    "rev-instexpand-rem": _rev_instexpand_rem,
    "rev-instexpand-shl": _rev_instexpand_shl,
    "rev-instexpand-or": _rev_instexpand_or,
    "rev-reassociate": _rev_reassociate,
    "rev-split-block": _rev_split_block,
    "rev-licm-sink": _rev_licm_sink,
    "reg2mem": _reg2mem,
    "rev-insert-dead-store": _rev_insert_dead_store,
}

REVERSE_PASSES = tuple(_ENUMERATORS)


def reverse_variants(name: str, f: Function, cap: int | None = None,
                     near: frozenset[str] | None = None,
                     max_size: int | None = None) -> Variants:
    """Enumerate variants of f under one reverse pass, in deterministic site
    order. A site's index is its position in the full enumeration, and `cap`
    keeps the sites numbered below it, so an index names the same site of
    a given function whatever the cap. A variant identical to f takes its
    index but is dropped; only a variant of f's size is hashed to find out.

    With `near`, a site whose touched set misses it is skipped before
    anything is built or hashed; so is a site whose variant would have more
    than `max_size` instructions. A skipped site still takes its index and
    counts toward the cap, but only `near` adds to `independent`. A
    rev-reassociate candidate is a site only if its built variant passes
    reassociate's test, so a skipped one is built after all when a later
    site's index depends on it. Its size never changes, so `max_size` skips
    none of them: one is out of bounds only when f is, and is then built and
    dropped, so the cap cuts where it would without `max_size`."""
    if name not in _ENUMERATORS:
        raise KeyError(f"unknown reverse pass '{name}'")
    maybe = name == "rev-reassociate"
    room = max_size - static_size(f) if max_size is not None else float("inf")
    out: list[Variant] = []
    site = 0
    skipped = 0
    pending = []  # skipped rev-reassociate builds, not yet known to be sites
    for touched, grow, build in _ENUMERATORS[name](f):
        if cap is not None and site >= cap:
            break
        far = near is not None and touched.isdisjoint(near)
        fits = grow <= room
        if far or not (fits or maybe):
            skipped += far
            if maybe:
                pending.append(build)
            else:
                site += 1
            continue
        if pending:
            site += sum(b() is not None for b in pending)
            pending.clear()
            if cap is not None and site >= cap:
                break
        g = build()
        if g is None:
            continue
        if fits and (grow or canonical_hash(g) != canonical_hash(f)):
            out.append(Variant(name, site, g, touched))
        site += 1
    result = Variants(out)
    result.independent = skipped
    return result
