"""Reverse (efficiency-decreasing) rewrites.

Where a forward pass is a function, a reverse pass is an enumerator: it
yields one variant per applicable site, in RPO site order. Every reverse
rewrite is paired with the forward pass that undoes it, and each enumerator
emits only sites whose rewrite that pass undoes, deciding each from the
input with the pass's own rule before it builds anything; this keeps the
detour inside optimizable territory (tests check the pairing on the corpus
and its neighbours). Variants are never more efficient than the input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import count, islice

from .analysis import compute_dominators, find_natural_loops, known_bits, use_def
from .cost import static_size
from .ir import (
    Function,
    Instruction,
    Literal,
    Operand,
    ValueRef,
    canonical_hash,
    fresh_names,
    rpo_instrs,
    rpo_order,
)
from .passes import (
    disjoint_bits,
    edit,
    freeze,
    in_place,
    licm_movable,
    tree_form,
    tree_roots,
)

PAIRINGS: dict[str, str] = {
    "rev-instexpand-rem": "divmul-to-rem",
    "rev-instexpand-shl": "strength-reduce",
    "rev-instexpand-or": "add-to-or",
    "rev-reassociate": "reassociate",
    "rev-licm-sink": "licm",
    "rev-insert-dead-store": "dse",
}


@dataclass(frozen=True)
class Variant:
    reverse_name: str
    site_index: int
    function: Function

    @property
    def step(self) -> str:
        return f"{self.reverse_name}@{self.site_index}"


# An enumerator yields one (grow, build) pair per site, in RPO site order.
# It decides each site from f before it builds anything, so every pair is a
# site and build() always makes its variant. `grow` is the exact change in
# instruction count the rewrite makes.

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
        yield len(expansion) - 1, partial(_splice, f, lbl, i, expansion)


def _rev_instexpand_shl(f: Function):
    """shl x, k  ->  mul x, 2**k for literal 1 <= k <= 31."""
    for lbl, i, ins in rpo_instrs(f):
        if ins.opcode != "shl" or not isinstance(ins.operands[1], Literal):
            continue
        k = ins.operands[1].value
        if not 1 <= k <= 31:
            continue
        new = Instruction(ins.result, "mul", (ins.operands[0], Literal(1 << k)))
        yield 0, partial(_splice, f, lbl, i, [new])


def _rev_instexpand_or(f: Function):
    """or a, b  ->  add a, b, only where the bits provably cannot overlap."""
    kb = known_bits(f)
    for lbl, i, ins in rpo_instrs(f):
        if ins.opcode != "or" or not disjoint_bits(kb, *ins.operands):
            continue
        yield 0, partial(_splice, f, lbl, i, [replace(ins, opcode="add")])


# ---------------------------------------------------------------------------
# shape perturbations

def _rev_reassociate(f: Function):
    """Perturb add trees: swap operands, or rotate a nested single-use add
    (which the rotation absorbs). A perturbation keeps its tree's root, its
    terms and the opcodes it absorbs, so reassociate's cost test gives the
    same answer on the tree in f and in the variant. It is a site exactly
    where reassociate rewrites the tree it lands in: the tree passes that
    test, and the perturbed root block does not already hold the tree in the
    form reassociate emits for it (a swap onto canonical leaf order)."""
    ud = use_def(f)
    trees = {}  # add/sub value -> its tree (root, absorbed, emitted) if it passes the cost test
    for root, absorbed in tree_roots(f, ud):
        form = tree_form(f, ud, root, count())
        if form is not None:
            trees.update(dict.fromkeys(absorbed | {root}, (root, absorbed, form[0])))

    def single_use_add(op: Operand) -> Instruction | None:
        if not isinstance(op, ValueRef) or ud.use_count(op.name) != 1:
            return None
        ins = ud.instrs.get(op.name)
        return ins if ins is not None and ins.opcode == "add" else None

    for lbl, i, ins in rpo_instrs(f):
        if ins.opcode != "add" or ins.result not in trees:
            continue
        root, absorbed, emitted = trees[ins.result]
        a, b = ins.operands
        perturbed = [(None, [replace(ins, operands=(b, a))])]
        (tn,) = fresh_names(f, "x", 1)
        inner = single_use_add(a)
        if inner is not None:
            # (p + q) + b  ->  p + (q + b)
            p, q = inner.operands
            new = [Instruction(tn, "add", (q, b)),
                   Instruction(ins.result, "add", (p, ValueRef(tn)))]
            perturbed.append((inner.result, new))
        inner = single_use_add(b)
        if inner is not None:
            # a + (p + q)  ->  (a + p) + q
            p, q = inner.operands
            new = [Instruction(tn, "add", (a, p)),
                   Instruction(ins.result, "add", (ValueRef(tn), q))]
            perturbed.append((inner.result, new))
        for gone, new in perturbed:
            blocks = _perturb(f, ud, lbl, i, gone, new)
            kept = [x for x in blocks[ud.defs[root][0]] if x is not None]
            at = next(k for k, x in enumerate(kept) if x.result == root)
            now_absorbed = absorbed - {gone} | {x.result for x in new[:-1]}
            if not in_place(kept, at, now_absorbed, emitted):
                yield 0, partial(freeze, f, blocks)


def _perturb(f: Function, ud, lbl: str, i: int, gone: str | None,
             new: list[Instruction]) -> dict[str, list[Instruction | None]]:
    """The working form of f with the add at (lbl, i) replaced by `new`, and
    the inner add that defines `gone`, if any, erased: its one use was that
    add."""
    blocks = edit(f)
    if gone is not None:
        glbl, j = ud.defs[gone]
        blocks[glbl][j] = None
    blocks[lbl][i:i + 1] = new
    return blocks


def _rev_licm_sink(f: Function):
    """Push a pure preheader computation used only inside the loop into the
    loop header (right after the phis)."""
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
            yield 0, partial(_sink, f, lp, i, len(index[lp.header].phis))


def _sink(f: Function, lp, i: int, at: int) -> Function:
    blocks = edit(f)
    ins = blocks[lp.preheader].pop(i)
    blocks[lp.header].insert(at, ins)
    return freeze(f, blocks)


# ---------------------------------------------------------------------------
# memory detours

def _rev_insert_dead_store(f: Function):
    """Append a never-read stack cell write at the end of a block."""
    reach = set(rpo_order(f))
    (pname,) = fresh_names(f, "dead", 1)
    for b in f.blocks:
        if b.label in reach:
            yield 2, partial(_dead_store, f, b.label, pname)


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
    "rev-licm-sink": _rev_licm_sink,
    "rev-insert-dead-store": _rev_insert_dead_store,
}

REVERSE_PASSES = tuple(_ENUMERATORS)


def reverse_variants(name: str, f: Function, cap: int | None = None,
                     max_size: int | None = None) -> tuple[Variant, ...]:
    """Enumerate variants of f under one reverse pass, in deterministic site
    order. A site's index is its position in the enumeration, and `cap`
    keeps the sites numbered below it, so an index names the same site of
    a given function whatever the cap. A variant identical to f takes its
    index but is dropped; only a variant of f's size is hashed to find out.
    A site whose variant would have more than `max_size` instructions is
    skipped before anything is built or hashed, and still takes its index."""
    if name not in _ENUMERATORS:
        raise KeyError(f"unknown reverse pass '{name}'")
    room = max_size - static_size(f) if max_size is not None else float("inf")
    out: list[Variant] = []
    for site, (grow, build) in enumerate(islice(_ENUMERATORS[name](f), cap)):
        if grow <= room:
            g = build()
            if grow or canonical_hash(g) != canonical_hash(f):
                out.append(Variant(name, site, g))
    return tuple(out)
