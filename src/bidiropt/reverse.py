"""Reverse (efficiency-decreasing) rewrites.

Where a forward pass is a function, a reverse pass is an enumerator: it
yields one variant per applicable site, in RPO site order. Every reverse
rewrite is paired with the forward pass that undoes it, and each enumerator
emits only sites whose rewrite that pass undoes, deciding each from the
input with the pass's own rule before it builds anything; this keeps the
detour inside optimizable territory (tests check the pairing on the corpus
and its neighbours). Where the forward pass sweeps the whole function, as
dse erases every dead store in one application, the input must give the
pass nothing else to do, so that undoing the variant gives back the input
itself. Variants are never more efficient than the input, and none equals
it: each rewrite changes an opcode or adds instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import islice

from .analysis import compute_dominators, known_bits
from .cost import static_size
from .ir import (
    Function,
    Instruction,
    Literal,
    ValueRef,
    fresh_names,
    rpo_instrs,
    rpo_order,
)
from .passes import dead_stores, disjoint_bits, edit, freeze

PAIRINGS: dict[str, str] = {
    "rev-instexpand-rem": "divmul-to-rem",
    "rev-instexpand-shl": "strength-reduce",
    "rev-instexpand-or": "add-to-or",
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
# memory detours

def _rev_insert_dead_store(f: Function):
    """Append a never-read stack cell write at the end of a block. dse erases
    every dead store in f at once, so it gives back f exactly only where the
    new store is the one dead store: f with any dead store of its own has no
    site, and a dead-store variant never grows another."""
    if dead_stores(f):
        return
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
    "rev-insert-dead-store": _rev_insert_dead_store,
}

REVERSE_PASSES = tuple(_ENUMERATORS)


def reverse_variants(name: str, f: Function, cap: int | None = None,
                     max_size: int | None = None) -> tuple[Variant, ...]:
    """Enumerate variants of f under one reverse pass, in deterministic site
    order. A site's index is its position in the enumeration, and `cap`
    keeps the sites numbered below it, so an index names the same site of
    a given function whatever the cap. A site whose variant would have more
    than `max_size` instructions is skipped before anything is built, and
    still takes its index. Nothing is printed or hashed here: whether a
    variant is a program the caller already holds is the caller's question
    (search.PassCache.intern)."""
    if name not in _ENUMERATORS:
        raise KeyError(f"unknown reverse pass '{name}'")
    room = max_size - static_size(f) if max_size is not None else float("inf")
    sites = enumerate(islice(_ENUMERATORS[name](f), cap))
    return tuple(Variant(name, site, build()) for site, (grow, build) in sites if grow <= room)
