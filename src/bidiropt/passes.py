"""Forward (efficiency-increasing) passes.

One application = one deterministic whole-function sweep, visiting blocks in
RPO and instructions in order; const-fold, divmul-to-rem, simplifycfg and
licm repeat their rewrite to a fixpoint within one application
(_to_fixpoint). Rewrites erase the instructions they render dead
immediately; nothing else is cleaned up (that is dce's job). Every pass
takes and returns a valid Function and reports whether anything changed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count

from .analysis import (
    accessed_cell,
    compute_dominators,
    dominance_frontiers,
    find_natural_loops,
    known_bits,
    live_cells,
    use_def,
)
from .cost import DEFAULT_COST_MODEL
from .ir import (
    BINOP_FUNCS,
    BINOPS,
    MASK32,
    BasicBlock,
    Function,
    Instruction,
    Literal,
    Operand,
    ValueRef,
    canonical_hash,
    defined_values,
    fresh_names,
    may_trap,
    predecessors,
    resolve,
    rpo_instrs,
    rpo_order,
    successors,
    value_order,
)


@dataclass(frozen=True)
class PassOutcome:
    changed: bool
    function: Function


def _is_lit(op: Operand, value: int | None = None) -> bool:
    return isinstance(op, Literal) and (value is None or op.value == value)


def erasable(ins: Instruction) -> bool:
    """Pure and trap-free: safe to drop when the result is unused."""
    return ins.result is not None and ins.opcode != "store" and not may_trap(ins)


# The rewrite kit shared by forward and reverse passes: a mutable working
# form, ordered {label: [Instruction | None]} with None = erased, and the
# edits on it that keep phi incomings in step with the CFG.
def edit(f: Function) -> dict[str, list[Instruction | None]]:
    return {b.label: list(b.instrs) for b in f.blocks}


def freeze(f: Function, blocks: dict[str, list[Instruction | None]],
           subst: dict[str, Operand] | None = None,
           order: list[str] | None = None) -> Function:
    """The Function of a working form: erased slots dropped, every operand
    resolved through subst (defs untouched), blocks in f's order or `order`.
    An instruction subst does not touch is kept as it is."""
    labels = order if order is not None else [b.label for b in f.blocks if b.label in blocks]

    def resolved(ins: Instruction) -> Instruction:
        if not any(isinstance(o, ValueRef) and o.name in subst for o in ins.operands):
            return ins
        return replace(ins, operands=tuple(resolve(o, subst) for o in ins.operands))

    # filter(None, ...) drops the erased slots; an Instruction is always truthy
    return Function(f.name, f.params, tuple(
        BasicBlock(lbl, tuple(map(resolved, filter(None, blocks[lbl])) if subst
                              else filter(None, blocks[lbl])))
        for lbl in labels))


def _erase_dead(blocks: dict[str, list[Instruction | None]], seeds,
                subst: dict[str, Operand] | None = None) -> bool:
    """Transitively erase trap-free pure defs in `seeds` once nothing uses
    them, feeding their operands back in as candidates. Uses are counted once,
    with operands resolved through subst as freeze will, and decremented as
    their users go; erasure is monotone, so the order does not matter.
    Returns whether anything was erased."""
    def refs(ins: Instruction) -> list[str]:
        ops = [resolve(o, subst) for o in ins.operands] if subst else ins.operands
        return [o.name for o in ops if isinstance(o, ValueRef)]

    uses: dict[str, int] = {}
    sites: dict[str, tuple[list, int]] = {}
    for instrs in blocks.values():
        for i, ins in enumerate(instrs):
            if ins is None:
                continue
            for op in ins.operands:
                if subst:
                    op = resolve(op, subst)
                if isinstance(op, ValueRef):
                    uses[op.name] = uses.get(op.name, 0) + 1
            if ins.result is not None:
                sites[ins.result] = (instrs, i)
    work = list(seeds)
    erased = False
    while work:
        name = work.pop()
        if uses.get(name) or name not in sites:
            continue
        instrs, i = sites[name]
        ins = instrs[i]
        if not erasable(ins):
            continue
        del sites[name]
        instrs[i] = None
        erased = True
        for n in refs(ins):
            uses[n] -= 1
            work.append(n)
    return erased


def _to_fixpoint(step, f: Function) -> PassOutcome:
    """Apply step, which makes one rewrite and returns the new Function or
    None when it finds nothing, until it finds nothing."""
    g = f
    while (h := step(g)) is not None:
        g = h
    return PassOutcome(g is not f, g)


def _drop_incomings(instrs: list[Instruction | None], gone: set[str]) -> None:
    """Remove phi incomings whose predecessor label is in `gone`."""
    for j, ins in enumerate(instrs):
        if ins is not None and ins.is_phi and not gone.isdisjoint(ins.labels):
            keep = [(o, l) for o, l in zip(ins.operands, ins.labels) if l not in gone]
            instrs[j] = replace(ins, operands=tuple(o for o, _ in keep),
                                labels=tuple(l for _, l in keep))


# ---------------------------------------------------------------------------
# const-fold

def _fold_binop(opcode: str, a: int, b: int) -> int | None:
    if opcode in ("udiv", "urem") and b == 0:
        return None  # would trap; never fold
    return BINOP_FUNCS[opcode](a, b)


def _const_fold_step(f: Function) -> Function | None:
    blocks = edit(f)
    subst: dict[str, Operand] = {}
    branches: list[str] = []  # blocks whose condbr became br
    for lbl, instrs in blocks.items():
        for i, ins in enumerate(instrs):
            if ins.opcode in BINOPS and _is_lit(ins.operands[0]) and _is_lit(ins.operands[1]):
                val = _fold_binop(ins.opcode, ins.operands[0].value, ins.operands[1].value)
                if val is not None:
                    subst[ins.result] = Literal(val)
                    instrs[i] = None
            elif ins.opcode == "condbr" and _is_lit(ins.operands[0]):
                taken = ins.labels[0] if ins.operands[0].value != 0 else ins.labels[1]
                dropped = ins.labels[1] if taken == ins.labels[0] else ins.labels[0]
                instrs[i] = Instruction(None, "br", (), (taken,))
                if dropped != taken:
                    _drop_incomings(blocks[dropped], {lbl})
                branches.append(lbl)
    return freeze(f, blocks, subst) if subst or branches else None


def apply_const_fold(f: Function) -> PassOutcome:
    """Evaluate binops over two literals; propagate to a fixpoint in one call.
    condbr on a literal becomes br (phi incomings on the dropped edge removed)."""
    return _to_fixpoint(_const_fold_step, f)


# ---------------------------------------------------------------------------
# identity-simplify

# x op e -> x and e op x -> x, for the identity e of each opcode
_RIGHT_IDENTITY = {"add": 0, "sub": 0, "or": 0, "xor": 0, "shl": 0, "mul": 1, "udiv": 1}
_LEFT_IDENTITY = {"add": 0, "or": 0, "xor": 0, "mul": 1}


def _identity_result(op: str, a: Operand, b: Operand) -> Operand | None:
    if op in _RIGHT_IDENTITY and _is_lit(b, _RIGHT_IDENTITY[op]):
        return a
    if op in _LEFT_IDENTITY and _is_lit(a, _LEFT_IDENTITY[op]):
        return b
    if ((op == "mul" and (_is_lit(a, 0) or _is_lit(b, 0))) or (op == "urem" and _is_lit(b, 1))
            or (op in ("sub", "xor") and a == b)):
        return Literal(0)
    return a if op == "and" and a == b else None


def apply_identity_simplify(f: Function) -> PassOutcome:
    blocks = edit(f)
    subst: dict[str, Operand] = {}
    changed = False
    for lbl, i, ins in rpo_instrs(f):
        if ins.opcode not in BINOPS or ins.result is None:
            continue
        out = _identity_result(ins.opcode, *(resolve(o, subst) for o in ins.operands))
        if out is not None:
            subst[ins.result] = out
            blocks[lbl][i] = None
            changed = True
    return PassOutcome(changed, freeze(f, blocks, subst) if changed else f)


# ---------------------------------------------------------------------------
# strength-reduce

def apply_strength_reduce(f: Function) -> PassOutcome:
    blocks = edit(f)
    changed = False
    for lbl, instrs in blocks.items():
        for i, ins in enumerate(instrs):
            if ins is None or ins.opcode != "mul":
                continue
            a, b = ins.operands
            if _is_lit(a) and not _is_lit(b):
                a, b = b, a
            if isinstance(b, Literal) and b.value >= 2 and b.value & (b.value - 1) == 0:
                instrs[i] = Instruction(ins.result, "shl", (a, Literal(b.value.bit_length() - 1)))
                changed = True
    return PassOutcome(changed, freeze(f, blocks) if changed else f)


# ---------------------------------------------------------------------------
# divmul-to-rem

def _divmul_step(f: Function) -> Function | None:
    ud = use_def(f)
    for lbl, i, ins in rpo_instrs(f):
        if ins.opcode != "sub" or not isinstance(ins.operands[1], ValueRef):
            continue
        x, uref = ins.operands
        mul = ud.instrs.get(uref.name)
        if mul is None or mul.opcode != "mul" or ud.use_count(uref.name) != 1:
            continue
        ma, mb = mul.operands
        if _is_lit(ma) and isinstance(mb, ValueRef):
            ma, mb = mb, ma
        if not (isinstance(ma, ValueRef) and isinstance(mb, Literal) and mb.value >= 1):
            continue
        div = ud.instrs.get(ma.name)
        if div is None or div.opcode != "udiv" or div.operands != (x, mb):
            continue
        blocks = edit(f)
        blocks[lbl][i] = Instruction(ins.result, "urem", (x, mb))
        _erase_dead(blocks, {uref.name, ma.name})
        return freeze(f, blocks)
    return None


def apply_divmul_to_rem(f: Function) -> PassOutcome:
    """sub x, (mul (udiv x, c), c)  ->  urem x, c   (mul single-use, c >= 1)."""
    return _to_fixpoint(_divmul_step, f)


# ---------------------------------------------------------------------------
# add-to-or

def disjoint_bits(kb: dict, a: Operand, b: Operand) -> bool:
    """add a, b and or a, b agree: no bit position can be one in both
    operands (kb is known_bits of the function). A literal-0 operand does not
    count; that add is identity-simplify's."""
    if _is_lit(a, 0) or _is_lit(b, 0):
        return False

    def possible(op: Operand) -> int:
        return op.value if isinstance(op, Literal) else kb[op.name].possible_ones

    return possible(a) & possible(b) == 0


def apply_add_to_or(f: Function) -> PassOutcome:
    """add a, b -> or a, b when their bits are disjoint."""
    kb = known_bits(f)
    blocks = edit(f)
    changed = False
    for lbl, instrs in blocks.items():
        for i, ins in enumerate(instrs):
            if ins is not None and ins.opcode == "add" and disjoint_bits(kb, *ins.operands):
                instrs[i] = replace(ins, opcode="or")
                changed = True
    return PassOutcome(changed, freeze(f, blocks) if changed else f)


# ---------------------------------------------------------------------------
# reassociate

def _signed(c: int) -> int:
    return c - (1 << 32) if c >= (1 << 31) else c


def _linearize(ud, root: Instruction) -> tuple[dict[str, int], int, set[str]]:
    """Collapse the maximal add/sub/mul-by-literal tree under root into
    leaf -> coefficient (mod 2^32), a constant term, and the absorbed defs."""
    terms: dict[str, int] = {}
    const = 0
    absorbed: set[str] = set()

    def walk(op: Operand, coeff: int) -> None:
        nonlocal const
        coeff &= MASK32
        if isinstance(op, Literal):
            const = (const + coeff * op.value) & MASK32
            return
        ins = ud.instrs.get(op.name)
        if ins is not None and ud.use_count(op.name) == 1:
            if ins.opcode == "add":
                absorbed.add(op.name)
                walk(ins.operands[0], coeff)
                walk(ins.operands[1], coeff)
                return
            if ins.opcode == "sub":
                absorbed.add(op.name)
                walk(ins.operands[0], coeff)
                walk(ins.operands[1], -coeff)
                return
            if ins.opcode == "mul":
                a, b = ins.operands
                if _is_lit(a) and not _is_lit(b):
                    a, b = b, a
                if isinstance(b, Literal):
                    absorbed.add(op.name)
                    walk(a, coeff * b.value)
                    return
        terms[op.name] = (terms.get(op.name, 0) + coeff) & MASK32

    walk(root.operands[0], 1)
    walk(root.operands[1], (1 << 32) - 1 if root.opcode == "sub" else 1)
    return terms, const, absorbed


def _emit_linear(f: Function, terms: dict[str, int], const: int,
                 namer) -> tuple[list[Instruction], Operand]:
    """Re-emit sum(coeff * leaf) + const in canonical leaf order: positive
    terms as mul/add, negative ones as sub, the constant last."""
    idx = value_order(f)
    pos = [(idx[n], n, c) for n, c in terms.items() if 0 < _signed(c)]
    neg = [(idx[n], n, (-_signed(c)) & MASK32) for n, c in terms.items() if _signed(c) < 0]
    pos.sort()
    neg.sort()
    out: list[Instruction] = []

    def term(name: str, c: int) -> Operand:
        if c == 1:
            return ValueRef(name)
        r = namer()
        out.append(Instruction(r, "mul", (ValueRef(name), Literal(c))))
        return ValueRef(r)

    def join(op: str, a: Operand, b: Operand) -> Operand:
        r = namer()
        out.append(Instruction(r, op, (a, b)))
        return ValueRef(r)

    const_used = False
    if pos:
        acc = term(pos[0][1], pos[0][2])
        for _, n, c in pos[1:]:
            acc = join("add", acc, term(n, c))
    else:
        acc = Literal(const)
        const_used = True
    for _, n, c in neg:
        acc = join("sub", acc, term(n, c))
    if not const_used and const != 0:
        if _signed(const) > 0:
            acc = join("add", acc, Literal(const))
        else:
            acc = join("sub", acc, Literal((-_signed(const)) & MASK32))
    return out, acc


def tree_roots(f: Function, ud) -> list[tuple[str, set[str]]]:
    """Roots of the maximal add/sub trees, each with the defs it absorbs, in
    program order. Scanned bottom-up so outer trees claim absorbable inner
    nodes."""
    roots: list[tuple[str, set[str]]] = []
    claimed: set[str] = set()
    for _, _, ins in reversed(list(rpo_instrs(f))):
        if ins.opcode not in ("add", "sub") or ins.result in claimed:
            continue
        absorbed = _linearize(ud, ins)[2]
        claimed |= absorbed
        roots.append((ins.result, absorbed))
    roots.reverse()
    return roots


def tree_form(f: Function, ud, root_name: str,
              counter) -> tuple[list[Instruction], Operand, set[str]] | None:
    """The form reassociate emits for the tree under root_name: the
    instructions, the operand that replaces the root, and the absorbed defs;
    None when the form would cost more than the tree. New values are named
    t<n>, n drawn from counter; the form is emitted before the cost test, so
    the counter advances alike either way."""
    root = ud.instrs[root_name]
    terms, const, absorbed = _linearize(ud, root)
    taken = set(f.params) | set(ud.defs)

    def namer() -> str:
        name = next(n for n in (f"t{c}" for c in counter) if n not in taken)
        taken.add(name)
        return name

    emitted, acc = _emit_linear(f, terms, const, namer)
    model = DEFAULT_COST_MODEL
    old_cost = model.cost(root.opcode) + sum(model.cost(ud.instrs[n].opcode) for n in absorbed)
    if sum(model.cost(ins.opcode) for ins in emitted) > old_cost:
        return None
    return emitted, acc, absorbed


def in_place(instrs, i: int, absorbed: set[str], emitted: list[Instruction]) -> bool:
    """Whether the tree rooted at instrs[i] already sits in the instruction
    list instrs as `emitted`: the len(emitted) instructions ending at i
    define exactly the root and `absorbed`, and each equals its emitted
    counterpart once emitted names are mapped in order to the old ones (the
    last emitted value, which replaces the root, to the root's). Re-emitting
    would then only rename values."""
    start = i + 1 - len(emitted)
    if len(emitted) != len(absorbed) + 1 or start < 0:
        return False
    old = instrs[start:i + 1]
    if {ins.result for ins in old} != absorbed | {instrs[i].result}:
        return False
    names: dict[str, str] = {}
    for new, ins in zip(emitted, old):
        ops = tuple(ValueRef(names.get(op.name, op.name)) if isinstance(op, ValueRef) else op
                    for op in new.operands)
        if new.opcode != ins.opcode or ops != ins.operands:
            return False
        names[new.result] = ins.result
    return True


def _rewrite_tree(f: Function, ud, root_name: str, counter) -> Function | None:
    """f with the tree under root_name re-emitted in canonical form
    (tree_form), or None when that would cost more or change nothing.

    A tree already in place in the form it would be emitted in is left
    alone without building a candidate (in_place): the candidate would be f
    with those values renamed, and the canonical hash ignores names. Any
    other tree is rewritten, and compared with f by canonical hash."""
    if root_name not in ud.instrs:
        return None
    form = tree_form(f, ud, root_name, counter)
    if form is None:
        return None
    emitted, acc, absorbed = form
    lbl, i = ud.defs[root_name]
    if in_place(f.block(lbl).instrs, i, absorbed, emitted):
        return None
    blocks = edit(f)
    blocks[lbl][i:i + 1] = emitted
    subst = {root_name: acc}
    _erase_dead(blocks, absorbed, subst)
    candidate = freeze(f, blocks, subst)
    return None if canonical_hash(candidate) == canonical_hash(f) else candidate


def apply_reassociate(f: Function) -> PassOutcome:
    """Canonicalize maximal add/sub trees (mul-by-literal absorbed as a
    coefficient): combine like terms, order leaves by canonical value index,
    re-emit. A root is skipped when re-emission would cost more or change
    nothing."""
    g = f
    counter = count()
    for root_name, _ in tree_roots(f, use_def(f)):
        h = _rewrite_tree(g, use_def(g), root_name, counter)
        if h is not None:
            g = h
    changed = canonical_hash(g) != canonical_hash(f)
    return PassOutcome(changed, g if changed else f)


# ---------------------------------------------------------------------------
# cse

_PURE_FOR_CSE = set(BINOPS) | {"select"}


def apply_cse(f: Function) -> PassOutcome:
    """Dominance-scoped common subexpression elimination; operand order is
    semantic, loads are impure here."""
    dt = compute_dominators(f)
    index = {b.label: b for b in f.blocks}
    subst: dict[str, Operand] = {}
    dead: list[tuple[str, int]] = []
    table: dict[tuple, str] = {}

    def walk(lbl: str) -> None:
        added: list[tuple] = []
        for i, ins in enumerate(index[lbl].instrs):
            if ins.opcode not in _PURE_FOR_CSE or ins.result is None:
                continue
            key = (ins.opcode, tuple(resolve(o, subst) for o in ins.operands))
            if key in table:
                subst[ins.result] = ValueRef(table[key])
                dead.append((lbl, i))
            else:
                table[key] = ins.result
                added.append(key)
        for child in dt.children[lbl]:
            walk(child)
        for key in added:
            del table[key]

    walk(dt.rpo[0])
    if not dead:
        return PassOutcome(False, f)
    blocks = edit(f)
    for lbl, i in dead:
        blocks[lbl][i] = None
    return PassOutcome(True, freeze(f, blocks, subst))


# ---------------------------------------------------------------------------
# cond-prop

def apply_cond_prop(f: Function) -> PassOutcome:
    """Inside a region only reachable through one edge of a condbr, recomputed
    copies of the branch condition are constants: clones of the defining
    instruction fold to 1 on the true edge (icmp only; any nonzero value takes
    it) and to 0 on the false edge."""
    dt = compute_dominators(f)
    preds = predecessors(f)
    ud = use_def(f)
    subst: dict[str, Operand] = {}
    spent: set[str] = set()
    changed = False

    def subtree(lbl: str) -> list[str]:
        out = [lbl]
        for c in dt.children[lbl]:
            out.extend(subtree(c))
        return out

    blocks = edit(f)
    for lbl in rpo_order(f):
        term = blocks[lbl][-1]  # only valued clones are erased below
        if term.opcode != "condbr" or not isinstance(term.operands[0], ValueRef):
            continue
        t, e = term.labels
        if t == e:
            continue
        dins = ud.instrs.get(term.operands[0].name)
        if dins is None or dins.opcode not in _PURE_FOR_CSE:
            continue
        for tgt, lit in ((t, 1), (e, 0)):
            if preds.get(tgt) != (lbl,) or tgt not in dt.idom:
                continue
            if lit == 1 and not dins.opcode.startswith("icmp"):
                continue  # true edge only proves "nonzero" for non-boolean defs
            for rlbl in subtree(tgt):
                for i, ins in enumerate(blocks[rlbl]):
                    if (ins is not None and ins.result is not None
                            and ins.result != dins.result
                            and ins.opcode == dins.opcode
                            and ins.operands == dins.operands):
                        subst[ins.result] = Literal(lit)
                        blocks[rlbl][i] = None
                        spent.update(o.name for o in ins.operands if isinstance(o, ValueRef))
                        changed = True
    if not changed:
        return PassOutcome(False, f)
    _erase_dead(blocks, spent)
    return PassOutcome(True, freeze(f, blocks, subst))


# ---------------------------------------------------------------------------
# simplifycfg

def _simplifycfg_step(f: Function) -> Function | None:
    # condbr x, L, L  ->  br L, every such block at once
    blocks = edit(f)
    same = [instrs for instrs in blocks.values()
            if instrs[-1].opcode == "condbr" and instrs[-1].labels[0] == instrs[-1].labels[1]]
    if same:
        spent: set[str] = set()
        for instrs in same:
            last = instrs[-1]
            instrs[-1] = Instruction(None, "br", (), (last.labels[0],))
            if isinstance(last.operands[0], ValueRef):
                spent.add(last.operands[0].name)
        _erase_dead(blocks, spent)
        return freeze(f, blocks)

    # drop unreachable blocks, trimming phi incomings from removed preds
    reach = set(rpo_order(f))
    if len(reach) < len(f.blocks):
        order = [b.label for b in f.blocks if b.label in reach]
        gone = set(blocks) - reach
        for lbl in order:
            _drop_incomings(blocks[lbl], gone)
        # defs that lived only in dropped blocks cannot be referenced
        # from reachable code (dominance), so no substitution needed
        return freeze(f, blocks, order=order)

    # merge B -> C when B ends with `br C` and C has no other predecessor
    preds = predecessors(f)
    for b in f.blocks:
        last = b.instrs[-1]
        if last.opcode != "br" or last.labels[0] == b.label or preds[last.labels[0]] != (b.label,):
            continue
        cblk = f.block(last.labels[0])
        # single pred, so each phi has a single incoming
        subst = {ins.result: ins.operands[0] for ins in cblk.phis}
        blocks[b.label] = list(b.instrs[:-1]) + list(cblk.instrs[len(cblk.phis):])
        del blocks[cblk.label]
        # phis downstream still name C as the incoming edge
        for t in successors(cblk):
            for j, ins in enumerate(blocks[t]):
                if ins is not None and ins.is_phi and cblk.label in ins.labels:
                    blocks[t][j] = replace(ins, labels=tuple(
                        b.label if l == cblk.label else l for l in ins.labels))
        return freeze(f, blocks, subst)
    return None


def apply_simplifycfg(f: Function) -> PassOutcome:
    """condbr with equal targets becomes br; unreachable blocks go away;
    a block with a lone predecessor that jumps straight to it is merged."""
    return _to_fixpoint(_simplifycfg_step, f)


# ---------------------------------------------------------------------------
# mem2reg

def _promotable_allocas(f: Function) -> list[str]:
    """Allocas, in RPO, whose cell can become SSA values: every use is the
    address of a load or store in a reachable block (the rename walk covers
    no other), no store writes an address into the cell (kinds stay intact),
    and no load may read it before a store (that load traps, and promotion
    would turn the trap into a value). In a valid function an alloca's only
    other use is as the value of a store, where its address escapes."""
    ud = use_def(f)
    live = live_cells(f)
    index = {b.label: b for b in f.blocks}
    allocas = [(lbl, ins.result) for lbl, _, ins in rpo_instrs(f) if ins.opcode == "alloca"]
    addresses = {ValueRef(p) for _, p in allocas}

    def kept_in_memory(lbl: str, i: int, j: int) -> bool:
        if lbl not in live:
            return True
        user = index[lbl].instrs[i]
        return user.opcode == "store" and (j == 0 or user.operands[0] in addresses)

    return [p for lbl, p in allocas if p not in live[lbl]
            and not any(kept_in_memory(*use) for use in ud.uses[p])]


def apply_mem2reg(f: Function) -> PassOutcome:
    """Promote every promotable alloca to SSA values in one sweep (Cytron et
    al., TOPLAS 1991): pruned phis at the iterated dominance frontier of each
    cell's stores, where the cell is live, then one dominator-tree walk
    replaces loads by the reaching values. A cell that some load may read
    before any store is left in memory.

    A block's new phis follow its existing ones, cells in RPO order of their
    allocas. Phis of cell p are named p_<i>, fresh against every name f
    defines, so no phi takes the name of an erased load, which freeze would
    still substitute."""
    cells = _promotable_allocas(f)
    if not cells:
        return PassOutcome(False, f)
    live = live_cells(f)
    dt = compute_dominators(f)
    df = dominance_frontiers(f, dt)
    index = {b.label: b for b in f.blocks}
    uses = use_def(f).uses
    phis: dict[str, list[tuple[str, str]]] = {}  # block -> [(cell, phi name)]
    for p in cells:
        placed: set[str] = set()
        work = [lbl for lbl, _, j in uses[p] if j == 1]  # the blocks of its stores
        while work:
            for y in df[work.pop()]:
                if y not in placed and p in live[y]:
                    placed.add(y)
                    work.append(y)
        order = [lbl for lbl in dt.rpo if lbl in placed]
        for lbl, name in zip(order, fresh_names(f, f"{p}_", len(order))):
            phis.setdefault(lbl, []).append((p, name))
    incoming: dict[tuple[str, str], dict[str, Operand]] = {}

    blocks = edit(f)
    subst: dict[str, Operand] = {}
    stacks: dict[str, list[Operand]] = {p: [] for p in cells}

    def walk(lbl: str) -> None:
        pushed = []
        for p, name in phis.get(lbl, ()):
            stacks[p].append(ValueRef(name))
            pushed.append(p)
        for i, ins in enumerate(index[lbl].instrs):
            p = ins.result if ins.opcode == "alloca" else accessed_cell(ins)
            if p not in stacks:
                continue
            if ins.opcode == "load":
                subst[ins.result] = stacks[p][-1]
            elif ins.opcode == "store":
                stacks[p].append(resolve(ins.operands[0], subst))
                pushed.append(p)
            blocks[lbl][i] = None
        for s in successors(index[lbl]):
            for p, _ in phis.get(s, ()):
                incoming.setdefault((s, p), {})[lbl] = stacks[p][-1]
        for child in dt.children[lbl]:
            walk(child)
        for p in pushed:
            stacks[p].pop()

    walk(dt.rpo[0])

    preds = predecessors(f)
    for lbl, new in phis.items():
        at = len(index[lbl].phis)
        # an unreachable predecessor's edge never runs, so any operand will do
        blocks[lbl][at:at] = [
            Instruction(name, "phi", tuple(incoming.get((lbl, p), {}).get(q, Literal(0))
                                           for q in preds[lbl]), preds[lbl])
            for p, name in new]

    return PassOutcome(True, freeze(f, blocks, subst))


# ---------------------------------------------------------------------------
# licm

def licm_movable(ins: Instruction) -> bool:
    """What licm may move between a loop and its preheader."""
    if ins.result is None or ins.is_phi or ins.opcode in ("load", "store", "alloca"):
        return False
    return erasable(ins)  # same trap-free purity bar


def _licm_step(f: Function) -> Function | None:
    defs = defined_values(f)
    for lp in find_natural_loops(f):
        if lp.preheader is None:
            continue

        def outside(op: Operand) -> bool:
            if isinstance(op, Literal):
                return True
            site = defs.get(op.name)
            return site is None or site[0] not in lp.body

        for lbl, i, ins in rpo_instrs(f):
            if lbl in lp.body and licm_movable(ins) and all(map(outside, ins.operands)):
                blocks = edit(f)
                blocks[lbl][i] = None
                pre = blocks[lp.preheader]
                pre.insert(len(pre) - 1, ins)
                return freeze(f, blocks)
    return None


def apply_licm(f: Function) -> PassOutcome:
    """Hoist trap-free pure instructions whose operands live outside the loop
    into the preheader, one at a time to a fixpoint. Loads and stores never
    move."""
    return _to_fixpoint(_licm_step, f)


# ---------------------------------------------------------------------------
# dse

def apply_dse(f: Function) -> PassOutcome:
    """Erase stores whose value can never be observed: the next access to the
    cell in the block is a store, or there is none and no successor has the
    cell in live_cells."""
    live = live_cells(f)
    index = {b.label: b for b in f.blocks}
    blocks = edit(f)
    spent: set[str] = set()
    changed = False
    for lbl in rpo_order(f):
        instrs = index[lbl].instrs
        # cells a load after this point may read before any store writes them
        read = set().union(*(live[s] for s in successors(index[lbl])))
        for i in reversed(range(len(instrs))):
            ins = instrs[i]
            p = accessed_cell(ins)
            if p is None:
                continue
            if ins.opcode == "load":
                read.add(p)
                continue
            if p not in read:
                blocks[lbl][i] = None
                spent.update(op.name for op in ins.operands if isinstance(op, ValueRef))
                changed = True
            read.discard(p)
    if not changed:
        return PassOutcome(False, f)
    _erase_dead(blocks, spent)
    return PassOutcome(True, freeze(f, blocks))


# ---------------------------------------------------------------------------
# dce

def apply_dce(f: Function) -> PassOutcome:
    blocks = edit(f)
    if not _erase_dead(blocks, set(defined_values(f))):
        return PassOutcome(False, f)
    return PassOutcome(True, freeze(f, blocks))


# ---------------------------------------------------------------------------

FORWARD_PASSES: dict[str, callable] = {
    "const-fold": apply_const_fold,
    "identity-simplify": apply_identity_simplify,
    "strength-reduce": apply_strength_reduce,
    "divmul-to-rem": apply_divmul_to_rem,
    "add-to-or": apply_add_to_or,
    "reassociate": apply_reassociate,
    "cse": apply_cse,
    "cond-prop": apply_cond_prop,
    "simplifycfg": apply_simplifycfg,
    "mem2reg": apply_mem2reg,
    "licm": apply_licm,
    "dse": apply_dse,
    "dce": apply_dce,
}


def apply_pass(name: str, f: Function) -> PassOutcome:
    if name not in FORWARD_PASSES:
        raise KeyError(f"unknown pass '{name}'")
    return FORWARD_PASSES[name](f)
