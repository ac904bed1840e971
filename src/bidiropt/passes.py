"""Forward (efficiency-increasing) passes.

One application = one deterministic whole-function sweep on one working
form (edit), frozen once; blocks are visited in RPO and instructions in
order unless a pass says otherwise. reassociate is the exception: it
freezes after each tree it rewrites, and sweeps again only when a use count
it lowered lets a tree it passed absorb more. Rewrites erase the
instructions they render dead immediately; nothing else is cleaned up (that
is dce's job).
Every pass takes and returns a valid Function and reports whether
anything changed.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from itertools import count, islice

from .analysis import (
    accessed_cell,
    compute_dominators,
    dom_tree_walk,
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
    defined_values,
    fresh_names,
    may_trap,
    per_function,
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
           subst: dict[str, Operand] | None = None) -> Function:
    """The Function of a working form: erased slots dropped, every operand
    resolved through subst (defs untouched), blocks in f's order. An
    instruction subst does not touch is kept as it is."""
    def resolved(ins: Instruction) -> Instruction:
        if not any(isinstance(o, ValueRef) and o.name in subst for o in ins.operands):
            return ins
        return replace(ins, operands=tuple(resolve(o, subst) for o in ins.operands))

    # filter(None, ...) drops the erased slots; an Instruction is always truthy
    return Function(f.name, f.params, tuple(
        BasicBlock(b.label, tuple(map(resolved, filter(None, blocks[b.label])) if subst
                                  else filter(None, blocks[b.label])))
        for b in f.blocks if b.label in blocks))


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


def _drop_incomings(instrs: list[Instruction | None], gone: set[str]) -> None:
    """Remove phi incomings whose predecessor label is in `gone`."""
    for j, ins in enumerate(instrs):
        if ins is not None and ins.is_phi and not gone.isdisjoint(ins.labels):
            keep = [(o, l) for o, l in zip(ins.operands, ins.labels) if l not in gone]
            instrs[j] = replace(ins, operands=tuple(o for o, _ in keep),
                                labels=tuple(l for _, l in keep))


# What a pass looks for before it builds an analysis: without it, the pass
# can change nothing, so it returns f at once.

def _has_opcode(f: Function, *opcodes: str) -> bool:
    return any(ins.opcode in opcodes for b in f.blocks for ins in b.instrs)


# ---------------------------------------------------------------------------
# const-fold

def _fold_binop(opcode: str, a: int, b: int) -> int | None:
    if opcode in ("udiv", "urem") and b == 0:
        return None  # would trap; never fold
    return BINOP_FUNCS[opcode](a, b)


def apply_const_fold(f: Function) -> PassOutcome:
    """Evaluate binops over two literals; condbr on a literal becomes br (phi
    incomings on the dropped edge removed). A sparse work list over every
    block starts at the instructions over literals only; a fold adds the
    users of its value (use_def of f). Folds only make literals, so any
    order of visits agrees."""
    work = [(b.label, i) for b in f.blocks for i, ins in enumerate(b.instrs)
            if (ins.opcode in BINOPS or ins.opcode == "condbr")
            and all(map(_is_lit, ins.operands))]
    if not work:
        return PassOutcome(False, f)
    blocks = edit(f)
    subst: dict[str, Operand] = {}
    changed = False
    while work:
        lbl, i = work.pop()
        ins = blocks[lbl][i]
        if ins is None:
            continue
        if ins.opcode in BINOPS:
            a, b = (resolve(o, subst) for o in ins.operands)
            val = _fold_binop(ins.opcode, a.value, b.value) if _is_lit(a) and _is_lit(b) else None
            if val is None:
                continue
            subst[ins.result] = Literal(val)
            blocks[lbl][i] = None
            work.extend((ulbl, ui) for ulbl, ui, _ in use_def(f).uses[ins.result])
        elif ins.opcode == "condbr" and _is_lit(cond := resolve(ins.operands[0], subst)):
            taken, dropped = ins.labels if cond.value != 0 else ins.labels[::-1]
            blocks[lbl][i] = Instruction(None, "br", (), (taken,))
            if dropped != taken:
                _drop_incomings(blocks[dropped], {lbl})
        else:
            continue
        changed = True
    return PassOutcome(True, freeze(f, blocks, subst)) if changed else PassOutcome(False, f)


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
    """Replace each binop with an identity by its result. The substitution
    only grows from a first hit on f's own operands, so the working form is
    made at that hit."""
    blocks = None
    subst: dict[str, Operand] = {}
    for lbl, i, ins in rpo_instrs(f):
        if ins.opcode not in BINOPS or ins.result is None:
            continue
        out = _identity_result(ins.opcode, *(resolve(o, subst) for o in ins.operands))
        if out is not None:
            blocks = blocks or edit(f)
            subst[ins.result] = out
            blocks[lbl][i] = None
    return PassOutcome(True, freeze(f, blocks, subst)) if blocks else PassOutcome(False, f)


# ---------------------------------------------------------------------------
# strength-reduce

def apply_strength_reduce(f: Function) -> PassOutcome:
    blocks = None
    for blk in f.blocks:
        for i, ins in enumerate(blk.instrs):
            if ins.opcode != "mul":
                continue
            a, b = ins.operands
            if _is_lit(a) and not _is_lit(b):
                a, b = b, a
            if isinstance(b, Literal) and b.value >= 2 and b.value & (b.value - 1) == 0:
                blocks = blocks or edit(f)
                shift = Literal(b.value.bit_length() - 1)
                blocks[blk.label][i] = Instruction(ins.result, "shl", (a, shift))
    return PassOutcome(True, freeze(f, blocks)) if blocks else PassOutcome(False, f)


# ---------------------------------------------------------------------------
# divmul-to-rem

def apply_divmul_to_rem(f: Function) -> PassOutcome:
    """sub x, (mul (udiv x, c), c)  ->  urem x, c   (mul single-use, c >= 1).
    A rewrite makes a urem and changes no mul's use count, so every site is
    decided on f's own use_def and one sweep finds them all."""
    blocks = None
    ud = None  # built at the first sub of a value: without one there is no site
    for lbl, i, ins in rpo_instrs(f):
        if ins.opcode != "sub" or not isinstance(ins.operands[1], ValueRef):
            continue
        ud = ud or use_def(f)
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
        blocks = blocks or edit(f)
        blocks[lbl][i] = Instruction(ins.result, "urem", (x, mb))
        _erase_dead(blocks, {uref.name, ma.name})
    return PassOutcome(False, f) if blocks is None else PassOutcome(True, freeze(f, blocks))


# ---------------------------------------------------------------------------
# add-to-or

def disjoint_bits(kb: Mapping, a: Operand, b: Operand) -> bool:
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
    if not _has_opcode(f, "add"):
        return PassOutcome(False, f)
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

def _linearize(ud, root: Instruction) -> tuple[dict[str, int], int, frozenset[str]]:
    """Collapse the maximal add/sub/mul-by-literal tree under root into
    leaf -> coefficient (mod 2^32), a constant term, and the absorbed defs."""
    terms: dict[str, int] = {}
    const = 0
    absorbed: set[str] = set()
    # (operand, coefficient) still to visit, the left operand on top
    work = [(root.operands[1], (1 << 32) - 1 if root.opcode == "sub" else 1),
            (root.operands[0], 1)]
    while work:
        op, coeff = work.pop()
        coeff &= MASK32
        if isinstance(op, Literal):
            const = (const + coeff * op.value) & MASK32
            continue
        ins = ud.instrs.get(op.name)
        if ins is not None and ud.use_count(op.name) == 1:
            if ins.opcode in ("add", "sub"):
                absorbed.add(op.name)
                work.append((ins.operands[1], coeff if ins.opcode == "add" else -coeff))
                work.append((ins.operands[0], coeff))
                continue
            if ins.opcode == "mul":
                a, b = ins.operands
                if _is_lit(a) and not _is_lit(b):
                    a, b = b, a
                if isinstance(b, Literal):
                    absorbed.add(op.name)
                    work.append((a, coeff * b.value))
                    continue
        terms[op.name] = (terms.get(op.name, 0) + coeff) & MASK32
    return terms, const, frozenset(absorbed)


def _linear_form(terms: Mapping[str, int], const: int, order) -> tuple[list[tuple], Operand | int]:
    """sum(coeff * leaf) + const in canonical form, as the (opcode, operands)
    of each instruction to emit (an int operand is the value of an earlier
    one, see _named) and the operand or instruction that holds the sum:
    positive terms as mul/add, leaves by order(leaf), negative ones as sub,
    the constant last."""
    pos, neg = [], []
    for n, c in terms.items():
        if 0 < c < 1 << 31:
            pos.append((order(n), n, c))
        elif c:  # c >= 2^31 is negative
            neg.append((order(n), n, -c & MASK32))
    pos.sort()
    neg.sort()
    form: list[tuple] = []

    def emit(*ins) -> int:
        form.append((ins[0], ins[1:]))
        return len(form) - 1

    acc = None if pos else Literal(const)
    for op, side in (("add", pos), ("sub", neg)):
        for _, n, c in side:
            t = ValueRef(n) if c == 1 else emit("mul", ValueRef(n), Literal(c))
            acc = t if acc is None else emit(op, acc, t)
    if pos and const:
        acc = (emit("add", acc, Literal(const)) if const < 1 << 31
               else emit("sub", acc, Literal(-const & MASK32)))
    return form, acc


def _named(form: list[tuple], names: list[str]) -> list[tuple[str, tuple]]:
    """form with each int operand replaced by the value names gives it."""
    return [(op, tuple(ValueRef(names[o]) if isinstance(o, int) else o for o in ops))
            for op, ops in form]


def tree_roots(f: Function) -> list[tuple[str, tuple]]:
    """Roots of the maximal add/sub trees, each with its linearization, in
    program order. Scanned bottom-up so outer trees claim absorbable inner
    nodes."""
    ud = use_def(f)
    roots = []
    claimed: set[str] = set()
    for _, _, ins in reversed(list(rpo_instrs(f))):
        if ins.opcode not in ("add", "sub") or ins.result in claimed:
            continue
        tree = _linearize(ud, ins)
        claimed |= tree[2]
        roots.append((ins.result, tree))
    roots.reverse()
    return roots


def _rewrite_tree(f: Function, root_name: str, counter, tree=None
                  ) -> tuple[Function, list[str], Operand] | None:
    """f with the tree under root_name re-emitted in canonical form, the
    names of the emitted values and the operand that replaces the root; or
    None when that would cost more or change nothing. `tree` is the tree's
    linearization in f when the caller has it. New values are named t<n>,
    fresh against f's values, n drawn from counter before either test, so
    the counter advances alike either way. A tree already in place in the
    form it would be emitted in (emitted names aside) is recognised without
    building an instruction."""
    ud = use_def(f)
    root = ud.instrs.get(root_name)
    if root is None:
        return None
    terms, const, absorbed = tree or _linearize(ud, root)
    form, acc = _linear_form(terms, const, value_order(f).__getitem__)
    names = list(islice((n for n in (f"t{c}" for c in counter) if n not in ud.defs),
                        len(form)))
    lbl, i = ud.defs[root_name]
    old = f.block(lbl).instrs[max(0, i + 1 - len(form)):i + 1]
    model = DEFAULT_COST_MODEL
    if (len(form) == len(absorbed) + 1 == len(old)
            and {ins.result for ins in old} == absorbed | {root_name}
            and _named(form, [ins.result for ins in old]) == [(ins.opcode, ins.operands)
                                                             for ins in old]
            or sum(model.cost(op) for op, _ in form) > model.cost(root.opcode) + sum(
                model.cost(ud.instrs[n].opcode) for n in absorbed)):
        return None
    blocks = edit(f)
    blocks[lbl][i:i + 1] = [Instruction(n, op, ops)
                            for n, (op, ops) in zip(names, _named(form, names))]
    acc = ValueRef(names[acc]) if isinstance(acc, int) else acc
    subst = {root_name: acc}
    _erase_dead(blocks, absorbed, subst)
    return freeze(f, blocks, subst), names, acc


def apply_reassociate(f: Function) -> PassOutcome:
    """Canonicalize maximal add/sub trees (mul-by-literal absorbed as a
    coefficient): combine like terms, order leaves by canonical value index,
    re-emit. A root is skipped when re-emission would cost more or change
    nothing, so the pass changed f exactly when it rewrote a root.

    A sweep takes its roots, and their linearizations, from its input and
    builds a Function after each tree it rewrites; a tree after the first
    rewrite is linearized again on the current Function. A rewrite can
    leave a leaf of a tree the sweep has passed a single use (`x - x`
    cancels, or a dead tree that shared it is dropped), so a further sweep
    runs only when some add, sub or mul value's use count fell to 1. `start`
    holds the count a value began the sweep with where the input's use_def
    does not: 1 for a new value, the root's for the value that replaces
    it."""
    if not _has_opcode(f, "add", "sub"):
        return PassOutcome(False, f)
    g = f
    while True:
        h, counter, ud, start = g, count(), use_def(g), {}
        for root_name, tree in tree_roots(g):
            out = _rewrite_tree(h, root_name, counter, tree if h is g else None)
            if out is not None:
                h, names, acc = out
                start.update(dict.fromkeys(names, 1))
                if isinstance(acc, ValueRef) and acc.name in names:
                    start[acc.name] = start.get(root_name, ud.use_count(root_name))
        if h is g:
            return PassOutcome(g is not f, g)
        hud = use_def(h)
        again = any(hud.use_count(n) == 1 != start.get(n, ud.use_count(n))
                    and ins.opcode in ("add", "sub", "mul") for n, ins in hud.instrs.items())
        g = h
        if not again:
            return PassOutcome(True, g)


# ---------------------------------------------------------------------------
# cse

_PURE_FOR_CSE = set(BINOPS) | {"select"}


@per_function
def _has_duplicate_expression(f: Function) -> bool:
    """Whether two pure instructions of f have equal (opcode, operands): cse's
    first hit is such a pair, before any substitution, and so is a clone
    that cond-prop folds with the condition's definition. Both test it before
    they build the dominator tree, so neither builds it where the other
    would not."""
    seen = set()
    for b in f.blocks:
        for ins in b.instrs:
            if ins.opcode in _PURE_FOR_CSE and ins.result is not None:
                key = (ins.opcode, ins.operands)
                if key in seen:
                    return True
                seen.add(key)
    return False


def apply_cse(f: Function) -> PassOutcome:
    """Dominance-scoped common subexpression elimination; operand order is
    semantic, loads are impure here."""
    if not _has_duplicate_expression(f):
        return PassOutcome(False, f)
    index = {b.label: b for b in f.blocks}
    subst: dict[str, Operand] = {}
    dead: list[tuple[str, int]] = []
    table: dict[tuple, str] = {}
    added: dict[str, list[tuple]] = {}  # block -> the keys it put in table
    for lbl, enter in dom_tree_walk(f):
        if not enter:
            for key in added.pop(lbl):
                del table[key]
            continue
        keys = added[lbl] = []
        for i, ins in enumerate(index[lbl].instrs):
            if ins.opcode not in _PURE_FOR_CSE or ins.result is None:
                continue
            key = (ins.opcode, tuple(resolve(o, subst) for o in ins.operands))
            if key in table:
                subst[ins.result] = ValueRef(table[key])
                dead.append((lbl, i))
            else:
                table[key] = ins.result
                keys.append(key)
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
    if not _has_duplicate_expression(f):
        return PassOutcome(False, f)
    dt = compute_dominators(f)
    preds = predecessors(f)
    ud = use_def(f)
    subst: dict[str, Operand] = {}
    spent: set[str] = set()
    changed = False

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
            for rlbl in (b for b, enter in dom_tree_walk(f, tgt) if enter):
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

def apply_simplifycfg(f: Function) -> PassOutcome:
    """condbr with equal targets becomes br; unreachable blocks go away;
    a block with a lone predecessor that jumps straight to it is merged.
    None of the three changes which blocks are reachable or how many
    predecessors one has, so f's rpo_order and predecessors serve all."""
    blocks = edit(f)

    # condbr x, L, L  ->  br L, every such block at once
    same = [instrs for instrs in blocks.values()
            if instrs[-1].opcode == "condbr" and instrs[-1].labels[0] == instrs[-1].labels[1]]
    spent: set[str] = set()
    for instrs in same:
        last = instrs[-1]
        instrs[-1] = Instruction(None, "br", (), last.labels[:1])
        spent.update(o.name for o in last.operands if isinstance(o, ValueRef))
    if spent:
        _erase_dead(blocks, spent)

    # drop unreachable blocks, trimming phi incomings from removed preds;
    # reachable code cannot use their defs (dominance)
    reach = set(rpo_order(f))
    gone = set(blocks) - reach
    if gone:
        for lbl in gone:
            del blocks[lbl]
        for instrs in blocks.values():
            _drop_incomings(instrs, gone)

    # merge B -> C when B ends with `br C` and C has no other predecessor,
    # each br chain into its head in one walk. A head can come after part
    # of its chain in f's order, so tails maps a head to f's label of the
    # block whose terminator it now ends with: the next link's lone
    # predecessor, and the edge phis downstream still name.
    preds = predecessors(f)
    subst: dict[str, Operand] = {}
    tails: dict[str, str] = {}
    for head in list(blocks):
        if head not in blocks:
            continue  # merged into an earlier head
        instrs = blocks[head]
        tail = head
        while (instrs[-1].opcode == "br" and (c := instrs[-1].labels[0]) != head
               and tuple(p for p in preds[c] if p in reach) == (tail,)):
            merged = blocks.pop(c)
            n = next(j for j, ins in enumerate(merged) if ins is not None and not ins.is_phi)
            # single pred, so each phi has a single incoming
            subst.update((ins.result, ins.operands[0]) for ins in merged[:n] if ins is not None)
            instrs[-1:] = merged[n:]
            tail = tails.pop(c, c)
        if tail != head:
            tails[head] = tail
    if not (same or gone or tails):
        return PassOutcome(False, f)
    for head, tail in tails.items():
        for t in blocks[head][-1].labels:
            for j, ins in enumerate(blocks[t]):
                if ins is not None and ins.is_phi and tail in ins.labels:
                    blocks[t][j] = replace(ins, labels=tuple(
                        head if l == tail else l for l in ins.labels))
    return PassOutcome(True, freeze(f, blocks, subst))


# ---------------------------------------------------------------------------
# mem2reg

def _promotable_allocas(f: Function) -> list[str]:
    """Allocas, in RPO, whose cell can become SSA values: every use is the
    address of a load or store in a reachable block (the rename walk covers
    no other), no store writes an address into the cell (kinds stay intact),
    and no load may read it before a store (that load traps, and promotion
    would turn the trap into a value). In a valid function an alloca's only
    other use is as the value of a store, where its address escapes."""
    allocas = [(lbl, ins.result) for lbl, _, ins in rpo_instrs(f) if ins.opcode == "alloca"]
    if not allocas:
        return []
    ud = use_def(f)
    # without a load, no cell is live anywhere
    live = live_cells(f) if _has_opcode(f, "load") else dict.fromkeys(rpo_order(f), ())
    index = {b.label: b for b in f.blocks}
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
    still substitute.

    Without a load (as in a dead-store detour of a load-free program), no
    cell is live, so none gets a phi or substitutes a value: the allocas and
    their stores are erased with no dominators, frontiers or rename walk."""
    cells = _promotable_allocas(f)
    if not cells:
        return PassOutcome(False, f)
    if not _has_opcode(f, "load"):
        ud = use_def(f)
        blocks = edit(f)
        for p in cells:
            for lbl, i, *_ in (ud.defs[p], *ud.uses[p]):
                blocks[lbl][i] = None
        return PassOutcome(True, freeze(f, blocks))
    live = live_cells(f)
    dt = compute_dominators(f)
    df = dominance_frontiers(f)
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
    pushed: dict[str, list[str]] = {}  # block -> the cells it pushed a value for
    for lbl, enter in dom_tree_walk(f):
        if not enter:
            for p in pushed.pop(lbl):
                stacks[p].pop()
            continue
        cells_pushed = pushed[lbl] = []
        for p, name in phis.get(lbl, ()):
            stacks[p].append(ValueRef(name))
            cells_pushed.append(p)
        for i, ins in enumerate(index[lbl].instrs):
            p = ins.result if ins.opcode == "alloca" else accessed_cell(ins)
            if p not in stacks:
                continue
            if ins.opcode == "load":
                subst[ins.result] = stacks[p][-1]
            elif ins.opcode == "store":
                stacks[p].append(resolve(ins.operands[0], subst))
                cells_pushed.append(p)
            blocks[lbl][i] = None
        for s in successors(index[lbl]):
            for p, _ in phis.get(s, ()):
                incoming.setdefault((s, p), {})[lbl] = stacks[p][-1]

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

def _has_back_edge(f: Function) -> bool:
    """Whether a CFG edge runs from a reachable block to one at or before it
    in rpo_order. The header of a natural loop dominates its latch, so it
    comes first in RPO (or is the latch): without such an edge there is no
    loop, and licm has nothing to hoist."""
    rank = {lbl: i for i, lbl in enumerate(rpo_order(f))}
    return any(s in rank and rank[s] <= rank[b.label]
               for b in f.blocks if b.label in rank for s in successors(b))


def apply_licm(f: Function) -> PassOutcome:
    """Hoist trap-free pure instructions whose operands live outside the loop
    into the preheader; phis, allocas, loads and stores never move. Hoisting
    changes no edge, so f's loops hold throughout: one RPO sweep per loop,
    innermost first, with `home` following each hoisted value to its new
    block."""
    if not _has_back_edge(f):
        return PassOutcome(False, f)
    blocks = edit(f)
    home = {name: site[0] for name, site in defined_values(f).items() if site is not None}
    changed = False
    for lp in find_natural_loops(f):
        if lp.preheader is None:
            continue
        pre = blocks[lp.preheader]
        for instrs in (blocks[lbl] for lbl in rpo_order(f) if lbl in lp.body):
            for i, ins in enumerate(instrs):
                # dce's trap-free purity bar, which keeps loads and stores out
                movable = (ins is not None and erasable(ins) and not ins.is_phi
                           and ins.opcode != "alloca")
                if movable and all(isinstance(o, Literal) or home.get(o.name) not in lp.body
                                   for o in ins.operands):
                    instrs[i] = None
                    pre.insert(len(pre) - 1, ins)
                    home[ins.result] = lp.preheader
                    changed = True
    return PassOutcome(True, freeze(f, blocks)) if changed else PassOutcome(False, f)


# ---------------------------------------------------------------------------
# dse

def dead_stores(f: Function) -> list[tuple[str, int]]:
    """The (block, index) of every store in a reachable block whose value can
    never be observed: the next access to the cell in the block is a store,
    or there is none and no successor has the cell in live_cells."""
    if not _has_opcode(f, "store"):
        return []
    live = live_cells(f)
    index = {b.label: b for b in f.blocks}
    dead = []
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
                dead.append((lbl, i))
            read.discard(p)
    return dead


def apply_dse(f: Function) -> PassOutcome:
    """Erase every store dead_stores finds, and the values only they used."""
    dead = dead_stores(f)
    if not dead:
        return PassOutcome(False, f)
    blocks = edit(f)
    spent: set[str] = set()
    for lbl, i in dead:
        spent.update(op.name for op in blocks[lbl][i].operands if isinstance(op, ValueRef))
        blocks[lbl][i] = None
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
