import signal
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from itertools import count
from pathlib import Path

import pytest
from hypothesis import strategies as st

from bidiropt import ir
from bidiropt.analysis import (
    compute_dominators,
    dominance_frontiers,
    find_natural_loops,
    use_def,
)
from bidiropt.cost import DEFAULT_COST_MODEL, CostModel
from bidiropt.interp import (
    DEFAULT_STEP_LIMIT,
    ExecResult,
    LoweredFunction,
    WorkloadDiverged,
    default_workload,
    interpret,
    load_workload,
)
from bidiropt.ir import (
    BINOPS,
    MASK32,
    BasicBlock,
    Function,
    Instruction,
    Literal,
    Operand,
    ValueRef,
    canonical_hash,
    canonical_text,
    defined_values,
    fresh_names,
    parse_function,
    predecessors,
    resolve,
    rpo_instrs,
    rpo_order,
    successors,
)
from bidiropt.passes import (
    FORWARD_PASSES,
    PassOutcome,
    _drop_incomings,
    _emit_linear,
    _fold_binop,
    _linearize,
    apply_pass,
    edit,
    erasable,
    freeze,
    licm_movable,
    tree_roots,
)
from bidiropt.reverse import REVERSE_PASSES, reverse_variants

ROOT = Path(__file__).resolve().parent.parent
VALID = ROOT / "corpus" / "valid"
INVALID = ROOT / "corpus" / "invalid"
WORKLOADS = ROOT / "corpus" / "workloads"

VALID_FILES = sorted(VALID.glob("*.ir"))
INVALID_FILES = sorted(INVALID.glob("*.ir"))
REGRESS_FILES = sorted((ROOT / "corpus" / "regress").glob("*.ir"))

# const-fold's two hard shapes: a condbr on a literal that drops the only
# incoming of a phi, which is left with none; and a fold in one unreachable
# block that feeds a fold in another block earlier in f's order.
CONST_FOLD_WITNESSES = {
    "empty-phi": ("func @f(%p) {\nentry:\n  condbr 1, a, b\na:\n  ret %p\n"
                  "b:\n  %f = phi [%p, entry]\n  ret %f\n}\n"),
    "fold-feeds-an-earlier-block": ("func @f(%p) {\nentry:\n  ret %p\n"
                                    "u1:\n  %w = add %v, 1\n  ret %w\n"
                                    "u2:\n  %v = add 1, 2\n  br u1\n}\n"),
}
# The text of every corpus function and const-fold witness, by name.
CORPUS_AND_WITNESSES = [
    *(pytest.param(p.read_text(), id=f"{p.parent.name}/{p.stem}")
      for p in VALID_FILES + REGRESS_FILES),
    *(pytest.param(text, id=name) for name, text in CONST_FOLD_WITNESSES.items())]


def load(name, directory=VALID):
    return parse_function((directory / f"{name}.ir").read_text())


def workload_for(f, count=200, seed=0):
    """Curated workload when one exists, else a seeded random one.

    The curated files keep loop trip counts small so differential runs do
    not burn the step budget on every case.
    """
    p = WORKLOADS / f"{f.name}.json"
    if p.exists():
        return load_workload(p, f.name)
    return default_workload(f, seed=seed, count=count)


def eval_straightline(f, args):
    """Concrete per-value environment for single-block functions.

    Returns None for multi-block functions or when a binop traps. Used as
    an oracle against known-bits claims and interpreter results.
    """
    if len(f.blocks) != 1:
        return None
    env = dict(zip(f.params, (a & 0xFFFFFFFF for a in args)))
    mem = {}

    def val(op):
        return op.value if isinstance(op, Literal) else env[op.name]

    for ins in f.blocks[0].instrs[:-1]:
        if ins.opcode == "alloca":
            mem[ins.result] = 0
        elif ins.opcode == "store":
            mem[ins.operands[1].name] = val(ins.operands[0])
        elif ins.opcode == "load":
            env[ins.result] = mem[ins.operands[0].name]
        elif ins.opcode == "select":
            c, a, b = (val(op) for op in ins.operands)
            env[ins.result] = a if c != 0 else b
        else:
            v, err = reference_binop(ins.opcode, val(ins.operands[0]), val(ins.operands[1]))
            if err is not None:
                return None
            env[ins.result] = v
    return env


_REF_UNINIT = object()


def reference_binop(opcode: str, a: int, b: int) -> tuple[int | None, str | None]:
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


def reference_interpret(
    f: Function,
    args: tuple[int, ...] | list[int],
    limit: int = DEFAULT_STEP_LIMIT,
    model: CostModel | None = None,
) -> ExecResult:
    """The tree-walking interpreter that interp.interpret replaced, kept as
    the oracle the lowered interpreter must match result for result. It
    also counts the runs of each block of a returned run (ExecResult.blocks)."""
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
    position = {b.label: i for i, b in enumerate(f.blocks)}
    counts = [0] * len(f.blocks)

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
            if ins.is_terminator:
                counts[position[cur.label]] += 1
            if op == "ret":
                return ExecResult("returned", value=val(ins.operands[0]),
                                  steps=steps, dynamic_cost=cost, blocks=tuple(counts))
            if op == "br":
                prev, cur = cur.label, index[ins.labels[0]]
                break
            if op == "condbr":
                taken = ins.labels[0] if val(ins.operands[0]) != 0 else ins.labels[1]
                prev, cur = cur.label, index[taken]
                break
            if op == "alloca":
                cells.append(_REF_UNINIT)
                env[ins.result] = len(cells) - 1
            elif op == "load":
                cell = cells[val(ins.operands[0])]
                if cell is _REF_UNINIT:
                    return ExecResult("trapped", reason="UninitLoad",
                                      steps=steps, dynamic_cost=cost)
                env[ins.result] = cell  # type: ignore[assignment]
            elif op == "store":
                cells[val(ins.operands[1])] = val(ins.operands[0])
            elif op == "select":
                c, t, e = (val(o) for o in ins.operands)
                env[ins.result] = t if c != 0 else e
            else:
                res, trap = reference_binop(op, val(ins.operands[0]), val(ins.operands[1]))
                if trap is not None:
                    return ExecResult("trapped", reason=trap,
                                      steps=steps, dynamic_cost=cost)
                env[ins.result] = res


def reference_dynamic_cost_total(f: Function, workload, limit: int = DEFAULT_STEP_LIMIT,
                                 model: CostModel | None = None) -> int:
    """interp.dynamic_cost_total as it was before it measured control slices:
    f itself, lowered once and run on every row. Kept as the oracle the
    slice measurement must match total for total and divergence for
    divergence."""
    total = 0
    lowered = LoweredFunction(f, model)
    for args in workload.args:
        r = interpret(f, args, limit=limit, model=model, lowered=lowered)
        if r.outcome != "returned":
            raise WorkloadDiverged(tuple(args), r)
        total += r.dynamic_cost
    return total


def reference_use_counts(blocks: dict[str, list[Instruction | None]]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for instrs in blocks.values():
        for ins in instrs:
            if ins is None:
                continue
            for op in ins.operands:
                if isinstance(op, ValueRef):
                    counts[op.name] = counts.get(op.name, 0) + 1
    return counts


def reference_erase_dead(blocks: dict[str, list[Instruction | None]], seeds: set[str]) -> bool:
    """passes._erase_dead as it was before it counted uses once: each round
    recounts every use in the working form. Kept as the oracle the
    decrementing sweep must match slot for slot."""
    worklist = set(seeds)
    erased = False
    while worklist:
        counts = reference_use_counts(blocks)
        progressed = False
        for lbl, instrs in blocks.items():
            for i, ins in enumerate(instrs):
                if ins is None or ins.result not in worklist:
                    continue
                if counts.get(ins.result, 0) == 0 and erasable(ins):
                    instrs[i] = None
                    worklist.discard(ins.result)
                    for op in ins.operands:
                        if isinstance(op, ValueRef):
                            worklist.add(op.name)
                    progressed = erased = True
        if not progressed:
            break
    return erased


def reference_rewrite_tree(f: Function, ud, root_name: str, counter) -> Function | None:
    """passes._rewrite_tree as it was before it learned to recognize a tree
    already in place: it always builds the candidate and compares canonical
    hashes. Kept as the oracle the shortcut must match call for call."""
    root = ud.instrs.get(root_name)
    if root is None:
        return None
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
    lbl, i = ud.defs[root_name]
    blocks = edit(f)
    blocks[lbl][i:i + 1] = emitted
    candidate = freeze(f, blocks, {root_name: acc})
    blocks = edit(candidate)
    reference_erase_dead(blocks, set(absorbed))
    candidate = freeze(candidate, blocks)
    return None if canonical_hash(candidate) == canonical_hash(f) else candidate


def reference_reassociate_rewrites(f: Function, name: str) -> bool:
    """The old passes.reassociate_rewrites: whether reassociate rewrites the
    add/sub tree that holds value name, found by building its candidate."""
    ud = use_def(f)
    for root, absorbed in tree_roots(f):
        if name == root or name in absorbed:
            return reference_rewrite_tree(f, ud, root, count()) is not None
    return False


def reference_reassociate_sites(f: Function) -> list[Function]:
    """The variant of every rev-reassociate site of f, in site order, by the
    rule it used before it decided sites from f: build each operand swap and
    each rotation of a nested single-use add, and keep the ones in whose tree
    reference_reassociate_rewrites finds a rewrite. Kept as the oracle the
    rule that decides from f must match site for site."""
    ud = use_def(f)

    def single_use_add(op: Operand) -> Instruction | None:
        if not isinstance(op, ValueRef) or ud.use_count(op.name) != 1:
            return None
        ins = ud.instrs.get(op.name)
        return ins if ins is not None and ins.opcode == "add" else None

    sites = []
    for lbl, i, ins in rpo_instrs(f):
        if ins.opcode != "add":
            continue
        a, b = ins.operands
        candidates = [(None, [replace(ins, operands=(b, a))])]
        (tn,) = fresh_names(f, "x", 1)
        inner = single_use_add(a)
        if inner is not None:
            p, q = inner.operands
            candidates.append((ud.defs[inner.result], [
                Instruction(tn, "add", (q, b)),
                Instruction(ins.result, "add", (p, ValueRef(tn)))]))
        inner = single_use_add(b)
        if inner is not None:
            p, q = inner.operands
            candidates.append((ud.defs[inner.result], [
                Instruction(tn, "add", (a, p)),
                Instruction(ins.result, "add", (ValueRef(tn), q))]))
        for site, new in candidates:
            blocks = edit(f)
            if site is not None:
                blocks[site[0]][site[1]] = None
            blocks[lbl][i:i + 1] = new
            g = freeze(f, blocks)
            if reference_reassociate_rewrites(g, ins.result):
                sites.append(g)
    return sites


def reference_promotable_allocas(f: Function) -> list[str]:
    ud = use_def(f)
    reach = set(rpo_order(f))
    index = {b.label: b for b in f.blocks}
    out = []
    for lbl, i, ins in rpo_instrs(f):
        if ins.opcode != "alloca":
            continue
        ok = True
        for ulbl, ui, uj in ud.uses.get(ins.result, ()):
            if ulbl not in reach:
                ok = False  # the rename walk only covers reachable blocks
                break
            user = index[ulbl].instrs[ui]
            if not ((user.opcode == "load" and uj == 0) or (user.opcode == "store" and uj == 1)):
                ok = False  # address escapes
                break
            if user.opcode == "store":
                v = user.operands[0]
                if isinstance(v, ValueRef):
                    vdef = ud.instrs.get(v.name)
                    if vdef is not None and vdef.opcode == "alloca":
                        ok = False  # cell would hold an address; keep kinds intact
                        break
        if ok:
            out.append(ins.result)
    return out


def reference_promote_one(f: Function, p: str) -> Function | None:
    """f with cell p promoted, or None when a load may read p before any
    store (that load traps, and promotion would turn the trap into a value)."""
    dt = compute_dominators(f)
    index = {b.label: b for b in f.blocks}

    loads: dict[str, list[int]] = {}
    stores: dict[str, list[int]] = {}
    for lbl, i, ins in rpo_instrs(f):
        if ins.opcode == "alloca" and ins.result == p:
            home = lbl
        elif ins.opcode == "load" and ins.operands[0] == ValueRef(p):
            loads.setdefault(lbl, []).append(i)
        elif ins.opcode == "store" and ins.operands[1] == ValueRef(p):
            stores.setdefault(lbl, []).append(i)

    # liveness: does the cell's value flow into a load not preceded by a store?
    gen = set()
    kill = set(stores)
    for lbl, idxs in loads.items():
        first_store = min(stores.get(lbl, [1 << 30]))
        if min(idxs) < first_store:
            gen.add(lbl)
    live_in = set(gen)
    while True:
        grew = False
        for lbl in dt.rpo:
            if lbl not in live_in and lbl not in kill:
                if any(s in live_in for s in successors(index[lbl])):
                    live_in.add(lbl)
                    grew = True
        if not grew:
            break
    # every load of p runs after its alloca (dominance), so a load may read
    # the cell uninitialized exactly when it is live into the alloca's block
    if home in live_in:
        return None

    # pruned SSA: phis at the iterated dominance frontier, where live
    df = dominance_frontiers(f)
    phiblocks: set[str] = set()
    work = list(stores)
    while work:
        x = work.pop()
        for y in sorted(df.get(x, ())):
            if y not in phiblocks and y in live_in:
                phiblocks.add(y)
                work.append(y)

    phi_order = [l for l in dt.rpo if l in phiblocks]
    names = fresh_names(f, f"{p}_", len(phi_order))
    phi_name = dict(zip(phi_order, names))
    phi_incoming: dict[str, dict[str, Operand]] = {lbl: {} for lbl in phi_order}

    blocks = edit(f)
    subst: dict[str, Operand] = {}

    def walk(lbl: str, stack: list[Operand]) -> None:
        depth = len(stack)
        if lbl in phi_name:
            stack.append(ValueRef(phi_name[lbl]))
        for i, ins in enumerate(index[lbl].instrs):
            if ins.opcode == "load" and ins.operands[0] == ValueRef(p):
                subst[ins.result] = stack[-1]
                blocks[lbl][i] = None
            elif ins.opcode == "store" and ins.operands[1] == ValueRef(p):
                stack.append(resolve(ins.operands[0], subst))
                blocks[lbl][i] = None
            elif ins.opcode == "alloca" and ins.result == p:
                blocks[lbl][i] = None
        for s in successors(index[lbl]):
            if s in phi_incoming:
                phi_incoming[s][lbl] = stack[-1]
        for child in dt.children[lbl]:
            walk(child, stack)
        del stack[depth:]

    walk(dt.rpo[0], [])

    preds = predecessors(f)
    for lbl in phi_order:
        inc = phi_incoming[lbl]
        # an unreachable predecessor's edge never runs, so any operand will do
        ops = tuple(inc.get(q, Literal(0)) for q in preds[lbl])
        phi = Instruction(phi_name[lbl], "phi", ops, tuple(preds[lbl]))
        instrs = blocks[lbl]
        at = 0
        for at, ins in enumerate(instrs):
            if ins is None or not ins.is_phi:
                break
        instrs.insert(at, phi)

    return freeze(f, blocks, subst)


def reference_mem2reg(f: Function) -> PassOutcome:
    """passes.apply_mem2reg as it was before it promoted every cell in one
    sweep: promote one cell, freeze, rescan, each cell with its own liveness
    fixpoint. Kept, with reference_promotable_allocas and
    reference_promote_one, as the oracle the one-sweep pass must match."""
    changed = False
    while True:
        for p in reference_promotable_allocas(f):
            g = reference_promote_one(f, p)
            if g is not None:
                f, changed = g, True
                break
        else:
            return PassOutcome(changed, f)


def reference_to_fixpoint(step, f: Function) -> PassOutcome:
    """passes._to_fixpoint: apply step, which makes one rewrite and returns
    the new Function or None when it finds nothing, until it finds nothing."""
    g = f
    while (h := step(g)) is not None:
        g = h
    return PassOutcome(g is not f, g)


def _const_fold_step(f: Function) -> Function | None:
    blocks = None
    subst: dict[str, Operand] = {}
    for b in f.blocks:
        for i, ins in enumerate(b.instrs):
            if ins.opcode in BINOPS and all(isinstance(o, Literal) for o in ins.operands):
                val = _fold_binop(ins.opcode, ins.operands[0].value, ins.operands[1].value)
                if val is None:
                    continue
                blocks = blocks or edit(f)
                subst[ins.result] = Literal(val)
                blocks[b.label][i] = None
            elif ins.opcode == "condbr" and isinstance(ins.operands[0], Literal):
                blocks = blocks or edit(f)
                taken = ins.labels[0] if ins.operands[0].value != 0 else ins.labels[1]
                dropped = ins.labels[1] if taken == ins.labels[0] else ins.labels[0]
                blocks[b.label][i] = Instruction(None, "br", (), (taken,))
                if dropped != taken:
                    _drop_incomings(blocks[dropped], {b.label})
    return freeze(f, blocks, subst) if blocks else None


def reference_const_fold(f: Function) -> PassOutcome:
    """passes.apply_const_fold as it was before it reached its fixpoint in
    one working form: one sweep over f's blocks folds binops over two
    literals and condbr on a literal, then freezes, and the next sweep sees
    the folded values as literals. Kept, with the three below, as the oracle
    the one-sweep passes must match output for output."""
    return reference_to_fixpoint(_const_fold_step, f)


def _divmul_step(f: Function) -> Function | None:
    ud = None
    for lbl, i, ins in rpo_instrs(f):
        if ins.opcode != "sub" or not isinstance(ins.operands[1], ValueRef):
            continue
        ud = ud or use_def(f)
        x, uref = ins.operands
        mul = ud.instrs.get(uref.name)
        if mul is None or mul.opcode != "mul" or ud.use_count(uref.name) != 1:
            continue
        ma, mb = mul.operands
        if isinstance(ma, Literal) and isinstance(mb, ValueRef):
            ma, mb = mb, ma
        if not (isinstance(ma, ValueRef) and isinstance(mb, Literal) and mb.value >= 1):
            continue
        div = ud.instrs.get(ma.name)
        if div is None or div.opcode != "udiv" or div.operands != (x, mb):
            continue
        blocks = edit(f)
        blocks[lbl][i] = Instruction(ins.result, "urem", (x, mb))
        reference_erase_dead(blocks, {uref.name, ma.name})
        return freeze(f, blocks)
    return None


def reference_divmul_to_rem(f: Function) -> PassOutcome:
    """passes.apply_divmul_to_rem as it was: rewrite the first site in RPO,
    freeze, rebuild use_def, look again."""
    return reference_to_fixpoint(_divmul_step, f)


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
        reference_erase_dead(blocks, spent)
        return freeze(f, blocks)

    # drop unreachable blocks, trimming phi incomings from removed preds
    reach = set(rpo_order(f))
    if len(reach) < len(f.blocks):
        order = [b.label for b in f.blocks if b.label in reach]
        gone = set(blocks) - reach
        for lbl in order:
            _drop_incomings(blocks[lbl], gone)
        return freeze(f, {lbl: blocks[lbl] for lbl in order})

    # merge B -> C when B ends with `br C` and C has no other predecessor
    preds = predecessors(f)
    for b in f.blocks:
        last = b.instrs[-1]
        if last.opcode != "br" or last.labels[0] == b.label or preds[last.labels[0]] != (b.label,):
            continue
        cblk = f.block(last.labels[0])
        subst = {ins.result: ins.operands[0] for ins in cblk.phis}
        blocks[b.label] = list(b.instrs[:-1]) + list(cblk.instrs[len(cblk.phis):])
        del blocks[cblk.label]
        for t in successors(cblk):
            for j, ins in enumerate(blocks[t]):
                if ins is not None and ins.is_phi and cblk.label in ins.labels:
                    blocks[t][j] = replace(ins, labels=tuple(
                        b.label if l == cblk.label else l for l in ins.labels))
        return freeze(f, blocks, subst)
    return None


def reference_simplifycfg(f: Function) -> PassOutcome:
    """passes.apply_simplifycfg as it was: one rewrite a step (every condbr
    L, L at once, then every unreachable block at once, then one merge),
    each step on a fresh rpo_order and predecessors."""
    return reference_to_fixpoint(_simplifycfg_step, f)


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


def reference_licm(f: Function) -> PassOutcome:
    """passes.apply_licm as it was: hoist the first movable instruction of
    the innermost loop that has one, freeze, find the loops again."""
    return reference_to_fixpoint(_licm_step, f)


# The fixpoint passes by name, each with the oracle it must match.
REFERENCE_PASSES = {
    "const-fold": reference_const_fold,
    "divmul-to-rem": reference_divmul_to_rem,
    "simplifycfg": reference_simplifycfg,
    "licm": reference_licm,
}


def reference_dse(f: Function) -> PassOutcome:
    """passes.apply_dse as it was before it asked analysis.live_cells: a
    forward CFG walk from each store that is not decided in its own block.
    Kept as the oracle the liveness-based pass must match."""
    index = {b.label: b for b in f.blocks}
    alloca_names = [ins.result for _, _, ins in rpo_instrs(f) if ins.opcode == "alloca"]
    blocks = edit(f)
    spent: set[str] = set()
    changed = False
    for p in alloca_names:
        pref = ValueRef(p)

        def first_access(lbl: str) -> str | None:
            for ins in index[lbl].instrs:
                if ins.opcode == "load" and ins.operands[0] == pref:
                    return "load"
                if ins.opcode == "store" and ins.operands[1] == pref:
                    return "store"
            return None

        for lbl in rpo_order(f):
            instrs = index[lbl].instrs
            for i, ins in enumerate(instrs):
                if ins.opcode != "store" or ins.operands[1] != pref:
                    continue
                live = False
                overwritten = False
                for later in instrs[i + 1:]:
                    if later.opcode == "load" and later.operands[0] == pref:
                        live = True
                        break
                    if later.opcode == "store" and later.operands[1] == pref:
                        overwritten = True
                        break
                if not live and not overwritten:
                    # scan forward through the CFG for a load of p; a store on
                    # the way kills the path
                    seen: set[str] = set()
                    work = list(successors(index[lbl]))
                    while work:
                        s = work.pop()
                        if s in seen:
                            continue
                        seen.add(s)
                        acc = first_access(s)
                        if acc == "load":
                            live = True
                            break
                        if acc is None:
                            work.extend(successors(index[s]))
                if not live:
                    blocks[lbl][i] = None
                    for op in ins.operands:
                        if isinstance(op, ValueRef):
                            spent.add(op.name)
                    changed = True
    if not changed:
        return PassOutcome(False, f)
    reference_erase_dead(blocks, spent)
    return PassOutcome(True, freeze(f, blocks))


def same_modulo_name(f, g):
    """Canonical equality ignoring the function name.

    Canonical text deliberately includes the name, so cross-fixture
    comparisons rename both sides first.
    """
    return canonical_text(replace(f, name="x")) == canonical_text(replace(g, name="x"))


def rename_values(f, mapping):
    """Alpha-rename values (defs and uses); names absent from mapping are kept."""
    def newname(n):
        return mapping.get(n, n)

    blocks = []
    for b in f.blocks:
        instrs = []
        for ins in b.instrs:
            ops = tuple(
                ValueRef(newname(o.name)) if isinstance(o, ValueRef) else o
                for o in ins.operands
            )
            res = newname(ins.result) if ins.result is not None else None
            instrs.append(replace(ins, result=res, operands=ops))
        blocks.append(BasicBlock(b.label, tuple(instrs)))
    return Function(f.name, tuple(newname(p) for p in f.params), tuple(blocks))


def rename_blocks(f, mapping):
    """Rename blocks (labels and every reference to them); labels absent from
    mapping are kept."""
    def newlbl(l):
        return mapping.get(l, l)

    blocks = tuple(
        BasicBlock(newlbl(b.label), tuple(
            replace(ins, labels=tuple(newlbl(l) for l in ins.labels)) for ins in b.instrs))
        for b in f.blocks)
    return Function(f.name, f.params, blocks)


def all_reverse_variants(f, cap=None):
    """Every variant of f under every reverse pass, in REVERSE_PASSES order."""
    return tuple(v for name in REVERSE_PASSES for v in reverse_variants(name, f, cap=cap))


def reference_touched(parent, child):
    """The touched set of the rewrite from parent to child, by instruction
    diff: the result and the value operands of every instruction that is in
    one program and not the other, counted as multisets, so an instruction
    moved unchanged drops out."""
    a = Counter(ins for b in parent.blocks for ins in b.instrs)
    b = Counter(ins for b in child.blocks for ins in b.instrs)
    names = set()
    for ins in (a - b) + (b - a):
        if ins.result is not None:
            names.add(ins.result)
        names.update(op.name for op in ins.operands if isinstance(op, ValueRef))
    return frozenset(names)


def one_step_neighbours(f):
    """Distinct programs one forward pass or one reverse variant away from f."""
    out = {}
    for name in FORWARD_PASSES:
        r = apply_pass(name, f)
        if r.changed:
            out.setdefault(canonical_hash(r.function), r.function)
    for v in all_reverse_variants(f):
        out.setdefault(canonical_hash(v.function), v.function)
    return list(out.values())


def reference_print(f):
    """The textual form, one opcode at a time and apart from ir's printer,
    so that the printer is never checked against itself."""
    def op(o):
        return f"%{o.name}" if isinstance(o, ValueRef) else str(o.value)

    def line(ins):
        if ins.opcode == "phi":
            inc = ", ".join(f"[{op(v)}, {lbl}]" for v, lbl in zip(ins.operands, ins.labels))
            return f"%{ins.result} = phi {inc}"
        if ins.opcode == "alloca":
            return f"%{ins.result} = alloca"
        if ins.opcode == "store":
            return f"store {op(ins.operands[0])}, {op(ins.operands[1])}"
        if ins.opcode == "ret":
            return f"ret {op(ins.operands[0])}"
        if ins.opcode == "br":
            return f"br {ins.labels[0]}"
        if ins.opcode == "condbr":
            return f"condbr {op(ins.operands[0])}, {ins.labels[0]}, {ins.labels[1]}"
        return f"%{ins.result} = {ins.opcode} {', '.join(map(op, ins.operands))}"

    lines = [f"func @{f.name}({', '.join('%' + p for p in f.params)}) {{"]
    for b in f.blocks:
        lines.append(f"{b.label}:")
        lines.extend(f"  {line(ins)}" for ins in b.instrs)
    return "\n".join(lines + ["}"]) + "\n"


def reference_canonical_text(f):
    """The canonical form built the long way, with its own block order and
    value numbering, so the printer's numbering rule is checked too: blocks
    in reverse postorder of a recursive DFS from the entry, unreachable ones
    after in f's order; values numbered params first, then each result at
    its first definition in that order; rename, then print
    (reference_print). ir.canonical_text must match it byte for byte."""
    index = {b.label: b for b in f.blocks}
    seen, post = set(), []

    def visit(lbl):
        seen.add(lbl)
        last = index[lbl].instrs[-1:]
        for s in last[0].labels if last and last[0].is_terminator else ():
            if s in index and s not in seen:
                visit(s)
        post.append(lbl)

    if f.blocks:
        visit(f.blocks[0].label)
    order = post[::-1] + [b.label for b in f.blocks if b.label not in seen]
    bnum = {lbl: i for i, lbl in enumerate(order)}
    blocks = sorted(f.blocks, key=lambda b: bnum[b.label])
    vnum = {}
    for p in f.params:
        vnum[p] = len(vnum)
    for b in blocks:
        for ins in b.instrs:
            if ins.result is not None and ins.result not in vnum:
                vnum[ins.result] = len(vnum)
    g = rename_values(Function(f.name, f.params, tuple(blocks)),
                      {name: f"v{i}" for name, i in vnum.items()})
    return reference_print(rename_blocks(g, {lbl: f"b{i}" for lbl, i in bnum.items()}))


def fresh(f):
    """An equal Function with no memoized canonical text or digest."""
    return Function(f.name, f.params, f.blocks)


@contextmanager
def canonical_prints():
    """The Functions ir's printer prints in canonical form while open: every
    canonical text or digest of a fresh object is one such print."""
    printed = []
    real = ir._print

    def counted(g, canonical):
        if canonical:
            printed.append(g)
        return real(g, canonical)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ir, "_print", counted)
        yield printed


OPS2 = ("add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "udiv", "urem",
        "icmp.eq", "icmp.ne", "icmp.ult", "icmp.ule")


@st.composite
def straightline(draw):
    """Text of a random single-block program over one or two parameters."""
    n_params = draw(st.integers(1, 2))
    n_instrs = draw(st.integers(1, 10))
    params = [f"p{i}" for i in range(n_params)]
    avail = list(params)
    lines = [f"func @gen({', '.join('%' + p for p in params)}) {{", "entry:"]
    lits = st.one_of(st.integers(0, 7), st.integers(0, 31),
                     st.sampled_from([0, 1, 2, 255, 0xFFFFFFFF]))

    def operand():
        if draw(st.booleans()):
            return f"%{draw(st.sampled_from(avail))}"
        return str(draw(lits))

    for i in range(n_instrs):
        name = f"v{i}"
        if draw(st.integers(0, 9)) == 0:
            c, a, b = operand(), operand(), operand()
            lines.append(f"  %{name} = select {c}, {a}, {b}")
        else:
            op = draw(st.sampled_from(OPS2))
            lines.append(f"  %{name} = {op} {operand()}, {operand()}")
        avail.append(name)
    lines.append(f"  ret %{avail[-1]}")
    lines.append("}")
    return "\n".join(lines) + "\n"


# The blocks of each memory_cfg shape, in order; each block lists the blocks
# that dominate it, whose values it may use.
SHAPES = {
    "line": {"entry": ()},
    "diamond": {"entry": (), "left": ("entry",), "right": ("entry",),
                "join": ("entry",)},
    "loop": {"entry": (), "head": ("entry",), "body": ("entry", "head"),
             "exit": ("entry", "head")},
}
CELL_NAMES = ("a", "b", "a_0", "b_1")


@st.composite
def memory_cfg(draw):
    """Text of a random program over parameter %p with 1-3 alloca cells: a
    straight line, a diamond, or a loop that runs `and %p, 7` times. Loads
    and stores land in random blocks, so a load may come before any store
    (and trap), and some loads are named {cell}_{i}, the names mem2reg gives
    its phis."""
    shape = draw(st.sampled_from(sorted(SHAPES)))
    cells = draw(st.lists(st.sampled_from(CELL_NAMES), min_size=1, max_size=3, unique=True))
    taken = {"p", "n", "i", "i1", "c", *cells}
    scope = {lbl: [] for lbl in SHAPES[shape]}
    body = {lbl: [] for lbl in SHAPES[shape]}
    body["entry"] = [f"  %{c} = alloca" for c in cells]
    body["entry"] += [f"  store {draw(st.integers(0, 9))}, %{c}"
                      for c in cells if draw(st.booleans())]
    if shape == "loop":
        scope["head"].append("i")
    for lbl, doms in SHAPES[shape].items():
        for _ in range(draw(st.integers(0, 4))):
            avail = ["p"] + [v for d in doms for v in scope[d]] + scope[lbl]
            cell = draw(st.sampled_from(cells))
            if draw(st.booleans()):
                value = draw(st.one_of(st.sampled_from(avail).map(lambda v: f"%{v}"),
                                       st.integers(0, 9).map(str)))
                body[lbl].append(f"  store {value}, %{cell}")
                continue
            name = draw(st.sampled_from([f"{c}_{i}" for c in cells for i in range(2)]
                                        + [f"v{len(taken)}"]))
            if name in taken:
                name = f"v{len(taken)}"
            taken.add(name)
            body[lbl].append(f"  %{name} = load %{cell}")
            if draw(st.booleans()):
                body[lbl].append(f"  %{name}_x = add %{name}, {draw(st.integers(1, 5))}")
                taken.add(f"{name}_x")
                name = f"{name}_x"
            scope[lbl].append(name)
    last = list(SHAPES[shape])[-1]
    result = "p"
    for k, v in enumerate(scope["entry"] + (scope[last] if last != "entry" else [])):
        body[last].append(f"  %r{k} = xor %{result}, %{v}")
        result = f"r{k}"
    ret = [f"  ret %{result}"]
    if shape == "line":
        body["entry"] += ret
    elif shape == "diamond":
        body["entry"] += ["  %c = icmp.ult %p, 5", "  condbr %c, left, right"]
        body["left"] += ["  br join"]
        body["right"] += ["  br join"]
        body["join"] += ret
    else:
        body["entry"] += ["  %n = and %p, 7", "  br head"]
        body["head"][:0] = ["  %i = phi [0, entry], [%i1, body]"]
        body["head"] += ["  %c = icmp.ult %i, %n", "  condbr %c, body, exit"]
        body["body"] += ["  %i1 = add %i, 1", "  br head"]
        body["exit"] += ret
    lines = ["func @gen(%p) {"]
    for lbl, instrs in body.items():
        lines += [f"{lbl}:", *instrs]
    return "\n".join(lines + ["}"]) + "\n"


@st.composite
def cfg_program(draw):
    """Text of a random program over %p and %q with 2-9 blocks and random
    br/condbr targets, so back edges, br chains and unreachable blocks all
    come up; a condition is computed or a literal 0 or 1. Each block with
    predecessors opens with one phi, one incoming per predecessor. A
    reachable block uses the values of the blocks that dominate it; an
    unreachable one also those of every reachable block and of every later
    block, so a use may come before its definition but never in a cycle.
    Some instructions are a `sub x, (mul (udiv x, c), c)` triple, the site
    of divmul-to-rem."""
    n = draw(st.integers(2, 9))
    labels = ["entry", *(f"b{i}" for i in range(1, n))]

    def target(i):
        if i + 1 < n and draw(st.booleans()):
            return labels[i + 1]  # the next block, so br chains are common
        return draw(st.sampled_from(labels[1:]))  # never the entry

    arity = {"ret": 0, "br": 1, "condbr": 2}
    ends = []
    for i in range(n):
        kind = draw(st.sampled_from(("ret", "br", "br", "condbr")))
        ends.append((kind, tuple(target(i) for _ in range(arity[kind]))))
    skeleton = Function("gen", ("p",), tuple(
        BasicBlock(lbl, (Instruction(None, kind, (Literal(0),) if kind != "br" else (), targets),))
        for lbl, (kind, targets) in zip(labels, ends)))
    preds = predecessors(skeleton)
    dt = compute_dominators(skeleton)

    # each block's phi, then its instructions: a binop, or a divmul triple
    triples = [[draw(st.integers(0, 5)) == 0 for _ in range(draw(st.integers(0, 3)))]
               for _ in labels]
    values = []
    for i, slots in enumerate(triples):
        names = [f"h{i}"] if preds[labels[i]] else []
        for k, triple in enumerate(slots):
            names += [f"q{i}_{k}", f"m{i}_{k}", f"v{i}_{k}"] if triple else [f"v{i}_{k}"]
        values.append(names)

    def pool(i):
        """The values a block may use before any of its own."""
        lbl = labels[i]
        if lbl in dt.idom:
            return ["p", "q", *(v for j, other in enumerate(labels)
                                if other != lbl and other in dt.idom and dt.dominates(other, lbl)
                                for v in values[j])]
        return ["p", "q", *(v for j, other in enumerate(labels)
                            if other in dt.idom or j > i for v in values[j])]

    lits = st.sampled_from(["0", "1", "2", "3", "7", "255"])

    def operand(avail):
        return f"%{draw(st.sampled_from(avail))}" if draw(st.booleans()) else draw(lits)

    lines = ["func @gen(%p, %q) {"]
    for i, lbl in enumerate(labels):
        lines.append(f"{lbl}:")
        avail = pool(i)
        if preds[lbl]:
            incomings = []
            for pred in preds[lbl]:
                j = labels.index(pred)
                incomings.append(f"[{operand(pool(j) + values[j])}, {pred}]")
            lines.append(f"  %h{i} = phi {', '.join(incomings)}")
            avail = avail + [f"h{i}"]
        for k, triple in enumerate(triples[i]):
            if triple:
                x, c = operand(avail), draw(st.sampled_from(["1", "3", "10"]))
                lines += [f"  %q{i}_{k} = udiv {x}, {c}", f"  %m{i}_{k} = mul %q{i}_{k}, {c}",
                          f"  %v{i}_{k} = sub {x}, %m{i}_{k}"]
                avail = avail + [f"q{i}_{k}", f"m{i}_{k}"]
            else:
                op = draw(st.sampled_from(OPS2))
                lines.append(f"  %v{i}_{k} = {op} {operand(avail)}, {operand(avail)}")
            avail = avail + [f"v{i}_{k}"]
        kind, targets = ends[i]
        if kind == "ret":
            lines.append(f"  ret {operand(avail)}")
        elif kind == "br":
            lines.append(f"  br {targets[0]}")
        else:
            cond = draw(st.sampled_from(["0", "1", None]))
            if cond is None:
                op = draw(st.sampled_from(["icmp.eq", "icmp.ne", "icmp.ult"]))
                lines.append(f"  %c{i} = {op} {operand(avail)}, {operand(avail)}")
                cond = f"%c{i}"
            lines.append(f"  condbr {cond}, {targets[0]}, {targets[1]}")
    return "\n".join(lines + ["}"]) + "\n"


@pytest.fixture(params=[p.stem for p in VALID_FILES])
def corpus_function(request):
    return load(request.param)


# Each test must finish within this many seconds, so a run that loses its
# step budget fails instead of hanging; at least 4x the slowest test's time.
WATCHDOG_S = 60


class WatchdogExpired(BaseException):
    """A test ran past WATCHDOG_S. Not an Exception, so neither hypothesis
    nor the CLI's error handling mistakes it for the test's own failure."""


@pytest.fixture(autouse=True)
def watchdog():
    """Raise WatchdogExpired in the main thread once the test has run
    WATCHDOG_S seconds. The handler runs between bytecodes, so it also cuts
    a loop in lowered code."""
    def expire(signum, frame):
        raise WatchdogExpired(f"test ran past {WATCHDOG_S} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, WATCHDOG_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running end-to-end checks")


# test_acceptance appends one line per criterion; echoed after the run so the
# verdicts are visible even with output capture on.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def run_cli(*argv):
    """Invoke the CLI in-process; returns (exit_code, stdout_text)."""
    import io
    from contextlib import redirect_stdout

    from bidiropt.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as e:  # argparse usage errors
            code = int(e.code or 0)
    return code, buf.getvalue()
