from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import strategies as st

from bidiropt.cost import DEFAULT_COST_MODEL, CostModel
from bidiropt.interp import DEFAULT_STEP_LIMIT, ExecResult, default_workload, load_workload
from bidiropt.ir import (
    MASK32,
    BasicBlock,
    Function,
    Literal,
    Operand,
    ValueRef,
    block_order_with_unreachable,
    canonical_hash,
    canonical_text,
    parse_function,
    print_function,
    value_order,
)
from bidiropt.passes import (
    FORWARD_PASSES,
    _emit_linear,
    _erase_dead,
    _linearize,
    apply_pass,
    edit,
    freeze,
)
from bidiropt.reverse import REVERSE_PASSES, reverse_variants

ROOT = Path(__file__).resolve().parent.parent
VALID = ROOT / "corpus" / "valid"
INVALID = ROOT / "corpus" / "invalid"
WORKLOADS = ROOT / "corpus" / "workloads"

VALID_FILES = sorted(VALID.glob("*.ir"))
INVALID_FILES = sorted(INVALID.glob("*.ir"))


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
    the oracle the lowered interpreter must match result for result."""
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
            if op == "ret":
                return ExecResult("returned", value=val(ins.operands[0]),
                                  steps=steps, dynamic_cost=cost)
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
    _erase_dead(blocks, set(absorbed))
    candidate = freeze(candidate, blocks)
    return None if canonical_hash(candidate) == canonical_hash(f) else candidate


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


def reference_canonical_text(f):
    """The canonical form built the long way: rename values, rename blocks,
    sort the blocks, print. ir.canonical_text must match it byte for byte."""
    order = block_order_with_unreachable(f)
    bmap = {lbl: f"b{i}" for i, lbl in enumerate(order)}
    vmap = {name: f"v{i}" for name, i in value_order(f, order).items()}
    g = rename_blocks(rename_values(f, vmap), bmap)
    blocks = sorted(g.blocks, key=lambda b: int(b.label[1:]))
    return print_function(Function(g.name, g.params, tuple(blocks)))


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


@pytest.fixture(params=[p.stem for p in VALID_FILES])
def corpus_function(request):
    return load(request.param)


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
