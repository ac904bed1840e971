"""Dominators, loops, known bits, use-def."""

import pytest
from hypothesis import given, settings

from bidiropt.analysis import (
    KnownBits,
    compute_dominators,
    dom_tree_walk,
    dominance_frontiers,
    find_natural_loops,
    known_bits,
    live_cells,
    use_def,
)
from bidiropt.ir import parse_function, rpo_instrs, rpo_order, successors

from conftest import load, memory_cfg, one_step_neighbours


def _reachable_without(f, removed):
    index = {b.label: b for b in f.blocks}
    entry = f.blocks[0].label
    seen = set()
    work = [] if removed == entry else [entry]
    while work:
        lbl = work.pop()
        if lbl in seen or lbl == removed:
            continue
        seen.add(lbl)
        work.extend(s for s in successors(index[lbl]) if s != removed)
    return seen


def test_dominators_match_removal_oracle(corpus_function):
    """d dominates b iff every entry path to b passes through d."""
    f = corpus_function
    dt = compute_dominators(f)
    reachable = set(rpo_order(f))
    for d in reachable:
        survivors = _reachable_without(f, d)
        for b in reachable:
            expected = (b == d) or (b not in survivors)
            assert dt.dominates(d, b) == expected, (f.name, d, b)


def test_idom_is_closest_strict_dominator(corpus_function):
    f = corpus_function
    dt = compute_dominators(f)
    entry = rpo_order(f)[0]
    for b, p in dt.idom.items():
        if b == entry:
            assert p == entry
            continue
        assert p != b and dt.dominates(p, b)
        # nothing strictly between p and b
        for other in dt.idom:
            if other not in (b, p) and dt.dominates(other, b):
                assert dt.dominates(other, p), (f.name, b, p, other)


def test_dominator_children_table(corpus_function):
    # the table must agree with the definition it replaced: the blocks whose
    # idom is lbl, in RPO
    for f in [corpus_function, *one_step_neighbours(corpus_function)]:
        dt = compute_dominators(f)
        rank = {l: i for i, l in enumerate(dt.rpo)}
        assert list(dt.children) == list(dt.rpo)
        for lbl in dt.rpo:
            kids = sorted((l for l, p in dt.idom.items() if p == lbl and l != lbl),
                          key=lambda l: rank[l])
            assert dt.children[lbl] == tuple(kids), (f.name, lbl)


def _recursive_walk(dt, lbl):
    """The dominator-tree walk by recursion, as the passes once walked it."""
    yield lbl, True
    for c in dt.children[lbl]:
        yield from _recursive_walk(dt, c)
    yield lbl, False


def test_dom_tree_walk_is_the_recursive_preorder(corpus_function):
    for f in [corpus_function, *one_step_neighbours(corpus_function)]:
        dt = compute_dominators(f)
        assert list(dom_tree_walk(f)) == list(_recursive_walk(dt, dt.rpo[0])), f.name
        for lbl in dt.rpo:
            assert list(dom_tree_walk(f, lbl)) == list(_recursive_walk(dt, lbl)), (f.name, lbl)


def test_dominance_frontier_diamond():
    f = load("diamond")
    df = dominance_frontiers(f)
    assert df["small"] == {"join"}
    assert df["big"] == {"join"}
    assert df["entry"] == set()
    assert df["join"] == set()


def test_dominance_frontier_loop_header():
    f = load("loop_sum")
    df = dominance_frontiers(f)
    # the back edge puts the header in its own frontier
    assert "head" in df["head"]
    assert "head" in df["body"]


def test_natural_loop_shape():
    f = load("loop_sum")
    (lp,) = find_natural_loops(f)
    assert lp.header == "head"
    assert lp.body == frozenset({"head", "body"})
    assert lp.preheader == "entry"


def test_nested_loops_come_innermost_first():
    inner, outer = find_natural_loops(load("nested_loop"))
    assert inner.body < outer.body


def test_loops_of_equal_size_order_by_header():
    f = parse_function("""func @f(%x) {
entry:
  br b
b:
  %c = icmp.eq %x, 0
  condbr %c, b, a
a:
  %d = icmp.ne %x, 1
  condbr %d, a, out
out:
  ret %x
}
""")
    assert [lp.header for lp in find_natural_loops(f)] == ["a", "b"]


def test_straightline_has_no_loops():
    assert find_natural_loops(load("bin2bcd")) == ()


# --- known bits -------------------------------------------------------------

def _bits_of(body, param_count=1):
    params = ", ".join(f"%p{i}" for i in range(param_count))
    f = parse_function(f"func @f({params}) {{\nentry:\n{body}\n}}\n")
    return f, known_bits(f)


def test_known_bits_and_mask():
    f, kb = _bits_of("  %a = and %p0, 15\n  ret %a")
    assert kb["a"].zeros == 0xFFFFFFF0
    assert kb["a"].ones == 0


def test_known_bits_or_sets_ones():
    f, kb = _bits_of("  %a = or %p0, 8\n  ret %a")
    assert kb["a"].ones & 8 == 8


def test_known_bits_shl_clears_low_bits():
    f, kb = _bits_of("  %a = shl %p0, 4\n  ret %a")
    assert kb["a"].zeros & 0xF == 0xF


def test_known_bits_disjoint_add():
    f, kb = _bits_of(
        "  %hi = and %p0, 240\n  %lo = and %p1, 15\n  %s = add %hi, %lo\n  ret %s",
        param_count=2,
    )
    # no carries possible: result confined to the union of the two masks
    assert kb["s"].zeros & ~0xFF == 0xFFFFFF00


@pytest.mark.parametrize("args", [(0,), (1,), (0xFFFFFFFF,), (0xDEADBEEF,), (45,)])
def test_known_bits_sound_per_value(corpus_function, args):
    """Proven-zero bits are zero and proven-one bits are one, concretely."""
    from conftest import eval_straightline

    f = corpus_function
    vec = tuple(args[0] for _ in f.params)
    env = eval_straightline(f, vec)
    if env is None:
        pytest.skip("not straight-line")
    kb = known_bits(f)
    for name, v in env.items():
        if name in kb:
            assert v & kb[name].zeros == 0, (f.name, name)
            assert v & kb[name].ones == kb[name].ones, (f.name, name)


def test_known_bits_meet_is_intersection():
    a = KnownBits(zeros=0b1100, ones=0b0001)
    b = KnownBits(zeros=0b1010, ones=0b0011)
    m = a.meet(b)
    assert m.zeros == 0b1000
    assert m.ones == 0b0001


# --- use/def ----------------------------------------------------------------

def test_use_def_counts():
    f = load("bin2bcd")
    ud = use_def(f)
    assert ud.defs["q"] == ("entry", 0)
    assert ud.defs["val"] is None  # parameter
    assert ud.use_count("val") == 2
    assert ud.use_count("s") == 1
    assert ud.use_count("q") == 1
    assert ud.instrs["q"] is f.blocks[0].instrs[0]
    assert "val" not in ud.instrs  # a parameter has no defining instruction


def test_use_def_covers_phi_operands():
    f = load("loop_sum")
    ud = use_def(f)
    assert ud.use_count("i2") == 1
    uses = ud.uses["i2"]
    assert uses[0][0] == "head"


# --- live cells ----------------------------------------------------------------

def _live_cells_by_path_search(f):
    """For each reachable block, the cells a load may read first on some path
    from the block's entry: a per-cell search of the CFG that stops a path at
    the first store (dse's rule before live_cells)."""
    index = {b.label: b for b in f.blocks}
    cells = [ins.result for _, _, ins in rpo_instrs(f) if ins.opcode == "alloca"]

    def first_access(lbl, p):
        for ins in index[lbl].instrs:
            if ins.opcode == "load" and ins.operands[0].name == p:
                return "load"
            if ins.opcode == "store" and ins.operands[1].name == p:
                return "store"
        return None

    def read_first(lbl, p):
        seen, work = set(), [lbl]
        while work:
            s = work.pop()
            if s in seen:
                continue
            seen.add(s)
            acc = first_access(s, p)
            if acc == "load":
                return True
            if acc is None:
                work.extend(successors(index[s]))
        return False

    return {lbl: frozenset(p for p in cells if read_first(lbl, p)) for lbl in rpo_order(f)}


def test_live_cells_match_path_search_on_corpus_and_neighbours(corpus_function):
    for g in [corpus_function, *one_step_neighbours(corpus_function)]:
        assert dict(live_cells(g)) == _live_cells_by_path_search(g), g.name


@given(memory_cfg())
@settings(max_examples=150, deadline=None)
def test_live_cells_match_path_search_on_generated_programs(text):
    f = parse_function(text)
    assert dict(live_cells(f)) == _live_cells_by_path_search(f)


def test_live_cells_of_a_guarded_store():
    f = parse_function("""func @f(%x) {
entry:
  %p = alloca
  %q = alloca
  store 1, %q
  %c = icmp.eq %x, 0
  condbr %c, set, join
set:
  store %x, %p
  br join
join:
  %v = load %p
  %w = load %q
  store %v, %q
  ret %w
}
""")
    assert dict(live_cells(f)) == {"entry": {"p"}, "set": {"q"}, "join": {"p", "q"}}
