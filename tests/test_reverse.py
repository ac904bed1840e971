"""Reverse passes: anti-improving rewrites the forward passes can undo."""

import pytest
from hypothesis import given, settings

from bidiropt import reverse
from bidiropt.cost import rank_key, static_cost, static_size
from bidiropt.interp import differential_check
from bidiropt.ir import (
    canonical_hash,
    canonical_text,
    parse_function,
    print_function,
    validate_function,
)
from bidiropt.passes import FORWARD_PASSES, apply_pass
from bidiropt.reverse import PAIRINGS, REVERSE_PASSES, reverse_variants

from bidiropt.search import ReplayDiverged, replay_sequence

from conftest import (
    ROOT,
    VALID_FILES,
    all_reverse_variants,
    load,
    memory_cfg,
    one_step_neighbours,
    reference_interpret,
    reference_touched,
    same_modulo_name,
    straightline,
    workload_for,
)


def test_every_reverse_pairs_with_a_registered_forward():
    assert set(PAIRINGS) == set(REVERSE_PASSES)
    assert len(REVERSE_PASSES) == 8
    for fwd in PAIRINGS.values():
        assert fwd in FORWARD_PASSES


def test_unknown_reverse_name_raises():
    with pytest.raises(KeyError):
        reverse_variants("rev-unknown", load("bin2bcd"))


def test_variant_step_string():
    v = reverse_variants("rev-instexpand-rem", load("bin2bcd"))[0]
    assert v.step == "rev-instexpand-rem@0"
    assert v.reverse_name == "rev-instexpand-rem"
    assert v.site_index == 0


# --- individual expansions ----------------------------------------------------

def test_rem_expansion_reuses_dominating_udiv():
    f = load("bin2bcd")
    vs = reverse_variants("rev-instexpand-rem", f)
    assert len(vs) == 1
    g = vs[0].function
    body = print_function(g).split("\n", 1)[1]
    # x - (x/10)*10, reusing %q rather than minting a second udiv
    assert body.count("udiv") == 1
    assert "urem" not in body
    assert rank_key(g)[:2] == (11, 6)
    undone = apply_pass("divmul-to-rem", g)
    assert undone.changed
    assert same_modulo_name(undone.function, f)


def test_shl_expansion_makes_pow2_mul():
    f = load("bin2bcd")
    vs = reverse_variants("rev-instexpand-shl", f)
    assert len(vs) == 1
    body = print_function(vs[0].function).split("\n", 1)[1]
    assert "mul %q, 16" in body
    assert "shl" not in body
    undone = apply_pass("strength-reduce", vs[0].function)
    assert undone.changed
    assert same_modulo_name(undone.function, f)


def test_or_expansion_needs_disjoint_bits():
    f = load("bin2bcd_or")
    vs = reverse_variants("rev-instexpand-or", f)
    assert len(vs) == 1
    body = print_function(vs[0].function).split("\n", 1)[1]
    assert "add %h, %r" in body
    # an or of two arbitrary values may carry: no variant allowed
    opaque = parse_function(
        "func @f(%x, %y) {\nentry:\n  %o = or %x, %y\n  ret %o\n}\n")
    assert reverse_variants("rev-instexpand-or", opaque) == ()
    # x | 0 is disjoint, but add x, 0 is identity-simplify's, not add-to-or's
    zero = parse_function("func @f(%x) {\nentry:\n  %o = or %x, 0\n  ret %o\n}\n")
    assert reverse_variants("rev-instexpand-or", zero) == ()


def test_reassociate_variants_rotate_and_swap():
    f = load("strength")  # %c = add %a, %b
    vs = reverse_variants("rev-reassociate", f)
    assert vs, "expected at least the operand swap"
    for v in vs:
        undone = apply_pass("reassociate", v.function)
        assert undone.changed


ROTATION = """\
func @rot(%x, %y, %z) {
entry:
  %s = add %x, %y
  %t = add %s, %z
  ret %t
}
"""


def test_reassociate_undoes_a_rotation():
    f = parse_function(ROTATION)
    rotated = [v for v in reverse_variants("rev-reassociate", f)
               if "add %y, %z" in print_function(v.function)]
    assert len(rotated) == 1  # (x + y) + z  ->  x + (y + z)
    assert validate_function(rotated[0].function) == []
    assert static_cost(rotated[0].function) == static_cost(f)  # %s goes with it
    undone = apply_pass("reassociate", rotated[0].function)
    assert undone.changed
    assert same_modulo_name(undone.function, f)


def test_no_swap_onto_reassociates_canonical_order():
    # reassociate orders the leaves x*8 then %a, so swapping this add lands
    # on the form reassociate already leaves alone
    f = parse_function("""\
func @f(%x) {
entry:
  %a = shl %x, 4
  %b = mul %x, 8
  %s = add %a, %b
  ret %s
}
""")
    assert apply_pass("reassociate", f).changed
    assert reverse_variants("rev-reassociate", f) == ()


def test_split_block_adds_one_block_and_fixes_phis():
    f = load("diamond")
    vs = reverse_variants("rev-split-block", f)
    assert vs
    for v in vs:
        assert len(v.function.blocks) == len(f.blocks) + 1
        assert validate_function(v.function) == []
    undone = apply_pass("simplifycfg", vs[0].function)
    assert undone.changed
    assert same_modulo_name(undone.function, f)


# No corpus function has a block that branches to itself.
SELF_LOOP = """\
func @self_loop(%n) {
entry:
  br loop
loop:
  %i = phi [0, entry], [%i1, loop]
  %s = phi [0, entry], [%s1, loop]
  %i1 = add %i, 1
  %s1 = add %s, %i
  %c = icmp.ult %i1, %n
  condbr %c, loop, exit
exit:
  ret %s1
}
"""


def test_split_block_retargets_a_self_loops_own_phis():
    f = parse_function(SELF_LOOP)
    vs = reverse_variants("rev-split-block", f)
    # the tail of a split loop block branches back to its head, whose phis
    # must now name the tail; simplifycfg then merges the tail back
    assert any("[%i1, loop_tail0]" in print_function(v.function) for v in vs)
    for v in vs:
        g = v.function
        assert validate_function(g) == [], v.step
        for n in range(40):
            want, got = reference_interpret(f, [n]), reference_interpret(g, [n])
            assert (got.outcome, got.value) == (want.outcome, want.value), (v.step, n)
        assert canonical_text(apply_pass("simplifycfg", g).function) == canonical_text(f), v.step


def test_licm_sink_inverts_hoisting():
    f = load("loop_hoisted")
    vs = reverse_variants("rev-licm-sink", f)
    assert len(vs) == 1
    g = vs[0].function
    # the invariant mul lands inside the loop (header, after the phis)
    head = next(b for b in g.blocks if b.label == "head")
    assert any(ins.opcode == "mul" for ins in head.instrs)
    undone = apply_pass("licm", g)
    assert undone.changed
    assert same_modulo_name(undone.function, f)


def test_licm_sink_leaves_an_alloca_in_the_preheader():
    # licm never moves an alloca, so sinking %p would not be undone, even
    # though licm fires on the variant by hoisting %m
    f = parse_function("""\
func @f(%n, %k) {
entry:
  %p = alloca
  br head
head:
  %i = phi [0, entry], [%i2, head]
  %m = mul %k, 3
  store %m, %p
  %v = load %p
  %i2 = add %i, %v
  %c = icmp.ult %i2, %n
  condbr %c, head, exit
exit:
  ret %i2
}
""")
    assert apply_pass("licm", f).changed
    assert reverse_variants("rev-licm-sink", f) == ()


def test_reg2mem_round_trips_through_mem2reg():
    f = load("bin2bcd")
    vs = reverse_variants("reg2mem", f)
    assert vs
    for v in vs:
        body = print_function(v.function).split("\n", 1)[1]
        assert "alloca" in body and "store" in body and "load" in body
        g = apply_pass("mem2reg", v.function).function
        g = apply_pass("dce", g).function
        assert same_modulo_name(g, f), v.step


def test_insert_dead_store_per_reachable_block():
    f = load("diamond")
    vs = reverse_variants("rev-insert-dead-store", f)
    assert len(vs) == len(f.blocks)
    for v in vs:
        body = print_function(v.function).split("\n", 1)[1]
        assert "alloca" in body and "store 0" in body
        undone = apply_pass("dse", v.function)
        assert undone.changed
        assert same_modulo_name(undone.function, f)


# --- enumeration contract -------------------------------------------------------

def test_cap_keeps_the_first_site_indices():
    f = load("diamond")
    full = reverse_variants("rev-split-block", f)
    capped = reverse_variants("rev-split-block", f, cap=2)
    assert len(capped) == min(2, len(full))
    for a, b in zip(capped, full):
        assert a.step == b.step
        assert canonical_hash(a.function) == canonical_hash(b.function)


def test_enumeration_is_deterministic(corpus_function):
    a = all_reverse_variants(corpus_function)
    b = all_reverse_variants(corpus_function)
    assert [v.step for v in a] == [v.step for v in b]
    assert [canonical_hash(v.function) for v in a] == [canonical_hash(v.function) for v in b]


def test_an_identical_variant_takes_its_site_index():
    # swapping add %x, %x changes nothing, yet reassociate rewrites the tree
    # around it; the swap is site 0 and is dropped, the next site keeps 1
    f = parse_function("func @f(%x, %y) {\nentry:\n  %t = add %x, %x\n"
                       "  %u = sub %t, %x\n  %v = add %u, %y\n  ret %v\n}\n")
    (v,) = reverse_variants("rev-reassociate", f)
    assert v.step == "rev-reassociate@1"
    assert "%v = add %y, %u" in print_function(v.function)
    assert replay_sequence(f, [v.step]) == v.function
    with pytest.raises(ReplayDiverged):
        replay_sequence(f, ["rev-reassociate@0"])
    assert reverse_variants("rev-reassociate", f, cap=1) == ()


# --- touched sets and the near filter --------------------------------------------

def _assert_touched_is_the_diff(f):
    for v in all_reverse_variants(f):
        assert v.touched == reference_touched(f, v.function), (print_function(f), v.step)


def test_touched_set_is_the_instruction_diff(corpus_function):
    for f in [corpus_function, *one_step_neighbours(corpus_function)]:
        _assert_touched_is_the_diff(f)


@settings(max_examples=150, deadline=None)
@given(straightline())
def test_touched_set_is_the_instruction_diff_on_generated_straightline(text):
    _assert_touched_is_the_diff(parse_function(text))


@settings(max_examples=150, deadline=None)
@given(memory_cfg())
def test_touched_set_is_the_instruction_diff_on_generated_memory_programs(text):
    _assert_touched_is_the_diff(parse_function(text))


def test_moves_touch_nothing_but_the_phis_they_retarget():
    f = load("loop_hoisted")
    (sunk,) = reverse_variants("rev-licm-sink", f)
    assert sunk.touched == frozenset()
    assert reverse_variants("rev-licm-sink", f, near=frozenset(f.params)) == ()
    # a cut in small or big moves that block's edge into join's phi; entry
    # and join have no successor phis to retarget
    splits = reverse_variants("rev-split-block", load("diamond"))
    assert [sorted(v.touched) for v in splits] == [[]] * 2 + [["a", "b", "m"]] * 4 + [[]]


def _seen(variants):
    return [(v.step, v.touched, print_function(v.function)) for v in variants]


def test_near_keeps_exactly_the_sites_that_meet_it(corpus_function):
    # as ibo uses it: a variant's own touched set filters its variants
    for u in all_reverse_variants(corpus_function):
        for name in REVERSE_PASSES:
            for cap in (None, 8, 2):
                full = reverse_variants(name, u.function, cap)
                got = reverse_variants(name, u.function, cap, near=u.touched)
                want = [v for v in full if not v.touched.isdisjoint(u.touched)]
                assert _seen(got) == _seen(want), (u.step, name, cap)


def test_near_counts_skipped_sites():
    f = load("diamond")
    full = reverse_variants("rev-split-block", f)
    none = reverse_variants("rev-split-block", f, near=frozenset())
    assert none == () and none.independent == len(full)
    assert reverse_variants("rev-split-block", f).independent == 0


# --- size growth and the envelope filter ----------------------------------------

CORPUS_FILES = VALID_FILES + sorted((ROOT / "corpus" / "regress").glob("*.ir"))


def _assert_grow_is_exact(f):
    for name in REVERSE_PASSES:
        for _, grow, build in reverse._ENUMERATORS[name](f):
            g = build()
            if g is not None:
                assert static_size(g) == static_size(f) + grow, (print_function(f), name)


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_grow_is_the_exact_size_change(path):
    f = parse_function(path.read_text())
    for h in [f, *one_step_neighbours(f)]:
        _assert_grow_is_exact(h)


@settings(max_examples=150, deadline=None)
@given(straightline())
def test_grow_is_the_exact_size_change_on_generated_straightline(text):
    _assert_grow_is_exact(parse_function(text))


@settings(max_examples=150, deadline=None)
@given(memory_cfg())
def test_grow_is_the_exact_size_change_on_generated_memory_programs(text):
    _assert_grow_is_exact(parse_function(text))


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_max_size_is_a_pure_pre_filter(path):
    f = parse_function(path.read_text())
    size = static_size(f)
    variants = all_reverse_variants(f)
    nears = [None] + [v.touched for v in variants[:1] + variants[-1:]]
    for name in REVERSE_PASSES:
        for cap in (None, 2, 8):
            for near in nears:
                full = reverse_variants(name, f, cap, near)
                for m in range(size - 1, size + 5):
                    got = reverse_variants(name, f, cap, near, max_size=m)
                    want = [v for v in full if static_size(v.function) <= m]
                    assert _seen(got) == _seen(want), (name, cap, near, m)
                    assert got.independent == full.independent, (name, cap, near, m)


def test_an_out_of_envelope_site_is_never_built_or_hashed(monkeypatch):
    calls = []
    for fn in ("freeze", "canonical_hash"):
        real = getattr(reverse, fn)
        monkeypatch.setattr(reverse, fn, lambda *a, real=real, fn=fn, **kw:
                            calls.append(fn) or real(*a, **kw))
    f = load("diamond")
    assert reverse_variants("rev-split-block", f, max_size=static_size(f)) == ()
    assert calls == []
    # one more instruction of room lets every cut in, and each one is built
    # but, being one instruction larger than f, none is hashed
    grown = reverse_variants("rev-split-block", f, max_size=static_size(f) + 1)
    assert calls == ["freeze"] * len(grown)
    assert len(grown) == len(reverse_variants("rev-split-block", f)) > 0


# --- corpus-wide invariants ------------------------------------------------------

def test_variants_are_valid_equivalent_nonimproving(corpus_function):
    f = corpus_function
    wl = workload_for(f)
    base = rank_key(f)[:2]
    h0 = canonical_hash(f)
    for v in all_reverse_variants(f):
        g = v.function
        assert validate_function(g) == [], v.step
        assert canonical_hash(g) != h0, (v.step, "no-op variant leaked through")
        assert rank_key(g)[:2] >= base, (v.step, "a reverse pass must not improve")
        rep = differential_check(f, g, wl)
        assert rep.equivalent, (f.name, v.step, rep.mismatches[:1])


def test_paired_forward_fires_and_recovers_cost(corpus_function):
    f = corpus_function
    pre = static_cost(f)
    for v in all_reverse_variants(f):
        out = apply_pass(PAIRINGS[v.reverse_name], v.function)
        assert out.changed, (f.name, v.step)
        assert static_cost(out.function) <= pre, (f.name, v.step)


def test_paired_forward_undoes_every_variant_of_the_neighbours(corpus_function):
    # the enumerators alone keep the pairing, so check it beyond the corpus
    for h in one_step_neighbours(corpus_function):
        pre = static_cost(h)
        for v in all_reverse_variants(h):
            out = apply_pass(PAIRINGS[v.reverse_name], v.function)
            assert out.changed, (corpus_function.name, print_function(h), v.step)
            assert static_cost(out.function) <= pre, (corpus_function.name, v.step)
