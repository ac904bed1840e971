"""Reverse passes: anti-improving rewrites the forward passes can undo."""

import pytest
from hypothesis import given, settings

from bidiropt import reverse
from bidiropt.cost import rank_key, static_cost, static_size
from bidiropt.interp import differential_check
from bidiropt.ir import (
    canonical_hash,
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
    canonical_prints,
    fresh,
    load,
    memory_cfg,
    one_step_neighbours,
    reference_reassociate_sites,
    reference_touched,
    same_modulo_name,
    straightline,
    workload_for,
)


def test_every_reverse_pairs_with_a_registered_forward():
    assert set(PAIRINGS) == set(REVERSE_PASSES)
    assert len(REVERSE_PASSES) == 6
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


def _assert_dse_undoes_exactly_the_dead_store(f):
    # dse erases every dead store at once, so it gives back f itself only
    # where the inserted store is the one it finds
    for v in reverse_variants("rev-insert-dead-store", f):
        assert same_modulo_name(apply_pass("dse", v.function).function, f), (
            print_function(f), v.step)


def test_dse_undoes_exactly_the_dead_store(corpus_function):
    for f in [corpus_function, *one_step_neighbours(corpus_function)]:
        _assert_dse_undoes_exactly_the_dead_store(f)


@settings(max_examples=150, deadline=None)
@given(memory_cfg())
def test_dse_undoes_exactly_the_dead_store_on_generated_memory_programs(text):
    _assert_dse_undoes_exactly_the_dead_store(parse_function(text))


@pytest.mark.parametrize("name", ["dead_store", "dead_alloca"])
def test_no_dead_store_site_where_f_has_a_dead_store(name):
    f = load(name)
    assert apply_pass("dse", f).changed
    assert reverse_variants("rev-insert-dead-store", f) == ()


# --- enumeration contract -------------------------------------------------------

def test_cap_keeps_the_first_site_indices():
    f = parse_function((ROOT / "corpus" / "regress" / "crowd2.ir").read_text())
    full = reverse_variants("rev-reassociate", f)
    capped = reverse_variants("rev-reassociate", f, cap=3)
    assert len(full) > 3 and len(capped) == 3
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


# --- touched sets: a move rewrites nothing, every other site something ------------

def _assert_touched_is_the_diff(f):
    # only rev-licm-sink moves an instruction unchanged; every other site
    # rewrites at least one, so its instruction diff names something
    for v in all_reverse_variants(f):
        moved = v.reverse_name == "rev-licm-sink"
        assert moved == (reference_touched(f, v.function) == frozenset()), (
            print_function(f), v.step)


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
    assert reference_touched(f, sunk.function) == frozenset()
    assert canonical_hash(sunk.function) != canonical_hash(f)


def _seen(variants):
    return [(v.step, print_function(v.function)) for v in variants]


def _assert_reassociate_sites_match_reference(f):
    sites = reference_reassociate_sites(f)
    h = canonical_hash(f)
    for cap in (None, 2):
        want = [(f"rev-reassociate@{k}", print_function(g))
                for k, g in enumerate(sites[:cap]) if canonical_hash(g) != h]
        got = reverse_variants("rev-reassociate", f, cap)
        assert _seen(got) == want, (print_function(f), cap)


def test_reassociate_sites_match_the_reference_rule(corpus_function):
    for f in [corpus_function, *one_step_neighbours(corpus_function)]:
        _assert_reassociate_sites_match_reference(f)


@settings(max_examples=150, deadline=None)
@given(straightline())
def test_reassociate_sites_match_the_reference_rule_on_generated_straightline(text):
    _assert_reassociate_sites_match_reference(parse_function(text))


@settings(max_examples=150, deadline=None)
@given(memory_cfg())
def test_reassociate_sites_match_the_reference_rule_on_generated_memory_programs(text):
    _assert_reassociate_sites_match_reference(parse_function(text))


def test_reassociate_builds_only_the_sites_it_keeps(monkeypatch):
    built = []
    real = reverse.freeze
    monkeypatch.setattr(reverse, "freeze", lambda *a, **kw: built.append(a[0]) or real(*a, **kw))
    # swapping %s lands on reassociate's canonical order, so it is no site;
    # swapping %z (site 0) is one, and so are the swaps of %t and %v
    f = parse_function("""\
func @f(%x, %y) {
entry:
  %a = shl %x, 4
  %b = mul %x, 8
  %s = add %a, %b
  %z = add %y, 7
  %t = add %x, %x
  %u = sub %t, %x
  %v = add %u, %y
  %w = xor %s, %v
  %r = xor %w, %z
  ret %r
}
""")
    # the swap of %t (site 1) is built and dropped as f itself
    z, v = reverse_variants("rev-reassociate", f)
    assert (z.step, v.step) == ("rev-reassociate@0", "rev-reassociate@2")
    assert "%z = add 7, %y" in print_function(z.function)
    assert "%v = add %y, %u" in print_function(v.function)
    assert built == [f, f, f]


# --- size growth and the envelope filter ----------------------------------------

CORPUS_FILES = VALID_FILES + sorted((ROOT / "corpus" / "regress").glob("*.ir"))


def _assert_grow_is_exact(f):
    for name in REVERSE_PASSES:
        for grow, build in reverse._ENUMERATORS[name](f):
            g = build()
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
    for name in REVERSE_PASSES:
        for cap in (None, 2, 8):
            full = reverse_variants(name, f, cap)
            for m in range(size - 1, size + 5):
                got = reverse_variants(name, f, cap, max_size=m)
                want = [v for v in full if static_size(v.function) <= m]
                assert _seen(got) == _seen(want), (name, cap, m)


def test_an_out_of_envelope_site_is_never_built_or_hashed(monkeypatch):
    f = load("nested_loop")
    # a dead-store site grows f by its alloca and its store, in each of 7 blocks
    grows = [static_size(v.function) - static_size(f)
             for v in reverse_variants("rev-insert-dead-store", f)]
    assert grows == [2] * 7
    calls = []
    real = reverse.freeze
    monkeypatch.setattr(reverse, "freeze", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    assert reverse_variants("rev-insert-dead-store", f, max_size=static_size(f) + 1) == ()
    assert calls == []
    # room for the growth lets every site in, and each one is built once
    grown = reverse_variants("rev-insert-dead-store", f, max_size=static_size(f) + 2)
    assert len(calls) == 7
    assert len(grown) == 7


# --- program identity is the search's question -----------------------------------

def _assert_nothing_prints(programs):
    with canonical_prints() as printed:
        for f in programs:
            for name in FORWARD_PASSES:
                apply_pass(name, fresh(f))
                assert printed == [], (print_function(f), name)
            for name in REVERSE_PASSES:
                reverse_variants(name, fresh(f))
                assert printed == [], (print_function(f), name)


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_no_pass_or_enumeration_prints(path):
    f = parse_function(path.read_text())
    _assert_nothing_prints([f, *one_step_neighbours(f)])


@settings(max_examples=100, deadline=None)
@given(straightline())
def test_no_pass_or_enumeration_prints_on_generated_programs(text):
    _assert_nothing_prints([parse_function(text)])


@settings(max_examples=100, deadline=None)
@given(memory_cfg())
def test_no_pass_or_enumeration_prints_on_generated_memory_programs(text):
    _assert_nothing_prints([parse_function(text)])


def _identical_sites(f) -> int:
    """Build every site of every enumerator, before reverse_variants' drop,
    and check the drop rule against the canonical digest: a variant equals
    f field for field exactly when it has f's canonical form. Returns how
    many sites give back f."""
    h = canonical_hash(f)
    same = 0
    for name, enumerate_sites in reverse._ENUMERATORS.items():
        for site, (_, build) in enumerate(enumerate_sites(f)):
            g = build()
            assert (g == f) == (canonical_hash(g) == h), (print_function(f), name, site)
            same += g == f
    return same


def test_the_drop_rule_sees_an_identical_variant():
    # the swap of add %x, %x is the one site that gives back its input
    f = parse_function("func @f(%x, %y) {\nentry:\n  %t = add %x, %x\n"
                       "  %u = sub %t, %x\n  %v = add %u, %y\n  ret %v\n}\n")
    assert _identical_sites(f) == 1


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_the_drop_rule_is_the_digest_rule(path):
    f = parse_function(path.read_text())
    for g in [f, *one_step_neighbours(f)]:
        _identical_sites(g)


@settings(max_examples=150, deadline=None)
@given(straightline())
def test_the_drop_rule_is_the_digest_rule_on_generated_programs(text):
    _identical_sites(parse_function(text))


@settings(max_examples=150, deadline=None)
@given(memory_cfg())
def test_the_drop_rule_is_the_digest_rule_on_generated_memory_programs(text):
    _identical_sites(parse_function(text))


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
