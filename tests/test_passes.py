"""Forward passes: each rewrite, plus the invariants every pass must keep.

The whole-corpus sweeps at the bottom are the workhorses: every pass on
every fixture must emit valid IR, preserve behavior on a workload, report
`changed` truthfully, improve (or at least not regress) the cost metric
according to its tier, and be idempotent.
"""

import random
from itertools import count

import pytest
from hypothesis import given, settings

from bidiropt import passes
from bidiropt.analysis import use_def
from bidiropt.cost import rank_key, static_cost
from bidiropt.interp import differential_check, interpret
from bidiropt.ir import (
    canonical_hash,
    canonical_text,
    defined_values,
    parse_function,
    print_function,
    validate_function,
)
from bidiropt.passes import (
    FORWARD_PASSES,
    _erase_dead,
    _rewrite_tree,
    apply_pass,
    edit,
    tree_roots,
)
from bidiropt.reverse import reverse_variants

from conftest import (
    VALID_FILES,
    load,
    memory_cfg,
    one_step_neighbours,
    reference_dse,
    reference_erase_dead,
    reference_interpret,
    reference_mem2reg,
    reference_rewrite_tree,
    same_modulo_name,
    straightline,
    workload_for,
)

# Passes whose every firing must strictly improve (static_cost, static_size).
STRICT = {
    "const-fold", "identity-simplify", "strength-reduce", "divmul-to-rem",
    "cse", "cond-prop", "mem2reg", "dse", "dce",
}
# Passes that may only reshape: cost must never increase.
NONINCREASING = {"reassociate", "add-to-or", "licm", "simplifycfg"}


def test_registry_is_the_two_tiers():
    assert set(FORWARD_PASSES) == STRICT | NONINCREASING
    assert len(FORWARD_PASSES) == 13


def test_apply_pass_rejects_unknown_name():
    with pytest.raises(KeyError):
        apply_pass("inline", load("bin2bcd"))


# --- individual rewrites -----------------------------------------------------

def test_const_fold_collapses_literal_chain():
    out = apply_pass("const-fold", load("const_expr"))
    assert out.changed
    assert "add %x, 20" in print_function(out.function)


def test_const_fold_resolves_literal_condbr():
    f = parse_function("""func @f(%x) {
entry:
  condbr 1, yes, no
yes:
  ret %x
no:
  ret 0
}
""")
    out = apply_pass("const-fold", f)
    assert out.changed
    text = print_function(out.function)
    assert "condbr" not in text
    assert "br yes" in text


@pytest.mark.parametrize("op", ["udiv", "urem"])
def test_const_fold_leaves_a_division_by_literal_zero(op):
    f = parse_function(f"func @f(%x) {{\nentry:\n  %a = {op} 7, 0\n  ret %a\n}}\n")
    out = apply_pass("const-fold", f)
    assert not out.changed
    res = interpret(out.function, [1])
    assert (res.outcome, res.reason) == ("trapped", "DivByZero")


def test_identity_simplify_collapses_chain():
    out = apply_pass("identity-simplify", load("identities"))
    assert out.changed
    # urem %d, 1 is identically 0, and everything upstream feeds only it
    g = apply_pass("dce", out.function).function
    assert "ret 0" in print_function(g)


def test_identity_x_minus_x():
    f = parse_function("func @f(%x) {\nentry:\n  %a = sub %x, %x\n  ret %a\n}\n")
    out = apply_pass("identity-simplify", f)
    assert out.changed
    assert "ret 0" in print_function(out.function)


@pytest.mark.parametrize("mul", ["mul %x, 0", "mul 0, %x"])
def test_identity_simplify_folds_a_multiply_by_zero(mul):
    f = parse_function(f"func @f(%x) {{\nentry:\n  %a = {mul}\n  ret %a\n}}\n")
    out = apply_pass("identity-simplify", f)
    assert out.changed
    assert print_function(out.function) == "func @f(%x) {\nentry:\n  ret 0\n}\n"


def test_strength_reduce_rewrites_pow2_mul():
    out = apply_pass("strength-reduce", load("strength"))
    assert out.changed
    text = print_function(out.function)
    assert "shl %x, 4" in text
    assert "shl %x, 3" in text  # the commuted literal-first form too
    assert "mul" not in text


def test_strength_reduce_ignores_non_pow2():
    f = parse_function("func @f(%x) {\nentry:\n  %a = mul %x, 6\n  ret %a\n}\n")
    out = apply_pass("strength-reduce", f)
    assert not out.changed


def test_divmul_to_rem_recovers_urem():
    out = apply_pass("divmul-to-rem", load("divmul"))
    assert out.changed
    body = print_function(out.function).split("\n", 1)[1]
    assert "urem %x, 7" in body
    assert "mul" not in body and "udiv" not in body


def test_divmul_to_rem_takes_the_literal_first():
    f = parse_function("""func @f(%x) {
entry:
  %q = udiv %x, 10
  %m = mul 10, %q
  %r = sub %x, %m
  ret %r
}
""")
    out = apply_pass("divmul-to-rem", f)
    assert out.changed
    assert print_function(out.function) == \
        "func @f(%x) {\nentry:\n  %r = urem %x, 10\n  ret %r\n}\n"


@pytest.mark.parametrize("div,mul", [("udiv %x, 10", "mul %q, %y"),
                                     ("udiv %x, 0", "mul %q, 0"),
                                     ("udiv %x, 0", "mul 0, %q"),
                                     ("udiv %x, 10", "mul 10, 10")])
def test_divmul_to_rem_wants_a_value_times_a_literal_of_at_least_one(div, mul):
    f = parse_function(f"""func @f(%x, %y) {{
entry:
  %q = {div}
  %m = {mul}
  %r = sub %x, %m
  %s = add %r, %q
  ret %s
}}
""")
    assert not apply_pass("divmul-to-rem", f).changed


def test_add_to_or_needs_disjoint_bits():
    f = parse_function("""func @f(%x, %y) {
entry:
  %hi = and %x, 240
  %lo = and %y, 15
  %s = add %hi, %lo
  %t = add %hi, %hi
  ret %s
}
""")
    out = apply_pass("add-to-or", f)
    assert out.changed
    text = print_function(out.function)
    assert "or %hi, %lo" in text
    assert "add %hi, %hi" in text  # overlapping bits stay an add


def test_reassociate_cancels():
    out = apply_pass("reassociate", load("reassoc_cancel"))
    assert out.changed
    g = apply_pass("dce", out.function).function
    assert "ret %b" in print_function(g)


def test_reassociate_collapses_expanded_form():
    # (q * 16) - (q * 10) + val refolds to val + q * 6
    out = apply_pass("reassociate", load("bin2bcd_expanded"))
    assert out.changed
    assert same_modulo_name(out.function, load("bin2bcd_mul6"))


def test_reassociate_erases_a_leaf_whose_terms_cancel():
    # %m's two terms cancel, so the rewritten tree no longer uses it
    f = parse_function("""func @f(%p) {
entry:
  %y = xor %p, 5
  %m = mul %p, 3
  %a = add %y, %m
  %b = sub %a, %m
  %c = add %b, 1
  ret %c
}
""")
    out = apply_pass("reassociate", f)
    assert out.changed
    assert print_function(out.function) == \
        "func @f(%p) {\nentry:\n  %y = xor %p, 5\n  %t0 = add %y, 1\n  ret %t0\n}\n"


def test_reassociate_keeps_the_leaf_a_tree_collapses_to():
    # the tree collapses to %y, which takes over the root's use in ret
    f = parse_function("""func @f(%p) {
entry:
  %y = xor %p, 5
  %m = mul %p, 3
  %a = add %y, %m
  %b = sub %a, %m
  ret %b
}
""")
    out = apply_pass("reassociate", f)
    assert out.changed
    assert print_function(out.function) == \
        "func @f(%p) {\nentry:\n  %y = xor %p, 5\n  ret %y\n}\n"


def _rewrite_both(f, root):
    """_rewrite_tree and reference_rewrite_tree on one root, each with its
    own fresh counter; returns both results and both counters' next value."""
    ours, theirs = count(), count()
    got = _rewrite_tree(f, use_def(f), root, ours)
    want = reference_rewrite_tree(f, use_def(f), root, theirs)
    return got, want, next(ours), next(theirs)


def _assert_rewrites_match_reference(f):
    for root, _ in tree_roots(f, use_def(f)):
        got, want, n_ours, n_theirs = _rewrite_both(f, root)
        assert (got is None) == (want is None), (print_function(f), root)
        if got is not None:
            assert print_function(got) == print_function(want), (print_function(f), root)
        assert n_ours == n_theirs, (print_function(f), root)


@pytest.mark.parametrize("path", VALID_FILES, ids=[p.stem for p in VALID_FILES])
def test_rewrite_tree_matches_reference_on_corpus_and_neighbours(path):
    f = parse_function(path.read_text())
    for g in [f, *one_step_neighbours(f)]:
        _assert_rewrites_match_reference(g)


@given(straightline())
@settings(max_examples=150, deadline=None)
def test_rewrite_tree_matches_reference_on_generated_programs(text):
    _assert_rewrites_match_reference(parse_function(text))


def test_reassociate_moves_a_tree_split_by_an_unrelated_instruction():
    # %a is absorbed into %r's tree, which is otherwise in canonical form;
    # rewriting moves it next to its root, past %u, which is a real change
    f = parse_function("""func @f(%x, %y) {
entry:
  %a = add %x, %y
  %u = xor %x, 1
  %r = add %a, 5
  %s = xor %r, %u
  ret %s
}
""")
    got, want, _, _ = _rewrite_both(f, "r")
    assert want is not None
    assert print_function(got) == print_function(want)
    assert "%u = xor %x, 1\n  %t0 = add %x, %y\n  %t1 = add %t0, 5\n" in print_function(got)
    out = apply_pass("reassociate", f)
    assert out.changed
    assert print_function(out.function) == print_function(want)


def test_reassociate_puts_a_literal_first_coefficient_last():
    # mul 3, %x linearizes like mul %x, 3, but re-emits as the latter, so
    # the tree is not already in canonical form
    f = parse_function("""func @f(%x, %y) {
entry:
  %m = mul 3, %x
  %r = add %m, %y
  ret %r
}
""")
    got, want, _, _ = _rewrite_both(f, "r")
    assert want is not None
    assert print_function(got) == print_function(want)
    assert "mul %x, 3" in print_function(got)
    assert apply_pass("reassociate", f).changed


@pytest.mark.parametrize("path", VALID_FILES, ids=[p.stem for p in VALID_FILES])
def test_rewrite_tree_leaves_every_canonical_tree_without_a_candidate(path, monkeypatch):
    # Wherever the reference finds nothing to change, _rewrite_tree must know
    # it from the tree itself (or the cost gate): it builds no candidate and
    # hashes nothing. Guards the shortcut against falling back to hashing.
    f = parse_function(path.read_text())
    programs = [f, *one_step_neighbours(f)]
    built = []
    monkeypatch.setattr(passes, "edit", lambda g: built.append(g) or edit(g))
    monkeypatch.setattr(passes, "canonical_hash", lambda g: built.append(g) or canonical_hash(g))
    for g in programs:
        for root, _ in tree_roots(g, use_def(g)):
            if reference_rewrite_tree(g, use_def(g), root, count()) is not None:
                continue
            built.clear()
            assert _rewrite_tree(g, use_def(g), root, count()) is None
            assert built == [], (print_function(g), root)


def test_cse_merges_duplicate_udiv():
    out = apply_pass("cse", load("cse_dup"))
    assert out.changed
    text = print_function(out.function)
    assert text.count("udiv") == 1


def test_cse_respects_dominance():
    f = parse_function("""func @f(%x, %c) {
entry:
  condbr %c, a, b
a:
  %u = mul %x, %x
  br join
b:
  %v = mul %x, %x
  br join
join:
  %m = phi [%u, a], [%v, b]
  ret %m
}
""")
    # neither mul dominates the other: nothing to merge
    assert not apply_pass("cse", f).changed


def test_cond_prop_then_fold_kills_clone():
    f = load("branch_clone")
    g = apply_pass("cond-prop", f).function
    g = apply_pass("const-fold", g).function
    g = apply_pass("simplifycfg", g).function
    assert rank_key(g)[:2] == (5, 5)
    wl = workload_for(f)
    assert differential_check(f, g, wl).equivalent


def test_simplifycfg_merges_straight_blocks():
    f = parse_function("""func @f(%x) {
entry:
  %a = add %x, 1
  br next
next:
  %b = add %a, 1
  ret %b
}
""")
    out = apply_pass("simplifycfg", f)
    assert out.changed
    assert len(out.function.blocks) == 1


def test_simplifycfg_turns_a_condbr_with_equal_targets_into_br():
    f = parse_function("""func @f(%a, %b) {
entry:
  %c = icmp.ult %a, %b
  condbr %c, next, next
next:
  ret %a
}
""")
    out = apply_pass("simplifycfg", f)
    assert out.changed
    # the condition dies with the condbr; the lone-predecessor merge follows
    assert print_function(out.function) == "func @f(%a, %b) {\nentry:\n  ret %a\n}\n"


def test_simplifycfg_keeps_diamond():
    assert not apply_pass("simplifycfg", load("diamond")).changed


def test_simplifycfg_removes_unreachable():
    f = parse_function("""func @f(%x) {
entry:
  ret %x
island:
  ret 0
}
""")
    out = apply_pass("simplifycfg", f)
    assert out.changed
    assert [b.label for b in out.function.blocks] == ["entry"]


def test_mem2reg_promotes_scalar():
    out = apply_pass("mem2reg", load("alloca_scalar"))
    assert out.changed
    body = print_function(out.function).split("\n", 1)[1]
    assert "alloca" not in body and "load" not in body and "store" not in body
    assert "add %x, 1" in body


def test_mem2reg_builds_loop_phi():
    f = load("loop_counter_alloca")
    out = apply_pass("mem2reg", f)
    assert out.changed
    body = print_function(out.function).split("\n", 1)[1]
    assert "phi" in body
    assert "alloca" not in body
    assert differential_check(f, out.function, workload_for(f)).equivalent


@pytest.mark.parametrize("text", [
    """func @f(%x) {
entry:
  %p = alloca
  %v = load %p
  store %x, %p
  ret %v
}
""",
    # the load is reached without a store when %x != 0
    """func @f(%x) {
entry:
  %p = alloca
  %c = icmp.eq %x, 0
  condbr %c, set, join
set:
  store %x, %p
  br join
join:
  %v = load %p
  ret %v
}
"""], ids=["straightline", "guarded"])
def test_mem2reg_leaves_a_cell_that_may_be_read_uninitialized(text):
    f = parse_function(text)
    out = apply_pass("mem2reg", f)
    assert not out.changed
    r = interpret(out.function, [42])
    assert (r.outcome, r.reason) == ("trapped", "UninitLoad")


def test_mem2reg_promotes_the_initialized_cell_beside_an_uninitialized_one():
    f = parse_function("""func @f(%x) {
entry:
  %u = alloca
  %p = alloca
  store %x, %p
  %v = load %p
  %w = load %u
  %s = add %v, %w
  ret %s
}
""")
    out = apply_pass("mem2reg", f)
    assert out.changed
    body = print_function(out.function).split("\n", 1)[1]
    assert body.count("alloca") == 1 and body.count("load") == 1 and "store" not in body
    r = interpret(out.function, [42])
    assert (r.outcome, r.reason) == ("trapped", "UninitLoad")


def test_mem2reg_phi_takes_an_operand_on_an_unreachable_edge():
    f = parse_function("""func @f(%x) {
entry:
  %p = alloca
  store %x, %p
  br head
head:
  %v = load %p
  %n = add %v, 1
  store %n, %p
  %c = icmp.ult %n, 5
  condbr %c, head, out
dead:
  br head
out:
  ret %n
}
""")
    out = apply_pass("mem2reg", f)
    assert out.changed
    assert validate_function(out.function) == []
    assert "load" not in print_function(out.function)
    assert interpret(out.function, [1]).value == 5


def test_mem2reg_names_phis_apart_from_the_loads_it_erases():
    # Cell %b is read into %a_0_0, and cell %a_0 needs a phi at join. The
    # phi must not take the name %a_0_0: the erased load's name still maps
    # to its reaching value (8), and the phi's uses would resolve through it.
    f = parse_function("""func @f(%x) {
entry:
  %b = alloca
  %a_0 = alloca
  store 8, %b
  store %x, %a_0
  %c = icmp.eq %x, 0
  condbr %c, left, join
left:
  store 3, %a_0
  br join
join:
  %a_0_0 = load %b
  %r_a = load %a_0
  %r_b = xor %a_0_0, %r_a
  ret %r_b
}
""")
    out = apply_pass("mem2reg", f)
    assert out.changed
    assert validate_function(out.function) == []
    text = print_function(out.function)
    assert "%a_0_1 = phi [%x, entry], [3, left]" in text
    assert "xor 8, %a_0_1" in text
    assert [interpret(out.function, [x]).value for x in (0, 5)] == [8 ^ 3, 8 ^ 5]
    assert canonical_text(out.function) == canonical_text(reference_mem2reg(f).function)


def test_mem2reg_keeps_cells_whose_address_escapes_or_that_hold_one():
    # %e's address is stored, %h holds an address, and %u is stored to in an
    # unreachable block: only %k is promoted.
    f = parse_function("""func @f(%x) {
entry:
  %e = alloca
  %h = alloca
  %k = alloca
  %u = alloca
  store %x, %e
  store %e, %h
  store %x, %k
  store %x, %u
  %a = load %h
  %b = load %k
  %c = load %u
  %s = add %b, %c
  ret %s
dead:
  store 1, %u
  br dead
}
""")
    out = apply_pass("mem2reg", f)
    assert out.changed
    body = print_function(out.function)
    assert "%k" not in body and "%b" not in body and "add %x, %c" in body
    assert body.count("alloca") == 3
    assert body == print_function(reference_mem2reg(f).function)


def test_mem2reg_puts_new_phis_after_the_old_ones_in_alloca_order():
    f = parse_function("""func @f(%x) {
entry:
  %q = alloca
  %p = alloca
  store 1, %p
  store 2, %q
  %c = icmp.eq %x, 0
  condbr %c, left, join
left:
  store %x, %p
  store %x, %q
  br join
join:
  %old = phi [0, entry], [1, left]
  %vp = load %p
  %vq = load %q
  %s = sub %vp, %vq
  %t = add %s, %old
  ret %t
}
""")
    out = apply_pass("mem2reg", f)
    join = print_function(out.function).split("join:\n")[1].splitlines()
    assert join[:3] == ["  %old = phi [0, entry], [1, left]",
                        "  %q_0 = phi [2, entry], [%x, left]",
                        "  %p_0 = phi [1, entry], [%x, left]"]
    assert print_function(out.function) == print_function(reference_mem2reg(f).function)


MEMORY_PASSES = {"mem2reg": reference_mem2reg, "dse": reference_dse}


@pytest.mark.parametrize("name", sorted(MEMORY_PASSES))
def test_memory_pass_matches_reference_on_corpus_and_neighbours(name, corpus_function):
    for g in [corpus_function, *one_step_neighbours(corpus_function)]:
        got, want = apply_pass(name, g), MEMORY_PASSES[name](g)
        assert got.changed == want.changed, print_function(g)
        assert print_function(got.function) == print_function(want.function), print_function(g)


@given(memory_cfg())
@settings(max_examples=150, deadline=None)
def test_memory_passes_match_reference_on_generated_programs(text):
    # Phi names may differ from the reference's (apply_mem2reg's docstring
    # says when), so the programs are compared in canonical form.
    f = parse_function(text)
    for name, reference in MEMORY_PASSES.items():
        got, want = apply_pass(name, f), reference(f)
        assert got.changed == want.changed, name
        assert canonical_text(got.function) == canonical_text(want.function), name
        assert validate_function(got.function) == [], name
        for x in range(10):
            before, after = reference_interpret(f, [x]), reference_interpret(got.function, [x])
            assert (after.outcome, after.value, after.reason) == \
                (before.outcome, before.value, before.reason), (name, x)


def test_licm_hoists_invariant_mul():
    f = load("loop_licm")
    out = apply_pass("licm", f)
    assert out.changed
    assert same_modulo_name(out.function, load("loop_hoisted"))


def test_licm_leaves_variant_ops():
    assert not apply_pass("licm", load("loop_sum")).changed


# a loop whose header is entered from both arms of a condbr, so it has no
# preheader; with `br head` instead, entry is its preheader
NO_PREHEADER = """func @f(%x, %n) {
entry:
  %c = icmp.ult %x, 3
  %m = mul %x, 3
  ENTER
head:
  %i = phi [0, entry], [%i1, body]
  %k = icmp.ult %i, %n
  condbr %k, body, exit
body:
  %t = mul %x, 5
  %u = add %t, %m
  %i1 = add %i, %u
  br head
exit:
  ret %i
}
"""


def test_licm_and_its_reverse_skip_a_loop_without_a_preheader():
    f = parse_function(NO_PREHEADER.replace("ENTER", "condbr %c, head, head"))
    assert validate_function(f) == []
    assert not apply_pass("licm", f).changed
    assert reverse_variants("rev-licm-sink", f) == ()
    control = parse_function(NO_PREHEADER.replace("ENTER", "br head"))
    assert apply_pass("licm", control).changed
    assert reverse_variants("rev-licm-sink", control) != ()


def test_dse_removes_overwritten_store():
    out = apply_pass("dse", load("dead_store"))
    assert out.changed
    body = print_function(out.function).split("\n", 1)[1]
    assert body.count("store") == 1
    assert "store 7" in body


def test_dse_removes_never_loaded_alloca():
    out = apply_pass("dse", load("dead_alloca"))
    assert out.changed
    body = print_function(out.function).split("\n", 1)[1]
    assert "alloca" not in body and "store" not in body


def test_dce_strips_unused_chain():
    out = apply_pass("dce", load("dce_chain"))
    assert out.changed
    assert rank_key(out.function)[:2] == (1, 1)


def test_dce_keeps_trapping_udiv():
    f = parse_function("""func @f(%x) {
entry:
  %d = udiv 1, %x
  ret %x
}
""")
    # removing %d would hide the trap at %x == 0
    assert not apply_pass("dce", f).changed


def test_dce_removes_udiv_by_nonzero_literal():
    f = parse_function("""func @f(%x) {
entry:
  %d = udiv %x, 3
  ret %x
}
""")
    out = apply_pass("dce", f)
    assert out.changed
    assert rank_key(out.function)[:2] == (1, 1)


# --- the dead-code sweep -------------------------------------------------------

def _assert_sweep_matches_reference(f):
    """_erase_dead erases the same slots and returns the same flag as the
    round-by-round reference, seeded with every def and with random subsets."""
    defs = sorted(defined_values(f))
    rng = random.Random(canonical_hash(f))
    for seeds in [defs] + [rng.sample(defs, rng.randint(0, len(defs))) for _ in range(4)]:
        ours, theirs = edit(f), edit(f)
        assert _erase_dead(ours, set(seeds)) == reference_erase_dead(theirs, set(seeds))
        assert ours == theirs, (print_function(f), seeds)


@pytest.mark.parametrize("path", VALID_FILES, ids=[p.stem for p in VALID_FILES])
def test_erase_dead_matches_reference_on_corpus_and_neighbours(path):
    f = parse_function(path.read_text())
    for g in [f, *one_step_neighbours(f)]:
        _assert_sweep_matches_reference(g)


@given(straightline())
@settings(max_examples=150, deadline=None)
def test_erase_dead_matches_reference_on_generated_straightline(text):
    _assert_sweep_matches_reference(parse_function(text))


@given(memory_cfg())
@settings(max_examples=150, deadline=None)
def test_erase_dead_matches_reference_on_generated_memory_programs(text):
    _assert_sweep_matches_reference(parse_function(text))


# --- whole-corpus invariants --------------------------------------------------

@pytest.mark.parametrize("pass_name", sorted(FORWARD_PASSES))
def test_pass_preserves_semantics_and_validity(pass_name, corpus_function):
    f = corpus_function
    out = apply_pass(pass_name, f)
    assert validate_function(out.function) == []
    # `changed` must mean exactly "the canonical program moved"
    assert out.changed == (canonical_hash(out.function) != canonical_hash(f))
    if out.changed:
        wl = workload_for(f)
        rep = differential_check(f, out.function, wl)
        assert rep.equivalent, (pass_name, f.name, rep.mismatches[:1])


@pytest.mark.parametrize("pass_name", sorted(FORWARD_PASSES))
def test_pass_efficiency_tier(pass_name, corpus_function):
    f = corpus_function
    out = apply_pass(pass_name, f)
    if not out.changed:
        return
    before = rank_key(f)[:2]
    after = rank_key(out.function)[:2]
    if pass_name in STRICT:
        assert after < before, (pass_name, f.name, before, after)
    else:
        assert static_cost(out.function) <= static_cost(f), (pass_name, f.name)


@pytest.mark.parametrize("pass_name", sorted(FORWARD_PASSES))
def test_pass_idempotent_on_corpus(pass_name, corpus_function):
    once = apply_pass(pass_name, corpus_function).function
    again = apply_pass(pass_name, once)
    assert not again.changed, (pass_name, corpus_function.name)


# No corpus file or forward neighbour has an unreachable block, the one shape
# on which a caller extends the analysed block order.
UNREACHABLE_BLOCK = """func @f(%x) {
entry:
  %a = add %x, 0
  br out
dead:
  %d = add 2, 3
  br out
out:
  %r = phi [%a, entry], [%d, dead]
  ret %r
}
"""


@pytest.mark.parametrize("text", [p.read_text() for p in VALID_FILES] + [UNREACHABLE_BLOCK],
                         ids=[p.stem for p in VALID_FILES] + ["unreachable_block"])
def test_pass_output_does_not_depend_on_cached_analyses(text):
    # Passes share the cached CFG analyses of the Function they are given. Run
    # each pass after the other twelve have filled that cache, and compare with
    # a fresh parse, whose analyses are all cold: a pass that mutated a shared
    # result would make the two differ.
    f = parse_function(text)
    programs = {canonical_hash(f): f}
    for name in FORWARD_PASSES:
        out = apply_pass(name, f)
        if out.changed:
            programs.setdefault(canonical_hash(out.function), out.function)
    for g in programs.values():
        for name in FORWARD_PASSES:
            apply_pass(name, g)
        for name in FORWARD_PASSES:
            warm = apply_pass(name, g)
            cold = apply_pass(name, parse_function(print_function(g)))
            assert warm.changed == cold.changed, (f.name, print_function(g), name)
            assert print_function(warm.function) == print_function(cold.function), \
                (f.name, print_function(g), name)
