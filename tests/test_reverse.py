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

from conftest import (
    ROOT,
    SHIFTS,
    VALID_FILES,
    all_reverse_variants,
    canonical_prints,
    fresh,
    load,
    memory_cfg,
    one_step_neighbours,
    reference_touched,
    same_modulo_name,
    straightline,
    workload_for,
)


def test_every_reverse_pairs_with_a_registered_forward():
    assert set(PAIRINGS) == set(REVERSE_PASSES)
    assert len(REVERSE_PASSES) == 4
    for fwd in PAIRINGS.values():
        assert fwd in FORWARD_PASSES


def test_readme_table_lists_exactly_the_pairings():
    # the README's `| reverse | paired forward |` table, row for row
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| reverse | paired forward |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, fwd = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        rows[name] = fwd
    assert rows == PAIRINGS


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
    f = parse_function(SHIFTS)
    full = reverse_variants("rev-instexpand-shl", f)
    capped = reverse_variants("rev-instexpand-shl", f, cap=3)
    assert len(full) > 3 and len(capped) == 3
    for a, b in zip(capped, full):
        assert a.step == b.step
        assert canonical_hash(a.function) == canonical_hash(b.function)


def test_enumeration_is_deterministic(corpus_function):
    a = all_reverse_variants(corpus_function)
    b = all_reverse_variants(corpus_function)
    assert [v.step for v in a] == [v.step for v in b]
    assert [canonical_hash(v.function) for v in a] == [canonical_hash(v.function) for v in b]


# --- touched sets: every site rewrites something ----------------------------------

def _assert_touched_is_the_diff(f):
    # every site changes an opcode or adds instructions, so its instruction
    # diff names something
    for v in all_reverse_variants(f):
        assert reference_touched(f, v.function) != frozenset(), (print_function(f), v.step)


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


def _seen(variants):
    return [(v.step, print_function(v.function)) for v in variants]


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


def _assert_no_site_gives_back_its_input(f):
    """Build every site of every enumerator and check that none gives back f,
    field for field or by canonical digest: each rewrite changes an opcode,
    adds instructions or moves one between blocks, so reverse_variants needs
    no rule that drops a variant equal to its input. The tests below are
    named for that rule, which this check replaced."""
    h = canonical_hash(f)
    for name, enumerate_sites in reverse._ENUMERATORS.items():
        for site, (_, build) in enumerate(enumerate_sites(f)):
            g = build()
            assert g != f and canonical_hash(g) != h, (print_function(f), name, site)


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_the_drop_rule_is_the_digest_rule(path):
    f = parse_function(path.read_text())
    for g in [f, *one_step_neighbours(f)]:
        _assert_no_site_gives_back_its_input(g)


@settings(max_examples=150, deadline=None)
@given(straightline())
def test_the_drop_rule_is_the_digest_rule_on_generated_programs(text):
    _assert_no_site_gives_back_its_input(parse_function(text))


@settings(max_examples=150, deadline=None)
@given(memory_cfg())
def test_the_drop_rule_is_the_digest_rule_on_generated_memory_programs(text):
    _assert_no_site_gives_back_its_input(parse_function(text))


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
