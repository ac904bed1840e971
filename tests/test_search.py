"""Exhaustive search, reverse-then-optimize, class exploration, replay."""

import hashlib

import pytest

from bidiropt import interp
from bidiropt.cost import rank_key, static_size
from bidiropt.interp import differential_check, load_workload
from bidiropt.ir import canonical_hash, parse_function, print_function
from bidiropt.passes import FORWARD_PASSES, apply_pass
from bidiropt.search import (
    ClassGraph,
    PassCache,
    ReplayDiverged,
    SearchLimits,
    check_closure,
    exhaustive_search,
    explore_sep_class,
    ibo,
    replay_sequence,
)

from conftest import ROOT, VALID_FILES, WORKLOADS, load, workload_for

MICRO = ["straightline_ret", "const_expr", "identities", "divmul", "dce_chain",
         "strength", "cse_dup", "reassoc_cancel"]


# --- exhaustive search ---------------------------------------------------------

def test_saturated_input_explores_once():
    f = parse_function("func @f(%x) {\nentry:\n  ret %x\n}\n")
    out = exhaustive_search(f)
    assert out.best_key == out.start_key
    assert out.best_sequence == ()
    assert out.explored == 1
    assert out.saturated_leaves == 1
    assert print_function(out.best_function) == print_function(f)


def test_forward_search_cannot_leave_local_optimum():
    out = exhaustive_search(load("bin2bcd"))
    assert out.best_key[:2] == (11, 5)
    assert out.explored == 2  # input + the add-to-or neighbor
    assert out.saturated_leaves == 1


def test_branch_clone_needs_three_passes():
    f = load("branch_clone")
    out = exhaustive_search(f)
    assert out.best_key[:2] == (5, 5)
    assert out.best_sequence == ("cond-prop", "const-fold", "simplifycfg")
    assert out.explored == 5
    assert differential_check(f, out.best_function, workload_for(f)).equivalent


def _naive_best(f, names, depth):
    """No pruning, no memo: every sequence up to saturation. Oracle only."""
    best = [rank_key(f)]

    def go(g, d):
        if d >= depth:
            return
        for name in names:
            out = apply_pass(name, g)
            if not out.changed:
                continue
            k = rank_key(out.function)
            if k < best[0]:
                best[0] = k
            go(out.function, d + 1)

    go(f, 0)
    return best[0]


@pytest.mark.parametrize("name", MICRO)
def test_matches_naive_enumeration(name):
    f = load(name)
    names = tuple(FORWARD_PASSES)
    out = exhaustive_search(f, limits=SearchLimits(max_sequence_length=6))
    assert out.best_key == _naive_best(f, names, 6), name


def test_search_is_deterministic():
    f = load("branch_clone")
    a = exhaustive_search(f)
    b = exhaustive_search(f)
    assert a == b


def _check_budget_contract(run, full, count: str, budgets) -> None:
    """run(L) under every budget L against the unbudgeted outcome full, whose
    `count` field is the number of programs it explored."""
    n = getattr(full, count)
    assert not full.budget_exceeded
    last = None
    for budget in budgets:
        out = run(SearchLimits(max_programs_explored=budget))
        assert getattr(out, count) <= budget, budget
        assert out.budget_exceeded == (budget < n), budget
        if not out.budget_exceeded:
            assert out == full, budget
        assert last is None or out.best_key <= last, budget
        last = out.best_key


@pytest.mark.parametrize("name", ["bin2bcd", "branch_clone", "straightline_ret"])
def test_search_budget_contract(name):
    f = load(name)
    full = exhaustive_search(f)
    _check_budget_contract(lambda limits: exhaustive_search(f, limits=limits),
                           full, "explored", range(1, full.explored + 2))


def test_depth_zero_returns_input():
    f = load("branch_clone")
    out = exhaustive_search(f, limits=SearchLimits(max_sequence_length=0))
    assert out.best_key == out.start_key
    assert out.truncated


def test_oversize_child_is_counted_and_never_explored():
    # bin2bcd's one forward child (add-to-or) is as large as the input
    f = load("bin2bcd")
    limits = SearchLimits(max_instructions_per_program=static_size(f) - 1)
    out = exhaustive_search(f, limits=limits)
    assert out.skipped_oversize == 1
    assert out.explored == 1
    assert out.best_function is f


def test_pass_cache_memoizes():
    cache = PassCache()
    f = load("branch_clone")
    exhaustive_search(f, cache=cache)
    before = cache.hits
    exhaustive_search(f, cache=cache)
    assert cache.hits > before


# --- ibo -------------------------------------------------------------------------

def test_ibo_zero_iterations_is_exhaustive(corpus_function):
    f = corpus_function
    out = ibo(f, 0)
    base = exhaustive_search(f)
    assert out.best_key == base.best_key
    assert out.iterations == ()
    assert out.best_provenance == base.best_sequence


def test_ibo_beats_exhaustive_on_seed():
    f = load("bin2bcd")
    out = ibo(f, 2)
    assert out.best_key[:2] == (9, 4)
    assert out.best_provenance == (
        "rev-instexpand-rem@0", "rev-instexpand-shl@0", "reassociate")
    assert out.baseline.best_key[:2] == (11, 5)
    assert out.total_programs == 86


def test_ibo_chains_detours_that_touch_nothing_in_common():
    # the shl expansion of %h touches nothing the rem expansion of %r
    # touched (%q reaches %h through its cell), yet the win needs both
    f = parse_function((ROOT / "corpus" / "regress" / "bin2bcd_cell.ir").read_text())
    out = ibo(f, 2)
    assert out.baseline.best_key[:2] == (11, 5)
    assert out.best_key[:2] == (9, 4)
    assert out.best_provenance == (
        "rev-instexpand-rem@0", "rev-instexpand-shl@0", "reassociate", "mem2reg",
        "reassociate")
    assert print_function(replay_sequence(f, out.best_provenance)) == print_function(
        out.best_function)


def test_crowd2_keeps_the_winning_chain_in_the_frontier():
    # detours of the add trees and the diamond no longer crowd the
    # or/rem/shl chain out of the 256-member frontier
    f = parse_function((ROOT / "corpus" / "regress" / "crowd2.ir").read_text())
    out = ibo(f, 3)
    assert out.baseline.best_key[:2] == (18, 13)
    assert out.best_key[:2] == (16, 12)
    assert out.total_programs == 4441
    assert print_function(replay_sequence(f, out.best_provenance)) == print_function(
        out.best_function)


def test_ibo_drops_oversize_reverse_variants():
    # no reverse variant of bin2bcd is smaller than bin2bcd, and none that
    # falls outside the envelope is built or counted
    f = load("bin2bcd")
    out = ibo(f, 1, limits=SearchLimits(max_instructions_per_program=static_size(f) - 1))
    (it,) = out.iterations
    assert it.variants_generated == 0
    assert (it.searches_run, it.cache_hits) == (0, 0)
    assert out.total_programs == out.baseline.explored == 1
    assert out.best_key == out.baseline.best_key


def test_ibo_monotone_in_iterations():
    f = load("bin2bcd")
    keys = [ibo(f, k).best_key for k in range(4)]
    for a, b in zip(keys, keys[1:]):
        assert b <= a


def test_ibo_useless_reverse_changes_nothing():
    # dead stores are instantly undone, so the frontier never improves
    f = load("loop_sum")
    out = ibo(f, 1, reverses=("rev-insert-dead-store",))
    assert out.best_key == ibo(f, 0).best_key


@pytest.mark.parametrize("name", ["bin2bcd", "straightline_ret"])
def test_ibo_budget_contract(name):
    f = load(name)
    full = ibo(f, 2)
    n = full.total_programs
    budgets = sorted(set(range(1, 40)) | {n - 1, n, n + 1})
    _check_budget_contract(lambda limits: ibo(f, 2, limits=limits),
                           full, "total_programs", budgets)


def test_empty_reverses_means_no_reverse_passes():
    # None means every reverse pass; () means none
    f = load("bin2bcd")
    assert ibo(f, 2).best_key < ibo(f, 2, reverses=()).best_key
    assert ibo(f, 2, reverses=()).best_key == exhaustive_search(f).best_key
    graph = explore_sep_class(f, reverses=())
    assert graph.edges and all("@" not in label for _, label, _ in graph.edges)


def test_ibo_sub_searches_share_work():
    # duplicate variants are deduplicated by digest before any search runs
    out = ibo(load("bin2bcd"), 2)
    it2 = out.iterations[1]
    assert it2.searches_run < it2.variants_generated
    # and overlapping sub-spaces start producing cache hits at depth three
    deep = ibo(load("scale_split"), 3)
    assert any(it.cache_hits > 0 for it in deep.iterations)


def _record_dynamic_sweeps(monkeypatch):
    """Digests swept by interp.dynamic_cost_total, and every PassCache made."""
    swept, caches = [], []
    real_sweep, real_init = interp.dynamic_cost_total, PassCache.__init__

    def sweep(f, *args, **kwargs):
        swept.append(canonical_hash(f))
        return real_sweep(f, *args, **kwargs)

    def init(cache):
        real_init(cache)
        caches.append(cache)

    monkeypatch.setattr(interp, "dynamic_cost_total", sweep)
    monkeypatch.setattr(PassCache, "__init__", init)
    return swept, caches


def test_ibo_runs_each_programs_workload_once(monkeypatch):
    swept, caches = _record_dynamic_sweeps(monkeypatch)
    f = load("loop_sum")
    wl = load_workload(WORKLOADS / "loop_sum.json")
    out = ibo(f, 1, workload=wl)
    assert len(swept) > 1
    assert len(swept) == len(set(swept))
    (cache,) = caches
    assert set(cache.dynamic) == set(swept)
    # a memoized dynamic cost is the one a fresh measurement gives
    fresh = interp.dynamic_cost_total(out.best_function, wl)
    assert out.best_key == rank_key(out.best_function, dynamic_cost=fresh)


def test_static_ranking_leaves_the_dynamic_memo_alone(monkeypatch):
    swept, caches = _record_dynamic_sweeps(monkeypatch)
    ibo(load("loop_sum"), 1)
    assert swept == []
    (cache,) = caches
    assert cache.dynamic == {}


def test_ibo_equivalence_end_to_end():
    f = load("bin2bcd")
    out = ibo(f, 2)
    assert differential_check(f, out.best_function, workload_for(f)).equivalent


# --- class exploration and closure ------------------------------------------------

def test_sep_class_closed_within_envelope():
    f = load("straightline_ret")
    g = explore_sep_class(f, limits=SearchLimits(max_instructions_per_program=4))
    assert not g.truncated
    rep = check_closure(g)
    assert rep.verdict == "closed"
    assert rep.components == 1
    assert rep.violations == ()
    assert canonical_hash(f) in g.nodes


# (function, envelope, nodes, edges, verdict, sha256 of the edge list): the
# equiv-class benchmark's fixtures, then divmul (4 instructions) started
# outside its envelope, so its start has no reverse edge (as identities, at
# 7 instructions, in an envelope of 5)
CLASS_GRAPHS = [
    ("straightline_ret", 4, 2, 3, "closed",
     "47815857e4784fda8f47cbf3dd2865e06458c130da615cf5429693ffa8b61997"),
    ("identities", 5, 5, 9, "closed",
     "d2d2e8f8238fea57a5b0fc5887e9d9244ec3f21bc20664b5b1b73239ec383fa0"),
    ("divmul", 5, 3, 5, "closed",
     "08b669464827d842a0414eefcb2d2eda8cffc3a77d8ca6e3b4348adfbe172de3"),
    ("cse_dup", 6, 6, 17, "closed",
     "05d97891d6c2bdea00df3c8477f478229f036b6ff2e57bd42c03aa240d8a503b"),
    ("dce_chain", 6, 11, 42, "closed",
     "fe681c2dcf10c10e66a8e462b38e5193ab32b717febd56fd018d007829cffe7e"),
    ("strength", 5, 20, 61, "closed",
     "bead491c952b7e966eb05f08dedd5fd0537dbb5e92c964a01d83f74223968a35"),
    ("const_expr", 6, 30, 158, "closed",
     "f5f316076da9501534b232019dd5034beecf1c0580f54d3e3c3aec5f5d9808aa"),
    ("bin2bcd", 7, 56, 200, "closed",
     "151f06616b331ff263e7a7def4afa5035b1c830a6aebe5b7338d8e63c28c9d95"),
    ("divmul", 3, 2, 1, "closed",
     "1a3e265e28c840a6cb9dc1d0f8954495c80c5c8aea20d652313e74628b402b61"),
]


@pytest.mark.parametrize("name,envelope,nodes,edges,verdict,sha", CLASS_GRAPHS,
                         ids=[f"{c[0]}@{c[1]}" for c in CLASS_GRAPHS])
def test_class_graphs_are_pinned(name, envelope, nodes, edges, verdict, sha):
    g = explore_sep_class(load(name), limits=SearchLimits(max_instructions_per_program=envelope))
    assert (len(g.nodes), len(g.edges), g.truncated) == (nodes, edges, False)
    assert check_closure(g).verdict == verdict
    text = "".join(f"{a} {label} {b}\n" for a, label, b in g.edges)
    assert hashlib.sha256(text.encode()).hexdigest() == sha
    assert all(static_size(h) <= envelope for d, h in g.nodes.items() if d != g.start)


def test_sep_class_depth_cut_is_inconclusive_or_closed():
    f = load("divmul")
    g = explore_sep_class(f, limits=SearchLimits(max_sequence_length=1))
    assert g.truncated
    rep = check_closure(g)
    assert rep.verdict in ("inconclusive", "closed")


def test_sep_class_node_budget_marks_truncated():
    f = load("bin2bcd")
    g = explore_sep_class(f, limits=SearchLimits(max_programs_explored=3))
    assert g.truncated
    assert len(g.nodes) <= 3


def test_closure_negative_control_detects_planted_violation():
    f1 = parse_function("func @f(%x) {\nentry:\n  ret %x\n}\n")
    f2 = parse_function("func @f(%x) {\nentry:\n  %a = add %x, 1\n  ret %a\n}\n")
    d1, d2 = canonical_hash(f1), canonical_hash(f2)
    fake = ClassGraph(
        start=d1,
        nodes={d1: f1, d2: f2},
        edges=((d1, "rev-insert-dead-store@0", d2),),
        truncated=False,
    )
    rep = check_closure(fake)
    assert rep.verdict == "violated"
    assert len(rep.violations) == 1
    assert rep.violations[0] == (d1, "rev-insert-dead-store@0", d2)
    assert rep.components == 2


def test_closure_forward_edges_join_components():
    f1 = parse_function("func @f(%x) {\nentry:\n  ret %x\n}\n")
    f2 = parse_function("func @f(%x) {\nentry:\n  %a = add %x, 1\n  ret %a\n}\n")
    d1, d2 = canonical_hash(f1), canonical_hash(f2)
    fake = ClassGraph(
        start=d1,
        nodes={d1: f1, d2: f2},
        edges=((d2, "dce", d1), (d1, "rev-insert-dead-store@0", d2)),
        truncated=False,
    )
    rep = check_closure(fake)
    assert rep.verdict == "closed"
    assert rep.components == 1


# --- replay -----------------------------------------------------------------------

def test_replay_reproduces_search_best():
    f = load("branch_clone")
    out = exhaustive_search(f)
    g = replay_sequence(f, list(out.best_sequence))
    assert print_function(g) == print_function(out.best_function)


def test_replay_reproduces_ibo_provenance():
    f = load("bin2bcd")
    out = ibo(f, 2)
    g = replay_sequence(f, list(out.best_provenance))
    assert print_function(g) == print_function(out.best_function)


@pytest.mark.parametrize("k", [2, 3])
def test_replay_rebuilds_every_corpus_provenance(k):
    for path in VALID_FILES:
        f = parse_function(path.read_text())
        out = ibo(f, k)
        g = replay_sequence(f, list(out.best_provenance))
        assert print_function(g) == print_function(out.best_function), (f.name, k)


def test_replay_rejects_non_firing_forward():
    f = load("straightline_ret")
    with pytest.raises(ReplayDiverged):
        replay_sequence(f, ["dce"])


def test_replay_rejects_stale_site_index():
    f = load("bin2bcd")
    with pytest.raises(ReplayDiverged):
        replay_sequence(f, ["rev-instexpand-rem@7"])


@pytest.mark.parametrize("index", ["-1", "x", ""])
def test_replay_rejects_non_decimal_index(index):
    # -1 would otherwise pick the last variant
    with pytest.raises(ReplayDiverged):
        replay_sequence(load("bin2bcd"), [f"rev-instexpand-shl@{index}"])


@pytest.mark.parametrize("index", ["\u0660", "01", "00", "+1", " 1", "1_0", "\uff11"],
                         ids=["arabic-indic-0", "01", "00", "plus", "space", "underscore",
                              "fullwidth-1"])
def test_replay_takes_a_site_index_only_as_variant_step_spells_it(index):
    # int() reads every one of these as a site that exists here
    with pytest.raises(ReplayDiverged, match="not a site index"):
        replay_sequence(load("bin2bcd"), [f"rev-instexpand-rem@{index}"])


def test_replay_unknown_pass():
    f = load("bin2bcd")
    with pytest.raises((KeyError, ReplayDiverged)):
        replay_sequence(f, ["not-a-pass"])
