"""Exhaustive search, reverse-then-optimize, class exploration, replay."""

import hashlib
import json
from collections import Counter

import pytest

from bidiropt import interp, ir, search
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

from conftest import ROOT, VALID, VALID_FILES, WORKLOADS, load, run_cli, workload_for

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
    assert out.total_programs == 54


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
    # the diamond's dead-store detours do not crowd the or/rem/shl chain
    # out of the 256-member frontier
    f = parse_function((ROOT / "corpus" / "regress" / "crowd2.ir").read_text())
    out = ibo(f, 3)
    assert out.baseline.best_key[:2] == (18, 13)
    assert out.best_key[:2] == (16, 12)
    assert out.total_programs == 950
    assert print_function(replay_sequence(f, out.best_provenance)) == print_function(
        out.best_function)


LOOP_HOISTED_BEST = """\
func @loop_hoisted(%n, %a, %b) {
entry:
  %t = mul %a, %b
  br head
head:
  %i = phi [0, entry], [%i2, body]
  %acc = phi [0, entry], [%t0, body]
  %c = icmp.ult %i, %n
  condbr %c, body, exit
body:
  %t0 = add %t, %acc
  %i2 = add %i, 1
  br head
exit:
  ret %acc
}
"""


@pytest.mark.parametrize("metric", [
    [], ["--metric", "dynamic", "--workload", WORKLOADS / "loop_hoisted.json"]],
    ids=["static", "dynamic"])
def test_a_hoisted_loop_gets_no_sinking_detours(metric):
    # no reverse pass moves code into a loop, so loop_hoisted's only detours
    # are dead-store cells, and the best program is reassociate's alone
    code, out = run_cli("ibo", VALID / "loop_hoisted.ir", "-k", "3", *metric)
    assert code == 0
    rep = json.loads(out)["outcome"]
    assert rep["best_key"] == ([10, 10, 2871] if metric else [10, 10])
    assert rep["best_ir"] == LOOP_HOISTED_BEST
    assert rep["sequence"] == ["reassociate"]
    assert rep["total_programs"] == 18


def multi(n):
    """n copies of bin2bcd, one on each of n parameters, joined by xor."""
    body = []
    for j in range(n):
        body += [f"  %q{j} = udiv %v{j}, 10", f"  %h{j} = shl %q{j}, 4",
                 f"  %r{j} = urem %v{j}, 10", f"  %s{j} = add %h{j}, %r{j}"]
    body += [f"  %x{j} = xor %{'s0' if j == 1 else f'x{j - 1}'}, %s{j}" for j in range(1, n)]
    params = ", ".join(f"%v{j}" for j in range(n))
    return parse_function(f"func @multi{n}({params}) {{\nentry:\n" + "\n".join(body)
                          + f"\n  ret %x{n - 1}\n}}\n")


@pytest.mark.parametrize("n,programs", [(2, 660), (3, 3942), (4, 19236)],
                         ids=["multi2", "multi3", "multi4"])
def test_wins_compose_across_independent_kernels(n, programs):
    # each kernel needs its own rem and shl detours before reassociate
    # collapses it, so n kernels need k = 2n; under the default limits no
    # chain of them is cut from the 256-member frontier
    f = multi(n)
    out = ibo(f, 2 * n)
    assert out.baseline.best_key[:2] == (11 * n, 5 * n)
    assert out.best_key[:2] == (9 * n, 4 * n)
    assert out.total_programs == programs


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
    # a dead-store variant already holds a dead store, so it grows no
    # second one: only the input's reachable blocks are sites
    out = ibo(f, 3, reverses=("rev-insert-dead-store",))
    assert [it.variants_generated for it in out.iterations] == [len(f.blocks), 0, 0]
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
    # and overlapping sub-spaces share their pass applications
    cache = PassCache()
    ibo(load("scale_split"), 3, cache=cache)
    assert cache.hits == 468


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


# --- interning ---------------------------------------------------------------------

def test_mem2reg_and_dse_give_back_one_object_on_a_dead_store_variant(monkeypatch):
    # Both erase the variant's one dead cell, so both return the program it
    # was made from; the run's PassCache holds that program once.
    variants = []
    real = search.reverse_variants

    def recording(name, *args, **kwargs):
        out = real(name, *args, **kwargs)
        if name == "rev-insert-dead-store":
            variants.extend(v.function for v in out)
        return out

    monkeypatch.setattr(search, "reverse_variants", recording)
    cache = PassCache()
    ibo(load("loop_sum"), 2, cache=cache)
    assert variants
    for v in variants:
        d = canonical_hash(v)
        m_changed, m_out = cache.apply("mem2reg", v, d)
        d_changed, d_out = cache.apply("dse", v, d)
        assert m_changed and d_changed and m_out is d_out


def test_ibo_prints_each_distinct_program_once(monkeypatch):
    printed = Counter()
    real = ir._print

    def counting(f, *args):
        printed[(f.name, f.params, f.blocks)] += 1
        return real(f, *args)

    monkeypatch.setattr(ir, "_print", counting)
    ibo(load("bin2bcd"), 2)
    assert len(printed) == 22
    assert max(printed.values()) == 1


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
    ("identities", 5, 4, 6, "closed",
     "845c38711398e3c531ed3a9827dfcf88c24de123cca9b739415fbecac8726791"),
    ("divmul", 5, 3, 5, "closed",
     "08b669464827d842a0414eefcb2d2eda8cffc3a77d8ca6e3b4348adfbe172de3"),
    ("cse_dup", 6, 4, 8, "closed",
     "6ec709d3efca5484342ca4e8b06b50ff40b53a6536467dc599d4346188e051de"),
    ("dce_chain", 6, 6, 17, "closed",
     "a01fd38a96c408680fe69cfa1f534a77c9a85d0e77634924556a7e1098c8e44b"),
    ("strength", 5, 19, 45, "closed",
     "fe89deac755ed9f0a82682621558435683dd53ab85f349897f186db501d8ef46"),
    ("const_expr", 6, 10, 37, "closed",
     "4bb25c1e57d7b2a190cdba0a336fabc37ed607272b9548afc778a4e93ca694f3"),
    ("bin2bcd", 7, 40, 126, "closed",
     "ff4c8cf11e53b30e1a316726b2e807af4a6134ad384ed3138f1e1c52551aa32d"),
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
