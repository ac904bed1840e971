"""End-to-end acceptance checks, one criterion per test.

Each test appends one PASS/FAIL line to the terminal summary (see conftest)
and asserts the same condition, so a regression is visible both as a red
test and as a readable verdict line. The heavy CLI runs are memoized
because the determinism criterion replays them and compares raw bytes.
"""

import json
import time

from bidiropt.cost import static_cost
from bidiropt.interp import Workload, differential_check
from bidiropt.ir import canonical_hash, parse_function
from bidiropt.passes import FORWARD_PASSES, apply_pass
from bidiropt.reverse import PAIRINGS
from bidiropt.search import (
    ClassGraph,
    SearchLimits,
    check_closure,
    exhaustive_search,
    explore_sep_class,
    ibo,
)

import conftest
from conftest import VALID, VALID_FILES, all_reverse_variants, load, run_cli, workload_for

SEED = VALID / "bin2bcd.ir"
SEARCH_ARGV = ("search", SEED)
IBO_ARGV = ("ibo", SEED, "-k", "2")
COMPARE_ARGV = ("compare", VALID, "-k", "3")

MICRO = ("straightline_ret", "const_expr", "identities", "divmul",
         "dce_chain", "strength", "cse_dup", "reassoc_cancel")

# fixture name -> instruction envelope under which its class closes
SEP_CASES = (("straightline_ret", 4), ("identities", 5), ("divmul", 5),
             ("cse_dup", 6), ("dce_chain", 6), ("strength", 5))

_MEMO: dict[str, tuple[int, str]] = {}
_FUNCS: list = []


def _cli(key, argv):
    if key not in _MEMO:
        _MEMO[key] = run_cli(*argv)
    return _MEMO[key]


def _corpus():
    if not _FUNCS:
        _FUNCS.extend(parse_function(p.read_text()) for p in VALID_FILES)
    return _FUNCS


def _report(num, label, ok, detail=""):
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_1_seed_search_and_ibo_agree_with_frozen_keys():
    t0 = time.monotonic()
    code_s, out_s = _cli("search", SEARCH_ARGV)
    code_i, out_i = _cli("ibo", IBO_ARGV)
    elapsed = time.monotonic() - t0
    ok, detail = code_s == 0 and code_i == 0, f"{elapsed:.1f}s"
    if ok:
        s = json.loads(out_s)["outcome"]
        i = json.loads(out_i)["outcome"]
        seed = load("bin2bcd")
        wl = Workload("u8-exhaustive", tuple((x,) for x in range(256)))
        eq_s = differential_check(seed, parse_function(s["best_ir"]), wl).equivalent
        eq_i = differential_check(seed, parse_function(i["best_ir"]), wl).equivalent
        ok = (s["best_key"] == [11, 5] and i["best_key"] == [9, 4]
              and eq_s and eq_i and elapsed < 10.0)
        detail = (f"search={s['best_key']} ibo={i['best_key']} "
                  f"equivalent={eq_s and eq_i} {elapsed:.1f}s")
    _report(1, "seed search (11,5), ibo k=2 (9,4), equivalent on all u8 inputs",
            ok, detail)


def test_criterion_2_every_transform_preserves_behavior():
    t0 = time.monotonic()
    bad, checked = [], 0
    for f in _corpus():
        wl = workload_for(f, count=64)
        for name in FORWARD_PASSES:
            out = apply_pass(name, f)
            if not out.changed:
                continue
            checked += 1
            if not differential_check(f, out.function, wl).equivalent:
                bad.append(f"{f.name}:{name}")
        for v in all_reverse_variants(f):
            checked += 1
            if not differential_check(f, v.function, wl).equivalent:
                bad.append(f"{f.name}:{v.step}")
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 120.0
    detail = f"{checked} applications over {len(_corpus())} functions, {elapsed:.1f}s"
    if bad:
        detail += f" bad={bad[:3]}"
    _report(2, "every firing pass and reverse variant is behavior-preserving",
            ok, detail)


def test_criterion_3_zero_iterations_is_exactly_exhaustive():
    bad = []
    for f in _corpus():
        a, b = ibo(f, 0), exhaustive_search(f)
        if a.best_key != b.best_key or a.best_provenance != b.best_sequence:
            bad.append(f.name)
    _report(3, "ibo with k=0 equals exhaustive search on the whole corpus",
            not bad, f"{len(_corpus())} functions" + (f" bad={bad}" if bad else ""))


def test_criterion_4_more_iterations_never_hurt():
    t0 = time.monotonic()
    bad = []
    spot = {"bin2bcd", "scale_split", "loop_sum"}
    for f in _corpus():
        out = ibo(f, 3)
        keys = [out.baseline.best_key] + [it.best_key for it in out.iterations]
        if any(b > a for a, b in zip(keys, keys[1:])):
            bad.append(f.name)
        if f.name in spot:
            # per-iteration keys must coincide with independent runs at each k
            for k in range(4):
                want = keys[min(k, len(keys) - 1)]
                if ibo(f, k).best_key != want:
                    bad.append(f"{f.name}@k={k}")
    elapsed = time.monotonic() - t0
    _report(4, "best key is monotone in the iteration budget k=0..3",
            not bad, f"{len(_corpus())} functions, {elapsed:.1f}s"
            + (f" bad={bad[:3]}" if bad else ""))


def test_criterion_5_reachable_classes_close_and_control_is_caught():
    bad, nodes = [], 0
    for name, env in SEP_CASES:
        g = explore_sep_class(
            load(name), limits=SearchLimits(max_instructions_per_program=env))
        rep = check_closure(g)
        nodes += len(g.nodes)
        if g.truncated or rep.verdict != "closed" or rep.violations:
            bad.append(name)
    f1 = parse_function("func @f(%x) {\nentry:\n  ret %x\n}\n")
    f2 = parse_function("func @f(%x) {\nentry:\n  %a = add %x, 1\n  ret %a\n}\n")
    d1, d2 = canonical_hash(f1), canonical_hash(f2)
    planted = ClassGraph(start=d1, nodes={d1: f1, d2: f2},
                         edges=((d1, "rev-insert-dead-store@0", d2),),
                         truncated=False)
    neg = check_closure(planted)
    control = neg.verdict == "violated" and len(neg.violations) == 1
    ok = not bad and control
    _report(5, "explored classes close under all edges; planted violation caught",
            ok, f"{len(SEP_CASES)} fixtures, {nodes} nodes, control="
            f"{neg.verdict}/{len(neg.violations)}" + (f" bad={bad}" if bad else ""))


def _naive_best(f, names, depth):
    """No pruning, no memo: walk every pass sequence. Oracle only."""
    from bidiropt.cost import rank_key

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


def test_criterion_6_pruned_search_matches_naive_enumeration():
    t0 = time.monotonic()
    names = tuple(FORWARD_PASSES)
    bad = []
    for name in MICRO:
        f = load(name)
        got = exhaustive_search(
            f, limits=SearchLimits(max_sequence_length=6)).best_key
        if got != _naive_best(f, names, 6):
            bad.append(name)
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 300.0
    _report(6, "digest-pruned search equals unpruned enumeration to depth 6",
            ok, f"{len(MICRO)} fixtures, {elapsed:.1f}s"
            + (f" bad={bad}" if bad else ""))


def test_criterion_7_every_reverse_is_undone_by_its_forward_pass():
    bad, total = [], 0
    for f in _corpus():
        pre = static_cost(f)
        for v in all_reverse_variants(f):
            total += 1
            out = apply_pass(PAIRINGS[v.reverse_name], v.function)
            if not out.changed or static_cost(out.function) > pre:
                bad.append(f"{f.name}:{v.step}")
    _report(7, "paired forward pass fires on every variant and recovers the cost",
            not bad, f"{total} variants" + (f" bad={bad[:3]}" if bad else ""))


def test_criterion_8_corpus_comparison_favors_ibo():
    t0 = time.monotonic()
    code, out = _cli("compare", COMPARE_ARGV)
    elapsed = time.monotonic() - t0
    ok, detail = code == 0, f"exit={code} {elapsed:.1f}s"
    if ok:
        o = json.loads(out)["outcome"]
        ok = (o["functions"] >= 20 and o["ibo_strictly_better"] >= 2
              and o["ibo_strictly_worse"] == 0 and elapsed < 600.0
              and all(r["equivalent"] for r in o["rows"]))
        detail = (f"{o['functions']} functions, better={o['ibo_strictly_better']} "
                  f"worse={o['ibo_strictly_worse']} ties={o['ties']} {elapsed:.1f}s")
    _report(8, "ibo strictly beats exhaustive somewhere and never loses",
            ok, detail)


def test_criterion_9_reports_are_byte_deterministic():
    first = {k: _cli(k, argv)[1] for k, argv in
             (("search", SEARCH_ARGV), ("ibo", IBO_ARGV), ("compare", COMPARE_ARGV))}
    stale = [k for k, argv in
             (("search", SEARCH_ARGV), ("ibo", IBO_ARGV), ("compare", COMPARE_ARGV))
             if run_cli(*argv)[1] != first[k]]
    _report(9, "rerunning the seed and corpus reports reproduces identical bytes",
            not stale, "search, ibo, compare" + (f" differ={stale}" if stale else ""))
