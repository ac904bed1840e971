"""Phase-ordering search.

exhaustive_search walks every distinct program reachable through forward
passes (deduplicated by canonical digest) and returns the best one under the
rank key. ibo wraps it: reverse passes generate detour variants, each variant
is exhaustively re-optimized, and a strictly better result replaces the
incumbent. The rank key ends with the canonical text, so "best" is a total
order and every outcome is reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from . import interp
from .cost import CostModel, DEFAULT_COST_MODEL, rank_key, static_size
from .ir import CanonicalDigest, Function, canonical_hash
from .interp import DEFAULT_STEP_LIMIT, WorkloadDiverged
from .passes import FORWARD_PASSES, apply_pass
from .reverse import REVERSE_PASSES, reverse_variants


@dataclass(frozen=True)
class SearchLimits:
    max_sequence_length: int = 12
    max_programs_explored: int = 200_000
    max_instructions_per_program: int = 512
    cap_per_pass: int = 8
    ibo_max_frontier: int = 256
    step_limit: int = DEFAULT_STEP_LIMIT  # per workload run, dynamic metric only


@dataclass(frozen=True)
class SearchOutcome:
    best_function: Function
    best_key: tuple
    best_sequence: tuple[str, ...]
    start_key: tuple
    explored: int
    saturated_leaves: int
    pruned_by_hash: int
    truncated: int
    skipped_oversize: int
    budget_exceeded: bool = False  # this search itself hit max_programs_explored


class ReplayDiverged(Exception):
    pass


class PassCache:
    """Digest-keyed memo of pass applications and dynamic costs, shared
    across the sub-searches of one ibo run so overlapping search spaces are
    only walked, and each program measured, once. `slices` is the run's
    control-slice memo (interp.dynamic_cost_total), keyed by the slice
    itself, so each control slice runs its workload once and none is
    printed.

    It also interns the run's programs (hash-consing), the one place where
    a program is found to be one the run has seen: ibo's input, each
    changed pass output and each reverse variant that equals, field for
    field, a Function the run already holds is replaced by that object
    before it is hashed. Equal Functions have the same names and
    instructions, so nothing printed or ranked changes, but the held
    object's memos (canonical text and digest) serve the duplicate: two
    passes that return the same program, as mem2reg and dse do on a
    dead-store variant, cost one print and one hash. An unchanged output is
    f itself and is not looked up, since that lookup would only add
    hashing."""

    def __init__(self) -> None:
        self.apps: dict[tuple[CanonicalDigest, str], tuple[bool, Function]] = {}
        self.searches: dict[CanonicalDigest, SearchOutcome] = {}
        self.dynamic: dict[CanonicalDigest, int | WorkloadDiverged] = {}
        self.slices: dict = {}
        self.programs: dict[Function, Function] = {}
        self.hits = 0

    def intern(self, f: Function) -> Function:
        """The run's one Function equal to f: f itself the first time."""
        return self.programs.setdefault(f, f)

    def apply(self, name: str, f: Function, digest: CanonicalDigest) -> tuple[bool, Function]:
        key = (digest, name)
        got = self.apps.get(key)
        if got is not None:
            self.hits += 1
            return got
        out = apply_pass(name, f)
        got = (True, self.intern(out.function)) if out.changed else (False, f)
        self.apps[key] = got
        return got

    def rank(self, f: Function, digest: CanonicalDigest, model: CostModel,
             workload, step_limit: int) -> tuple:
        """rank_key of f. The model, workload and step limit are fixed for one
        cache's lifetime, so the dynamic cost is keyed on the digest alone.
        Raises WorkloadDiverged when f does not finish every row; that
        outcome is memoized too."""
        if workload is None:
            return rank_key(f, model)
        cost = self.dynamic.get(digest)
        if cost is None:
            try:
                cost = interp.dynamic_cost_total(f, workload, step_limit, model, self.slices)
            except WorkloadDiverged as e:
                cost = e
            self.dynamic[digest] = cost
        if isinstance(cost, WorkloadDiverged):
            raise WorkloadDiverged(cost.args, cost.result)
        return rank_key(f, model, dynamic_cost=cost)


def exhaustive_search(f: Function,
                      passes: tuple[str, ...] | None = None,
                      limits: SearchLimits = SearchLimits(),
                      model: CostModel = DEFAULT_COST_MODEL,
                      workload=None,
                      cache: PassCache | None = None) -> SearchOutcome:
    """Depth-first enumeration of the forward phase-ordering space, children
    in pass declaration order, revisits pruned by canonical digest.

    Under the dynamic metric (a workload), WorkloadDiverged from f ends the
    search; a child that does not finish every row is left out, as a child
    over max_instructions_per_program is: not ranked, kept or expanded."""
    names = tuple(passes) if passes is not None else tuple(FORWARD_PASSES)
    cache = cache if cache is not None else PassCache()

    start_digest = canonical_hash(f)
    start_key = cache.rank(f, start_digest, model, workload, limits.step_limit)
    visited: set[CanonicalDigest] = {start_digest}
    stats = {"explored": 1, "saturated": 0, "pruned": 0, "truncated": 0, "oversize": 0}
    best = {"key": start_key, "fn": f, "seq": ()}
    path: list[str] = []

    def consider(g: Function, key) -> None:
        if key < best["key"]:
            best["key"] = key
            best["fn"] = g
            best["seq"] = tuple(path)

    def walk(g: Function, digest: CanonicalDigest) -> bool:
        """Explore below g; True when max_programs_explored cut the walk short."""
        if len(path) >= limits.max_sequence_length:
            stats["truncated"] += 1
            return False
        any_child = False
        for name in names:
            changed, child = cache.apply(name, g, digest)
            if not changed:
                continue
            any_child = True
            if static_size(child) > limits.max_instructions_per_program:
                stats["oversize"] += 1
                continue
            cd = canonical_hash(child)
            if cd in visited:
                stats["pruned"] += 1
                continue
            if stats["explored"] >= limits.max_programs_explored:
                return True
            try:
                key = cache.rank(child, cd, model, workload, limits.step_limit)
            except WorkloadDiverged:
                continue  # left out, as an oversize program is
            visited.add(cd)
            stats["explored"] += 1
            path.append(name)
            consider(child, key)
            spent = walk(child, cd)
            path.pop()
            if spent:
                return True
        if not any_child:
            stats["saturated"] += 1
        return False

    spent = walk(f, start_digest)
    return SearchOutcome(
        best_function=best["fn"], best_key=best["key"], best_sequence=best["seq"],
        start_key=start_key, explored=stats["explored"],
        saturated_leaves=stats["saturated"], pruned_by_hash=stats["pruned"],
        truncated=stats["truncated"], skipped_oversize=stats["oversize"],
        budget_exceeded=spent)


# ---------------------------------------------------------------------------
# iterative reverse-then-optimize

@dataclass(frozen=True)
class IboIteration:
    iteration: int
    frontier_size: int
    variants_generated: int
    searches_run: int
    cache_hits: int
    best_key: tuple
    improved: bool


@dataclass(frozen=True)
class IboOutcome:
    best_function: Function
    best_key: tuple
    best_provenance: tuple[str, ...]
    baseline: SearchOutcome
    iterations: tuple[IboIteration, ...]
    total_programs: int
    budget_exceeded: bool = False  # max_programs_explored ran out across all searches


def ibo(f: Function,
        iterations: int,
        passes: tuple[str, ...] | None = None,
        reverses: tuple[str, ...] | None = None,
        limits: SearchLimits = SearchLimits(),
        model: CostModel = DEFAULT_COST_MODEL,
        workload=None,
        cache: PassCache | None = None) -> IboOutcome:
    """Reverse-then-optimize around exhaustive search.

    Iteration zero is exhaustive search on the input; with iterations=0 the
    result is exactly that baseline. Each following iteration applies every
    configured reverse pass (None = all, up to cap_per_pass variants each)
    to every frontier program, exhaustively re-optimizes each variant, and
    keeps the result only when strictly better. The frontier then becomes the
    variants themselves, cheapest first, truncated to ibo_max_frontier.
    No chain of detours is pruned as independent of the step before it:
    such a chain can be the only way to a win
    (corpus/regress/bin2bcd_cell.ir). A variant larger than
    max_instructions_per_program is never built (reverse_variants'
    max_size), and `variants_generated` counts only the variants built.
    Under the dynamic metric, only f's own WorkloadDiverged ends the run; a
    variant that does not finish every row is dropped before the frontier
    is ranked, and the sub-searches leave out such programs too.

    `cache` (a fresh PassCache by default) holds the run's memos; a caller
    that passes one can reuse them, e.g. its control-slice memo.

    max_programs_explored bounds the programs of all searches together; when
    it runs out, the best result so far is returned with budget_exceeded set
    and the cut iteration left out of iterations.
    """
    reverses = reverses if reverses is not None else REVERSE_PASSES
    cache = cache if cache is not None else PassCache()
    f = cache.intern(f)
    baseline = exhaustive_search(f, passes, limits, model, workload, cache)
    cache.searches[canonical_hash(f)] = baseline
    total = baseline.explored
    best_fn = baseline.best_function
    best_key = baseline.best_key
    best_prov: tuple[str, ...] = baseline.best_sequence
    trace: list[IboIteration] = []
    spent = baseline.budget_exceeded

    # frontier members carry the reverse-step provenance that produced them
    # and their digest
    frontier: list[tuple[Function, tuple[str, ...], CanonicalDigest]] = [
        (f, (), canonical_hash(f))]

    for it in range(1, iterations + 1):
        if spent:
            break
        produced: list[tuple[Function, tuple[str, ...], CanonicalDigest]] = []
        seen: set[CanonicalDigest] = set()
        generated = 0
        for member, prov, _ in frontier:
            for rname in reverses:
                for v in reverse_variants(rname, member, limits.cap_per_pass,
                                          limits.max_instructions_per_program):
                    generated += 1
                    g = cache.intern(v.function)
                    d = canonical_hash(g)
                    if d in seen:
                        continue
                    seen.add(d)
                    produced.append((g, prov + (v.step,), d))

        ranked = []
        for t in produced:
            try:
                ranked.append((cache.rank(t[0], t[2], model, workload, limits.step_limit), t))
            except WorkloadDiverged:
                continue  # left out, as an oversize variant is
        ranked.sort(key=lambda kt: kt[0])
        produced = [t for _, t in ranked[:limits.ibo_max_frontier]]

        hits = 0
        searched = 0
        improved = False
        for g, prov, d in produced:
            sub = cache.searches.get(d)
            if sub is not None:
                hits += 1
            elif total >= limits.max_programs_explored:
                spent = True
                break
            else:
                sub_limits = replace(
                    limits, max_programs_explored=limits.max_programs_explored - total)
                sub = exhaustive_search(g, passes, sub_limits, model, workload, cache)
                cache.searches[d] = sub
                searched += 1
                total += sub.explored
            if sub.best_key < best_key:
                best_key = sub.best_key
                best_fn = sub.best_function
                best_prov = prov + sub.best_sequence
                improved = True
            if sub.budget_exceeded:
                spent = True
                break
        if spent:
            break
        trace.append(IboIteration(it, len(frontier), generated, searched, hits,
                                  best_key, improved))
        frontier = produced

    return IboOutcome(best_fn, best_key, best_prov, baseline, tuple(trace), total, spent)


# ---------------------------------------------------------------------------
# equivalence-class exploration

@dataclass(frozen=True)
class ClassGraph:
    start: CanonicalDigest
    nodes: dict[CanonicalDigest, Function]
    edges: tuple[tuple[CanonicalDigest, str, CanonicalDigest], ...]
    truncated: bool


@dataclass(frozen=True)
class ClosureReport:
    verdict: str  # "closed" | "violated" | "inconclusive"
    components: int
    violations: tuple[tuple[CanonicalDigest, str, CanonicalDigest], ...]


def explore_sep_class(f: Function,
                      passes: tuple[str, ...] | None = None,
                      reverses: tuple[str, ...] | None = None,
                      limits: SearchLimits = SearchLimits()) -> ClassGraph:
    """Breadth-first neighborhood of f under forward and reverse rewrites,
    out to max_sequence_length steps or max_programs_explored nodes.

    Reverse rewrites can grow a program forever, so the class is only finite
    inside a size envelope: children over max_instructions_per_program are
    outside the class by definition (their edges are dropped, and that alone
    does not mark the graph truncated), and reverse_variants' max_size skips
    such reverse variants unbuilt. Truncation means the walk was cut short by
    the depth or node budget while work remained.

    Children, pass outputs and reverse variants alike, are interned
    (PassCache.intern) before they are hashed: a child equal, field for
    field, to one the walk already holds is replaced by that object, whose
    canonical digest is memoized, so it is not printed again. Most children
    are such repeats, since a node's passes and its neighbours' passes often
    give back the same program.
    """
    names = tuple(passes) if passes is not None else tuple(FORWARD_PASSES)
    reverses = reverses if reverses is not None else REVERSE_PASSES
    start = canonical_hash(f)
    nodes: dict[CanonicalDigest, Function] = {start: f}
    intern = PassCache().intern
    intern(f)
    edges: list[tuple[CanonicalDigest, str, CanonicalDigest]] = []
    frontier = [start]
    truncated = False
    depth = 0
    while frontier and depth < limits.max_sequence_length:
        depth += 1
        nxt: list[CanonicalDigest] = []
        for d in frontier:
            g = nodes[d]
            children: list[tuple[str, Function]] = []
            for name in names:
                out = apply_pass(name, g)
                if out.changed:
                    children.append((name, intern(out.function)))
            for rname in reverses:
                for v in reverse_variants(rname, g, limits.cap_per_pass,
                                          limits.max_instructions_per_program):
                    children.append((v.step, intern(v.function)))
            for label, child in children:
                if static_size(child) > limits.max_instructions_per_program:
                    continue
                cd = canonical_hash(child)
                if cd not in nodes:
                    if len(nodes) >= limits.max_programs_explored:
                        truncated = True
                        continue
                    nodes[cd] = child
                    nxt.append(cd)
                edges.append((d, label, cd))
        frontier = nxt
    if frontier:
        truncated = True
    return ClassGraph(start, nodes, tuple(edges), truncated)


def check_closure(graph: ClassGraph) -> ClosureReport:
    """Forward edges (undirected) define the optimization neighborhood;
    every reverse edge must stay inside its component."""
    parent: dict[CanonicalDigest, CanonicalDigest] = {d: d for d in graph.nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    forward = [e for e in graph.edges if "@" not in e[1]]
    rev = [e for e in graph.edges if "@" in e[1]]
    for a, _, b in forward:
        union(a, b)
    violations = tuple((a, l, b) for a, l, b in rev if find(a) != find(b))
    components = len({find(d) for d in graph.nodes})
    if violations and graph.truncated:
        return ClosureReport("inconclusive", components, violations)
    if violations:
        return ClosureReport("violated", components, violations)
    return ClosureReport("closed", components, ())


# ---------------------------------------------------------------------------
# provenance replay

def is_site_index(text: str) -> bool:
    """Whether text spells a site index as Variant.step does: ASCII digits
    with no leading zero."""
    return re.fullmatch(r"0|[1-9][0-9]*", text) is not None


def replay_sequence(f: Function, steps) -> Function:
    """Re-run a provenance sequence: bare names are forward passes,
    name@index picks the variant at that site of the reverse enumeration.
    A site's index is its position in the full enumeration, so no cap
    changes what a step names. Diverges loudly instead of silently drifting."""
    g = f
    for step in steps:
        if "@" in step:
            rname, _, idx = step.partition("@")
            if not is_site_index(idx):
                raise ReplayDiverged(f"{step}: variant index is not a site index")
            i = int(idx)
            hit = [v for v in reverse_variants(rname, g, cap=i + 1) if v.site_index == i]
            if not hit:
                raise ReplayDiverged(f"{step}: no variant at site {i} here")
            g = hit[0].function
        else:
            out = apply_pass(step, g)
            if not out.changed:
                raise ReplayDiverged(f"{step}: pass did not fire")
            g = out.function
    return g
