"""Property-based checks over generated straight-line programs.

The generator (conftest.straightline) emits program text, so the parser is
part of every property. Programs may trap (udiv by a value that happens to
be zero); equivalence checking treats matching traps as agreement, same as
everywhere else.
"""

from hypothesis import given, settings

from bidiropt.analysis import known_bits
from bidiropt.cost import rank_key
from bidiropt.interp import Workload, differential_check
from bidiropt.ir import (
    canonical_hash,
    canonical_text,
    parse_function,
    print_function,
    validate_function,
)
from bidiropt.passes import FORWARD_PASSES, apply_pass
from bidiropt.reverse import PAIRINGS

from conftest import all_reverse_variants, eval_straightline, rename_values, straightline

PROBES = Workload("probes", (
    (0, 0), (1, 1), (0xFFFFFFFF, 1), (45, 10), (0xDEADBEEF, 3), (7, 0),
))


def _probe_args(f):
    return Workload("p", tuple(row[: len(f.params)] for row in PROBES.args))


@given(straightline())
@settings(max_examples=120, deadline=None)
def test_generated_programs_parse_and_validate(text):
    f = parse_function(text)
    assert validate_function(f) == []


@given(straightline())
@settings(max_examples=120, deadline=None)
def test_round_trip_is_stable(text):
    f = parse_function(text)
    g = parse_function(print_function(f))
    assert canonical_text(f) == canonical_text(g)


@given(straightline())
@settings(max_examples=120, deadline=None)
def test_canonical_hash_is_alpha_invariant(text):
    f = parse_function(text)
    names = list(f.params) + [
        ins.result for b in f.blocks for ins in b.instrs if ins.result
    ]
    g = rename_values(f, {n: f"z{i}" for i, n in enumerate(names)})
    assert canonical_hash(g) == canonical_hash(f)
    assert rank_key(g) == rank_key(f)


@given(straightline())
@settings(max_examples=60, deadline=None)
def test_every_pass_preserves_behavior(text):
    f = parse_function(text)
    wl = _probe_args(f)
    for name in FORWARD_PASSES:
        out = apply_pass(name, f)
        assert validate_function(out.function) == [], name
        assert out.changed == (canonical_hash(out.function) != canonical_hash(f))
        rep = differential_check(f, out.function, wl)
        assert rep.equivalent, (name, rep.mismatches[:1])


@given(straightline())
@settings(max_examples=60, deadline=None)
def test_known_bits_sound_on_generated(text):
    f = parse_function(text)
    kb = known_bits(f)
    for row in PROBES.args:
        env = eval_straightline(f, row[: len(f.params)])
        if env is None:
            continue
        for name, v in env.items():
            if name in kb:
                assert v & kb[name].zeros == 0, name
                assert v & kb[name].ones == kb[name].ones, name


@given(straightline())
@settings(max_examples=40, deadline=None)
def test_reverse_variants_on_generated(text):
    f = parse_function(text)
    base = rank_key(f)[:2]
    wl = _probe_args(f)
    for v in all_reverse_variants(f, cap=2):
        assert validate_function(v.function) == [], v.step
        assert rank_key(v.function)[:2] >= base, v.step
        undo = apply_pass(PAIRINGS[v.reverse_name], v.function)
        assert undo.changed, v.step
        rep = differential_check(f, v.function, wl)
        assert rep.equivalent, (v.step, rep.mismatches[:1])
