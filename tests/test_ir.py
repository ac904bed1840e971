"""Parser, printer, validator, canonicalization and the analysis cache."""

import json
import weakref
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidiropt import ir
from bidiropt.analysis import compute_dominators, known_bits, live_cells, use_def
from bidiropt.ir import (
    BasicBlock,
    Function,
    Instruction,
    Literal,
    ParseError,
    ValueRef,
    block_order_with_unreachable,
    canonical_hash,
    canonical_text,
    defined_values,
    parse_function,
    parse_module,
    predecessors,
    print_function,
    resolve,
    rpo_order,
    validate_function,
    validate_module,
    value_order,
)
from bidiropt.passes import FORWARD_PASSES, apply_pass, edit, freeze

from conftest import (
    CORPUS_AND_WITNESSES,
    INVALID_FILES,
    REGRESS_FILES,
    VALID_FILES,
    all_reverse_variants,
    cfg_program,
    load,
    memory_cfg,
    one_step_neighbours,
    reference_canonical_text,
    reference_print,
    rename_blocks,
    rename_values,
    run_cli,
    straightline,
)


# --- round trips -----------------------------------------------------------

@pytest.mark.parametrize("path", VALID_FILES, ids=lambda p: p.stem)
def test_print_parse_round_trip(path):
    f = parse_function(path.read_text())
    g = parse_function(print_function(f))
    assert canonical_text(f) == canonical_text(g)
    # printing is a fixpoint
    assert print_function(g) == print_function(f)


def _assert_pass_outputs_read_back(f):
    for name in FORWARD_PASSES:
        g = apply_pass(name, f).function
        assert parse_function(print_function(g)) == g, (name, print_function(f))


# Every forward pass output reads back as itself, so `opt --output` writes a
# file that `validate` and the other commands accept.
@pytest.mark.parametrize("text", CORPUS_AND_WITNESSES)
def test_every_pass_output_reads_back_as_itself(text):
    f = parse_function(text)
    for g in [f, *one_step_neighbours(f)]:
        _assert_pass_outputs_read_back(g)


@given(st.one_of(straightline(), memory_cfg(), cfg_program()))
@settings(max_examples=200, deadline=None)
def test_every_pass_output_reads_back_as_itself_on_generated_programs(text):
    f = parse_function(text)
    assert validate_function(f) == []
    _assert_pass_outputs_read_back(f)


@pytest.mark.parametrize("path", VALID_FILES, ids=lambda p: p.stem)
def test_corpus_validates(path):
    f = parse_function(path.read_text())
    assert validate_function(f) == []


INVALID_KINDS = {
    "arith_on_ptr": {"KindError"},
    "bad_arity": {"ArityError"},
    "double_ret": {"TerminatorError"},
    "dup_def": {"SSAError"},
    "entry_has_pred": {"StructureError"},
    "literal_too_big": {"ParseError"},
    "load_bad_ptr": {"KindError"},
    "missing_terminator": {"TerminatorError"},
    "phi_after_body": {"PhiError"},
    "phi_bad_pred": {"LabelError", "PhiError"},
    "phi_in_entry": {"PhiError"},
    "store_to_value": {"KindError"},
    "undefined_value": {"UseError"},
    "unknown_label": {"LabelError"},
    "use_before_def": {"DominanceError"},
}


@pytest.mark.parametrize("path", INVALID_FILES, ids=lambda p: p.stem)
def test_invalid_corpus_rejected(path):
    text = path.read_text()
    try:
        m = parse_module(text)
    except ParseError:
        kinds = {"ParseError"}
    else:
        kinds = {e.kind for e in validate_module(m)}
    assert kinds == INVALID_KINDS[path.stem]


def _diamond(right: str, join: str) -> str:
    return ("func @f(%x) {\nentry:\n  condbr %x, left, right\n"
            "left:\n  %a = add %x, 1\n  br join\n"
            f"right:\n{right}\njoin:\n{join}\n}}\n")


@pytest.mark.parametrize("right,join,where", [
    # a use in one arm of a value defined in the other arm
    ("  %b = add %a, 2\n  br join", "  ret %x", "right"),
    # a phi incoming that does not dominate the end of its predecessor
    ("  br join", "  %p = phi [%a, left], [%a, right]\n  ret %p", "join"),
], ids=["arm-use", "phi-incoming"])
def test_cross_block_dominance_rejected(right, join, where):
    errs = validate_function(parse_function(_diamond(right, join)))
    assert [(e.kind, e.where) for e in errs] == [("DominanceError", where)]


def test_value_loaded_from_a_cell_holding_an_address_is_not_an_int32():
    # The interpreter reads %a back as %e's cell index, so mem2reg, which
    # promotes %u and renumbers the cells, would change the result from 2 to 1.
    f = parse_function("""func @f(%x) {
entry:
  %u = alloca
  %e = alloca
  %h = alloca
  store 1, %u
  store %e, %h
  %a = load %h
  %b = load %u
  %s = add %a, %b
  ret %s
}
""")
    errs = validate_function(f)
    assert [(e.kind, e.where) for e in errs] == [("KindError", "entry")]
    assert "%a" in errs[0].message


@pytest.mark.parametrize("use,ok", [
    ("store %b, %u", True),     # passed on through a store's value position
    ("%s = add %b, 1", False),  # two cells away from the alloca, still an address
    ("%s = select %x, %b, 1", False),
    ("ret %b", False),
])
def test_addresses_are_followed_through_cells_to_a_fixpoint(use, ok):
    f = parse_function(f"""func @f(%x) {{
entry:
  %e = alloca
  %h = alloca
  %g = alloca
  %u = alloca
  store %e, %h
  %a = load %h
  store %a, %g
  %b = load %g
  {use}
  ret %x
}}
""".replace("  ret %x\n", "" if use.startswith("ret") else "  ret %x\n"))
    kinds = [e.kind for e in validate_function(f)]
    assert kinds == ([] if ok else ["KindError"])


# --- canonicalization ------------------------------------------------------

def test_canonical_text_round_trip_is_a_fixpoint():
    for path in VALID_FILES:
        f = parse_function(path.read_text())
        assert canonical_text(parse_function(canonical_text(f))) == canonical_text(f)


def _parseable(path):
    try:
        return parse_module(path.read_text()).functions
    except ParseError:
        return ()


@pytest.mark.parametrize("path", VALID_FILES + INVALID_FILES,
                         ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_canonical_text_matches_reference(path):
    for f in _parseable(path):
        assert canonical_text(f) == reference_canonical_text(f)


@pytest.mark.parametrize("path", VALID_FILES, ids=lambda p: p.stem)
def test_canonical_text_matches_reference_on_reverse_variants(path):
    # phis, allocas and loads that the corpus alone does not have
    for v in all_reverse_variants(parse_function(path.read_text()), cap=8):
        assert canonical_text(v.function) == reference_canonical_text(v.function), v.step


@given(straightline())
@settings(max_examples=120, deadline=None)
def test_canonical_text_matches_reference_on_generated(text):
    f = parse_function(text)
    assert canonical_text(f) == reference_canonical_text(f)


# an unreachable block keeps its place after the reachable ones
UNREACHABLE_BLOCK = ("func @f(%x) {\nentry:\n  br exit\ndead:\n  %d = add %y, 1\n  br exit\n"
                     "exit:\n  %p = phi [%x, entry], [%d, dead]\n  ret %p\n}\n")
# an undefined value and an unknown label print as they are
UNDEFINED_NAMES = ("func @g(%x) {\nentry:\n  %a = add %x, %ghost\n  condbr %a, nowhere, out\n"
                   "out:\n  ret %a\n}\n")


@pytest.mark.parametrize("text,lines,expected", [
    (UNREACHABLE_BLOCK, slice(1, None), [
        "b0:", "  br b1", "b1:", "  %v1 = phi [%v0, b0], [%v2, b2]", "  ret %v1",
        "b2:", "  %v2 = add %y, 1", "  br b1", "}"]),
    (UNDEFINED_NAMES, slice(2, 4), ["  %v1 = add %v0, %ghost", "  condbr %v1, nowhere, b1"]),
], ids=["unreachable-block", "undefined-names"])
def test_canonical_text_of_odd_shapes(text, lines, expected):
    f = parse_function(text)
    assert canonical_text(f) == reference_canonical_text(f)
    assert canonical_text(f).splitlines()[lines] == expected


# The one-sweep printer against the reference, which renames first and
# prints one opcode at a time: on every corpus function, on the shapes where
# the sweep meets a use before its definition (a phi on a back edge, an
# unreachable block, an undefined name), and on generated programs with
# cells, loads, stores, diamonds and loops.


def _assert_printers_match(f):
    assert canonical_text(f) == reference_canonical_text(f)
    assert print_function(f) == reference_print(f)


@pytest.mark.parametrize("path", VALID_FILES + REGRESS_FILES,
                         ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_printers_match_the_reference_on_the_corpus(path):
    _assert_printers_match(parse_function(path.read_text()))


@pytest.mark.parametrize("text", [UNREACHABLE_BLOCK, UNDEFINED_NAMES],
                         ids=["unreachable-block", "undefined-names"])
def test_printers_match_the_reference_on_odd_shapes(text):
    _assert_printers_match(parse_function(text))


@given(straightline())
@settings(max_examples=100, deadline=None)
def test_printers_match_the_reference_on_generated_straightline(text):
    _assert_printers_match(parse_function(text))


@given(memory_cfg())
@settings(max_examples=200, deadline=None)
def test_printers_match_the_reference_on_generated_memory_cfg(text):
    _assert_printers_match(parse_function(text))


# --- the per-object memo -----------------------------------------------------

def test_memo_is_not_shared_with_derived_functions():
    f = load("bin2bcd")
    canonical_hash(f)
    g = replace(f, name="renamed")
    assert canonical_text(g) == reference_canonical_text(g) != canonical_text(f)
    assert canonical_hash(g) != canonical_hash(f)
    for path in VALID_FILES:
        f = parse_function(path.read_text())
        canonical_hash(f)
        for name in FORWARD_PASSES:
            out = apply_pass(name, f)
            assert canonical_text(out.function) == reference_canonical_text(out.function), name
            assert out.changed == (canonical_hash(out.function) != canonical_hash(f)), name


def test_memo_leaves_dataclass_identity_alone():
    f, g = load("diamond"), load("diamond")
    before = (repr(f), hash(f), [x.name for x in fields(f)])
    canonical_text(f)
    canonical_hash(f)
    assert f == g and hash(f) == hash(g)
    assert (repr(f), hash(f), [x.name for x in fields(f)]) == before
    assert [x.name for x in fields(Function)] == ["name", "params", "blocks"]


def test_one_object_is_printed_once(monkeypatch):
    calls = []
    real = ir._print

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(ir, "_print", counting)
    f = load("bin2bcd")
    text = canonical_text(f)
    assert canonical_text(f) is text
    canonical_hash(f)
    canonical_hash(f)
    assert len(calls) == 1
    canonical_text(load("bin2bcd"))  # an equal but distinct object prints again
    assert len(calls) == 2


def test_canonical_hash_ignores_value_names():
    f = load("bin2bcd")
    names = [p for p in f.params] + [
        ins.result for b in f.blocks for ins in b.instrs if ins.result
    ]
    mapping = {n: f"weird_{i}" for i, n in enumerate(names)}
    g = rename_values(f, mapping)
    assert canonical_hash(g) == canonical_hash(f)


def test_canonical_hash_ignores_block_labels():
    f = load("diamond")
    g = rename_blocks(f, {"small": "lo", "big": "hi", "join": "merge"})
    assert canonical_hash(g) == canonical_hash(f)


def test_canonical_text_includes_function_name():
    f = load("bin2bcd")
    g = replace(f, name="other")
    assert canonical_text(f) != canonical_text(g)
    assert canonical_text(replace(f, name="x")) == canonical_text(replace(g, name="x"))


def test_canonical_blocks_and_values_are_sequential():
    f = load("diamond")
    text = canonical_text(f)
    assert "b0:" in text and "b1:" in text
    assert "%v0" in text
    # params come first in the value numbering
    assert text.splitlines()[0].startswith("func @diamond(%v0)")


# --- the per-function analysis cache ---------------------------------------

CACHED_ANALYSES = (rpo_order, predecessors, defined_values, use_def, compute_dominators,
                   live_cells, value_order, known_bits)


def test_cached_analyses_return_immutable_containers():
    f = load("loop_sum")
    ud, dt, preds, live = use_def(f), compute_dominators(f), predecessors(f), live_cells(f)
    for mapping in (preds, defined_values(f), ud.defs, ud.instrs, ud.uses, dt.idom, dt.children,
                    live, value_order(f)):
        with pytest.raises(TypeError):
            mapping["head"] = None
    for seq in (rpo_order(f), dt.rpo, *preds.values(), *ud.uses.values(),
                *dt.children.values()):
        assert isinstance(seq, tuple)
    assert all(isinstance(cells, frozenset) for cells in live.values())
    # the one caller that extends the order works on its own copy
    order = block_order_with_unreachable(f)
    order.append("x")
    assert "x" not in rpo_order(f)


@pytest.mark.parametrize("analysis", CACHED_ANALYSES, ids=lambda a: a.__name__)
def test_cached_analysis_of_a_new_function_is_its_own(analysis):
    # A Function built right after another is dropped usually takes over its
    # memory, and so its id. The cache's slot pins the Function it
    # remembers, so a new Function can never be taken for it.
    texts = [p.read_text() for p in VALID_FILES]
    parsed = [parse_function(t) for t in texts]
    want = [analysis(parse_function(t)) for t in texts]
    for _ in range(2):
        for f, expected in zip(parsed, want):
            g = Function(f.name, f.params, f.blocks)
            assert analysis(g) == expected, f.name
            del g


def test_analysis_cache_lets_go_of_a_function():
    # each analysis remembers only the last Function it saw
    for analysis in CACHED_ANALYSES:
        f = load("loop_sum")
        g = Function(f.name, f.params, f.blocks)
        alive = weakref.ref(f)
        analysis(f)
        del f
        analysis(g)
        assert alive() is None, analysis.__name__


def test_analysis_cache_runs_once_per_function_and_holds_one():
    runs = []

    @ir.per_function
    def analysis(f):
        runs.append(f)
        return len(runs)

    fs = [parse_function(p.read_text()) for p in VALID_FILES[:3]]
    refs = [weakref.ref(f) for f in fs]
    assert analysis(fs[0]) == analysis(fs[0]) == 1  # a repeat call runs it once
    assert analysis(fs[1]) == 2
    assert analysis(fs[2]) == 3
    assert analysis(fs[0]) == 4  # fs[0] was let go, so it runs again
    runs.clear()
    del fs
    assert [r() is not None for r in refs] == [True, False, False]


# --- parse errors and literals ---------------------------------------------

def test_literal_max_accepted():
    f = parse_function("func @f(%x) {\nentry:\n  %a = add %x, 4294967295\n  ret %a\n}\n")
    assert validate_function(f) == []


def test_literal_overflow_rejected():
    text = "func @f(%x) {\nentry:\n  %a = add %x, 4294967296\n  ret %a\n}\n"
    try:
        f = parse_function(text)
    except ParseError:
        return
    assert validate_function(f)


def test_negative_literal_wraps_to_u32():
    f = parse_function("func @f(%x) {\nentry:\n  %a = add %x, -1\n  ret %a\n}\n")
    assert "add %x, 4294967295" in print_function(f)
    with pytest.raises(ParseError):
        parse_function("func @f(%x) {\nentry:\n  %a = add %x, -4294967296\n  ret %a\n}\n")


def test_parse_error_carries_location():
    try:
        parse_function("func @f(%x) {\nentry:\n  %a = bogus %x, 1\n  ret %a\n}\n")
    except ParseError as e:
        assert e.line == 3
        assert "bogus" in e.message
    else:
        pytest.fail("expected ParseError")


def test_parse_function_rejects_multi_function_module():
    one = "func @a(%x) {\nentry:\n  ret %x\n}\n"
    with pytest.raises(ParseError):
        parse_function(one + one.replace("@a", "@b"))
    m = parse_module(one + one.replace("@a", "@b"))
    assert [f.name for f in m.functions] == ["a", "b"]
    assert m.function("b").name == "b"
    with pytest.raises(KeyError):
        m.function("c")


def _func(body: str, params: str = "%x") -> str:
    return f"func @f({params}) {{\nentry:\n{body}}}\n"


# every message the parser raises: (text, line, message)
PARSE_ERRORS = {
    "bad-value-name": (_func("  ret %1x\n"), 3, "bad value name '%1x'"),
    "literal-range": (_func("  ret 4294967296\n"), 3, "literal out of 32-bit range: 4294967296"),
    "bad-operand": (_func("  ret x\n"), 3, "bad operand 'x'"),
    "phi-incomings": (_func("  br b\nb:\n  %p = phi [0 entry]\n  ret %p\n"), 5,
                      "malformed phi incoming list"),
    "alloca-operand": (_func("  %a = alloca 1\n  ret %x\n"), 3, "alloca takes no operands"),
    "condbr-condition": (_func("  condbr\n"), 3, "condbr needs a condition"),
    "br-labels": (_func("  br a, b\n"), 3, "br expects 1 label(s)"),
    "condbr-labels": (_func("  condbr %x, a\n"), 3, "condbr expects 2 label(s)"),
    "unknown-opcode": (_func("  %a = frob %x\n  ret %a\n"), 3,
                       "unknown or valueless opcode 'frob'"),
    "valueless-opcode": (_func("  %a = store 1, %x\n  ret %x\n"), 3,
                         "unknown or valueless opcode 'store'"),
    "not-an-instruction": (_func("  frob %x\n"), 3, "expected instruction, got 'frob %x'"),
    "nested-func": (_func("func @g() {\n"), 3, "nested func (missing '}'?)"),
    "func-header": ("func @f(%x)\n", 1, "malformed func header"),
    "parameter": ("func @f(x) {\n", 1, "bad parameter 'x'"),
    "stray-brace": ("}\n", 1, "'}' outside function"),
    "outside-func": ("entry:\n", 1, "expected 'func', got 'entry:'"),
    "no-label": ("func @f(%x) {\n  ret %x\n}\n", 2, "instruction before first block label"),
    "unterminated": ("func @f(%x) {\nentry:\n  ret %x\n", 4,
                     "unterminated function (missing '}')"),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_table(case, tmp_path):
    text, line, message = PARSE_ERRORS[case]
    with pytest.raises(ParseError) as e:
        parse_module(text)
    assert (e.value.line, e.value.message) == (line, message)
    path = tmp_path / "f.ir"
    path.write_text(text)
    code, out = run_cli("validate", path)
    assert code == 1
    assert json.loads(out)["outcome"]["errors"] == [
        {"kind": "ParseError", "where": f"line {line}", "message": message}]


_ALLOCA = "  %p = alloca\n  store 1, %p\n"
_TWO_PREDS = "  condbr %x, a, b\na:\n  br j\nb:\n  br j\nj:\n"
# every validation error that text can express: (text, kind, where, message)
VALIDATION_ERRORS = {
    "no-blocks": ("func @f(%x) {\n}\n", "StructureError", "@f", "function has no blocks"),
    "duplicate-label": (_func("  br b\nb:\n  ret %x\nb:\n  ret %x\n"),
                        "StructureError", "@f", "duplicate block labels"),
    "duplicate-param": (_func("  ret %x\n", "%x, %x"), "SSAError", "@f",
                        "duplicate parameter %x"),
    "duplicate-def": (_func("  %a = add %x, 1\n  %a = add %x, 2\n  ret %a\n"),
                      "SSAError", "entry", "%a defined more than once"),
    "empty-block": (_func("  ret %x\nb:\n"), "TerminatorError", "b", "block has no terminator"),
    "early-terminator": (_func("  ret %x\n  ret %x\n"), "TerminatorError", "entry",
                         "'ret' before end of block"),
    "no-terminator": (_func("  %a = add %x, 1\n"), "TerminatorError", "entry",
                      "block does not end with a terminator"),
    "phi-after-body": (_func(_TWO_PREDS + "  %a = add %x, 1\n  %p = phi [0, a], [1, b]\n"
                             "  ret %p\n"), "PhiError", "j", "phi after non-phi instruction"),
    "unknown-label": (_func("  br nowhere\n"), "LabelError", "entry", "unknown label 'nowhere'"),
    "entry-pred": (_func("  br b\nb:\n  br entry\n"), "StructureError", "entry",
                   "entry block has predecessors"),
    "entry-phi": (_func("  %p = phi [0, entry]\n  br entry\n"), "PhiError", "entry",
                  "phi in entry block"),
    "arity": (_func("  %a = add %x\n  ret %a\n"), "ArityError", "entry",
              "'add' wants 2 operand(s), got 1"),
    "undefined": (_func("  ret %y\n"), "UseError", "entry", "use of undefined value %y"),
    "pointer": (_func("  %a = load %x\n  ret %a\n"), "KindError", "entry",
                "'load' pointer operand must be an alloca result"),
    "alloca-as-int": (_func(_ALLOCA + "  %a = add %p, 1\n  ret %a\n"), "KindError", "entry",
                      "alloca %p used as int32 operand"),
    "loaded-address": (_func(_ALLOCA + "  %h = alloca\n  store %p, %h\n  %a = load %h\n"
                             "  ret %a\n"), "KindError", "entry",
                       "loaded address %a used as int32 operand"),
    "phi-preds": (_func(_TWO_PREDS + "  %p = phi [0, a]\n  ret %p\n"), "PhiError", "j",
                  "phi incomings ['a'] do not match predecessors ['a', 'b']"),
    "phi-duplicate": (_func(_TWO_PREDS + "  %p = phi [0, a], [1, b], [2, a]\n  ret %p\n"),
                      "PhiError", "j", "duplicate phi incoming labels"),
    "phi-dominance": (_func("  condbr %x, a, b\na:\n  %v = add %x, 1\n  br j\nb:\n  br j\n"
                            "j:\n  %p = phi [%v, a], [%v, b]\n  ret %p\n"),
                      "DominanceError", "j", "phi incoming %v does not dominate end of b"),
    "use-dominance": (_func("  %a = add %b, 1\n  %b = add %x, 1\n  ret %a\n"),
                      "DominanceError", "entry", "use of %b not dominated by its definition"),
    "duplicate-function": (_func("  ret %x\n") * 2, "StructureError", "module",
                           "duplicate function names"),
}


@pytest.mark.parametrize("case", sorted(VALIDATION_ERRORS))
def test_validation_error_table(case, tmp_path):
    text, kind, where, message = VALIDATION_ERRORS[case]
    path = tmp_path / "f.ir"
    path.write_text(text)
    code, out = run_cli("validate", path)
    assert code == 1
    errors = json.loads(out)["outcome"]["errors"]
    assert {"kind": kind, "where": where, "message": message} in errors


def _entry(*instrs):
    return Function("f", ("x",), (BasicBlock("entry", tuple(instrs)),))


_RET = Instruction(None, "ret", (ValueRef("x"),))
# the validation errors no text can express, built as Functions
FUNCTION_ONLY_ERRORS = {
    "unknown-opcode": (_entry(Instruction("a", "frob", (ValueRef("x"),)), _RET),
                       "OpcodeError", "unknown opcode 'frob'"),
    "phi-arity": (Function("f", ("x",), (
        BasicBlock("entry", (Instruction(None, "br", (), ("b",)),)),
        BasicBlock("b", (Instruction("p", "phi", (Literal(0), Literal(1)), ("entry",)), _RET)))),
        "PhiError", "phi operand/label count mismatch"),
    "label-count": (_entry(Instruction(None, "ret", (ValueRef("x"),), ("entry",))),
                    "ArityError", "'ret' has wrong label count"),
    "must-define": (_entry(Instruction(None, "add", (ValueRef("x"), Literal(1))), _RET),
                    "StructureError", "'add' must define a value"),
    "cannot-define": (_entry(Instruction("r", "ret", (ValueRef("x"),))),
                      "StructureError", "'ret' cannot define a value"),
}


@pytest.mark.parametrize("case", sorted(FUNCTION_ONLY_ERRORS))
def test_validation_error_table_beyond_text(case):
    f, kind, message = FUNCTION_ONLY_ERRORS[case]
    errs = validate_function(f)
    assert (kind, message) in [(e.kind, e.message) for e in errs]


_CORPUS_TEXTS = [p.read_text() for p in VALID_FILES + INVALID_FILES]
_JUNK = ["%", "[", "]", ",", "{", "}", "@f", "%x", "-1", "4294967296", "phi", "br", "ret",
         "alloca", "store", "load", "entry:", "=", ";", "0x10", "%1x"]


@st.composite
def mutated_corpus_text(draw):
    """A corpus text with 1-4 lines deleted, duplicated or swapped, or tokens
    replaced or dropped."""
    lines = draw(st.sampled_from(_CORPUS_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["delete", "duplicate", "swap", "replace", "drop"]))
        if how == "delete":
            del lines[i]
        elif how == "duplicate":
            lines.insert(j, lines[i])
        elif how == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            toks = lines[i].split(" ")
            k = draw(st.integers(0, len(toks) - 1))
            if how == "replace":
                pool = _JUNK + " ".join(lines).split()
                toks[k] = draw(st.sampled_from(pool))
            else:
                del toks[k]
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@given(mutated_corpus_text())
@settings(max_examples=1000, deadline=None)
def test_mutated_text_raises_only_parse_errors(text):
    try:
        m = parse_module(text)
    except ParseError:
        return
    validate_module(m)


# --- helpers used by every pass --------------------------------------------

def test_rpo_starts_at_entry_and_skips_unreachable():
    f = load("diamond")
    order = rpo_order(f)
    assert order[0] == "entry"
    assert set(order) == {"entry", "small", "big", "join"}
    preds = predecessors(f)
    assert sorted(preds["join"]) == ["big", "small"]


def test_substitute_rewrites_uses_not_defs():
    f = load("bin2bcd")
    g = freeze(f, edit(f), {"q": Literal(7)})
    text = print_function(g)
    assert "shl 7, 4" in text or "= shl 7" in text
    # the defining instruction itself is untouched
    assert "%q = udiv %val, 10" in text


def test_substitute_with_value_ref():
    f = load("bin2bcd")
    g = freeze(f, edit(f), {"h": ValueRef("q")})
    assert "add %q, %r" in print_function(g)


def test_substitute_keeps_untouched_instructions():
    f = load("bin2bcd")
    g = freeze(f, edit(f), {"h": ValueRef("q")})
    for b, c in zip(f.blocks, g.blocks):
        for old, new in zip(b.instrs, c.instrs):
            touched = any(o == ValueRef("h") for o in old.operands)
            assert (new is old) != touched, old


def test_resolve_follows_the_chain_to_its_end():
    chain = {"a": ValueRef("b"), "b": ValueRef("c"), "c": Literal(3), "s": ValueRef("s")}
    assert resolve(ValueRef("a"), chain) == Literal(3)
    assert resolve(ValueRef("s"), chain) == ValueRef("s")  # a self-map ends the chain
    assert resolve(ValueRef("z"), chain) == ValueRef("z")
    assert resolve(Literal(9), chain) == Literal(9)
