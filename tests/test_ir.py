"""Parser, printer, validator, and canonicalization."""

from dataclasses import replace

import pytest

from bidiropt.ir import (
    Literal,
    ParseError,
    ValueRef,
    canonical_hash,
    canonical_text,
    canonicalize,
    parse_function,
    parse_module,
    predecessors,
    print_function,
    rename_blocks,
    rename_values,
    rpo_order,
    substitute,
    validate_function,
    validate_module,
)

from conftest import INVALID_FILES, VALID_FILES, load


# --- round trips -----------------------------------------------------------

@pytest.mark.parametrize("path", VALID_FILES, ids=lambda p: p.stem)
def test_print_parse_round_trip(path):
    f = parse_function(path.read_text())
    g = parse_function(print_function(f))
    assert canonical_text(f) == canonical_text(g)
    # printing is a fixpoint
    assert print_function(g) == print_function(f)


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


# --- canonicalization ------------------------------------------------------

def test_canonicalize_idempotent():
    for path in VALID_FILES:
        f = parse_function(path.read_text())
        c = canonicalize(f)
        assert canonical_text(c) == canonical_text(f)
        assert print_function(c) == canonical_text(f)


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
    g = substitute(f, {"q": Literal(7)})
    text = print_function(g)
    assert "shl 7, 4" in text or "= shl 7" in text
    # the defining instruction itself is untouched
    assert "%q = udiv %val, 10" in text


def test_substitute_with_value_ref():
    f = load("bin2bcd")
    g = substitute(f, {"h": ValueRef("q")})
    assert "add %q, %r" in print_function(g)
