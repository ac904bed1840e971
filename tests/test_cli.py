"""End-to-end CLI behavior: exit codes, report schema, determinism."""

import argparse
import json
import shutil

import pytest

from bidiropt.cli import _build_parser
from bidiropt.config import SETTINGS
from bidiropt.ir import canonical_hash, parse_function, print_function
from bidiropt.reverse import reverse_variants

from conftest import INVALID, ROOT, VALID, WORKLOADS, load, run_cli

REGRESS = ROOT / "corpus" / "regress"


def _json(out):
    return json.loads(out)


# --- validate -------------------------------------------------------------

def test_validate_ok():
    code, out = run_cli("validate", VALID / "bin2bcd.ir")
    assert code == 0
    rep = _json(out)
    assert rep["command"] == "validate"
    assert rep["outcome"]["valid"] is True
    assert rep["outcome"]["functions"] == ["bin2bcd"]
    assert "config" in rep and rep["config"]["metric"] == "static"


@pytest.mark.parametrize("path", sorted(INVALID.glob("*.ir")), ids=lambda p: p.stem)
def test_validate_rejects_invalid_corpus(path):
    code, out = run_cli("validate", path)
    assert code == 1
    rep = _json(out)
    assert rep["outcome"]["valid"] is False
    assert rep["outcome"]["errors"]


def test_validate_missing_file():
    code, _ = run_cli("validate", "no/such/file.ir")
    assert code == 2


@pytest.mark.parametrize("argv", [("validate",), ("run", "1"), ("opt", "--passes", "dce"),
                                  ("search",), ("ibo", "-k", "1"), ("equiv-class",),
                                  ("compare",)], ids=lambda a: a[0])
def test_non_utf8_input_is_a_usage_error(tmp_path, capsys, argv):
    p = tmp_path / "bad.ir"
    p.write_bytes(b"func @f(%x) {\nentry:\n  ret %x \xff\n}\n")
    code, out = run_cli(argv[0], p, *argv[1:])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith(f"error: cannot read {p}: ")


def _error_lines(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err.splitlines()


_TWO_FUNCTIONS = ("func @f(%x) {\nentry:\n  ret %x\n}\n"
                  "func @g(%x) {\nentry:\n  ret %x\n}\n")
_BAD_INPUTS = {
    "parse": ("func @f(%x) {\nentry:\n  %a = frob %x\n  ret %a\n}\n", [], 1,
              "{p}:3:5: unknown or valueless opcode 'frob'"),
    "validate": ("func @f(%x) {\nentry:\n  ret %y\n}\n", [], 1,
                 "{p}: UseError at entry: use of undefined value %y"),
    "unknown-function": (_TWO_FUNCTIONS, ["--function", "h"], 2, "error: no function @h in {p}"),
    "many-functions": (_TWO_FUNCTIONS, [], 2,
                       "error: {p} defines 2 functions (f, g); pass --function"),
}
# each command that loads one function; equiv-class takes no --function
_BAD_INPUT_CASES = [(argv, case) for argv in [("run", "1"), ("opt", "--passes", "dce"),
                                              ("search",), ("ibo", "-k", "1"), ("equiv-class",)]
                    for case in _BAD_INPUTS
                    if not (argv[0] == "equiv-class" and case == "unknown-function")]


@pytest.mark.parametrize("argv,case", _BAD_INPUT_CASES,
                         ids=[f"{case}-{argv[0]}" for argv, case in _BAD_INPUT_CASES])
def test_bad_input_ends_with_one_error_line(tmp_path, capsys, argv, case):
    text, extra, code, line = _BAD_INPUTS[case]
    p = tmp_path / "in.ir"
    p.write_text(text)
    got, out = run_cli(argv[0], p, *argv[1:], *extra)
    assert (got, out) == (code, "")
    assert _error_lines(capsys) == [line.format(p=p)]


# --- run --------------------------------------------------------------------

def test_run_value():
    code, out = run_cli("run", VALID / "bin2bcd.ir", "45")
    assert code == 0
    o = _json(out)["outcome"]
    assert o == {"args": [45], "outcome": "returned", "value": 69,
                 "reason": None, "steps": 5, "dynamic_cost": 11}


def test_run_trap_is_still_exit_zero(tmp_path):
    p = tmp_path / "t.ir"
    p.write_text("func @f(%x) {\nentry:\n  %a = udiv 1, %x\n  ret %a\n}\n")
    code, out = run_cli("run", p, "0")
    assert code == 0
    o = _json(out)["outcome"]
    assert o["outcome"] == "trapped" and o["reason"] == "DivByZero"


def test_run_bad_arity():
    code, _ = run_cli("run", VALID / "bin2bcd.ir", "1", "2")
    assert code == 2


def test_run_non_integer_argument_is_a_usage_error(capsys):
    code, out = run_cli("run", VALID / "bin2bcd.ir", "4x")
    assert (code, out) == (2, "")
    assert _error_lines(capsys) == ["error: arguments must be integers"]


@pytest.mark.parametrize("route", ["flag", "config"])
def test_run_with_arguments_and_a_workload_is_a_usage_error(tmp_path, capsys, route):
    w = str(WORKLOADS / "bin2bcd_spot.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workload": w}))
    argv = (["run", VALID / "bin2bcd.ir", "7", "--workload", w] if route == "flag"
            else ["--config", cfg, "run", VALID / "bin2bcd.ir", "7"])
    code, out = run_cli(*argv)
    assert (code, out) == (2, "")
    assert _error_lines(capsys) == ["error: run takes integer arguments or a workload, not both"]


def test_run_workload_prints_total(tmp_path):
    w = tmp_path / "w.json"
    w.write_text("[[45], [255]]")
    code, out = run_cli("run", VALID / "bin2bcd.ir", "--workload", w)
    assert code == 0
    assert _json(out)["outcome"] == {"cases": 2, "dynamic_cost_total": 22}


_BAD_WORKLOADS = {"wrong_arity": "[[1, 2], [3, 4]]", "float": "[[45.9]]",
                  "bool": "[[45], [true]]", "string": '[["45"]]'}


@pytest.mark.parametrize("argv", [("run",), ("ibo", "-k", "1", "--metric", "dynamic"),
                                  ("compare", "-k", "1", "--metric", "dynamic")],
                         ids=lambda a: a[0])
@pytest.mark.parametrize("rows", sorted(_BAD_WORKLOADS))
def test_malformed_workload_is_a_usage_error(tmp_path, capsys, argv, rows):
    w = tmp_path / "w.json"
    w.write_text(_BAD_WORKLOADS[rows])
    code, out = run_cli(argv[0], VALID / "bin2bcd.ir", *argv[1:], "--workload", w)
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith(f"error: cannot load workload {w}")


@pytest.mark.parametrize("argv", [("run",), ("ibo", "-k", "1", "--metric", "dynamic"),
                                  ("compare", "-k", "1")], ids=lambda a: a[0])
def test_empty_workload_is_a_usage_error(tmp_path, capsys, argv):
    # no row runs, so no row could tell a miscompile or a cost apart
    w = tmp_path / "w.json"
    w.write_text("[]")
    code, out = run_cli(argv[0], VALID / "bin2bcd.ir", *argv[1:], "--workload", w)
    assert (code, out) == (2, "")
    assert _error_lines(capsys) == [f"error: cannot load workload {w}: workload {w} has no rows"]


# --- opt ----------------------------------------------------------------------

def test_opt_text_mode_prints_ir():
    code, out = run_cli("opt", VALID / "const_expr.ir",
                        "--passes", "const-fold,dce", "--format", "text")
    assert code == 0
    assert out.startswith("func @const_expr(")
    assert "add %x, 20" in out


def test_opt_empty_pipeline_echoes_input():
    code, out = run_cli("opt", VALID / "bin2bcd.ir", "--passes", "",
                        "--format", "text")
    assert code == 0
    assert out == (VALID / "bin2bcd.ir").read_text()


def test_opt_unknown_pass():
    code, _ = run_cli("opt", VALID / "bin2bcd.ir", "--passes", "outline")
    assert code == 2


@pytest.mark.parametrize("step", ["dce@0", "reg2mem", "rev-reassociate", "rev-instexpand-rem@x",
                                  "rev-instexpand-rem@", "rev-instexpand-shl@-1"])
def test_opt_malformed_step_is_a_usage_error(step):
    code, _ = run_cli("opt", VALID / "bin2bcd.ir", "--passes", step)
    assert code == 2


@pytest.mark.parametrize("index", ["\u0660", "01", "\uff11", "1\u0660"],
                         ids=["arabic-indic-0", "01", "fullwidth-1", "mixed"])
def test_opt_site_index_is_ascii_digits_with_no_leading_zero(capsys, index):
    # Variant.step spells a site index this way and no other
    step = f"rev-instexpand-rem@{index}"
    code, out = run_cli("opt", VALID / "bin2bcd.ir", "--passes", step)
    assert code == 2 and out == ""
    assert _error_lines(capsys) == [
        f"error: bad step {step!r}: want a forward pass name or reverse-name@<index>"]


# a deleted reverse pass is refused like any other unknown name, on every route
_REFUSALS = [
    ("opt", "error: bad step '{}@0': want a forward pass name or reverse-name@<index>"),
    ("flag", "config error: unknown reverse pass '{}'"),
    ("config", "config error: unknown reverse pass '{}'"),
]


@pytest.mark.parametrize("name,route,want", [
    pytest.param(name, route, want.format(name), id=f"{route}-{want.format(name)}")
    for name in ("rev-split-block", "reg2mem") for route, want in _REFUSALS])
def test_a_removed_reverse_pass_is_refused(tmp_path, capsys, name, route, want):
    f = VALID / "nested_loop.ir"
    if route == "opt":
        argv = ["opt", f, "--passes", f"{name}@0"]
    elif route == "flag":
        argv = ["ibo", f, "-k", "1", "--reverses", name]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reverses": [name]}))
        argv = ["--config", cfg, "ibo", f, "-k", "1"]
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    assert _error_lines(capsys) == [want]


def test_opt_strict_rejects_non_firing_step():
    code, _ = run_cli("opt", VALID / "straightline_ret.ir",
                      "--passes", "dce", "--strict")
    assert code == 1


def test_opt_lenient_skips_non_firing_step():
    code, out = run_cli("opt", VALID / "straightline_ret.ir", "--passes", "dce")
    assert code == 0
    rep = _json(out)
    assert rep["outcome"]["applied"] == []


def test_opt_replays_reverse_steps():
    code, out = run_cli("opt", VALID / "bin2bcd.ir",
                        "--passes", "rev-instexpand-rem@0,divmul-to-rem",
                        "--format", "text")
    assert code == 0
    assert "urem" in out


def test_opt_stale_reverse_index():
    code, _ = run_cli("opt", VALID / "bin2bcd.ir", "--passes",
                      "rev-instexpand-rem@9")
    assert code == 1


def test_opt_replays_a_site_past_the_variant_cap():
    # a site index is its position in the full enumeration; no cap hides it
    crowd2 = REGRESS / "crowd2.ir"
    sites = {v.site_index: v.function
             for v in reverse_variants("rev-reassociate", parse_function(crowd2.read_text()))}
    assert 9 in sites and len(sites) > 8
    code, out = run_cli("opt", crowd2, "--strict",
                        "--passes", "rev-reassociate@9", "--format", "text")
    assert code == 0
    assert out == print_function(sites[9])


def test_opt_output_file_holds_the_reported_ir(tmp_path):
    dest = tmp_path / "out.ir"
    code, out = run_cli("opt", VALID / "branch_clone.ir",
                        "--passes", "cond-prop,const-fold,simplifycfg", "--output", dest)
    assert code == 0
    assert dest.read_text() == _json(out)["outcome"]["ir"]


@pytest.mark.parametrize("argv", [
    ("opt", VALID / "bin2bcd.ir", "--passes", "dce", "--output"),
    ("equiv-class", VALID / "straightline_ret.ir", "--budget-instrs", "4", "--dot"),
], ids=lambda a: a[0])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv):
    dest = tmp_path / "missing" / "out"
    code, out = run_cli(*argv, dest)
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith(f"error: cannot write {dest}: ")


# --- search / ibo ----------------------------------------------------------------

def test_search_report_schema():
    code, out = run_cli("search", VALID / "bin2bcd.ir")
    assert code == 0
    rep = _json(out)
    assert set(rep) == {"command", "config", "input", "outcome", "budget_exceeded"}
    o = rep["outcome"]
    assert o["best_key"] == [11, 5]
    assert o["sequence"] == []
    assert o["explored"] == 2
    assert rep["input"]["function"] == "bin2bcd"
    assert rep["budget_exceeded"] is False


def test_search_then_opt_reproduces_best_ir():
    code, out = run_cli("search", VALID / "branch_clone.ir")
    rep = _json(out)
    seq = ",".join(rep["outcome"]["sequence"])
    code2, ir = run_cli("opt", VALID / "branch_clone.ir", "--passes", seq,
                        "--format", "text")
    assert code2 == 0
    assert ir == rep["outcome"]["best_ir"]


def test_search_budget_exit_3():
    code, out = run_cli("search", VALID / "branch_clone.ir",
                        "--budget-programs", "2")
    assert code == 3
    rep = _json(out)
    assert rep["budget_exceeded"] is True
    assert rep["outcome"]["explored"] == 2


def test_ibo_finds_cheaper_form_than_search():
    code, out = run_cli("ibo", VALID / "bin2bcd.ir", "-k", "2")
    assert code == 0
    rep = _json(out)
    o = rep["outcome"]
    assert o["best_key"] == [9, 4]
    assert o["sequence"] == ["rev-instexpand-rem@0", "rev-instexpand-shl@0",
                            "reassociate"]
    assert o["baseline"]["best_key"] == [11, 5]
    assert [t["key"] for t in o["trace"]] == [[11, 6], [13, 6], [9, 4]]


def test_ibo_then_opt_reproduces_best_ir():
    code, out = run_cli("ibo", VALID / "bin2bcd.ir", "-k", "2")
    rep = _json(out)
    seq = ",".join(rep["outcome"]["sequence"])
    code2, ir = run_cli("opt", VALID / "bin2bcd.ir", "--passes", seq,
                        "--format", "text")
    assert code2 == 0
    assert ir == rep["outcome"]["best_ir"]


@pytest.mark.parametrize("path", sorted(VALID.glob("*.ir")), ids=lambda p: p.stem)
def test_ibo_and_baseline_sequences_replay_to_best_ir(path):
    """A reported sequence, reverse `name@index` steps included, replays
    under `opt --strict` to the reported IR, and its trace ends on best_key."""
    code, out = run_cli("ibo", path, "-k", "2")
    assert code == 0
    rep = _json(out)
    for o in (rep["outcome"], rep["outcome"]["baseline"]):
        code2, ir = run_cli("opt", path, "--strict", "--passes", ",".join(o["sequence"]),
                            "--format", "text")
        assert code2 == 0, o["sequence"]
        assert ir == o["best_ir"], o["sequence"]
        last = o["trace"][-1]["key"] if o["trace"] else rep["input"]["key"]
        assert last == o["best_key"]


def test_ibo_negative_k():
    code, _ = run_cli("ibo", VALID / "bin2bcd.ir", "-k", "-3")
    assert code == 2


def test_ibo_budget_exit_3():
    code, out = run_cli("ibo", VALID / "bin2bcd.ir", "-k", "2",
                        "--budget-programs", "10")
    assert code == 3
    assert _json(out)["budget_exceeded"] is True


_DIVERGED_FIELDS = {"cases", "diverged_args", "outcome", "reason"}


def test_ibo_dynamic_diverged_workload_exit_2():
    # the default random workload of this loop fixture hits the step limit
    code, out = run_cli("ibo", VALID / "nested_loop.ir", "-k", "1", "--metric", "dynamic")
    assert code == 2
    o = _json(out)["outcome"]
    assert set(o) == _DIVERGED_FIELDS
    assert o["outcome"] == "steplimit"
    # the first case of the seed-0 random workload that runs out of steps
    assert o["diverged_args"] == [3626764237, 1654615998]


@pytest.mark.parametrize("command", ["search", "ibo"])
def test_dynamic_ranking_uses_configured_step_limit(tmp_path, command):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"step_limit": 3}))
    extra = ["-k", "1"] if command == "ibo" else []
    code, out = run_cli("--config", p, command, VALID / "bin2bcd.ir", *extra,
                        "--metric", "dynamic")
    assert code == 2
    o = _json(out)["outcome"]
    assert o == {"cases": 256, "diverged_args": [0], "outcome": "steplimit",
                 "reason": None}


@pytest.mark.parametrize("command", [["search"], ["ibo", "-k", "1"]], ids=["search", "ibo"])
def test_a_dynamic_reports_trace_measures_no_program_twice(monkeypatch, command):
    # every program on the reported sequence was ranked by the search, so
    # its trace reads the keys from the run's cache
    from bidiropt import cli, interp

    measured = []
    real = interp.dynamic_cost_total

    def counting(f, *a, **k):
        measured.append(canonical_hash(f))
        return real(f, *a, **k)

    monkeypatch.setattr(interp, "dynamic_cost_total", counting)
    monkeypatch.setattr(cli, "dynamic_cost_total", counting)
    code, out = run_cli(command[0], VALID / "loop_licm.ir", *command[1:], "--metric", "dynamic",
                        "--workload", WORKLOADS / "loop_licm.json")
    assert code == 0
    assert len(_json(out)["outcome"]["trace"]) == 2
    assert measured and len(measured) == len(set(measured))


def test_only_the_inputs_divergence_ends_a_dynamic_run(tmp_path):
    # loop_sum(5) takes 7*5+6 = 41 steps. Of its 5 reverse variants, all but
    # the rev-reassociate swap need a 42nd; they are left out of the search,
    # as oversize variants are, and the input's own run decides the exit.
    w = tmp_path / "w.json"
    w.write_text("[[5]]")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"step_limit": 41}))
    f = VALID / "loop_sum.ir"
    code, out = run_cli("--config", cfg, "run", f, "--workload", w)
    assert code == 0
    assert _json(out)["outcome"] == {"cases": 1, "dynamic_cost_total": 29}
    code, out = run_cli("--config", cfg, "search", f, "--metric", "dynamic", "--workload", w)
    assert code == 0
    code, out = run_cli("--config", cfg, "ibo", f, "-k", "1", "--metric", "dynamic",
                        "--workload", w)
    assert code == 0
    o = _json(out)["outcome"]
    assert o["best_key"][2] == 29
    (it,) = o["iterations"]
    assert (it["variants_generated"], it["searches_run"]) == (5, 1)
    # one step less, and the input itself runs out
    cfg.write_text(json.dumps({"step_limit": 40}))
    code, out = run_cli("--config", cfg, "ibo", f, "-k", "1", "--metric", "dynamic",
                        "--workload", w)
    assert code == 2
    assert _json(out)["outcome"] == {"cases": 1, "diverged_args": [5],
                                     "outcome": "steplimit", "reason": None}


# --- equiv-class --------------------------------------------------------------------

def test_equiv_class_closed(tmp_path):
    dot = tmp_path / "g.dot"
    code, out = run_cli("equiv-class", VALID / "straightline_ret.ir",
                        "--budget-instrs", "4", "--dot", dot)
    assert code == 0
    o = _json(out)["outcome"]
    assert o["verdict"] == "closed"
    assert o["truncated"] is False
    assert o["components"] == 1
    text = dot.read_text()
    assert text.startswith("digraph") and "peripheries=2" in text


def test_equiv_class_inconclusive_when_depth_cut():
    code, out = run_cli("equiv-class", VALID / "divmul.ir", "--budget-seq", "1")
    assert code == 0
    o = _json(out)["outcome"]
    assert o["truncated"] is True
    assert o["verdict"] in ("inconclusive", "closed")


# --- compare -----------------------------------------------------------------------

def test_compare_single_file_ibo_wins():
    code, out = run_cli("compare", VALID / "bin2bcd.ir", "-k", "2")
    assert code == 0
    o = _json(out)["outcome"]
    assert o["functions"] == 1
    assert o["ibo_strictly_better"] == 1
    assert o["ibo_strictly_worse"] == 0
    row = o["rows"][0]
    assert row["exhaustive_key"] == [11, 5]
    assert row["ibo_key"] == [9, 4]
    assert row["winner"] == "ibo"
    assert row["equivalent"] is True
    assert row["ibo_keys_by_k"] == {"0": [11, 5], "1": [11, 5], "2": [9, 4]}


def test_compare_k0_always_ties():
    code, out = run_cli("compare", VALID / "bin2bcd.ir", "-k", "0")
    assert code == 0
    o = _json(out)["outcome"]
    assert o["ties"] == 1 and o["ibo_strictly_better"] == 0


def test_compare_directory_aggregates(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    for n in ("bin2bcd", "straightline_ret", "divmul"):
        shutil.copy(VALID / f"{n}.ir", d / f"{n}.ir")
    code, out = run_cli("compare", d, "-k", "2")
    assert code == 0
    o = _json(out)["outcome"]
    assert o["functions"] == 3
    assert o["ibo_strictly_better"] == 1
    assert o["ibo_strictly_worse"] == 0
    assert [r["function"] for r in o["rows"]] == ["bin2bcd", "divmul",
                                                  "straightline_ret"]


@pytest.mark.parametrize("name,k,budget,flags", [
    # the baseline explores exactly two programs, so only ibo runs out
    ("bin2bcd", 2, 2, {"ibo_budget_exceeded"}),
    ("bin2bcd", 2, 3, {"ibo_budget_exceeded"}),
    # the baseline saturates at its start program; only ibo runs out
    ("straightline_ret", 1, 1, {"ibo_budget_exceeded"}),
    ("branch_clone", 2, 2, {"exhaustive_budget_exceeded", "ibo_budget_exceeded"}),
])
def test_compare_budget_flags(name, k, budget, flags):
    code, out = run_cli("compare", VALID / f"{name}.ir", "-k", k,
                        "--budget-programs", budget)
    assert code == 3
    row = _json(out)["outcome"]["rows"][0]
    assert {key for key in row if key.endswith("budget_exceeded")} == flags


def test_compare_dynamic_diverged_row_exit_2(tmp_path):
    for n in ("nested_loop", "straightline_ret"):
        shutil.copy(VALID / f"{n}.ir", tmp_path / f"{n}.ir")
    code, out = run_cli("compare", tmp_path, "-k", "0", "--metric", "dynamic")
    assert code == 2
    diverged, ok = _json(out)["outcome"]["rows"]
    assert set(diverged["workload_diverged"]) == _DIVERGED_FIELDS
    assert "exhaustive_key" not in diverged
    assert ok["winner"] == "tie" and "workload_diverged" not in ok


def test_compare_negative_k_is_a_usage_error(capsys):
    code, out = run_cli("compare", VALID / "bin2bcd.ir", "-k", "-1")
    assert (code, out) == (2, "")
    assert _error_lines(capsys) == ["error: -k must be >= 0, got -1"]


def test_compare_text_marks_a_diverged_row(tmp_path, capsys):
    for n in ("nested_loop", "straightline_ret"):
        shutil.copy(VALID / f"{n}.ir", tmp_path / f"{n}.ir")
    code, out = run_cli("compare", tmp_path, "-k", "0", "--metric", "dynamic",
                        "--format", "text")
    assert code == 2
    lines = out.splitlines()
    assert lines[1] == f"{'nested_loop':<24} workload diverged"
    assert lines[2].startswith(f"{'straightline_ret':<24} (")
    assert lines[-1] == "functions: 2  ibo strictly better: 0  worse: 0  ties: 1"
    assert _error_lines(capsys) == []


def test_compare_empty_directory(tmp_path):
    code, _ = run_cli("compare", tmp_path)
    assert code == 2


def test_compare_text_table():
    code, out = run_cli("compare", VALID / "bin2bcd.ir", "-k", "2",
                        "--format", "text")
    assert code == 0
    assert out.splitlines()[0].split()[-2:] == ["winner", "inconclusive"]
    assert out.splitlines()[1].split()[-2:] == ["ibo", "0"]
    assert "ibo strictly better: 1" in out


def test_compare_text_table_marks_budget_cut_rows(tmp_path):
    for n in ("bin2bcd", "straightline_ret"):
        shutil.copy(VALID / f"{n}.ir", tmp_path / f"{n}.ir")
    code, out = run_cli("compare", tmp_path, "-k", "1", "--budget-programs", "20",
                        "--format", "text")
    assert code == 3
    lines = out.splitlines()
    assert lines[1].split()[0] == "bin2bcd" and lines[1].endswith("  budget cut: ibo")
    # straightline_ret saturates inside the budget, so nothing cuts it
    assert lines[2].split()[0] == "straightline_ret" and "budget cut" not in lines[2]
    assert lines[-1].endswith("ties: 2  budget cut: 1")
    code, out = run_cli("compare", VALID / "branch_clone.ir", "-k", "1",
                        "--budget-programs", "3", "--format", "text")
    assert code == 3
    assert out.splitlines()[1].endswith("  budget cut: exhaustive,ibo")
    assert out.splitlines()[-1].endswith("ties: 1  budget cut: 1")


@pytest.mark.parametrize("name,inconclusive", [
    # every default random input runs the loop past the step limit on both sides
    ("loop_licm", 64),
    # unary: all 256 byte inputs return
    ("bin2bcd", 0),
])
def test_compare_reports_inconclusive_inputs(name, inconclusive):
    code, out = run_cli("compare", VALID / f"{name}.ir", "-k", "0")
    assert code == 0
    row = _json(out)["outcome"]["rows"][0]
    assert row["equivalent"] is True
    assert row["inconclusive_inputs"] == inconclusive


# --- config and flags ----------------------------------------------------------------

def test_config_file_costs_change_ranking(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"costs": {"udiv": 1, "urem": 1}}))
    code, out = run_cli("--config", cfg, "search", VALID / "bin2bcd.ir")
    assert code == 0
    rep = _json(out)
    assert rep["config"]["costs"] == {"udiv": 1, "urem": 1}
    assert rep["outcome"]["best_key"] == [5, 5]


def test_bad_config_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metric": "quantum"}))
    code, _ = run_cli("--config", cfg, "search", VALID / "bin2bcd.ir")
    assert code == 2


@pytest.mark.parametrize("raw", [
    {"costs": []}, {"passes": 5}, {"workload": 7}, {"seed": "x"},
    {"max_programs_explored": True}, {"costs": {"add": True}},
], ids=json.dumps)
def test_mistyped_config_key_is_a_config_error(tmp_path, capsys, raw):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    code, out = run_cli("--config", cfg, "search", VALID / "divmul.ir")
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"seed": 1}\xff')
    code, out = run_cli("--config", cfg, "search", VALID / "divmul.ir")
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith(f"config error: cannot read config {cfg}: ")


def test_flags_echo_into_config():
    code, out = run_cli("search", VALID / "bin2bcd.ir", "--seed", "5",
                        "--budget-seq", "3")
    assert code == 0
    rep = _json(out)
    assert rep["config"]["seed"] == 5
    assert rep["config"]["max_sequence_length"] == 3


_SUBCOMMANDS = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
# operands that make each command quick; a flag under test is appended after them
_BASE_ARGV = {"validate": [], "run": ["7"], "opt": ["--passes", ""], "search": [],
              "ibo": ["-k", "1"], "equiv-class": ["--budget-instrs", "4"],
              "compare": ["-k", "1"]}
# dest -> a valid value unlike its default, as the report echoes it
_SETTING_VALUES = {
    "max_sequence_length": 3, "max_programs_explored": 999,
    "max_instructions_per_program": 5, "cap_per_pass": 3, "ibo_max_frontier": 7,
    "step_limit": 500, "seed": 5, "metric": "dynamic",
    "passes": ["dce"], "reverses": ["rev-licm-sink"],
    "workload": str(WORKLOADS / "bin2bcd_spot.json"),
}
_SETTING_FLAGS = [(command, action.option_strings[0], action.dest)
                  for command, parser in _SUBCOMMANDS.items()
                  for action in parser._actions
                  # --format changes the report's form; the text-mode tests cover it
                  if action.dest in SETTINGS and action.dest != "format"]


@pytest.mark.parametrize("command,flag,dest", _SETTING_FLAGS,
                         ids=[f"{c} {f}" for c, f, _ in _SETTING_FLAGS])
def test_every_setting_flag_reaches_the_report_config(command, flag, dest):
    value = _SETTING_VALUES[dest]
    text = ",".join(value) if isinstance(value, list) else str(value)
    # run takes integer arguments or a workload, not both
    base = [] if (command, dest) == ("run", "workload") else _BASE_ARGV[command]
    _, out = run_cli(command, VALID / "bin2bcd.ir", *base, flag, text)
    assert _json(out)["config"][dest] == value


def test_passes_subset_flag():
    code, out = run_cli("search", VALID / "branch_clone.ir", "--passes", "dce")
    assert code == 0
    rep = _json(out)
    assert rep["config"]["passes"] == ["dce"]
    assert rep["outcome"]["best_key"] == rep["outcome"]["start_key"]


def test_unknown_pass_subset_rejected():
    code, _ = run_cli("search", VALID / "bin2bcd.ir", "--passes", "outline")
    assert code == 2


def test_format_text_renders_key_values():
    code, out = run_cli("validate", VALID / "bin2bcd.ir", "--format", "text")
    assert code == 0
    assert "valid: True" in out


def test_reports_are_byte_deterministic():
    a = run_cli("search", VALID / "branch_clone.ir")
    b = run_cli("search", VALID / "branch_clone.ir")
    assert a == b
    c = run_cli("ibo", VALID / "bin2bcd.ir", "-k", "2")
    d = run_cli("ibo", VALID / "bin2bcd.ir", "-k", "2")
    assert c == d


def test_one_parser_serves_every_main_call():
    # main() builds its parser once per process; a reused parser must leave
    # no trace of an earlier call, such as a --format text before a default
    from bidiropt.cli import _build_parser

    seed = VALID / "bin2bcd.ir"
    calls = [
        ("--format", "text", "search", seed),
        ("search", seed),
        ("ibo", seed, "-k", "1", "--format", "text"),
        ("ibo", seed, "-k", "1"),
        ("opt", seed, "--passes", "rev-instexpand-rem@0"),
        ("opt", seed, "--passes", "rev-instexpand-rem@0", "--format", "text"),
        ("validate", VALID / "diamond.ir"),
        ("run", seed, "42"),
        ("search", VALID / "branch_clone.ir", "--budget-programs", "2"),
        ("opt", seed, "--passes", "not-a-pass"),
        ("ibo", seed),
        ("search", seed),
    ]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run_cli(*argv))
    assert [code for code, _ in fresh] == [0, 0, 0, 0, 0, 0, 0, 0, 3, 2, 2, 0]
    assert [run_cli(*argv) for argv in calls] == fresh
    assert _build_parser() is _build_parser()
