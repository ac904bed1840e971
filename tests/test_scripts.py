"""Smoke tests: each experiment script under scripts/ formats a report and
exits 0."""

import hashlib
import os
import shutil
import subprocess
import sys

import pytest

from bidiropt.cost import static_size
from bidiropt.passes import FORWARD_PASSES

from conftest import ROOT, VALID, load, run_cli


def _run(script, *args, stdin=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
                          input=stdin, capture_output=True, text=True, env=env, timeout=300,
                          cwd=ROOT)


def test_scripts_run_no_search():
    for path in (ROOT / "scripts").glob("*.py"):
        assert "bidiropt.search" not in path.read_text(), path.name


def test_escape_demo_reaches_9_4():
    code, report = run_cli("ibo", VALID / "bin2bcd.ir", "-k", "2")
    assert code == 0
    # exits 0 only when the replay reproduces the report's best_ir
    proc = _run("escape_demo.py", stdin=report)
    assert proc.returncode == 0, proc.stderr
    assert "best key (9, 4)" in proc.stdout
    assert "--- rev-instexpand-shl@0  key=(13, 6)" in proc.stdout


@pytest.fixture(scope="module")
def compare_report(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("corpus")
    for name in ("bin2bcd", "divmul", "loop_counter_alloca"):
        shutil.copy(VALID / f"{name}.ir", corpus)
    code, report = run_cli("compare", corpus, "-k", "2")
    assert code == 0
    path = corpus / "compare.json"
    path.write_text(report)
    return path


def test_corpus_table(compare_report):
    proc = _run("corpus_table.py", compare_report)
    assert proc.returncode == 0, proc.stderr
    row = next(l for l in proc.stdout.splitlines() if l.startswith("bin2bcd"))
    assert row.split()[1:5] == ["11,5", "11,5", "9,4", "ibo"]


def test_sweep_iterations(compare_report):
    proc = _run("sweep_iterations.py", stdin=compare_report.read_text())
    assert proc.returncode == 0, proc.stderr
    row = next(l for l in proc.stdout.splitlines() if l.startswith("bin2bcd"))
    assert row.split()[1:] == ["11,5", "11,5", "9,4", "k=2"]


def test_report_digest(compare_report):
    corpus = compare_report.parent
    proc = _run("report_digest.py", corpus)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    lines = [l.split(" ", 2) for l in out[:-len(FORWARD_PASSES)]]
    # only loop_counter_alloca has a workload file of the same stem
    dynamic = {"loop_counter_alloca": [
        f"ibo {corpus / 'loop_counter_alloca.ir'} -k 1 --metric dynamic"
        " --workload corpus/workloads/loop_counter_alloca.json"]}
    assert [cmd for _, _, cmd in lines] == [
        cmd
        for name in ("bin2bcd", "divmul", "loop_counter_alloca")
        for cmd in [f"search {corpus / f'{name}.ir'}", f"ibo {corpus / f'{name}.ir'} -k 2",
                    *(f"opt {corpus / f'{name}.ir'} --passes {p} --report"
                      for p in FORWARD_PASSES),
                    *dynamic.get(name, []),
                    f"equiv-class {corpus / f'{name}.ir'} --budget-instrs"
                    f" {static_size(load(name))} --budget-programs 5000 --dot TMP"]
    ] + [f"compare {corpus} -k 2"]
    assert all(code == "0" for code, _, _ in lines)
    # the digest is of the report the CLI prints
    assert lines[-1][1] == hashlib.sha256(compare_report.read_bytes()).hexdigest()
    # and, for equiv-class, of its report followed by its DOT text
    dot = compare_report.parent / "class.dot"
    code, report = run_cli("equiv-class", corpus / "divmul.ir", "--budget-instrs",
                           static_size(load("divmul")), "--budget-programs", 5000, "--dot", dot)
    assert code == 0
    (equiv,) = [h for _, h, cmd in lines if cmd.startswith(f"equiv-class {corpus / 'divmul.ir'}")]
    assert equiv == hashlib.sha256((report + dot.read_text()).encode()).hexdigest()
    # then one "name fired/applications sha256" line per forward pass, each
    # applied to the same programs of the two-step neighbourhood
    passes = [l.split() for l in out[-len(FORWARD_PASSES):]]
    assert [name for name, _, _ in passes] == list(FORWARD_PASSES)
    counts = [tuple(map(int, n.split("/"))) for _, n, _ in passes]
    assert len({total for _, total in counts}) == 1
    assert counts[0][1] > 3 and all(fired <= total for fired, total in counts)
    assert sum(fired for fired, _ in counts) > 0
    assert all(len(h) == 64 and int(h, 16) >= 0 for _, _, h in passes)
