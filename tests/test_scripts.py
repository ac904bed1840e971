"""Smoke tests: each experiment script under scripts/ runs to exit 0."""

import os
import shutil
import subprocess
import sys

import pytest

from conftest import ROOT, VALID


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)


def test_escape_demo_reaches_9_4():
    # exits 0 only when the iterated loop lands on key (9, 4)
    proc = _run("escape_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "best key (9, 4)" in proc.stdout


@pytest.fixture
def two_functions(tmp_path):
    for name in ("bin2bcd", "divmul"):
        shutil.copy(VALID / f"{name}.ir", tmp_path)
    return tmp_path


def test_corpus_table(two_functions):
    proc = _run("corpus_table.py", two_functions, "-k", "2")
    assert proc.returncode == 0, proc.stderr
    row = next(l for l in proc.stdout.splitlines() if l.startswith("bin2bcd"))
    assert row.split()[1:5] == ["11,5", "11,5", "9,4", "reverse+"]


def test_sweep_iterations(two_functions):
    proc = _run("sweep_iterations.py", two_functions, "-k", "2")
    assert proc.returncode == 0, proc.stderr
    row = next(l for l in proc.stdout.splitlines() if l.startswith("bin2bcd"))
    assert row.split()[1:] == ["11,5", "11,5", "9,4", "k=2"]
