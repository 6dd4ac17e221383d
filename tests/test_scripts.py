import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from oblot.solver import Solution

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, flags=()):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, *flags, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.mark.parametrize("scheduler", ["fsync", "ssync"])
def test_k23_walkthrough_runs(scheduler):
    r = run_script("k23_walkthrough.py", "--scheduler", scheduler)
    assert r.returncode == 0, r.stderr
    assert f"scheduler={scheduler}" in r.stdout
    # the simulator runs FSYNC only, whichever scheduler the hypergraph has
    assert "\nworst-case FSYNC run from the mixed class:\n" in r.stdout
    assert "status: reached_final" in r.stdout


def _sweep_report(stdout):
    """The per-instance lines and the closing tally, without the time."""
    *lines, _, closing = stdout.rstrip().splitlines()
    m = re.fullmatch(r"(\d+)/(\d+) instances verified in [\d.]+s", closing)
    assert m is not None, closing
    return lines, (int(m.group(1)), int(m.group(2)))


def test_sweep_small_instances_verifies_all():
    r = run_script("sweep_small_instances.py", "--max-n", "3", "--max-k", "2")
    assert r.returncode == 0, r.stderr
    lines, (ok, total) = _sweep_report(r.stdout)
    assert ok == total == len(lines) == 8
    # -O strips asserts; the sweep's checks must not be asserts
    optimized = run_script("sweep_small_instances.py", "--max-n", "3", "--max-k", "2",
                           flags=("-O",))
    assert optimized.returncode == 0, optimized.stderr
    assert _sweep_report(optimized.stdout) == (lines, (ok, total))


def _sweep_module():
    spec = importlib.util.spec_from_file_location("sweep", ROOT / "scripts" / "sweep_small_instances.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def test_sweep_small_instances_counts_failures(monkeypatch, capsys):
    sweep = _sweep_module()
    honest = sweep.run_fsync

    def one_round_short(*args):
        trace = honest(*args)
        return trace._replace(rounds=trace.rounds[1:])

    monkeypatch.setattr(sweep, "run_fsync", one_round_short)
    monkeypatch.setattr(sys, "argv", ["sweep", "--max-n", "3", "--max-k", "2"])
    assert sweep.main() == 1
    out = capsys.readouterr().out
    lines, (ok, total) = _sweep_report(out)
    # the two instances with starts to certify fail, one line per start (2 + 1)
    assert (ok, total) == (6, 8)
    assert sum("FAILED class" in line and "worst run reached_final" in line for line in lines) == 3


def test_sweep_small_instances_reports_failed_plan_checks(monkeypatch, capsys):
    sweep = _sweep_module()
    honest = sweep.solution

    def one_round_long(h, spec):
        sol = honest(h, spec)
        entries = {i: e if i in sol.final else e._replace(distance=e.distance + 1)
                   for i, e in sol.entries.items()}
        return Solution(sol.h, sol.final, sol.solvable, entries)

    monkeypatch.setattr(sweep, "solution", one_round_long)
    monkeypatch.setattr(sys, "argv", ["sweep", "--max-n", "3", "--max-k", "2"])
    assert sweep.main() == 1
    lines, (ok, total) = _sweep_report(capsys.readouterr().out)
    assert (ok, total) == (6, 8)
    assert sum("FAILED plan check: class" in line for line in lines) == 2


@pytest.mark.parametrize("workload", ["build-corpus", "certify-sweep"])
def test_benchmark_build_corpus_keeps_its_export_digests(workload):
    # seed 0 keeps the corpus unrelabeled, so build-corpus checks the SHA-256
    # of every instance's exported hypergraph against perfbench/expected.json;
    # certify-sweep runs the simulator, the plays and the decisions the way
    # the benchmark calls them, and checks each start's worst run
    env = os.environ.copy()
    env["PYTHONPATH"] = str(ROOT / "src")
    r = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.rstrip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, r.stderr
