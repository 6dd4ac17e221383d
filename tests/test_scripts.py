import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_k23_walkthrough_runs():
    r = run_script("k23_walkthrough.py")
    assert r.returncode == 0, r.stderr
    assert "status: reached_final" in r.stdout


def test_sweep_small_instances_verifies_all():
    r = run_script("sweep_small_instances.py", "--max-n", "3", "--max-k", "2")
    assert r.returncode == 0, r.stderr
    closing = r.stdout.rstrip().splitlines()[-1]
    m = re.fullmatch(r"(\d+)/(\d+) instances verified in [\d.]+s", closing)
    assert m is not None, closing
    assert m.group(1) == m.group(2)


def test_benchmark_build_corpus_keeps_its_export_digests():
    # seed 0 keeps the corpus unrelabeled, so the run checks the SHA-256 of
    # every instance's exported hypergraph against perfbench/expected.json
    env = os.environ.copy()
    env["PYTHONPATH"] = str(ROOT / "src")
    r = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "build-corpus",
         "--seed", "0", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.rstrip().splitlines()[-1])
    assert result["failed"] == 0, r.stderr
