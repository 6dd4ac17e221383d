"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload build-corpus --seed 0 --seconds 20 --trace 0

Run from the repository root.  With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it prints the per-layer metrics of a
traced in-process pass and writes every span to ``.perfbench/``.  Every
reported time is scaled to the nominal host of ``perfbench/hostspeed.py``;
the raw times are printed beside them.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload in its own process and prints them
all.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Set-up runs per measured run; setup_s is their median.
SETUP_REPS = {"build-corpus": 11, "certify-sweep": 11, "cli-queries": 5}
STARTUP_REPS = 5


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_ratio", "_per_instance")):
        return "ratio"
    return "count"


def _line(name: str, value: float, samples: str = "") -> str:
    return f"  {name:<44} {value:>14.6f} {unit_of(name):<6} {samples}"


def end_to_end(w, seconds: float, reps: int) -> tuple[dict, list[str], int, int, list[str]]:
    from perfbench import spans, stats

    setups = [w.setup_once() for _ in range(reps)]
    passes = []
    stray: list[str] = []
    t0 = time.perf_counter()
    while len(passes) < w.min_passes or time.perf_counter() - t0 < seconds:
        stray += spans.leftover_wrappers()
        passes.append(w.timed_pass())

    scale = w.meter.scale()
    decisions = [d for q in passes for d in q.decisions]

    def pct(p: float) -> float:
        return stats.percentile(decisions, p) * 1000 * scale

    raw_wall = stats.median([q.wall_s for q in passes])
    raw_setup = stats.median(setups)
    child_rss = max(q.maxrss_kb for q in passes)
    rss_kb = child_rss or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_s": raw_wall * scale,
        "setup_s": raw_setup * scale,
        "peak_rss_mb": rss_kb / 1024,
        "decision_p50_ms": pct(50),
        "decision_p90_ms": pct(90),
    }
    samples = f"n={len(decisions)} from {len(passes)} passes"
    rss_from = f"largest of {sum(q.attempted for q in passes)} children" if child_rss else "this process"
    lines = [
        f"  times scaled by {scale:.4f}, the host factor of {len(w.meter.times)} kernel samples",
        _line("wall_s", values["wall_s"], f"median of {len(passes)} passes; raw {raw_wall:.4f} s"),
        _line("setup_s", values["setup_s"], f"median of {reps} set-ups; raw {raw_setup:.4f} s"),
        _line("peak_rss_mb", values["peak_rss_mb"], rss_from),
        _line("decision_p50_ms", values["decision_p50_ms"], samples),
        _line("decision_p90_ms", values["decision_p90_ms"], samples),
    ]
    tail = stats.tail_percentile(len(decisions))
    if tail is not None:
        lines.append(_line(f"decision_p{tail}_ms", pct(tail),
                           f"{samples}; highest percentile with 10 samples beyond it"))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors] + [f"tracing wrapper left on {s}" for s in stray]
    return values, lines, attempted, failed, errors


def traced_run(w, seconds: float) -> tuple[dict, list[str], int, int, list[str]]:
    from perfbench import procs, spans, stats

    startup = []
    for _ in range(STARTUP_REPS):
        w.meter.sample()
        child = procs.run_python(["-c", "import oblot.cli"], cwd=w.workdir, env=procs.child_env(SRC))
        if child.returncode != 0:
            raise RuntimeError(f"importing oblot.cli failed: {child.stderr.decode(errors='replace')}")
        startup.append(child.seconds)
    untraced, traced, tracers = [], [], []
    stray: list[str] = []
    t0 = time.perf_counter()
    while not tracers or time.perf_counter() - t0 < seconds:
        tracer = spans.Tracer()
        # Alternate which side of the pair runs first, so drift cancels.
        for side in ("untraced", "traced")[:: 1 if len(tracers) % 2 == 0 else -1]:
            stray += spans.leftover_wrappers()
            if side == "untraced":
                untraced.append(w.replay_pass())
            else:
                with spans.traced(tracer):
                    traced.append(w.replay_pass(tracer))
        tracers.append(tracer)
    stray += spans.leftover_wrappers()
    per_pass = [spans.layer_metrics(t) for t in tracers]
    values = {name: stats.median([m[name] for m in per_pass]) for name in per_pass[0]}
    values["cli.startup_ms"] = stats.median(startup) * 1000
    traced_wall = stats.median([p.wall_s for p in traced])
    values["tracing_overhead_s"] = stats.median([t.wall_s - u.wall_s for u, t in zip(untraced, traced)])
    scale = w.meter.scale()
    for name in values:
        if unit_of(name) in ("s", "ms"):
            values[name] *= scale
    spans_path = OUT / f"spans-{w.name}.jsonl.gz"
    spans.write_spans(spans_path, tracers, w.span_labels)
    lines = [f"  times scaled by {scale:.4f}, the host factor of {len(w.meter.times)} kernel samples"]
    lines += [_line(name, value) for name, value in values.items()]
    lines.append(f"  layer share of the traced pass ({traced_wall * scale:.3f} s, "
                 f"median of {len(traced)}; spans in {spans_path.relative_to(ROOT)}):")
    for layer in spans.LAYERS:
        lines.append(f"    {layer:<12} {100 * values[f'{layer}.self_s'] / (traced_wall * scale):6.2f} %")
    runs = untraced + traced
    attempted = sum(p.attempted for p in runs)
    failed = sum(p.failed for p in runs)
    errors = [e for p in runs for e in p.errors] + [f"tracing wrapper left on {s}" for s in stray]
    return values, lines, attempted, failed, errors


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.hostspeed import HostMeter
    from perfbench.workloads import WORKLOADS

    expected = json.loads((Path(__file__).parent / "expected.json").read_text())
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as tmp:
        w = WORKLOADS[workload](seed, expected, Path(tmp), SRC, HostMeter())
        if trace:
            values, lines, attempted, failed, errors = traced_run(w, seconds)
        else:
            values, lines, attempted, failed, errors = end_to_end(w, seconds, SETUP_REPS[workload])
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"{workload} seed={seed} trace={int(trace)}: {attempted} operations, {failed} failed")
    print("\n".join(lines))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    from perfbench.workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}:{metric}"] = v
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    names = ("build-corpus", "certify-sweep", "cli-queries")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*names, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oblot" / "__init__.py").is_file():
        print(f"error: no oblot sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        sys.path[:0] = [str(SRC), str(ROOT)]
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
