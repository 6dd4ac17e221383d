"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench/tests -q"""

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import oblot.canonical  # noqa: E402
import oblot.moves  # noqa: E402
from perfbench import hostspeed, spans, stats, workloads  # noqa: E402
from perfbench.run import unit_of  # noqa: E402
from perfbench.workloads import K23, BuildCorpus, PassResult, relabel  # noqa: E402

EXPECTED = json.loads((ROOT / "perfbench" / "expected.json").read_text())


def _synthetic_tracer() -> spans.Tracer:
    """build [0,10] > (canonical_form [1,4] > canonical_form [2,3]), plan [5,9]."""
    t = spans.Tracer()
    rows = [
        ("hypergraph.build", 0.0, 10.0, -1),
        ("canonical.canonical_form", 1.0, 4.0, 0),
        ("canonical.canonical_form", 2.0, 3.0, 1),
        ("solver.plan", 5.0, 9.0, 0),
    ]
    for name, start, end, parent in rows:
        t.name_ids.append(t.name_id(name))
        t.starts.append(start)
        t.ends.append(end)
        t.parents.append(parent)
        t.instances.append(0)
        t.counts.append(0.0)
    return t


def test_self_times_subtract_direct_children_only():
    t = _synthetic_tracer()
    durations = [e - s for s, e in zip(t.starts, t.ends)]
    assert spans.self_times(t.parents, durations) == [3.0, 2.0, 1.0, 4.0]


def test_layer_self_time_sums_the_layer_spans():
    m = spans.layer_metrics(_synthetic_tracer())
    assert m["canonical.canonical_form.calls"] == 2
    assert m["canonical.canonical_form.self_s"] == 3.0
    assert m["hypergraph.build.self_s"] == 3.0
    assert m["solver.plan.self_s"] == 4.0
    assert m["canonical.self_s"] + m["hypergraph.self_s"] + m["solver.self_s"] == 10.0
    assert m["moves.self_s"] == 0.0


def test_timed_ops_sample_the_host_before_each_operation():
    calls = []

    class Meter:
        def sample(self) -> None:
            calls.append("sample")

    def op(res: PassResult) -> None:
        calls.append("op")
        res.check([])

    res = workloads._timed_ops([op, op], Meter())
    assert calls == ["sample", "op", "sample", "op"]
    assert (res.attempted, res.failed) == (2, 0)


def test_host_scale_follows_the_median_sample():
    meter = hostspeed.HostMeter()
    meter.times = [0.010, 0.002, 0.004]
    assert meter.scale() == (hostspeed.REF_S / 0.004) ** hostspeed.EXPONENT


def test_host_sampling_leaves_the_collector_as_it_was():
    meter = hostspeed.HostMeter()
    assert gc.isenabled()
    meter.sample()
    assert gc.isenabled()
    gc.disable()
    try:
        meter.sample()
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert len(meter.times) == 2 * hostspeed._RUNS


def test_median_and_tail_percentile():
    assert stats.median([3.0, 1.0, 2.0, 10.0]) == 2.5
    values = [float(i) for i in range(1, 101)]
    assert stats.percentile(values, 50) == 50.0
    assert stats.percentile(values, 90) == 90.0
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(99) == 89
    assert stats.tail_percentile(11) == 9
    assert stats.tail_percentile(10) is None


def test_k23_invariants_survive_seeded_relabelling(tmp_path):
    for seed in (0, 1, 7):
        bench = BuildCorpus(seed, EXPECTED, tmp_path, ROOT / "src", hostspeed.HostMeter())
        key, g, k, scheduler = bench.instances[0]
        assert key == "K23-k2-fsync"
        if seed:
            assert g.edges != K23.edges
        res = PassResult()
        bench._op(key, g, k, scheduler)(res)
        assert (res.attempted, res.failed, res.errors) == (1 + 5, 0, [])
    assert relabel(K23, 0, "K23") == K23


def test_wrappers_are_gone_after_a_traced_run(tmp_path):
    bench = BuildCorpus(0, EXPECTED, tmp_path, ROOT / "src", hostspeed.HostMeter())
    original = oblot.canonical.canonical_form
    tracer = spans.Tracer()
    with spans.traced(tracer):
        inside = spans.leftover_wrappers()
        assert oblot.moves.canonical_form is oblot.canonical.canonical_form
        assert oblot.canonical.canonical_form is not original
        res = PassResult()
        bench._op(*bench.instances[0])(res)
    assert res.failed == 0
    assert {"oblot.canonical.canonical_form", "oblot.moves.canonical_form",
            "oblot.cli.build", "pathlib.Path.write_text"} <= set(inside)
    assert "canonical.canonical_form" in {tracer.span_name(i) for i in range(len(tracer))}
    assert spans.leftover_wrappers() == []
    assert oblot.canonical.canonical_form is original
    assert oblot.moves.canonical_form is original


def test_benchmark_json_lists_every_traced_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = [*spans.layer_metrics(spans.Tracer()), "cli.startup_ms", "tracing_overhead_s"]
    assert [m["name"] for m in bench["per_layer"]] == traced
    for m in bench["per_layer"] + bench["end_to_end"]:
        assert m["unit"] == unit_of(m["name"])


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-corpus", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
