"""The three workloads: their seeded inputs, set-up, passes and checks.

Every workload is one closed-loop client: it issues its next operation only
after the previous one returned.  An operation is one instance (build-corpus,
certify-sweep) or one query (cli-queries); a failed check or an exception
fails the operation.  The seed only shapes the inputs: it relabels vertices
(seed 0 is the identity) or draws the queries.

Times are recorded as measured; before each operation the workload takes a
host-speed sample (see :mod:`perfbench.hostspeed`), with which the run scales
them to the nominal host when it reports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from oblot import cli, hypergraph, problems, simulate, solver
from oblot.graphs import Configuration, Graph
from oblot.problems import ProblemSpec

from .hostspeed import HostMeter
from .procs import child_env, run_python
from .spans import Tracer

GATHERING = ProblemSpec(kind="gathering")
WORST = simulate.AdversaryStrategy(kind="worst")


# ---------------------------------------------------------------- inputs


def cycle(n: int) -> Graph:
    return Graph(n=n, edges=tuple((i, (i + 1) % n) for i in range(n)))


def grid(rows: int, cols: int) -> Graph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(n=rows * cols, edges=tuple(edges))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(n=10, edges=tuple(outer + spokes + inner))


K23 = Graph(n=5, edges=((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)))

# (name, graph, k, scheduler): the corpus of ROADMAP Open item 1.
CORPUS = (
    ("K23", K23, 2, "fsync"),
    ("petersen", petersen(), 3, "fsync"),
    ("C8", cycle(8), 4, "fsync"),
    ("C10", cycle(10), 5, "fsync"),
    ("grid3x3", grid(3, 3), 3, "fsync"),
    ("grid3x4", grid(3, 4), 3, "fsync"),
    ("grid3x4", grid(3, 4), 3, "ssync"),
    ("grid4x4", grid(4, 4), 3, "fsync"),
)


def instance_key(name: str, k: int, scheduler: str) -> str:
    return f"{name}-k{k}-{scheduler}"


def relabel(g: Graph, seed: int, tag: str) -> Graph:
    """``g`` with its vertices renamed by a permutation drawn from (seed, tag)."""
    perm = list(range(g.n))
    if seed != 0:
        random.Random(f"{seed}/{tag}").shuffle(perm)
    return Graph(n=g.n, edges=tuple((perm[u], perm[v]) for u, v in g.edges))


def _connected(n: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_graphs(max_n: int) -> list[Graph]:
    """Every connected graph with at most ``max_n`` vertices, up to isomorphism.

    Deduplicated by brute force over all vertex permutations, independently
    of the canonizer under test; ordered by vertex count, then edge mask.
    """
    out = []
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        perms = list(itertools.permutations(range(n)))
        seen: set[tuple] = set()
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            if not _connected(n, edges):
                continue
            key = min(tuple(sorted((min(pi[u], pi[v]), max(pi[u], pi[v])) for u, v in edges))
                      for pi in perms)
            if key not in seen:
                seen.add(key)
                out.append(Graph(n=n, edges=tuple(edges)))
    return out


# ---------------------------------------------------------------- passes


@dataclass
class PassResult:
    """One timed pass: wall time, decision latencies and checked operations."""

    wall_s: float = 0.0
    decisions: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    maxrss_kb: int = 0

    def check(self, errors: list[str]) -> None:
        """Count one operation, failed if it has any check failure."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)


def _timed_ops(ops, meter: HostMeter, tracer: Tracer | None = None) -> PassResult:
    """Run each operation in turn, after a host-speed sample; each records its
    own checks on the result.  The sampling is not timed."""
    res = PassResult()
    for i, op in enumerate(ops):
        meter.sample()
        if tracer is not None:
            tracer.instance = i
        t0 = time.perf_counter()
        try:
            op(res)
        except Exception as e:  # a crash fails this operation, not the run
            res.check([f"{type(e).__name__}: {e}"])
        res.wall_s += time.perf_counter() - t0
    return res


def _gathering_pipeline(g: Graph, k: int, scheduler: str = "fsync"):
    h = hypergraph.build(g, k, scheduler)
    fin = problems.resolve_final_set(GATHERING, h)
    result = solver.solve(h, fin)
    return h, fin, result, solver.plan(h, fin, result)


# Sweeps over the classes; a class's decision latency is the median of its
# timings, so that one interruption of the process does not set it.
DECISION_SWEEPS = 5


def _decide_every_class(label: str, h, fin, result, entries, res: PassResult) -> None:
    """The in-process round decision (`index_of` + `decide`) for each class's
    representative, timed one by one in each of ``DECISION_SWEEPS`` sweeps;
    each class is an operation of its own, checked on its last sweep."""
    timings: list[list[float]] = [[] for _ in h.configs]
    for _ in range(DECISION_SWEEPS):
        decisions = []
        for i, entry in enumerate(h.configs):
            t0 = time.perf_counter()
            decisions.append(solver.decide(h, fin, result, entries, h.index_of(entry.rep)))
            timings[i].append(time.perf_counter() - t0)
    res.decisions += [statistics.median(t) for t in timings]
    for i, decision in enumerate(decisions):
        if i in fin:
            want = (solver.FINAL, None)
        elif i in result.solvable:
            want = (solver.STEP, entries[i].distance)
        else:
            want = (solver.UNSOLVABLE, None)
        got = (decision.status, decision.distance)
        res.check([] if got == want else [f"{label} class {i}: decision {got}, expected {want}"])


def _mismatches(label: str, got: dict, want: dict) -> list[str]:
    return [f"{label}: {key} is {got[key]}, expected {want[key]}" for key in got if got[key] != want[key]]


class BuildCorpus:
    """Graph → hypergraph → gathering final set → solve → plan, cold, per
    instance; then one decision per class."""

    name = "build-corpus"
    min_passes = 1

    def __init__(self, seed: int, expected: dict, workdir: Path, src: Path, meter: HostMeter):
        self.seed = seed
        self.expected = expected["build-corpus"]
        self.span_labels = [instance_key(n, k, s) for n, _, k, s in CORPUS]
        self.instances = [(instance_key(n, k, s), relabel(g, seed, n), k, s) for n, g, k, s in CORPUS]
        self.src, self.workdir, self.meter = src, workdir, meter

    def setup_once(self) -> float:
        return _import_child(self.src, self.workdir, self.meter)

    def _op(self, key: str, g: Graph, k: int, scheduler: str):
        def op(res: PassResult) -> None:
            h, fin, result, entries = _gathering_pipeline(g, k, scheduler)
            digest = hashlib.sha256(hypergraph.export(h, "json").encode()).hexdigest()
            want = self.expected[key]
            got = {
                "classes": len(h.configs),
                "hyperarcs": len(h.hyperarcs),
                "solvable": len(result.solvable),
                "max_distance": max(e.distance for e in entries.values()),
            }
            errors = _mismatches(key, got, want)
            if self.seed == 0 and digest != want["export_sha256_seed0"]:
                errors.append(f"{key}: export digest {digest} differs from the recorded one")
            res.check(errors)
            _decide_every_class(key, h, fin, result, entries, res)
        return op

    def timed_pass(self, tracer: Tracer | None = None) -> PassResult:
        return _timed_ops([self._op(*inst) for inst in self.instances], self.meter, tracer)

    replay_pass = timed_pass


class CertifySweep:
    """Every connected graph on ≤5 vertices, k = 1..3: solve gathering, decide
    every class, then certify each plan distance by exhaustive adversary plays
    and a worst-adversary run."""

    name = "certify-sweep"
    min_passes = 1

    def __init__(self, seed: int, expected: dict, workdir: Path, src: Path, meter: HostMeter):
        self.expected = expected["certify-sweep"]
        graphs = connected_graphs(5)
        self.instances = [(f"g{i}-n{g.n}-k{k}", relabel(g, seed, f"g{i}"), k)
                          for i, g in enumerate(graphs) for k in (1, 2, 3)]
        self.span_labels = [label for label, _, _ in self.instances]
        if len(self.instances) != self.expected["instances"]:
            raise RuntimeError(f"{len(self.instances)} sweep instances, "
                               f"expected {self.expected['instances']}")
        self.src, self.workdir, self.meter = src, workdir, meter

    def setup_once(self) -> float:
        return _import_child(self.src, self.workdir, self.meter)

    def _op(self, label: str, g: Graph, k: int, want: list[int]):
        def op(res: PassResult) -> None:
            h, fin, result, entries = _gathering_pipeline(g, k)
            _decide_every_class(label, h, fin, result, entries, res)
            errors = []
            starts = 0
            for i, entry in enumerate(h.configs):
                if i not in result.solvable or i in fin:
                    continue
                starts += 1
                distance = entries[i].distance
                plays = simulate.enumerate_adversary_plays(entry.rep, GATHERING)
                if not plays.all_reach_final or plays.max_rounds_used != distance:
                    errors.append(f"{label} class {i}: plays {plays} against distance {distance}")
                trace = simulate.run_fsync(entry.rep, GATHERING, WORST)
                if trace.status != simulate.REACHED_FINAL or len(trace.rounds) - 1 != distance:
                    errors.append(f"{label} class {i}: worst run {trace.status} after "
                                  f"{len(trace.rounds) - 1} steps, distance {distance}")
            got = {"classes": len(h.configs), "solvable": len(result.solvable), "starts": starts}
            res.check(errors + _mismatches(label, got, dict(zip(got, want))))
        return op

    def timed_pass(self, tracer: Tracer | None = None) -> PassResult:
        return _timed_ops([self._op(*inst, want) for inst, want
                           in zip(self.instances, self.expected["per_instance"])], self.meter, tracer)

    replay_pass = timed_pass


def _import_child(src: Path, workdir: Path, meter: HostMeter) -> float:
    """A fresh interpreter importing the modules an in-process client uses."""
    meter.sample()
    child = run_python(["-c", "import oblot.hypergraph, oblot.problems, oblot.solver, oblot.simulate"],
                       cwd=workdir, env=child_env(src))
    if child.returncode != 0:
        raise RuntimeError(f"importing oblot failed: {child.stderr.decode(errors='replace')}")
    return child.seconds


# ---------------------------------------------------------------- CLI queries

CLI_GRAPHS = (("grid3x4", grid(3, 4), 3), ("C10", cycle(10), 5))
QUERY_KINDS = ("gathering", "geodesic-mutual-visibility", "pattern")
# Per graph and kind: one pass is 2 x 3 x 6 = 36 queries; a run makes at least
# three passes, so that its 90th percentile has ten samples beyond it.
QUERIES_PER_KIND = 6


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    stdout: bytes
    exit_code: int


def _placement(rng: random.Random, n: int, k: int) -> list[int]:
    lam = [0] * n
    for _ in range(k):
        lam[rng.randrange(n)] += 1
    return lam


def _decision_bytes(h, spec: ProblemSpec, lam: list[int], solved: dict) -> tuple[bytes, int]:
    """The answer `oblot move` must give, computed in process without the CLI.

    ``solved`` memoizes the solver state per (hypergraph, problem)."""
    if (id(h), spec) not in solved:
        fin = problems.resolve_final_set(spec, h)
        result = solver.solve(h, fin)
        solved[id(h), spec] = (fin, result, solver.plan(h, fin, result))
    fin, result, entries = solved[id(h), spec]
    idx = h.index_of(Configuration(graph=h.graph, lam=tuple(lam)))
    decision = solver.decide(h, fin, result, entries, idx)
    text = json.dumps(decision.to_json_obj(), sort_keys=True, separators=(",", ":")) + "\n"
    return text.encode(), (3 if decision.status == solver.UNSOLVABLE else 0)


class CliQueries:
    """`python -m oblot move` children against a warm cache, one at a time."""

    name = "cli-queries"
    min_passes = 3

    def __init__(self, seed: int, expected: dict, workdir: Path, src: Path, meter: HostMeter):
        self.src, self.workdir, self.env, self.meter = src, workdir, child_env(src), meter
        corpus = expected["build-corpus"]
        # Graph documents carry no `name`: it is decorative but enters the cache key.
        docs = {name: {"n": g.n, "edges": [list(e) for e in g.edges]} for name, g, _ in CLI_GRAPHS}
        self.builds: list[tuple[str, Path, int, bytes]] = []
        for name, _, k in CLI_GRAPHS:
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(docs[name]))
            rec = corpus[instance_key(name, k, "fsync")]
            banner = f"configs={rec['classes']} hyperarcs={rec['hyperarcs']}\n".encode()
            self.builds.append((name, path, k, banner))
        self._caches = 0
        self.cache: Path | None = None
        # Answers computed in process from a fresh build, independent of the cache.
        built = {name: hypergraph.build(g, k, "fsync") for name, g, k in CLI_GRAPHS}
        self.exports = {hypergraph.export(h, "json") for h in built.values()}
        rng = random.Random(seed)
        slots = [(name, g, k, kind) for name, g, k in CLI_GRAPHS
                 for kind in QUERY_KINDS for _ in range(QUERIES_PER_KIND)]
        rng.shuffle(slots)
        self.queries: list[Query] = []
        labels = []
        solved: dict = {}
        for i, (name, g, k, kind) in enumerate(slots):
            lam = _placement(rng, g.n, k)
            doc: dict = {"type": kind}
            spec = GATHERING
            if kind == "pattern":
                target = _placement(rng, g.n, k)
                doc["targets"] = [target]
                spec = ProblemSpec(kind="pattern", targets=(tuple(target),))
            elif kind == "geodesic-mutual-visibility":
                spec = ProblemSpec(kind="geodesic_mutual_visibility")
            config = workdir / f"q{i}-config.json"
            problem = workdir / f"q{i}-problem.json"
            config.write_text(json.dumps({"graph": docs[name], "lambda": lam}))
            problem.write_text(json.dumps(doc))
            stdout, code = _decision_bytes(built[name], spec, lam, solved)
            self.queries.append(Query(("move", "--config", str(config), "--problem", str(problem)),
                                      stdout, code))
            labels.append(f"q{i}-{name}-{kind}")
        # Operations of a replay pass, in order, for the span file.
        self.span_labels = [f"build-{name}" for name, _, _ in CLI_GRAPHS] + ["cache-check"] + labels

    def _fresh_cache(self) -> Path:
        self._caches += 1
        return self.workdir / f"cache{self._caches}"

    def _check_cache(self, cache: Path) -> list[str]:
        found = {p.read_text() for p in cache.iterdir()}
        return [] if found == self.exports else [f"cache {cache.name} differs from in-process exports"]

    def setup_once(self) -> float:
        """Cold `oblot build --cache` of both graphs into a fresh directory."""
        cache = self._fresh_cache()
        seconds = 0.0
        for name, path, k, banner in self.builds:
            self.meter.sample()
            child = run_python(["-m", "oblot", "build", "--graph", str(path), "-k", str(k),
                                "--out", str(self.workdir / f"{name}.hg.json"), "--cache", str(cache)],
                               cwd=self.workdir, env=self.env)
            if child.returncode != 0 or child.stdout != banner:
                raise RuntimeError(f"cold build of {name} failed: {child.stdout!r} "
                                   f"{child.stderr.decode(errors='replace')}")
            seconds += child.seconds
        errors = self._check_cache(cache)
        if errors:
            raise RuntimeError(errors[0])
        self.cache = cache
        return seconds

    def timed_pass(self, tracer: Tracer | None = None) -> PassResult:
        res = PassResult()
        for q in self.queries:
            self.meter.sample()
            child = run_python(["-m", "oblot", *q.argv, "--cache", str(self.cache)],
                               cwd=self.workdir, env=self.env)
            res.wall_s += child.seconds
            res.decisions.append(child.seconds)
            res.maxrss_kb = max(res.maxrss_kb, child.maxrss_kb)
            ok = (child.stdout, child.returncode) == (q.stdout, q.exit_code)
            res.check([] if ok else [f"{' '.join(q.argv)}: exit {child.returncode} {child.stdout!r}, "
                                     f"expected exit {q.exit_code} {q.stdout!r}"])
        return res

    def replay_pass(self, tracer: Tracer | None = None) -> PassResult:
        """The cold build and every query through `oblot.cli.main` in process."""
        cache = self._fresh_cache()
        if tracer is not None:
            tracer.cache_dirs.add(cache)

        def main(argv: list[str], want: bytes, code: int):
            def op(res: PassResult) -> None:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = cli.main(argv)
                got = out.getvalue().encode()
                res.check([] if (got, rc) == (want, code) else [f"{argv}: exit {rc} {got!r}"])
            return op

        ops = [main(["build", "--graph", str(path), "-k", str(k),
                     "--out", str(self.workdir / f"{name}.replay.json"), "--cache", str(cache)],
                    banner, 0)
               for name, path, k, banner in self.builds]
        ops.append(lambda res: res.check(self._check_cache(cache)))
        ops += [main([*q.argv, "--cache", str(cache)], q.stdout, q.exit_code) for q in self.queries]
        res = _timed_ops(ops, self.meter, tracer)
        shutil.rmtree(cache, ignore_errors=True)
        return res


WORKLOADS = {w.name: w for w in (BuildCorpus, CertifySweep, CliQueries)}
