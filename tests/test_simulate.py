import gc
import json
import random
import re

import pytest

import oblot.canonical
import oblot.simulate
from bruteforce import all_placements, connected_graph_corpus, relabeled, without_transport
from oblot.canonical import canonical_form
from oblot.errors import BudgetExceededError, InputError, InternalError
from oblot.graphs import Configuration, Graph
from oblot.hypergraph import build, built, check, export
from oblot.moves import raw_fsync_outcomes
from oblot.problems import ProblemSpec
from oblot.simulate import (
    AdversaryStrategy,
    ExecutionTrace,
    PlaySummary,
    RoundRecord,
    _outcomes,
    _solution,
    enumerate_adversary_plays,
    parse_adversary,
    run_fsync,
)
from oblot.solver import STEP, solution

GATHER = ProblemSpec(kind="gathering")
WORST = AdversaryStrategy(kind="worst")
FIRST = AdversaryStrategy(kind="first")


def test_single_round_gather(k23):
    trace = run_fsync(Configuration(k23, (1, 0, 1, 0, 0)), GATHER, WORST)
    assert trace.status == "reached_final"
    assert len(trace.rounds) == 2
    step, last = trace.rounds
    assert step.round == 0
    assert step.decision.status == "step"
    assert step.decision.move.to_json_obj() == [[3, None], [4, 3]]
    assert step.outcome_lam == (0, 0, 2, 0, 0)
    assert last.decision.status == "final"
    assert last.lam == last.outcome_lam == (0, 0, 2, 0, 0)


def test_unsolvable_start_never_moves(c4_cycle):
    trace = run_fsync(Configuration(c4_cycle, (1, 0, 1, 0)), GATHER, WORST)
    assert trace.status == "unsolvable"
    assert len(trace.rounds) == 1
    only = trace.rounds[0]
    assert only.decision.status == "unsolvable"
    assert only.outcome_lam == only.lam == (1, 0, 1, 0)


def test_worst_adversary_three_round_descent(k23):
    # three robots spread over the larger side: worst case needs one round
    # per distance level, and the replay is byte-stable
    trace = run_fsync(Configuration(k23, (0, 0, 1, 1, 1)), GATHER, WORST)
    assert trace.status == "reached_final"
    assert [r.lam for r in trace.rounds] == [
        (0, 0, 1, 1, 1),
        (1, 2, 0, 0, 0),
        (1, 0, 0, 0, 2),
        (3, 0, 0, 0, 0),
    ]
    assert [r.decision.distance for r in trace.rounds] == [3, 2, 1, None]
    again = run_fsync(Configuration(k23, (0, 0, 1, 1, 1)), GATHER, WORST)
    assert again.to_json() == trace.to_json()


def test_first_adversary_picks_lex_min_outcome(k23):
    spec = ProblemSpec(kind="explicit", targets=((0, 0, 2, 0, 0), (0, 0, 1, 1, 0)))
    trace = run_fsync(Configuration(k23, (1, 1, 0, 0, 0)), spec, FIRST)
    assert trace.status == "reached_final"
    assert trace.rounds[0].outcome_lam == (0, 0, 0, 0, 2)


def test_random_adversary_reproducible(k23):
    a = run_fsync(Configuration(k23, (0, 0, 1, 1, 1)), GATHER, parse_adversary("random:42"))
    b = run_fsync(Configuration(k23, (0, 0, 1, 1, 1)), GATHER, parse_adversary("random:42"))
    assert a.to_json() == b.to_json()
    assert a.status == "reached_final"


def test_max_rounds_budget():
    p5 = Graph(n=5, edges=((0, 1), (1, 2), (2, 3), (3, 4)))
    c0 = Configuration(p5, (1, 0, 0, 0, 1))
    trace = run_fsync(c0, GATHER, WORST, max_rounds=1)
    assert trace.status == "max_rounds_exceeded"
    assert len(trace.rounds) == 1
    # the default budget of distance + 1 always suffices
    full = run_fsync(c0, GATHER, WORST)
    assert full.status == "reached_final"
    assert [r.round for r in full.rounds] == [0, 1, 2]
    with pytest.raises(InputError, match="must be positive"):
        run_fsync(c0, GATHER, WORST, max_rounds=0)


def test_decisions_oblivious_to_labeling(k23):
    # isomorphic starts produce identical decision sequences and isomorphic
    # per-round configurations under the worst adversary
    t1 = run_fsync(Configuration(k23, (1, 0, 1, 0, 0)), GATHER, WORST)
    t2 = run_fsync(Configuration(k23, (0, 1, 0, 0, 1)), GATHER, WORST)
    assert t1.status == t2.status
    assert len(t1.rounds) == len(t2.rounds)
    for r1, r2 in zip(t1.rounds, t2.rounds):
        assert r1.decision == r2.decision
        assert canonical_form(k23, r1.lam) == canonical_form(k23, r2.lam)


def test_plays_from_mixed_class(k23):
    s = enumerate_adversary_plays(Configuration(k23, (1, 0, 1, 0, 0)), GATHER)
    assert s == PlaySummary(max_rounds_used=1, min_rounds_used=1, all_reach_final=True)


def test_plays_from_final_start(k23):
    s = enumerate_adversary_plays(Configuration(k23, (0, 0, 2, 0, 0)), GATHER)
    assert s == PlaySummary(max_rounds_used=0, min_rounds_used=0, all_reach_final=True)


def test_plays_branching_depth(k23):
    # a lucky resolution gathers the spread configuration in one round,
    # the worst one needs the full plan distance
    s = enumerate_adversary_plays(Configuration(k23, (0, 0, 1, 1, 1)), GATHER)
    assert s == PlaySummary(max_rounds_used=3, min_rounds_used=1, all_reach_final=True)


def test_plays_both_outcomes_final(k23):
    spec = ProblemSpec(kind="explicit", targets=((0, 0, 2, 0, 0), (0, 0, 1, 1, 0)))
    s = enumerate_adversary_plays(Configuration(k23, (1, 1, 0, 0, 0)), spec)
    assert s == PlaySummary(max_rounds_used=1, min_rounds_used=1, all_reach_final=True)


def test_plays_errors(k23, c4_cycle, monkeypatch):
    with pytest.raises(InputError, match="unsolvable"):
        enumerate_adversary_plays(Configuration(c4_cycle, (1, 0, 1, 0)), GATHER)
    monkeypatch.setattr(oblot.simulate, "PLAY_NODE_CAP", 2)
    with pytest.raises(BudgetExceededError, match="node cap of 2"):
        enumerate_adversary_plays(Configuration(k23, (0, 0, 1, 1, 1)), GATHER)


def test_plays_node_cap_is_exact(k23, monkeypatch):
    # The enumeration visits each class once: the start and, from every
    # class not final, the Δ of its planned move.  A cap of exactly that
    # many classes suffices, and one fewer does not.
    start = Configuration(k23, (0, 0, 1, 1, 1))
    sol = solution(build(k23, 3), GATHER)
    reached = {sol.h.index_of(start)}
    frontier = list(reached)
    while frontier:
        idx = frontier.pop()
        if idx not in sol.final:
            new = set(sol.entries[idx].delta) - reached
            reached |= new
            frontier.extend(new)
    assert len(reached) > 2
    want = PlaySummary(max_rounds_used=3, min_rounds_used=1, all_reach_final=True)
    monkeypatch.setattr(oblot.simulate, "PLAY_NODE_CAP", len(reached))
    assert enumerate_adversary_plays(start, GATHER) == want
    monkeypatch.setattr(oblot.simulate, "PLAY_NODE_CAP", len(reached) - 1)
    with pytest.raises(BudgetExceededError, match="node cap"):
        enumerate_adversary_plays(start, GATHER)


def test_plays_refuse_a_plan_that_does_not_descend(k23):
    # a plan entry whose Δ holds its own class would recurse without end
    mixed = Configuration(k23, (1, 0, 1, 0, 0))
    sol = _solution(k23, 2, GATHER)
    idx = sol.h.index_of(mixed)
    assert idx in sol.solvable and idx not in sol.final
    entry = sol.entries[idx]
    sol.entries[idx] = entry._replace(delta=tuple(sorted({idx, *entry.delta})))
    with pytest.raises(InternalError, match=f"class {idx} is reached from itself"):
        enumerate_adversary_plays(mixed, GATHER)


def test_parse_adversary():
    assert parse_adversary("worst") == WORST
    assert parse_adversary("first") == FIRST
    assert parse_adversary("random:7") == AdversaryStrategy(kind="random", seed=7)
    with pytest.raises(InputError, match="integer seed"):
        parse_adversary("random:xyz")
    with pytest.raises(InputError, match="unknown adversary"):
        parse_adversary("best")


def test_adversary_strategy_validation():
    with pytest.raises(InputError, match="takes a seed"):
        AdversaryStrategy(kind="worst", seed=3)
    with pytest.raises(InputError, match="takes a seed"):
        AdversaryStrategy(kind="random")
    with pytest.raises(InputError, match="unknown adversary"):
        AdversaryStrategy(kind="best")


def test_trace_json_shape(k23):
    trace = run_fsync(Configuration(k23, (1, 0, 1, 0, 0)), GATHER, WORST)
    obj = trace.to_json_obj()
    assert obj["status"] == "reached_final"
    assert obj["rounds"][0] == {
        "round": 0,
        "lambda": [1, 0, 1, 0, 0],
        "decision": {"status": "step", "move": [[3, None], [4, 3]], "distance": 1},
        "outcome_lambda": [0, 0, 2, 0, 0],
    }
    assert trace.to_json().endswith("\n")


def _count_builds(monkeypatch) -> list:
    calls = []

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(oblot.simulate, "build", counting)
    return calls


def _observe(c: Configuration, spec: ProblemSpec) -> tuple:
    """Everything the simulator answers for a start: two traces and the
    play summary, or the error the plays raise."""
    traces = tuple(run_fsync(c, spec, adv).to_json() for adv in (WORST, FIRST))
    try:
        plays = enumerate_adversary_plays(c, spec)
    except InputError as e:
        plays = str(e)
    return traces, plays


def _simulate_all(starts) -> None:
    for c in starts:
        enumerate_adversary_plays(c, GATHER)
        run_fsync(c, GATHER, WORST)


def test_one_build_per_instance(k23, monkeypatch):
    k23 = Graph(n=k23.n, edges=k23.edges, name=k23.name)  # an object no other test has built from
    sol = solution(build(k23, 2, "fsync"), GATHER)
    # every placement of every solvable non-final class
    starts = [
        Configuration(k23, lam) for lam, i in sol.h.class_of.items()
        if i in sol.solvable and i not in sol.final
    ]
    assert len(starts) >= 2
    calls = _count_builds(monkeypatch)
    # the caller's own build is solved, not built again
    _simulate_all(starts)
    assert calls == []
    # once nothing holds it, the simulator builds once for every start
    del sol
    gc.collect()
    _solution.cache_clear()
    _simulate_all(starts)
    assert calls == [(k23, 2, "fsync")]


def test_held_build_is_found_by_graph_identity(k23):
    h = build(k23, 2, "fsync")
    assert built(k23, 2, "fsync") is h
    twin = Graph(n=k23.n, edges=k23.edges, name="twin")
    assert twin == k23
    assert built(twin, 2, "fsync") is None
    # the simulator builds the equal graph for itself, under its own name
    run_fsync(Configuration(twin, (0, 0, 1, 1, 0)), GATHER, WORST)
    mine = _solution(twin, 2, GATHER).h
    assert mine is not h and mine.graph is twin
    assert json.loads(export(mine, "json"))["graph"]["name"] == "twin"
    assert export(mine, "json") != export(h, "json")


def test_build_record_is_weak(k23):
    k23 = Graph(n=k23.n, edges=k23.edges, name=k23.name)
    build(k23, 2, "fsync")
    gc.collect()
    assert built(k23, 2, "fsync") is None
    h = build(k23, 2, "fsync")
    run_fsync(Configuration(k23, (0, 0, 1, 1, 0)), GATHER, WORST)
    assert built(k23, 2, "fsync") is h
    del h
    _solution.cache_clear()
    gc.collect()
    assert built(k23, 2, "fsync") is None


def test_build_record_keys_on_k_and_scheduler(k23, monkeypatch):
    held = build(k23, 2, "ssync")
    assert built(k23, 2, "ssync") is held
    assert built(k23, 2, "fsync") is None
    assert built(k23, 3, "ssync") is None
    calls = _count_builds(monkeypatch)
    run_fsync(Configuration(k23, (0, 0, 1, 1, 0)), GATHER, WORST)
    assert calls == [(k23, 2, "fsync")]
    assert _solution(k23, 2, GATHER).h.scheduler == "fsync"


def test_held_build_is_transparent():
    # the simulator answers the same whether it solves the caller's build
    # or builds for itself
    for g in (Graph(n=g.n, edges=g.edges, name=g.name) for g in connected_graph_corpus(4)):
        for k in (1, 2):
            starts = [Configuration(g, lam) for lam in all_placements(g.n, k)]
            h = build(g, k, "fsync")
            held = [_observe(c, GATHER) for c in starts]
            assert _solution(g, k, GATHER).h is h
            del h
            _solution.cache_clear()
            gc.collect()
            assert built(g, k, "fsync") is None
            assert [_observe(c, GATHER) for c in starts] == held, (g, k)
            _solution.cache_clear()


def test_memo_is_transparent():
    # warm answers, with the two specs evicting each other between passes,
    # equal the answers of a call made right after the slot is emptied
    for g in connected_graph_corpus(4):
        for k in (1, 2):
            specs = (GATHER, ProblemSpec(kind="explicit", targets=((0,) * (g.n - 1) + (k,),)))
            starts = [Configuration(g, lam) for lam in all_placements(g.n, k)]
            warm = {}
            for spec in specs + specs:
                for c in starts:
                    warm.setdefault((spec, c), []).append(_observe(c, spec))
            for (spec, c), seen in warm.items():
                _solution.cache_clear()
                assert seen == [_observe(c, spec)] * 2, (g, k, spec, c.lam)


def test_equal_graphs_share_the_slot(k23, monkeypatch):
    spread = (0, 0, 1, 1, 1)
    want = _observe(Configuration(k23, spread), GATHER)
    calls = _count_builds(monkeypatch)
    renamed = Graph(n=k23.n, edges=k23.edges, name="renamed")
    reordered = Graph(n=5, edges=tuple(reversed(k23.edges)))
    for g in (renamed, reordered):
        assert _observe(Configuration(g, spread), GATHER) == want
    assert calls == []


def test_errors_leave_the_slot_usable(k23, c4_cycle, monkeypatch):
    spread = Configuration(k23, (0, 0, 1, 1, 1))
    want = _observe(spread, GATHER)
    with pytest.raises(InputError, match="unsolvable"):
        enumerate_adversary_plays(Configuration(c4_cycle, (1, 0, 1, 0)), GATHER)
    assert _observe(spread, GATHER) == want
    short = ProblemSpec(kind="pattern", targets=((3, 0, 0),))
    with pytest.raises(InputError, match="length mismatch"):
        run_fsync(spread, short, WORST)
    with pytest.raises(InputError, match="length mismatch"):
        enumerate_adversary_plays(spread, short)
    assert _observe(spread, GATHER) == want
    with monkeypatch.context() as m:
        m.setattr(oblot.simulate, "PLAY_NODE_CAP", 2)
        with pytest.raises(BudgetExceededError, match="node cap"):
            enumerate_adversary_plays(spread, GATHER)
    assert _observe(spread, GATHER) == want
    assert want[1] == PlaySummary(max_rounds_used=3, min_rounds_used=1, all_reach_final=True)


def test_default_budget_catches_a_plan_two_rounds_short(k23):
    # the default budget, plan distance + 1, leaves no slack: a start whose
    # plan entry claims two rounds fewer than the worst adversary needs
    # overruns it
    spread = Configuration(k23, (0, 0, 1, 1, 1))
    assert enumerate_adversary_plays(spread, GATHER).max_rounds_used == 3
    sol = _solution(k23, 3, GATHER)
    idx = sol.h.index_of(spread)
    sol.entries[idx] = sol.entries[idx]._replace(distance=1)
    trace = run_fsync(spread, GATHER, WORST)
    assert trace.status == "max_rounds_exceeded"
    assert len(trace.rounds) == 2


def test_round_outcomes_match_the_canonizer():
    # the representative's outcomes, transported, against the outcomes on
    # the placement's own orbits, for every member of every class that steps
    rng = random.Random(3)
    for g0 in connected_graph_corpus(5):
        for g in (g0, relabeled(rng, g0)):
            for k in (1, 2, 3):
                sol = _solution(g, k, GATHER)
                for lam, i in sol.h.class_of.items():
                    if i not in sol.solvable or i in sol.final:
                        continue
                    c = Configuration(g, lam)
                    want = raw_fsync_outcomes(c, canonical_form(g, lam).orbits, sol.entries[i].move)
                    assert tuple(_outcomes(sol, i, lam)) == want, (g, lam)


def _oracle_pick(sol, adversary: AdversaryStrategy, rng: random.Random):
    """The adversary's pick from a round's outcomes, written out here:
    ``first`` takes the least raw placement, ``random`` draws from ``rng``,
    and ``worst`` takes the farthest class, ties going to the least
    canonical encoding and then to the least raw placement."""
    def pick(outcomes: list) -> tuple:
        ordered = sorted(outcomes)
        if adversary.kind == "first":
            return ordered[0]
        if adversary.kind == "random":
            return ordered[rng.randrange(len(ordered))]
        farthest = max(sol.entries[sol.h.class_of[lam]].distance for lam in ordered)
        ties = [lam for lam in ordered if sol.entries[sol.h.class_of[lam]].distance == farthest]
        least = min(canonical_form(sol.h.graph, lam).encoding for lam in ties)
        return next(lam for lam in ties if canonical_form(sol.h.graph, lam).encoding == least)

    return pick


def _canonizer_trace(sol, c0: Configuration, adversary: AdversaryStrategy) -> ExecutionTrace:
    """The round loop of ``run_fsync`` on ``sol``, with each round's outcomes
    taken from a canonizer search on its own placement."""
    pick = _oracle_pick(sol, adversary, random.Random(adversary.seed))
    records = []
    cur = c0.lam
    while True:
        decision = sol.decision(sol.h.class_of[cur])
        if decision.status != STEP:
            records.append(RoundRecord(round=len(records), lam=cur, decision=decision, outcome_lam=cur))
            status = "reached_final" if decision.status == "final" else "unsolvable"
            return ExecutionTrace(status=status, rounds=tuple(records))
        assert len(records) < len(sol.h.configs), "the plan does not descend"
        p = canonical_form(c0.graph, cur).orbits
        outcomes = raw_fsync_outcomes(Configuration(c0.graph, cur), p, decision.move)
        chosen = pick(outcomes)
        records.append(RoundRecord(round=len(records), lam=cur, decision=decision, outcome_lam=chosen))
        cur = chosen


C10 = Graph(n=10, edges=tuple((v, (v + 1) % 10) for v in range(10)), name="C10")


@pytest.mark.parametrize("graph, k", [("k23", 2), ("C10", 5)])
def test_rounds_make_no_canonizer_search(request, monkeypatch, graph, k):
    g = C10 if graph == "C10" else request.getfixturevalue(graph)
    h = build(g, k)  # held, so the simulator solves it without a build
    sol = solution(h, GATHER)
    adversaries = [WORST, FIRST, parse_adversary("random:3")]
    starts = [Configuration(g, lam) for lam in h.class_of]
    want = [_canonizer_trace(sol, c, a).to_json() for c in starts for a in adversaries]
    searches = []
    run = oblot.canonical._Canonizer.run

    def counting(self):
        searches.append(self.colors)
        return run(self)

    monkeypatch.setattr(oblot.canonical._Canonizer, "run", counting)
    got = [run_fsync(c, GATHER, a).to_json() for c in starts for a in adversaries]
    assert searches == []
    assert got == want
    assert _solution(g, k, GATHER).h is h


@pytest.mark.parametrize("entry", ["past-the-end", "negative", "identity"])
def test_damaged_transporter_index_raises(k23, entry):
    # a damaged index on the caller's own build: neither an IndexError nor a
    # permutation picked from the end of the table, and never a wrong move
    h = build(k23, 2)
    sol = solution(h, GATHER)
    member = next(
        lam for lam in h.transport
        if h.class_of[lam] in sol.solvable and h.class_of[lam] not in sol.final
    )
    t = {"past-the-end": len(h.transporters), "negative": -1, "identity": 0}[entry]
    h.transport[member] = t
    refusal = (
        f"does not carry the representative .* onto placement {re.escape(str(member))}"
        if entry == "identity"
        else re.escape(f"placement {member} names transporter {t}, not one of the")
    )
    with pytest.raises(InternalError, match=refusal):
        h.transporter(member)
    with pytest.raises(InternalError, match=refusal):
        check(h)
    with pytest.raises(InternalError, match=refusal):
        run_fsync(Configuration(k23, member), GATHER, WORST)


def test_emptied_transport_table_raises(k23, monkeypatch):
    g = Graph(n=k23.n, edges=k23.edges, name=k23.name)  # an object no other test has built from
    sol = solution(build(g, 2), GATHER)
    rep_of = {i: e.rep.lam for i, e in enumerate(sol.h.configs)}
    member = next(
        lam for lam, i in sol.h.class_of.items()
        if i in sol.solvable and i not in sol.final and lam != rep_of[i]
    )
    del sol
    gc.collect()
    monkeypatch.setattr(
        oblot.simulate, "build", lambda *args: without_transport(build(*args))
    )
    with pytest.raises(InternalError, match="does not carry the representative"):
        run_fsync(Configuration(g, member), GATHER, WORST)
