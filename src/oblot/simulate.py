"""Round-by-round FSYNC execution against pluggable adversaries.

Each round the robots recompute their decision from the current
configuration's class alone (they are oblivious); if the decision is a step,
the adversary resolves which vertex every robot lands on inside its target
orbit.  The worst adversary consults the planner's distance table, the random
adversary draws reproducibly from a seeded generator, and the first adversary
always picks the lexicographically smallest raw placement.

The simulator solves each (G, k, problem) once and keeps it for consecutive
calls.  When the caller still holds the FSYNC hypergraph it built from the
very ``Graph`` object the start is placed on, that hypergraph is solved as it
is; only otherwise does the simulator build one.  A round makes no canonizer
search: the raw outcomes of a class's planned move are computed once, on the
class representative, and each round maps them onto its own placement
through the hypergraph's transporter.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import NamedTuple

from .errors import BudgetExceededError, InputError
from .graphs import Configuration, Frozen, Graph, dump_json, total_robots
from .graphs import validate_configuration
from .hypergraph import build, built
from .moves import raw_fsync_outcomes
from .problems import ProblemSpec
from .solver import FINAL, STEP, UNSOLVABLE, MoveDecision, Solution, solution

REACHED_FINAL = "reached_final"
MAX_ROUNDS_EXCEEDED = "max_rounds_exceeded"

ADVERSARY_KINDS = ("worst", "random", "first")


class AdversaryStrategy(Frozen):
    """Which adversary resolves a simulated round: ``worst``, ``first``, or
    ``random`` with its seed."""

    __slots__ = ("kind", "seed")

    def __init__(self, kind: str, seed: int | None = None) -> None:
        if kind not in ADVERSARY_KINDS:
            raise InputError(f"unknown adversary {kind!r}; expected one of {ADVERSARY_KINDS}")
        if (kind == "random") != (seed is not None):
            raise InputError("exactly the random adversary takes a seed")
        self._set(kind=kind, seed=seed)

    def _key(self) -> tuple:
        return (self.kind, self.seed)


def parse_adversary(text: str) -> AdversaryStrategy:
    """Parse ``worst``, ``first``, or ``random:<seed>``."""
    if text in ("worst", "first"):
        return AdversaryStrategy(kind=text)
    if text.startswith("random:"):
        try:
            seed = int(text.split(":", 1)[1])
        except ValueError:
            raise InputError(f"random adversary needs an integer seed, got {text!r}") from None
        return AdversaryStrategy(kind="random", seed=seed)
    raise InputError(
        f"unknown adversary {text!r}; expected worst, first, or random:<seed>"
    )


class RoundRecord(NamedTuple):
    round: int
    lam: tuple[int, ...]
    decision: MoveDecision
    outcome_lam: tuple[int, ...]

    def to_json_obj(self) -> dict:
        return {
            "round": self.round,
            "lambda": list(self.lam),
            "decision": self.decision.to_json_obj(),
            "outcome_lambda": list(self.outcome_lam),
        }


class ExecutionTrace(NamedTuple):
    status: str
    rounds: tuple[RoundRecord, ...]

    def to_json_obj(self) -> dict:
        return {
            "status": self.status,
            "rounds": [r.to_json_obj() for r in self.rounds],
        }

    def to_json(self) -> str:
        return dump_json(self.to_json_obj())


class _Solved(NamedTuple):
    """One solved instance and, per class reached so far, the sorted raw
    outcomes of its planned move on the class representative."""

    sol: Solution
    rep_outcomes: dict[int, tuple[tuple[int, ...], ...]]

    def outcomes(self, idx: int, lam: tuple[int, ...]) -> list[tuple[int, ...]]:
        """The sorted raw outcomes of class ``idx``'s planned move on its
        member ``lam``: the representative's, mapped by ``lam``'s transporter
        (an automorphism carries outcomes to outcomes, orbit ranks included)."""
        h = self.sol.h
        raw = self.rep_outcomes.get(idx)
        if raw is None:
            entry = h.configs[idx]
            move = self.sol.entries[idx].move
            raw = self.rep_outcomes[idx] = raw_fsync_outcomes(entry.rep, entry.form.orbits, move)
        pi = h.transporter(lam)
        return sorted(tuple(map(o.__getitem__, pi)) for o in raw)


@lru_cache(maxsize=1)
def _solution(g: Graph, k: int, spec: ProblemSpec) -> _Solved:
    """The solved FSYNC hypergraph of (G, k, problem), kept for the next call
    (callers simulate many starts on one instance in a row) together with
    the outcomes its rounds have needed.  A hypergraph the caller built from
    ``g`` and still holds is reused, not rebuilt."""
    return _Solved(solution(built(g, k, "fsync") or build(g, k, "fsync"), spec), {})


def _pick_outcome(
    sol: Solution,
    outcomes: list[tuple[int, ...]],
    adversary: AdversaryStrategy,
    rng: random.Random | None,
) -> tuple[int, ...]:
    if adversary.kind == "first":
        return outcomes[0]
    if adversary.kind == "random":
        assert rng is not None
        return rng.choice(outcomes)
    # worst: maximize remaining distance; break ties toward the smallest
    # canonical encoding, then the smallest raw placement, so runs replay
    # byte-identically.
    def key(lam: tuple[int, ...]) -> tuple[int, bytes, tuple[int, ...]]:
        idx = sol.h.class_of[lam]
        return (-sol.entries[idx].distance, sol.h.configs[idx].form.encoding, lam)

    return min(outcomes, key=key)


def run_fsync(
    c0: Configuration,
    spec: ProblemSpec,
    adversary: AdversaryStrategy,
    max_rounds: int | None = None,
) -> ExecutionTrace:
    """Execute the optimal algorithm from ``c0`` until F, unsolvable, or budget.

    The solved hypergraph is reused across rounds and across consecutive
    calls on one (G, k, problem), and a hypergraph the caller built from
    ``c0.graph`` and still holds is solved instead of built again; both are
    observationally identical to recomputing it (the decision is a pure
    function of the class).  Each round reads its class from the
    hypergraph's class table, which lists every placement, and a step's raw
    outcomes are those of its class representative, computed once per class
    and mapped through the placement's transporter; no round canonizes.  An
    unsolvable start records a single nil round and stops: the robots never
    move.  ``max_rounds`` bounds the number of executed steps and defaults
    to plan distance + 1 when solvable, else 1, so an overrun always signals
    a planner defect rather than a slow run.
    """
    validate_configuration(c0)
    solved = _solution(c0.graph, total_robots(c0), spec)
    sol = solved.sol
    rng = random.Random(adversary.seed) if adversary.kind == "random" else None
    idx0 = sol.h.index_of(c0)
    if max_rounds is None:
        solvable0 = idx0 in sol.solvable
        max_rounds = sol.entries[idx0].distance + 1 if solvable0 else 1
    if max_rounds < 1:
        raise InputError(f"max_rounds must be positive, got {max_rounds}")
    records: list[RoundRecord] = []
    cur = c0.lam
    t = 0
    while True:
        idx = sol.h.class_of[cur]
        decision = sol.decision(idx)
        if decision.status == FINAL:
            records.append(RoundRecord(round=t, lam=cur, decision=decision, outcome_lam=cur))
            return ExecutionTrace(status=REACHED_FINAL, rounds=tuple(records))
        if decision.status == UNSOLVABLE:
            records.append(RoundRecord(round=t, lam=cur, decision=decision, outcome_lam=cur))
            return ExecutionTrace(status=UNSOLVABLE, rounds=tuple(records))
        if t >= max_rounds:
            return ExecutionTrace(status=MAX_ROUNDS_EXCEEDED, rounds=tuple(records))
        assert decision.status == STEP and decision.move is not None
        chosen = _pick_outcome(sol, solved.outcomes(idx, cur), adversary, rng)
        records.append(RoundRecord(round=t, lam=cur, decision=decision, outcome_lam=chosen))
        cur = chosen
        t += 1


class PlaySummary(NamedTuple):
    max_rounds_used: int
    min_rounds_used: int
    all_reach_final: bool


def enumerate_adversary_plays(
    c0: Configuration,
    spec: ProblemSpec,
    node_cap: int = 100_000,
) -> PlaySummary:
    """Exhaust every adversary resolution under optimal robot play.

    Decision and outcomes depend only on the class (the outcome classes of
    the planned move are the plan entry's Δ), so the recursion memoizes per
    class; planned moves strictly decrease the distance, which bounds the
    depth.  The solved hypergraph is shared with consecutive calls on one
    (G, k, problem), and taken from the caller's own build of ``c0.graph``
    while the caller holds it, as in :func:`run_fsync`.  ``node_cap`` aborts
    pathologically large explorations loudly instead of truncating them.
    """
    validate_configuration(c0)
    sol = _solution(c0.graph, total_robots(c0), spec).sol
    idx0 = sol.h.index_of(c0)
    if idx0 not in sol.solvable:
        raise InputError("start configuration is unsolvable; nothing to enumerate")
    memo: dict[int, PlaySummary] = {}
    visited = 0

    def explore(idx: int) -> PlaySummary:
        nonlocal visited
        if idx in memo:
            return memo[idx]
        visited += 1
        if visited > node_cap:
            raise BudgetExceededError(
                f"adversary-play enumeration exceeded the node cap of {node_cap}"
            )
        if idx in sol.final:
            summary = PlaySummary(0, 0, True)
            memo[idx] = summary
            return summary
        subs = [explore(ch) for ch in sol.entries[idx].delta]
        summary = PlaySummary(
            max_rounds_used=1 + max(s.max_rounds_used for s in subs),
            min_rounds_used=1 + min(s.min_rounds_used for s in subs),
            all_reach_final=all(s.all_reach_final for s in subs),
        )
        memo[idx] = summary
        return summary

    return explore(idx0)
