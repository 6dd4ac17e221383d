"""Round-by-round FSYNC execution against pluggable adversaries.

Each round the robots recompute their decision from the current
configuration's class alone (they are oblivious); if the decision is a step,
the adversary resolves which vertex every robot lands on inside its target
orbit.  A run chooses its adversary once, as one function that picks from a
round's sorted raw outcomes: the worst adversary consults the planner's
distance table, the random adversary draws reproducibly from a generator
seeded once per run, and the first adversary always picks the
lexicographically smallest raw placement.

The play enumeration is a module-level recursion over classes with a memo
it is handed, so it makes no reference cycle (``oblot`` processes run
without the cyclic collector).  A plan that leads back to a class still
being explored is an :class:`InternalError`.

The simulator solves each (G, k, problem) once and keeps it for consecutive
calls.  When the caller still holds the FSYNC hypergraph it built from the
very ``Graph`` object the start is placed on, that hypergraph is solved as it
is; only otherwise does the simulator build one.  A round makes no canonizer
search: it computes the raw outcomes of its class's planned move on the
class representative and maps them onto its own placement through the
placement's transporter, which the hypergraph stores interned and hands out
by one lookup.  A plan strictly descends, so one run never meets
a class twice: the outcomes are not kept.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, NamedTuple

from .errors import BudgetExceededError, InputError, InternalError
from .graphs import Configuration, Frozen, Graph, dump_json, total_robots
from .graphs import validate_configuration
from .hypergraph import build, built
from .moves import raw_fsync_outcomes
from .problems import ProblemSpec
from .solver import FINAL, STEP, UNSOLVABLE, MoveDecision, Solution, solution

REACHED_FINAL = "reached_final"
MAX_ROUNDS_EXCEEDED = "max_rounds_exceeded"

ADVERSARY_KINDS = ("worst", "random", "first")

# The most classes one adversary-play enumeration may enter.
PLAY_NODE_CAP = 100_000


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


@lru_cache(maxsize=1)
def _solution(g: Graph, k: int, spec: ProblemSpec) -> Solution:
    """The solved FSYNC hypergraph of (G, k, problem), kept for the next call
    (callers simulate many starts on one instance in a row).  A hypergraph
    the caller built from ``g`` and still holds is reused, not rebuilt."""
    return solution(built(g, k, "fsync") or build(g, k, "fsync"), spec)


def _start(c0: Configuration, spec: ProblemSpec) -> tuple[Solution, int]:
    """The solved instance of ``c0``'s (G, k, problem) and the class of ``c0``."""
    validate_configuration(c0)
    sol = _solution(c0.graph, total_robots(c0), spec)
    return sol, sol.h.index_of(c0)


def _outcomes(sol: Solution, idx: int, lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The sorted raw outcomes of class ``idx``'s planned move on its member
    ``lam``: the representative's, mapped by ``lam``'s transporter, looked
    up in the hypergraph (an automorphism carries outcomes to outcomes,
    orbit ranks included)."""
    entry = sol.h.configs[idx]
    raw = raw_fsync_outcomes(entry.rep, entry.form.orbits, sol.entries[idx].move)
    pi = sol.h.transporter(lam)
    return sorted(tuple(map(o.__getitem__, pi)) for o in raw)


def _chooser(sol: Solution, adversary: AdversaryStrategy) -> Callable[[list], tuple]:
    """The adversary of one run: it picks a round's outcome from the sorted
    raw outcomes of the planned move."""
    if adversary.kind == "first":
        return itemgetter(0)
    if adversary.kind == "random":
        return random.Random(adversary.seed).choice
    # worst: maximize remaining distance; break ties toward the smallest
    # canonical encoding, then the smallest raw placement, so runs replay
    # byte-identically.
    def key(lam: tuple[int, ...]) -> tuple[int, bytes, tuple[int, ...]]:
        idx = sol.h.class_of[lam]
        return (-sol.entries[idx].distance, sol.h.configs[idx].form.encoding, lam)

    return partial(min, key=key)


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
    outcomes are those of its class representative, mapped through the
    placement's transporter from the hypergraph's table; no round
    canonizes.  An unsolvable start
    records a single nil round and stops: the robots never move.
    ``max_rounds`` bounds the number of executed steps and defaults to plan
    distance + 1 when solvable, else 1, so an overrun always signals a
    planner defect rather than a slow run.
    """
    sol, idx0 = _start(c0, spec)
    if max_rounds is None:
        max_rounds = sol.entries[idx0].distance + 1 if idx0 in sol.solvable else 1
    if max_rounds < 1:
        raise InputError(f"max_rounds must be positive, got {max_rounds}")
    choose = _chooser(sol, adversary)
    records: list[RoundRecord] = []
    cur = c0.lam
    while True:
        idx = sol.h.class_of[cur]
        decision = sol.decision(idx)
        t = len(records)
        if decision.status != STEP:
            records.append(RoundRecord(round=t, lam=cur, decision=decision, outcome_lam=cur))
            status = REACHED_FINAL if decision.status == FINAL else UNSOLVABLE
            return ExecutionTrace(status=status, rounds=tuple(records))
        if t >= max_rounds:
            return ExecutionTrace(status=MAX_ROUNDS_EXCEEDED, rounds=tuple(records))
        chosen = choose(_outcomes(sol, idx, cur))
        records.append(RoundRecord(round=t, lam=cur, decision=decision, outcome_lam=chosen))
        cur = chosen


class PlaySummary(NamedTuple):
    max_rounds_used: int
    min_rounds_used: int
    all_reach_final: bool


def enumerate_adversary_plays(c0: Configuration, spec: ProblemSpec) -> PlaySummary:
    """Exhaust every adversary resolution under optimal robot play.

    Decision and outcomes depend only on the class (the outcome classes of
    the planned move are the plan entry's Δ), so the recursion memoizes per
    class; planned moves strictly decrease the distance, which bounds the
    depth.  The solved hypergraph is shared with consecutive calls on one
    (G, k, problem), and taken from the caller's own build of ``c0.graph``
    while the caller holds it, as in :func:`run_fsync`.  Entering more than
    :data:`PLAY_NODE_CAP` classes aborts a pathologically large exploration
    loudly instead of truncating it.
    """
    sol, idx0 = _start(c0, spec)
    if idx0 not in sol.solvable:
        raise InputError("start configuration is unsolvable; nothing to enumerate")
    return _plays(sol, idx0, {})


def _plays(sol: Solution, idx: int, memo: dict) -> PlaySummary:
    """The plays from class ``idx``.  ``memo`` maps each class entered to its
    summary, ``None`` until that is known, so ``len(memo)`` counts the
    classes entered and a class met again while still ``None`` is reached
    from its own plays."""
    if idx in memo:
        if memo[idx] is None:
            raise InternalError(f"the plan does not descend: class {idx} is reached from itself")
        return memo[idx]
    memo[idx] = None
    if len(memo) > PLAY_NODE_CAP:
        raise BudgetExceededError(
            f"adversary-play enumeration exceeded the node cap of {PLAY_NODE_CAP}"
        )
    if idx in sol.final:
        summary = PlaySummary(0, 0, True)
    else:
        subs = [_plays(sol, ch, memo) for ch in sol.entries[idx].delta]
        summary = PlaySummary(
            max_rounds_used=1 + max(s.max_rounds_used for s in subs),
            min_rounds_used=1 + min(s.min_rounds_used for s in subs),
            all_reach_final=all(s.all_reach_final for s in subs),
        )
    memo[idx] = summary
    return summary
