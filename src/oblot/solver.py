"""Backward attractor: solvability, worst-case-optimal plan, round dispatch.

A configuration class is solvable when some move guarantees progress toward F
no matter how the adversary resolves it: the least set containing F and
closed under "some hyperarc's Δ lies inside the set", i.e. the robots'
attractor of F in the reachability game on the hypergraph (Grädel, Thomas &
Wilke, *Automata, Logics, and Infinite Games*, 2002).

One pass computes it together with the plan.  Every hyperarc counts its Δ
members that have no distance yet, and a reverse index lists the hyperarcs
whose Δ contains each class.  Classes receive distances level by level,
starting with F at level 0: assigning the classes of level r decrements the
counters of their incoming hyperarcs, and an arc whose counter reaches zero
makes its source eligible at level r + 1 unless the source already has a
distance.  Such an arc's worst case is exactly r + 1, the least any arc of an
unassigned source can achieve, so the worst-case-optimal choice reduces to
the move tie-break: the source takes the minimal representative move among
the arcs completed for it at that level.  Each Δ membership is visited once,
so the pass runs in O(|hyperarcs| + Σ|Δ|).  Round dispatch is then one
lookup in the decision table the :class:`Solution` makes.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError, InternalError
from .graphs import Frozen
from .hypergraph import ConfigHypergraph, Hyperarc
from .moves import Move
from .problems import ProblemSpec, resolve_final_set

FINAL = "final"
UNSOLVABLE = "unsolvable"
STEP = "step"


class PlanEntry(NamedTuple):
    """Worst-case distance to F, the first move to perform, and its Δ.

    ``move`` is None and ``delta`` empty exactly for final classes (the nil
    move, distance 0); otherwise ``delta`` is the outcome set of the chosen
    hyperarc, the classes the adversary can answer ``move`` with.
    """

    distance: int
    move: Move | None
    delta: tuple[int, ...]


class MoveDecision(NamedTuple):
    """Round verdict for one configuration: final, unsolvable, or a step."""

    status: str
    move: Move | None = None
    distance: int | None = None

    def to_json_obj(self) -> dict:
        obj: dict = {"status": self.status}
        if self.status == STEP:
            assert self.move is not None and self.distance is not None
            obj["move"] = self.move.to_json_obj()
            obj["distance"] = self.distance
        return obj


_FINAL = MoveDecision(FINAL)
_UNSOLVABLE = MoveDecision(UNSOLVABLE)


def _check_final_indices(h: ConfigHypergraph, final) -> frozenset[int]:
    fin = frozenset(final)
    for i in fin:
        if not (0 <= i < len(h.configs)):
            raise InputError(f"final index {i} out of range for {len(h.configs)} configs")
    return fin


class Solution(Frozen):
    """A hypergraph solved for one final set: the attractor and its plan.

    ``solvable`` is the attractor of ``final``; ``entries`` holds every
    solvable class's plan entry and, derived from the rest, stays out of
    equality and hashing.  The constructor tables every class's decision,
    privately: repr, pickle and equality never read the table.
    """

    __slots__ = ("h", "final", "solvable", "entries", "_decisions")

    def __init__(
        self,
        h: ConfigHypergraph,
        final: frozenset[int],
        solvable: frozenset[int],
        entries: dict[int, PlanEntry],
    ) -> None:
        decisions = dict.fromkeys(final, _FINAL)
        for i in solvable - final:
            entry = entries[i]
            if entry.move is None or entry.distance < 1:
                raise InternalError(f"non-final solvable class {i} has no planned move")
            decisions[i] = MoveDecision(STEP, entry.move, entry.distance)
        self._set(h=h, final=final, solvable=solvable, entries=entries, _decisions=decisions)

    def _key(self) -> tuple:
        return (self.h, self.final, self.solvable)

    def decision(self, idx: int) -> MoveDecision:
        """What the robots seeing a configuration of class ``idx`` should do."""
        return self._decisions.get(idx, _UNSOLVABLE)


def solve(h: ConfigHypergraph, final) -> Solution:
    """Solvable classes, distances and moves from one backward-attractor pass.

    Tie-break, fully specified so that all robots agree: within a hyperarc
    the minimal move under the lexicographic move order represents the arc;
    across hyperarcs the minimal (worst-case distance, move) pair wins.
    """
    fin = _check_final_indices(h, final)
    unassigned = [len(arc.delta) for arc in h.hyperarcs]
    arcs_into: list[list[int]] = [[] for _ in h.configs]
    for j, arc in enumerate(h.hyperarcs):
        for d in arc.delta:
            arcs_into[d].append(j)
    entries = {i: PlanEntry(distance=0, move=None, delta=()) for i in sorted(fin)}
    frontier = list(entries)
    level = 0
    while frontier:
        level += 1
        chosen: dict[int, Hyperarc] = {}
        for c in frontier:
            for j in arcs_into[c]:
                unassigned[j] -= 1
                if unassigned[j]:
                    continue
                arc = h.hyperarcs[j]
                if arc.source in entries:
                    continue
                best = chosen.get(arc.source)
                # move indices of one source compare in lexicographic move order
                if best is None or arc.moves[0] < best.moves[0]:
                    chosen[arc.source] = arc
        for s, arc in chosen.items():
            entries[s] = PlanEntry(distance=level, move=h.move(s, arc.moves[0]), delta=arc.delta)
        frontier = list(chosen)
    return Solution(h=h, final=fin, solvable=frozenset(entries), entries=entries)


def plan(h: ConfigHypergraph, final, solvability: Solution) -> dict[int, PlanEntry]:
    """Distance, first move and Δ for every solvable class.

    The table was computed by :func:`solve`; this checks that it belongs to
    ``final`` and returns it (shared, not copied).
    """
    fin = _check_final_indices(h, final)
    if fin != solvability.final:
        raise InputError("solvability result was computed for a different final set")
    return solvability.entries


def decide(
    h: ConfigHypergraph,
    final: frozenset[int],
    solvability: Solution,
    entries: dict[int, PlanEntry],
    idx: int,
) -> MoveDecision:
    """``solvability.decision(idx)``, once ``h``, ``final`` and ``entries``
    are checked to be (the same as, or equal to) those it was solved with."""
    if h is not solvability.h and h != solvability.h:
        raise InputError("solvability result was computed for a different hypergraph")
    if (final is not solvability.final and final != solvability.final
            or entries is not solvability.entries and entries != solvability.entries):
        raise InputError("solvability result was computed for a different final set")
    return solvability._decisions.get(idx, _UNSOLVABLE)


def solution(h: ConfigHypergraph, spec: ProblemSpec) -> Solution:
    """Resolve the problem's final set on ``h`` and solve it."""
    return solve(h, resolve_final_set(spec, h))
