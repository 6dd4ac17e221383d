"""Backward attractor: solvability, worst-case-optimal plan, round dispatch.

A configuration class is solvable when some move guarantees progress toward F
no matter how the adversary resolves it: the least set containing F and
closed under "some hyperarc's Δ lies inside the set", i.e. the robots'
attractor of F in the reachability game on the hypergraph (Grädel, Thomas &
Wilke, *Automata, Logics, and Infinite Games*, 2002).

One pass computes it together with the plan.  Every distinct Δ counts its
members that have no distance yet, a reverse index lists the Δs that contain
each class, and another the hyperarcs that hold each Δ: every arc holding a
Δ completes when that Δ does, so the counters are as few as the Δs (2 975
for 615 567 arcs on C14, k=7).  Classes receive distances level by level,
starting with F at level 0: assigning the classes of level r decrements the
counters of the Δs that contain them, and a Δ whose counter reaches zero
makes the source of each of its arcs eligible at level r + 1 unless the
source already has a distance.  Such an arc's worst case is exactly r + 1,
the least any arc of an unassigned source can achieve, so the
worst-case-optimal choice reduces to the move tie-break: the source takes
the minimal representative move among the arcs completed for it at that
level.  Each Δ membership and each arc is visited once, so the pass runs in
O(|hyperarcs| + Σ|Δ|) over the distinct Δs.  Round dispatch is then one
lookup in the decision table the :class:`Solution` makes.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

from .errors import InputError, InternalError
from .graphs import Frozen
from .hypergraph import ConfigHypergraph
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
    deltas, arc_start, arc_delta, move_start, moves = (
        h.deltas, h.arc_start, h.arc_delta, h.move_start, h.moves
    )
    unassigned = list(map(len, deltas))
    # int32 buffers, like the layout's: a list would hold an int object per entry
    deltas_into = [array("i") for _ in h.configs]
    for t, delta in enumerate(deltas):
        for d in delta:
            deltas_into[d].append(t)
    arcs_holding = [array("i") for _ in deltas]
    for j, t in enumerate(arc_delta):
        arcs_holding[t].append(j)
    source_of = array("i")
    for s in range(len(h.configs)):
        source_of += array("i", [s]) * (arc_start[s + 1] - arc_start[s])
    entries = {i: PlanEntry(distance=0, move=None, delta=()) for i in sorted(fin)}
    frontier = list(entries)
    level = 0
    while frontier:
        level += 1
        # source -> (first move index, Δ id) of its least arc completed at this level
        chosen: dict[int, tuple[int, int]] = {}
        for c in frontier:
            for t in deltas_into[c]:
                unassigned[t] -= 1
                if unassigned[t]:
                    continue
                for j in arcs_holding[t]:
                    s = source_of[j]
                    if s in entries:
                        continue
                    first = moves[move_start[j]]
                    best = chosen.get(s)
                    # move indices of one source compare in lexicographic move order
                    if best is None or first < best[0]:
                        chosen[s] = (first, t)
        for s, (first, t) in chosen.items():
            entries[s] = PlanEntry(distance=level, move=h.move(s, first), delta=deltas[t])
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


def check(sol: Solution) -> None:
    """Certify ``sol`` from local conditions, or raise :class:`InternalError`.

    Each is a fact about one class and its own hyperarcs, so one pass over
    the hyperarcs checks them all, in O(|hyperarcs| + Σ|Δ|), without
    re-solving:

    * a final class has distance 0 and no move;
    * a solvable non-final class of distance d plans the least (largest
      distance in Δ, first move index) over its arcs whose Δ lies inside the
      solvable set, that largest distance is d − 1, and its Δ is that arc's;
    * an unsolvable class has no arc whose Δ lies inside the solvable set.

    By induction on d the first two make every distance the optimal worst
    case; the third shows that the attractor missed no class.  The Δs
    themselves are taken as built.
    """
    h, final, solvable, entries = sol.h, sol.final, sol.solvable, sol.entries
    if entries.keys() != solvable or not final <= solvable:
        raise InternalError("the plan entries, final and solvable sets disagree")
    # per Δ, its largest distance if it lies inside the solvable set
    worst = [
        max(entries[d].distance for d in delta) if solvable.issuperset(delta) else None
        for delta in h.deltas
    ]
    arc_start, arc_delta, move_start, moves = h.arc_start, h.arc_delta, h.move_start, h.moves
    least: dict[int, tuple[int, int, tuple[int, ...]]] = {}
    for source in range(len(h.configs)):
        for j in range(arc_start[source], arc_start[source + 1]):
            t = arc_delta[j]
            if worst[t] is not None:
                key = (worst[t], moves[move_start[j]], h.deltas[t])
                if source not in least or key < least[source]:
                    least[source] = key
    for i in range(len(h.configs)):
        entry = entries.get(i)
        if i in final:
            if entry != (0, None, ()):
                raise InternalError(f"final class {i} plans {entry}, not the nil move at distance 0")
        elif entry is None:
            if i in least:
                raise InternalError(f"unsolvable class {i} has an arc into the solvable set")
        elif i not in least:
            raise InternalError(f"solvable class {i} has no arc into the solvable set")
        else:
            distance, move, delta = least[i]
            if entry != (distance + 1, h.move(i, move), delta):
                raise InternalError(
                    f"class {i} plans {entry}; its least arc into the solvable set "
                    f"gives distance {distance + 1}, move index {move} and Δ {delta}"
                )


def solution(h: ConfigHypergraph, spec: ProblemSpec) -> Solution:
    """Resolve the problem's final set on ``h`` and solve it."""
    return solve(h, resolve_final_set(spec, h))
