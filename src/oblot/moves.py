"""Orbit-level moves and their adversary-resolved outcomes.

A move assigns to every occupied orbit either an adjacent orbit or nil.
Robots sharing an orbit are indistinguishable, so they all receive the same
orbit-level instruction; the adversary then decides, robot by robot, which
neighbor inside the target orbit is actually reached: any neighbor u with
``rank_of[u]`` equal to the target, where ``rank_of`` is the partition's one
vertex -> orbit rank table.  Outcome enumeration sweeps those per-robot
choices (as destination multisets per vertex, which is equivalent and
smaller) and returns the raw placements they produce, on the input graph's
own vertex indices.  Grouping them into configuration classes is a lookup in
the hypergraph's class table.

The SSYNC variant additionally lets the adversary idle any subset of the
robots that were instructed to move, as long as at least one robot moves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .canonical import OrbitPartition, occupied_orbits
from .errors import InputError, InternalError
from .graphs import Configuration, bounded_repr, is_json_int

# Sort key for a target: nil precedes every orbit rank.
_NIL_KEY = -1


def _target_key(target: int | None) -> int:
    return _NIL_KEY if target is None else target


@dataclass(frozen=True)
class Move:
    """One assignment (source orbit rank, target rank or None) per occupied orbit.

    Assignments are kept in ascending source-rank order; None is the nil
    instruction.  The all-nil function is not a move and is never constructed
    by :func:`enumerate_moves`.
    """

    assignments: tuple[tuple[int, int | None], ...]

    @property
    def sources(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.assignments)

    def sort_key(self) -> tuple[tuple[int, int], ...]:
        return tuple((s, _target_key(t)) for s, t in self.assignments)

    def to_json_obj(self) -> list[list[int | None]]:
        return [[s, t] for s, t in self.assignments]


def move_from_json_obj(obj: object) -> Move:
    if not isinstance(obj, list):
        raise InputError(f"move must be a list of pairs, got {bounded_repr(obj)}")
    pairs: list[tuple[int, int | None]] = []
    for item in obj:
        if not isinstance(item, list) or len(item) != 2:
            raise InputError(f"move assignment must be a pair, got {bounded_repr(item)}")
        s, t = item
        if not is_json_int(s) or not (t is None or is_json_int(t)):
            raise InputError(f"move assignment must be [int, int|null], got {bounded_repr(item)}")
        pairs.append((s, t))
    return Move(assignments=tuple(pairs))


def enumerate_moves(c: Configuration, p: OrbitPartition) -> tuple[Move, ...]:
    """All moves of ``c`` in ascending lexicographic order.

    Per occupied orbit the options are nil plus the rank of each orbit an
    edge joins it to (itself included); the cartesian product minus the
    all-nil function, which is not a move.
    Factor-wise sorted options make the product enumeration itself emit the
    lexicographic order, so no final sort is needed.
    """
    occupied = occupied_orbits(p, c)
    rank_of = p.rank_of
    adjacent: dict[int, set[int]] = {rank: set() for rank in occupied}
    for v, nbrs in enumerate(c.graph.neighbors):
        if rank_of[v] in adjacent:
            adjacent[rank_of[v]].update(rank_of[u] for u in nbrs)
    option_sets = [[None, *sorted(adjacent[rank])] for rank in occupied]
    moves: list[Move] = []
    for combo in itertools.product(*option_sets):
        if all(t is None for t in combo):
            continue
        moves.append(Move(assignments=tuple(zip(occupied, combo))))
    return tuple(moves)


def _raw_outcomes(c: Configuration, p: OrbitPartition, m: Move, ssync: bool) -> set[tuple[int, ...]]:
    """All reachable raw placements, as λ tuples on the original vertex indices.

    Per occupied vertex the adversary picks a destination multiset for its
    robots; under SSYNC a robot with a movement instruction may also be left
    idle, subject to at least one robot moving overall.
    """
    g, rank_of = c.graph, p.rank_of
    assigned = dict(m.assignments)
    per_vertex: list[list[tuple[int, ...]]] = []
    stay_choice: list[tuple[int, ...]] = []
    for v, count in enumerate(c.lam):
        if count == 0:
            continue
        try:
            target = assigned[rank_of[v]]
        except KeyError:
            raise InternalError(f"move has no assignment for orbit rank {rank_of[v]}") from None
        if target is None:
            options = [v]
        else:
            options = [u for u in g.neighbors[v] if rank_of[u] == target]
            if not options:
                raise InternalError(
                    f"vertex {v} has no neighbor in target orbit {target}; "
                    "orbit adjacency is not symmetric"
                )
            if ssync:
                options = sorted([v, *options])
        per_vertex.append(list(itertools.combinations_with_replacement(options, count)))
        stay_choice.append((v,) * count)
    out: set[tuple[int, ...]] = set()
    for combo in itertools.product(*per_vertex):
        if ssync and list(combo) == stay_choice:
            continue
        lam = [0] * g.n
        for dests in combo:
            for d in dests:
                lam[d] += 1
        out.add(tuple(lam))
    return out


def raw_fsync_outcomes(c: Configuration, p: OrbitPartition, m: Move) -> tuple[tuple[int, ...], ...]:
    """Sorted raw placements reachable under full activation."""
    return tuple(sorted(_raw_outcomes(c, p, m, ssync=False)))


def raw_ssync_outcomes(c: Configuration, p: OrbitPartition, m: Move) -> tuple[tuple[int, ...], ...]:
    """Sorted raw placements reachable when any non-empty subset of the
    instructed robots is activated."""
    return tuple(sorted(_raw_outcomes(c, p, m, ssync=True)))

