"""Orbit-level moves and their adversary-resolved outcomes.

A move assigns to every occupied orbit either an adjacent orbit or nil.
Robots sharing an orbit are indistinguishable, so they all receive the same
orbit-level instruction; the adversary then decides, robot by robot, which
neighbor inside the target orbit is actually reached.  Outcome enumeration
sweeps those per-robot choices (as destination multisets per vertex, which is
equivalent and smaller) and returns the raw placements they produce, on the
input graph's own vertex indices.  Grouping them into configuration classes
is a lookup in the hypergraph's class table.

The SSYNC variant additionally lets the adversary idle any subset of the
robots that were instructed to move, as long as at least one robot moves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .canonical import OrbitPartition, occupied_orbits
from .errors import InputError, InternalError
from .graphs import Configuration, Graph, is_json_int

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

    @cached_property
    def _by_source(self) -> dict[int, int | None]:
        return dict(self.assignments)

    def target_of(self, source_rank: int) -> int | None:
        try:
            return self._by_source[source_rank]
        except KeyError:
            raise InternalError(f"move has no assignment for orbit rank {source_rank}") from None

    @property
    def sources(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.assignments)

    def sort_key(self) -> tuple[tuple[int, int], ...]:
        return tuple((s, _target_key(t)) for s, t in self.assignments)

    def to_json_obj(self) -> list[list[int | None]]:
        return [[s, t] for s, t in self.assignments]


def move_from_json_obj(obj: object) -> Move:
    if not isinstance(obj, list):
        raise InputError(f"move must be a list of pairs, got {obj!r}")
    pairs: list[tuple[int, int | None]] = []
    for item in obj:
        if not isinstance(item, list) or len(item) != 2:
            raise InputError(f"move assignment must be a pair, got {item!r}")
        s, t = item
        if not is_json_int(s) or not (t is None or is_json_int(t)):
            raise InputError(f"move assignment must be [int, int|null], got {item!r}")
        pairs.append((s, t))
    return Move(assignments=tuple(pairs))


def adjacent_orbits(p: OrbitPartition, g: Graph, o: int) -> set[int]:
    """Ranks of all orbits joined to orbit ``o`` by at least one edge.

    An orbit can be adjacent to itself; an orbit of isolated vertices is
    adjacent to nothing.
    """
    members = set(p.orbit_of_rank(o))
    out: set[int] = set()
    for v in members:
        for u in g.adjacency_sets[v]:
            out.add(p.orbit_rank_of_vertex[u])
    return out


def enumerate_moves(c: Configuration, p: OrbitPartition) -> tuple[Move, ...]:
    """All moves of ``c`` in ascending lexicographic order.

    Per occupied orbit the options are nil plus each adjacent orbit rank; the
    cartesian product minus the all-nil function, which is not a move.
    Factor-wise sorted options make the product enumeration itself emit the
    lexicographic order, so no final sort is needed.
    """
    occupied = occupied_orbits(p, c)
    option_sets: list[list[int | None]] = []
    for rank in occupied:
        targets = sorted(adjacent_orbits(p, c.graph, rank))
        option_sets.append([None, *targets])
    moves: list[Move] = []
    for combo in itertools.product(*option_sets):
        if all(t is None for t in combo):
            continue
        moves.append(Move(assignments=tuple(zip(occupied, combo))))
    return tuple(moves)


def _destination_options(
    c: Configuration, p: OrbitPartition, m: Move, v: int
) -> list[int]:
    """Vertices one robot standing on ``v`` may end the round on."""
    rank = p.orbit_rank_of_vertex[v]
    target = m.target_of(rank)
    if target is None:
        return [v]
    target_members = set(p.orbit_of_rank(target))
    options = sorted(c.graph.adjacency_sets[v] & target_members)
    if not options:
        raise InternalError(
            f"vertex {v} has no neighbor in target orbit {target}; "
            "orbit adjacency is not symmetric"
        )
    return options


def _raw_outcomes(c: Configuration, p: OrbitPartition, m: Move, ssync: bool) -> set[tuple[int, ...]]:
    """All reachable raw placements, as λ tuples on the original vertex indices.

    Per occupied vertex the adversary picks a destination multiset for its
    robots; under SSYNC a robot with a movement instruction may also be left
    idle, subject to at least one robot moving overall.
    """
    vertices = [v for v in range(c.graph.n) if c.lam[v] > 0]
    per_vertex: list[list[tuple[int, ...]]] = []
    stay_choice: list[tuple[int, ...]] = []
    for v in vertices:
        options = _destination_options(c, p, m, v)
        if ssync and options != [v]:
            options = sorted({v, *options})
        per_vertex.append(
            list(itertools.combinations_with_replacement(options, c.lam[v]))
        )
        stay_choice.append((v,) * c.lam[v])
    out: set[tuple[int, ...]] = set()
    for combo in itertools.product(*per_vertex):
        if ssync and list(combo) == stay_choice:
            continue
        lam = [0] * c.graph.n
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

