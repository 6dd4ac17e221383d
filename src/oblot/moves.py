"""Orbit-level moves and their adversary-resolved outcomes.

A move assigns to every occupied orbit either an adjacent orbit or nil.
Robots sharing an orbit are indistinguishable, so they all receive the same
orbit-level instruction; the adversary then decides, robot by robot, which
neighbor inside the target orbit is actually reached: any neighbor u with
``rank_of[u]`` equal to the target, where ``rank_of`` is the partition's one
vertex -> orbit rank table.  The SSYNC variant additionally lets the
adversary idle any subset of the robots that were instructed to move, as
long as at least one robot moves.

Outcomes are computed on integer codes: a k-robot placement λ on n vertices
is Σ λ[v]·(k+1)**v, so distinct placements get distinct codes and a robot
stepping from v to u adds (k+1)**u - (k+1)**v.  The destination multisets of
one vertex's robots are the sums of one such step per robot; an orbit's
entry for a target holds its joint destinations, the sumset of its
vertices' sets, and the codes in which some robot of the orbit moved.  A
move's outcome codes fold its instructed orbits' entries, in rank order, as
(moved ⊕ joint_o) ∪ moved_o; :func:`_fold` is that fold's one place.

A placement's moves are the product of its :func:`option_sets`, one factor
per occupied orbit, minus the all-nil element; a move is named by its
mixed-radix index in that product (:func:`move_at`), and index order is the
lexicographic move order, in which nil precedes every orbit rank.
``build`` calls :func:`move_deltas` once per class: one walk of the
product, in index order, that computes each entry once, folds each
prefix's codes once for every move sharing it and maps each move's codes
to classes with one table.  ``raw_fsync_outcomes`` and
``raw_ssync_outcomes`` fold one move, which must instruct exactly the
occupied orbits in ascending rank order, and decode its codes to λ tuples
on the input graph's own vertex indices.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Collection
from typing import NamedTuple

from .canonical import OrbitPartition, occupied_orbits
from .errors import InternalError
from .graphs import Configuration

_source = operator.itemgetter(0)

# One (occupied orbit rank, (None, *adjacent ranks)) pair per occupied orbit.
OptionSets = tuple[tuple[int, tuple[int | None, ...]], ...]


class Move(NamedTuple):
    """One assignment (source orbit rank, target rank or None) per occupied orbit.

    Assignments are kept in ascending source-rank order; None is the nil
    instruction.  The all-nil function is not a move and is never constructed
    by :func:`move_at`.
    """

    assignments: tuple[tuple[int, int | None], ...]

    def to_json_obj(self) -> list[list[int | None]]:
        return [[s, t] for s, t in self.assignments]


def option_sets(c: Configuration, p: OrbitPartition) -> OptionSets:
    """The factors of ``c``'s move product: one (rank, options) pair per
    occupied orbit, in ascending rank order.

    An orbit's options are nil, then the ranks of the orbits an edge joins it
    to (itself included), ascending.  A move is one option per factor, so a
    class's moves are the product of its option sets minus the all-nil
    element; :func:`move_at` names them by index.
    """
    occupied = occupied_orbits(p, c)
    rank_of = p.rank_of
    adjacent: dict[int, set[int]] = {rank: set() for rank in occupied}
    for v, nbrs in enumerate(c.graph.neighbors):
        if rank_of[v] in adjacent:
            adjacent[rank_of[v]].update(rank_of[u] for u in nbrs)
    return tuple((rank, (None, *sorted(adjacent[rank]))) for rank in occupied)


def move_at(factors: OptionSets, index: int) -> Move:
    """The move with mixed-radix ``index`` in the product of ``factors``.

    The first factor is the most significant digit, so index order is the
    lexicographic move order; index 0 is the all-nil function, not a move.
    """
    rest = index
    pairs = []
    for rank, opts in reversed(factors):
        rest, digit = divmod(rest, len(opts))
        pairs.append((rank, opts[digit]))
    # a remainder is an index past the product's end, or a negative one
    if index < 1 or rest:
        raise InternalError(f"move index {index} is outside the class's move product")
    return Move(assignments=tuple(reversed(pairs)))


@functools.lru_cache(maxsize=8)
def _powers(n: int, k: int) -> tuple[int, ...]:
    """``(k+1)**v`` for each vertex v: a k-robot placement λ gets the code
    Σ λ[v]·(k+1)**v, distinct for distinct placements, and adding a robot at
    u adds ``(k+1)**u``."""
    return tuple((k + 1) ** v for v in range(n))


def _code(lam: tuple[int, ...], powers: tuple[int, ...]) -> int:
    return sum(map(operator.mul, lam, powers))


def class_table_by_code(class_of: dict[tuple[int, ...], int], n: int, k: int) -> dict[int, int]:
    """The class table of k-robot placements on n vertices, keyed by the
    placements' codes instead of their λ tuples."""
    powers = _powers(n, k)
    return {_code(lam, powers): i for lam, i in class_of.items()}


# The (joint, moved) entry of one occupied orbit's robots sent to one target.
_Entry = tuple[tuple[int, ...], tuple[int, ...]]


def _entry(
    c: Configuration,
    p: OrbitPartition,
    powers: tuple[int, ...],
    code: int,
    rank: int,
    target: int,
    ssync: bool,
) -> _Entry:
    """The entry of the robots of the occupied orbit ``rank`` sent to ``target``:

    - ``joint``: every joint destination, as a code delta from the orbit
      staying put (the sumset, over its vertices, of each vertex's
      destination multisets);
    - ``moved``: the codes of the whole placements, ``code`` being ``c``'s
      own, in which some robot of the orbit moved and every other robot
      stayed.  Under SSYNC it is tracked per vertex, because robots swapping
      inside an orbit reproduce its stay code.
    """
    rank_of = p.rank_of
    neighbors = c.graph.neighbors
    joint: set[int] | None = None
    for v in p.orbits[p.ranks.index(rank)]:
        # one robot's code steps: to each neighbor in the target orbit
        at = powers[v]
        steps = [powers[u] - at for u in neighbors[v] if rank_of[u] == target]
        if not steps:
            raise InternalError(
                f"vertex {v} has no neighbor in target orbit {target}; "
                "orbit adjacency is not symmetric"
            )
        if ssync:
            steps.append(0)  # an idled robot stays
        # the destination multisets of v's robots, one step per robot
        dests = set(steps)
        for _ in range(c.lam[v] - 1):
            dests = {a + b for a in dests for b in steps}
        if joint is None:
            joint = dests
            if ssync:
                moved = dests - {0}
            continue
        if ssync:
            # v's robots all stayed iff its delta is 0; robots swapping
            # between vertices can give a joint delta 0 too, so "moved"
            # is kept apart
            moved = {a + b for a in moved for b in dests}
            moved |= dests - {0}
        joint = {a + b for a in joint for b in dests}
    # under FSYNC every robot of the orbit moves
    return tuple(joint), tuple(map(code.__add__, moved if ssync else joint))


def _entries(
    c: Configuration, p: OrbitPartition, factors: OptionSets, ssync: bool
) -> list[list[_Entry | None]]:
    """Per factor, per option: None for nil, otherwise that orbit's entry."""
    powers = _powers(c.graph.n, sum(c.lam))
    code = _code(c.lam, powers)
    return [
        [None if t is None else _entry(c, p, powers, code, rank, t, ssync) for t in opts]
        for rank, opts in factors
    ]


def _fold(moved: Collection[int] | None, entry: _Entry, ssync: bool) -> Collection[int]:
    """The codes of a prefix's ``moved`` codes (None: no robot instructed
    yet) extended by one orbit's entry: (moved ⊕ joint_o) ∪ moved_o."""
    joint, moved_o = entry
    if moved is None:
        return moved_o
    folded = {a + b for a in moved for b in joint}
    # under FSYNC an instructed robot always moves: no prefix stayed
    if ssync:
        folded.update(moved_o)
    return folded


def move_deltas(
    c: Configuration,
    p: OrbitPartition,
    factors: OptionSets,
    ssync: bool,
    class_by_code: dict[int, int],
) -> dict[tuple[int, ...], list[int]]:
    """The moves of ``c`` grouped by outcome set: each Δ, as ascending class
    indices, maps to the ascending indices of its moves in the product of
    ``factors`` (see :func:`move_at`).

    One depth-first walk visits the product in index order.  It carries the
    folded ``moved`` codes of the current prefix, so moves sharing a prefix
    share its fold, and maps each move's codes to classes.  Every option of
    a factor is used by some move, so all entries are computed up front.
    """
    entries = _entries(c, p, factors, ssync)
    last = len(entries) - 1
    class_of_code = class_by_code.__getitem__
    groups: dict[frozenset[int], list[int]] = {}
    index = 0

    def walk(depth: int, moved: Collection[int] | None) -> None:
        nonlocal index
        for entry in entries[depth]:
            folded = moved if entry is None else _fold(moved, entry, ssync)
            if depth < last:
                walk(depth + 1, folded)
                continue
            if folded is not None:  # index 0: the all-nil function is not a move
                groups.setdefault(frozenset(map(class_of_code, folded)), []).append(index)
            index += 1

    try:
        walk(0, None)
    except KeyError:
        raise InternalError(
            "move outcome escapes the configuration set; robot conservation is violated"
        ) from None
    return {tuple(sorted(delta)): indices for delta, indices in groups.items()}


def _decode(code: int, n: int, base: int) -> tuple[int, ...]:
    lam = []
    for _ in range(n):
        code, count = divmod(code, base)
        lam.append(count)
    return tuple(lam)


def _raw_outcomes(
    c: Configuration, p: OrbitPartition, m: Move, ssync: bool
) -> tuple[tuple[int, ...], ...]:
    """The codes of one move, decoded to sorted λ tuples on ``c``'s own vertices.

    ``m`` must instruct exactly the occupied orbits, in ascending rank order.
    """
    # the vertices of one orbit carry equal counts, so its first one tells
    occupied = tuple(r for r, orbit in zip(p.ranks, p.orbits) if c.lam[orbit[0]])
    sources = tuple(map(_source, m.assignments))
    if sources != occupied:
        raise InternalError(f"move sources {sources} are not the occupied orbit ranks {occupied}")
    moved: Collection[int] | None = None
    for (entry,) in _entries(c, p, tuple((s, (t,)) for s, t in m.assignments), ssync):
        if entry is not None:
            moved = _fold(moved, entry, ssync)
    if moved is None:
        raise InternalError("a move without a movement instruction is not a move")
    base = sum(c.lam) + 1
    return tuple(sorted(_decode(x, c.graph.n, base) for x in moved))


def raw_fsync_outcomes(c: Configuration, p: OrbitPartition, m: Move) -> tuple[tuple[int, ...], ...]:
    """Sorted raw placements reachable under full activation."""
    return _raw_outcomes(c, p, m, ssync=False)


def raw_ssync_outcomes(c: Configuration, p: OrbitPartition, m: Move) -> tuple[tuple[int, ...], ...]:
    """Sorted raw placements reachable when any non-empty subset of the
    instructed robots is activated."""
    return _raw_outcomes(c, p, m, ssync=True)
