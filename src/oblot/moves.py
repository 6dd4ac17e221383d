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
joint destinations are the sumset of its vertices' sets.  An
:class:`OutcomeMemo` keeps them per (occupied orbit rank, target) pair,
computed the first time a move of the placement uses the pair, and a move's
outcome codes are the sumset of its pairs' entries, restricted to the
choices in which some robot moved.

A placement's moves are the product of its :func:`option_sets`, one factor
per occupied orbit, minus the all-nil element; a move is named by its
mixed-radix index in that product (:func:`move_at`), and index order is the
lexicographic move order.  ``build`` calls :func:`move_deltas` once per
class: one walk of the product, in index order, that folds each prefix's
codes once for every move sharing it and maps the last fold's codes to
classes with one table.  ``raw_fsync_outcomes`` and ``raw_ssync_outcomes``
decode the codes of one move to λ tuples on the input graph's own vertex
indices.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Collection
from dataclasses import dataclass

from .canonical import OrbitPartition, occupied_orbits
from .errors import InternalError
from .graphs import Configuration

# Sort key for a target: nil precedes every orbit rank.
_NIL_KEY = -1

_source = operator.itemgetter(0)

# One (occupied orbit rank, (None, *adjacent ranks)) pair per occupied orbit.
OptionSets = tuple[tuple[int, tuple[int | None, ...]], ...]


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


def enumerate_moves(c: Configuration, p: OrbitPartition) -> tuple[Move, ...]:
    """All moves of ``c`` in ascending lexicographic order, which is index order.

    Factor-wise sorted options make the product enumeration itself emit the
    lexicographic order, so no final sort is needed.
    """
    factors = option_sets(c, p)
    ranks = tuple(rank for rank, _ in factors)
    # nil leads every factor, so the all-nil function is the product's first element
    combos = itertools.islice(itertools.product(*(opts for _, opts in factors)), 1, None)
    return tuple(Move(assignments=tuple(zip(ranks, combo))) for combo in combos)


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


class OutcomeMemo:
    """The raw outcome codes of one placement's moves, from a memo per
    (occupied orbit rank, target) pair.

    An entry holds two things for the robots of its orbit:

    - ``joint``: every joint destination, as a code delta from the orbit
      staying put (the sumset, over its vertices, of each vertex's
      destination multisets);
    - ``moved``: the codes of the whole placements in which some robot of the
      orbit moved and every other robot stayed.  Under SSYNC it is tracked per
      vertex, because robots swapping inside an orbit reproduce its stay code.

    Entries are computed the first time a move uses their pair.
    """

    __slots__ = ("c", "p", "ssync", "base", "powers", "code", "occupied", "_entries")

    def __init__(self, c: Configuration, p: OrbitPartition, ssync: bool) -> None:
        self.c, self.p, self.ssync = c, p, ssync
        self.base = sum(c.lam) + 1
        self.powers = _powers(c.graph.n, self.base - 1)
        self.code = _code(c.lam, self.powers)
        # the vertices of one orbit carry equal counts, so its first one tells
        self.occupied = tuple(r for r, orbit in zip(p.ranks, p.orbits) if c.lam[orbit[0]])
        self._entries: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def codes(self, m: Move) -> Collection[int]:
        """The distinct codes of the placements ``m`` can produce: those in
        which some robot moved, folded orbit by orbit as
        (moved ⊕ joint_o) ∪ moved_o."""
        pairs = m.assignments
        if tuple(map(_source, pairs)) != self.occupied:
            pairs = self._covering_pairs(m)
        moved: Collection[int] = ()
        for rank, target in pairs:
            if target is None:
                continue
            joint, moved_o = self.entry(rank, target)
            if not moved:
                moved = moved_o
                continue
            moved = {a + b for a in moved for b in joint}
            # under FSYNC an instructed robot always moves: no prefix stayed
            if self.ssync:
                moved.update(moved_o)
        if not moved:
            raise InternalError("a move without a movement instruction is not a move")
        return moved

    def entry(self, rank: int, target: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The (joint, moved) entry of the robots of the occupied orbit ``rank``
        sent to ``target``, computed on first use."""
        entry = self._entries.get((rank, target))
        if entry is None:
            entry = self._entries[rank, target] = self._entry(rank, target)
        return entry

    def _covering_pairs(self, m: Move) -> tuple[tuple[int, int | None], ...]:
        """One pair per occupied orbit in rank order, the last assignment of a
        source winning; a missing occupied orbit is an error."""
        assigned = dict(m.assignments)
        for rank in self.occupied:
            if rank not in assigned:
                raise InternalError(f"move has no assignment for orbit rank {rank}")
        return tuple((rank, assigned[rank]) for rank in self.occupied)

    def _entry(self, rank: int, target: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Joint code deltas and moved codes of the robots of the occupied orbit
        ``rank`` sent to ``target``."""
        c, p, powers, ssync = self.c, self.p, self.powers, self.ssync
        rank_of = p.rank_of
        joint: set[int] | None = None
        for v in p.orbits[p.ranks.index(rank)]:
            # one robot's code steps: to each neighbor in the target orbit
            at = powers[v]
            steps = [powers[u] - at for u in c.graph.neighbors[v] if rank_of[u] == target]
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
        return tuple(joint), tuple(map(self.code.__add__, moved if ssync else joint))


def move_deltas(
    memo: OutcomeMemo, factors: OptionSets, class_by_code: dict[int, int]
) -> dict[tuple[int, ...], list[int]]:
    """The moves of the memo's placement grouped by outcome set: each Δ, as
    ascending class indices, maps to the ascending indices of its moves in
    the product of ``factors`` (see :func:`move_at`).

    One depth-first walk visits the product in index order.  It carries the
    folded ``moved`` codes of the current prefix, folded as in
    :meth:`OutcomeMemo.codes`, so moves sharing a prefix share its fold; at
    the last factor the codes go straight to classes.  Every option of a
    factor is used by some move, so the memo entries of all of them are
    fetched up front.
    """
    ssync = memo.ssync
    *inner, last_entries = [
        [None if t is None else memo.entry(rank, t) for t in opts] for rank, opts in factors
    ]
    groups: dict[frozenset[int], list[int]] = {}
    index = 0

    def leaves(moved: Collection[int] | None) -> None:
        nonlocal index
        for joint, own in last:
            if joint is None:
                if moved is None:  # index 0: the all-nil function is not a move
                    index += 1
                    continue
                delta = frozenset([class_by_code[x] for x in moved])
            elif moved is None:
                delta = own
            else:
                delta = {class_by_code[a + b] for a in moved for b in joint}
                # under FSYNC an instructed robot always moves: no prefix stayed
                delta = frozenset(delta | own if ssync else delta)
            groups.setdefault(delta, []).append(index)
            index += 1

    def walk(depth: int, moved: Collection[int] | None) -> None:
        if depth == len(inner):
            leaves(moved)
            return
        for entry in inner[depth]:
            if entry is None:
                walk(depth + 1, moved)
            elif moved is None:
                walk(depth + 1, entry[1])
            else:
                joint, moved_o = entry
                folded = {a + b for a in moved for b in joint}
                if ssync:
                    folded.update(moved_o)
                walk(depth + 1, folded)

    try:
        # the classes of each last-factor entry's own moved codes
        last = [
            (None, None) if e is None else (e[0], frozenset([class_by_code[x] for x in e[1]]))
            for e in last_entries
        ]
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
    """The codes of one move, decoded to sorted λ tuples on ``c``'s own vertices."""
    memo = OutcomeMemo(c, p, ssync)
    return tuple(sorted(_decode(x, c.graph.n, memo.base) for x in memo.codes(m)))


def raw_fsync_outcomes(c: Configuration, p: OrbitPartition, m: Move) -> tuple[tuple[int, ...], ...]:
    """Sorted raw placements reachable under full activation."""
    return _raw_outcomes(c, p, m, ssync=False)


def raw_ssync_outcomes(c: Configuration, p: OrbitPartition, m: Move) -> tuple[tuple[int, ...], ...]:
    """Sorted raw placements reachable when any non-empty subset of the
    instructed robots is activated."""
    return _raw_outcomes(c, p, m, ssync=True)
