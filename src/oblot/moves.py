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
vertices' sets, and under SSYNC the codes in which some robot of the orbit
moved.  A move's outcome codes fold its instructed orbits' entries, in rank
order: under FSYNC their sumset, under SSYNC (moved ⊕ joint_o) ∪ moved_o.

A placement's moves are the product of its option sets, one factor per
occupied orbit (nil, then the ranks of the orbits an edge joins it to,
itself included, ascending), minus the all-nil element; a move is named by
its mixed-radix index in that product (:func:`move_at`), and index order is
the lexicographic move order, in which nil precedes every orbit rank.
``build`` calls :func:`class_moves` once per class and keeps its factors as
``h.option_sets``: one sweep over the occupied orbits' vertices gives the
factors and every option's entry, one list per factor every move's outcome
codes in index order, a plain int for a move with one outcome, and one pass
maps them to classes with one table.
``raw_fsync_outcomes`` and ``raw_ssync_outcomes`` fold one move from the
same entries; it must instruct exactly the occupied orbits in ascending rank
order, and its codes are decoded to λ tuples on the graph's own vertices.
"""

from __future__ import annotations

import functools
import operator
from typing import NamedTuple

from .canonical import OrbitPartition
from .errors import BudgetExceededError, InternalError
from .graphs import Configuration

_source = operator.itemgetter(0)

# The largest int32: a move index, like every index of the hypergraph's
# layout, must fit one.
MAX_INDEX = 2**31 - 1

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


def move_product(factors: OptionSets) -> int:
    """The size of the product of ``factors``, index 0 included, or
    :class:`BudgetExceededError` once it passes :data:`MAX_INDEX`: the
    product is counted factor by factor and never enumerated."""
    size = 1
    for _, opts in factors:
        size *= len(opts)
        if size > MAX_INDEX:
            raise BudgetExceededError(
                "a class's move product passes 2**31 - 1 moves, "
                "the width of the hypergraph's int32 move indices"
            )
    return size


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


_ASYMMETRIC = "vertex {} has no neighbor in target orbit {}; orbit adjacency is not symmetric"


def _sumset(a, b):
    """{x + y : x in a, y in b}, an int standing for the set holding it; two
    ints give their sum."""
    if a.__class__ is int is b.__class__:
        return a + b
    a = (a,) if a.__class__ is int else a
    return frozenset([x + y for x in a for y in ((b,) if b.__class__ is int else b)])


def _option_table(
    c: Configuration, p: OrbitPartition, ssync: bool
) -> tuple[OptionSets, list[list], int | frozenset[int]]:
    """The factors of ``c``'s move product, one (rank, options) pair per
    occupied orbit in ascending rank order; per factor, the column of its
    options' entries, nil's first; and the outcome codes :func:`_outcomes`
    starts from.

    The entry of an occupied orbit's robots sent to a target holds its joint
    destinations, as code deltas from the orbit staying put: the sumset,
    over its vertices, of each vertex's destination multisets.  Under FSYNC
    every robot moves, so that is the entry, an int when it is one delta,
    and nil's entry is 0.  Under SSYNC the entry is (joint, moved), where
    moved holds the codes of the whole placements in which some robot of the
    orbit moved and every other robot stayed, tracked per vertex because
    robots swapping inside an orbit reproduce its stay code; nil's is None.
    """
    lam = c.lam
    powers = _powers(c.graph.n, sum(lam))
    code = _code(lam, powers)
    rank_of = p.rank_of
    neighbors = c.graph.neighbors
    factors = []
    columns = []
    for orbit, rank in zip(p.orbits, p.ranks):
        # the vertices of one orbit carry equal counts, so its first one tells
        if not lam[orbit[0]]:
            continue
        # each vertex's code steps, one per neighbor, by the rank it reaches
        steps_of = []
        for v in orbit:
            at = powers[v]
            steps: dict[int, list[int]] = {}
            for u in neighbors[v]:
                steps.setdefault(rank_of[u], []).append(powers[u] - at)
            steps_of.append(steps)
        targets = sorted(set().union(*steps_of))
        column = [None if ssync else 0]
        for target in targets:
            joint = moved = None
            for v, steps in zip(orbit, steps_of):
                step = steps.get(target)
                if step is None:
                    raise InternalError(_ASYMMETRIC.format(v, target))
                if ssync:
                    step = [*step, 0]  # an idled robot stays
                # the destination multisets of v's robots, one step per robot
                if len(step) == 1:
                    dests = step[0] * lam[v]
                else:
                    dests = frozenset(step)
                    for _ in range(lam[v] - 1):
                        dests = _sumset(dests, step)
                if joint is None:
                    joint, moved = dests, dests - {0} if ssync else None
                    continue
                if ssync:
                    # v's robots all stayed iff its delta is 0; robots swapping
                    # between vertices can give a joint delta 0 too, so "moved"
                    # is kept apart
                    moved = _sumset(moved, dests) | (dests - {0})
                joint = _sumset(joint, dests)
            column.append((joint, frozenset([code + x for x in moved])) if ssync else joint)
        factors.append((rank, (None, *targets)))
        columns.append(column)
    # under SSYNC a code counts only once some robot moved
    return tuple(factors), columns, frozenset() if ssync else code


def _outcomes(start: int | frozenset[int], columns: list[list], ssync: bool) -> list:
    """The outcome codes of every element of the product of ``columns``, in
    index order: the previous factors' codes are the outer loop, so the first
    factor is the most significant digit, as in :func:`move_at`.

    Under FSYNC an element is the sumset of ``start``, the placement's own
    code, and the entries it picks, an int while that is one code.  Under
    SSYNC the codes start empty, nil keeps them, and each entry (joint,
    moved) extends them to (codes ⊕ joint) ∪ moved.
    """
    level = [start]
    for column in columns:
        if ssync:
            level = [
                m if e is None else _sumset(m, e[0]) | e[1]
                for m in level for e in column
            ]
        else:
            level = [
                a + b if a.__class__ is int is b.__class__ else _sumset(a, b)
                for a in level for b in column
            ]
    return level


def class_moves(
    c: Configuration, p: OrbitPartition, ssync: bool, class_by_code: dict[int, int]
) -> tuple[OptionSets, dict[tuple[int, ...], list[int]]]:
    """The factors of ``c``'s move product, as :func:`_option_table` gives
    them, and its moves grouped by outcome set: each Δ, as ascending class
    indices, maps to the ascending indices of its moves in that product (see
    :func:`move_at`).  ``p`` must be ``c``'s orbit partition.  A product
    past :data:`MAX_INDEX` is refused (:func:`move_product`) before it is
    expanded.
    """
    factors, columns, start = _option_table(c, p, ssync)
    move_product(factors)
    level = _outcomes(start, columns, ssync)
    class_of_code = class_by_code.__getitem__
    # a Δ of one class is keyed by that class
    groups: dict[int | frozenset[int], list[int]] = {}
    try:
        # index 0 is the all-nil function, not a move
        for index in range(1, len(level)):
            codes = level[index]
            if codes.__class__ is int:
                delta = class_of_code(codes)
            else:
                delta = frozenset(map(class_of_code, codes))
                if len(delta) == 1:
                    (delta,) = delta
            groups.setdefault(delta, []).append(index)
    except KeyError:
        raise InternalError(
            "move outcome escapes the configuration set; robot conservation is violated"
        ) from None
    return factors, {
        (d,) if d.__class__ is int else tuple(sorted(d)): ms for d, ms in groups.items()
    }


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
    factors, columns, start = _option_table(c, p, ssync)
    occupied = tuple(map(_source, factors))
    sources = tuple(map(_source, m.assignments))
    if sources != occupied:
        raise InternalError(f"move sources {sources} are not the occupied orbit ranks {occupied}")
    if all(t is None for _, t in m.assignments):
        raise InternalError("a move without a movement instruction is not a move")
    picked = []
    for (s, t), (_, options), column in zip(m.assignments, factors, columns):
        if t not in options:
            raise InternalError(_ASYMMETRIC.format(p.orbits[p.ranks.index(s)][0], t))
        picked.append([column[options.index(t)]])
    (codes,) = _outcomes(start, picked, ssync)
    base = sum(c.lam) + 1
    codes = (codes,) if codes.__class__ is int else codes
    return tuple(sorted(_decode(x, c.graph.n, base) for x in codes))


def raw_fsync_outcomes(c: Configuration, p: OrbitPartition, m: Move) -> tuple[tuple[int, ...], ...]:
    """Sorted raw placements reachable under full activation."""
    return _raw_outcomes(c, p, m, ssync=False)


def raw_ssync_outcomes(c: Configuration, p: OrbitPartition, m: Move) -> tuple[tuple[int, ...], ...]:
    """Sorted raw placements reachable when any non-empty subset of the
    instructed robots is activated."""
    return _raw_outcomes(c, p, m, ssync=True)
