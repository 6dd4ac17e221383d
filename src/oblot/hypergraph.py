"""Configuration hypergraph construction and serialization.

The hypergraph for a graph G and robot count k has one vertex per isomorphism
class of k-robot placements and one hyperarc (C, Δ) per distinct outcome set Δ
reachable from C; the hyperarc carries every move whose outcome set is
exactly Δ.  Building is deterministic: configurations are sorted by canonical
encoding, hyperarcs by (source index, Δ index tuple), moves in lexicographic
move order.

A hyperarc stores its moves as ints: each is the move's index in its source
class's move product, the product of the option sets that
:func:`oblot.moves.class_moves` gives and ``h.option_sets`` keeps per class,
and index order is lexicographic move order.
Only the edges decode them: ``h.move(source, index)`` gives the ``Move``,
the solver decodes one per solvable class, and the JSON export writes each
class's moves from one table of move texts over the product.

The hyperarcs are held in one compressed-sparse-row layout (Saad,
*Iterative Methods for Sparse Linear Systems*, 2nd ed., 2003, §3.4) of int32
``array`` buffers, not as one object per arc: ``arc_start[i]`` is the first
arc of class i (one more entry closes the last class), ``arc_delta[j]`` the
id of arc j's Δ in the table ``deltas``, and arc j's moves are
``moves[move_start[j]:move_start[j + 1]]``.  Each distinct Δ is one tuple in
``deltas``, interned as ``build`` meets it; under FSYNC the Δs are few (2 975
for 615 567 arcs on C14, k=7), so an arc costs a Δ id, a move offset and its
moves, about 15 bytes.  ``build`` refuses what the layout cannot index, with
:class:`BudgetExceededError` before enumerating: 2**31 placements or more,
more than 2**31 − 1 robots, or a class whose move product passes
2**31 − 1.  ``h.hyperarcs`` is a
read-only sequence that makes a :class:`Hyperarc` record per arc on access,
for tests, scripts and the benchmark; the package itself reads the arrays,
and :func:`check` certifies their structure and the classes.

Robots cannot tell automorphic placements apart, so a class is an orbit of
Aut(G) on placements.  Class enumeration runs one canonizer search for G and
one per class: placements are walked in lexicographic order, and each one
not yet in the class table founds a class, its orbit under the generators of
G's search, found breadth-first (:func:`_orbit`).  Those generate Aut(G),
the canonizer's backjump keeps them few (11 on K12), and ``h.generators``
keeps them.  The result is the class table ``class_of``, a map from every
placement λ to its class index.  Each class search is seeded with the
generators of G's search that fix its founder; its form is the unseeded
search's, and a class's orbits come from it (``entry.form.orbits``).

The same search gives each member's transporter: the automorphism π of G,
``h.transporter(λ)``, that carries the class representative onto λ, the
first product of generators that reaches λ from the representative.
Nothing stores it: each call searches the representative's orbit again,
O(|orbit| · |generators| · n).  The simulator maps the representative's
outcomes through π instead of canonizing each placement it visits.  The
generators and the classes are the certificate :func:`check` reads: each
generator an automorphism, each class exactly its representative's orbit
(McConnell, Mehlhorn, Näher and Schweitzer, "Certifying algorithms",
*Computer Science Review* 5(2), 2011).

Every later class question is a lookup: the Δ of a move is the set of
classes of its outcome placements' integer codes, read from the table
re-keyed by code, and ``index_of`` reads the table.  The Δs of one class
come from one sweep of its occupied orbits' vertices and one list of move
outcome codes per factor of its move product (:func:`oblot.moves.class_moves`).

The JSON export is write-only: nothing reads a hypergraph back, so every
answer comes from a build.  It is written as text, not through a tree of
dicts, and in chunks: the values before the hyperarcs, which the ``json``
module writes in sorted key order; one string per source class with that
class's hyperarcs; the tail.  The CLI writes the chunks to its files as they
come, and ``export`` joins them.  The bytes are those ``dump_json`` writes.

``build`` always builds, and records what it returns weakly, keyed by the
identity of its ``Graph`` object, k and the scheduler.  While a caller still
holds that hypergraph, :func:`built` hands it to whoever asks about the same
graph object, such as the simulator, which would otherwise build it again.
The record keeps nothing alive.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import weakref
from array import array
from collections.abc import Sequence
from typing import NamedTuple

from .canonical import CanonicalForm, canonical_form
from .errors import BudgetExceededError, InputError, InternalError
from .graphs import Configuration, Frozen, Graph, bounded_repr, compact_json
from .moves import (
    MAX_INDEX, Move, OptionSets, class_moves, class_table_by_code, move_at, move_product,
)

FORMAT_VERSION = 1

SCHEDULERS = ("fsync", "ssync")

# (id(G), k, scheduler) -> the hypergraph ``build`` last returned for them,
# dropped as soon as no caller holds it.  A live entry holds its G, so its
# id names no other graph; ``built`` still checks the graph's identity.
_built: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class ConfigEntry(NamedTuple):
    """One hypergraph vertex: a canonical class plus a concrete representative.

    The representative is the lexicographically smallest placement of the
    class on the input graph's own vertex indexing, and ``form`` is its
    canonical form.  Orbit ranks used in stored moves are those of
    ``form.orbits``; ranks are canonical labels and therefore identical for
    every member of the class.
    """

    form: CanonicalForm
    rep: Configuration


class Hyperarc(NamedTuple):
    """One hyperarc as ``h.hyperarcs`` hands it out: the moves of class
    ``source`` that share the outcome set ``delta``, as ascending indices
    into the class's move product (see :meth:`ConfigHypergraph.move`)."""

    source: int
    delta: tuple[int, ...]
    moves: tuple[int, ...]


class _Hyperarcs(Sequence):
    """The hyperarcs of a hypergraph in arc order, read-only; each access
    makes a :class:`Hyperarc` record from the layout."""

    __slots__ = ("_h",)

    def __init__(self, h: ConfigHypergraph) -> None:
        self._h = h

    def __len__(self) -> int:
        return len(self._h.arc_delta)

    def _record(self, source: int, j: int) -> Hyperarc:
        h = self._h
        moves = h.moves[h.move_start[j]:h.move_start[j + 1]]
        return Hyperarc(source, h.deltas[h.arc_delta[j]], tuple(moves))

    def __getitem__(self, j: int) -> Hyperarc:
        j = range(len(self))[j]  # an IndexError past either end
        # the last class whose arcs start at or before j holds it
        return self._record(bisect.bisect_right(self._h.arc_start, j) - 1, j)

    def __iter__(self):
        arc_start = self._h.arc_start
        for source in range(len(arc_start) - 1):
            for j in range(arc_start[source], arc_start[source + 1]):
                yield self._record(source, j)


class ConfigHypergraph(Frozen):
    """The configuration hypergraph of (``graph``, ``k``) under ``scheduler``.

    Equality reads the graph, k, the scheduler, the classes and the
    hyperarcs' layout; the lookup tables and G's generators below derive
    from them, and the build keeps no automorphism per placement:
    :meth:`transporter` searches one from the generators.  Hashing reads all
    of those but the layout, whose arrays do not hash.  The object is weakly
    referenceable, for the record :func:`build` keeps.
    """

    __slots__ = (
        "graph", "k", "scheduler", "configs",
        "deltas", "arc_start", "arc_delta", "move_start", "moves",
        "class_of", "option_sets", "generators", "__weakref__",
    )

    def __init__(
        self,
        graph: Graph,
        k: int,
        scheduler: str,
        configs: tuple[ConfigEntry, ...],
        # The hyperarcs, as the module docstring lays them out: the distinct
        # Δs, per class its first arc, per arc its Δ id and first move, and
        # every arc's moves in one buffer.
        deltas: tuple[tuple[int, ...], ...],
        arc_start: array,
        arc_delta: array,
        move_start: array,
        moves: array,
        # Placement λ -> class index, for every k-robot placement on ``graph``.
        class_of: dict[tuple[int, ...], int],
        # Per class, the option sets whose product its move indices count in.
        option_sets: tuple[OptionSets, ...],
        # The generators of G's canonizer search; each class is its
        # representative's orbit under them.
        generators: tuple[tuple[int, ...], ...],
    ) -> None:
        self._set(
            graph=graph, k=k, scheduler=scheduler, configs=configs, deltas=deltas, class_of=class_of,
            arc_start=arc_start, arc_delta=arc_delta, move_start=move_start, moves=moves,
            option_sets=option_sets, generators=generators,
        )

    def _key(self) -> tuple:
        return (
            self.graph, self.k, self.scheduler, self.configs, self.deltas,
            self.arc_start, self.arc_delta, self.move_start, self.moves,
        )

    def __hash__(self) -> int:
        return hash((self.graph, self.k, self.scheduler, self.configs, self.deltas))

    @property
    def hyperarcs(self) -> _Hyperarcs:
        """The hyperarcs as a read-only sequence of :class:`Hyperarc` records,
        made on access.  Tests, scripts and the benchmark read it; the
        package itself reads the layout (its size is ``len(arc_delta)``)."""
        return _Hyperarcs(self)

    def move(self, source: int, index: int) -> Move:
        """The move a hyperarc of class ``source`` stores as ``index``."""
        return move_at(self.option_sets[source], index)

    def transporter(self, lam: tuple[int, ...]) -> tuple[int, ...]:
        """An automorphism π of G that carries the representative of ``lam``'s
        class onto ``lam``: ``lam[v] == rep.lam[π[v]]`` for every vertex v.

        π is the first product of ``generators`` that reaches ``lam`` when
        :func:`_orbit` searches the representative's orbit, the identity for
        the representative; each call makes that search.  A ``lam`` outside
        the orbit, from a damaged build, raises.
        """
        try:
            rep = self.configs[self.class_of[lam]].rep.lam
        except KeyError:
            raise self._foreign() from None
        pi = _orbit(rep, self.generators).get(lam)
        if pi is None:
            raise InternalError(f"placement {lam} is not in the orbit of its class's representative {rep}")
        return pi

    def index_of(self, c: Configuration) -> int:
        """Class index of ``c``, which must be a k-robot placement on this graph."""
        if c.graph is not self.graph and c.graph != self.graph:
            raise self._foreign()
        try:
            return self.class_of[c.lam]
        except KeyError:
            raise self._foreign() from None

    def _foreign(self) -> InputError:
        return InputError(
            "configuration does not belong to this hypergraph "
            f"(n={self.graph.n}, k={self.k})"
        )


def _weak_compositions(total: int, parts: int):
    """All λ of length ``parts`` and sum ``total`` >= 1, ascending lexicographic
    order: λ is read off its prefix sums, which come in the same order."""
    # one part has no cut, and needs no pool of cut positions
    pool = range(total + 1) if parts > 1 else ()
    cuts = itertools.combinations_with_replacement(pool, parts - 1) if parts else ()
    # each λ from a list, not an iterator (see graphs.Configuration): the
    # walk drops every λ it has already reached
    return (tuple([*map(operator.sub, (*c, total), (0, *c))]) for c in cuts)


def _refuse_past_the_width(n: int, k: int) -> None:
    """Raise :class:`BudgetExceededError` when k robots on n vertices have
    2**31 placements or more, C(n+k−1, k), or when k itself passes 2**31 − 1,
    which only one vertex holds in fewer placements: either is past the
    layout's int32 indices.  C(n+k−1, r), r = min(k, n−1), is built by the
    multiplicative formula, C(m+i, i) = C(m+i−1, i−1)·(m+i)/i with
    m = n+k−1−r; its partial values rise with i and at least double, so the
    loop stops within 32 steps."""
    r = min(k, n - 1)
    m = n + k - 1 - r
    count = 1
    for i in range(1, r + 1):
        count = count * (m + i) // i
        if count > MAX_INDEX:
            break
    if max(count, k) > MAX_INDEX:
        raise BudgetExceededError(
            f"{bounded_repr(k)} robots on {bounded_repr(n)} vertices are past the width of the "
            "hypergraph's int32 indices: 2**31 placements or more, or more than 2**31 - 1 robots"
        )


def _orbit(lam: tuple[int, ...], generators) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The orbit of ``lam`` under the group ``generators`` generate, found
    breadth-first with the generators in order: each member mapped to the
    first product of generators that reaches it, a π with
    ``member[v] == lam[π[v]]`` for every vertex v (the identity for ``lam``).
    A member's image under a generator is one C call, and so is its π's."""
    images = [operator.itemgetter(*gen) for gen in generators]
    orbit = {lam: tuple(range(len(lam)))}
    queue = [lam]
    for member in queue:
        pi = orbit[member]
        for image_of in images:
            if (image := image_of(member)) not in orbit:
                orbit[image] = image_of(pi)
                queue.append(image)
    return orbit


def enumerate_configurations(g: Graph, k: int) -> tuple[
    tuple[ConfigEntry, ...],
    dict[tuple[int, ...], int],
    tuple[tuple[int, ...], ...],
]:
    """One entry per isomorphism class of k-robot placements on g, the class
    table mapping every placement to its entry's index, and the generators
    of G's canonizer search, which generate Aut(G).

    Placements are walked in ascending lexicographic order; each one not
    yet in the table founds a class and, as its least member, represents
    it: it is canonized, seeded with the generators that fix it, and its
    :func:`_orbit` under the generators fills its class in.  So every orbit
    is a whole class, and a founder whose encoding already names a class
    raises.  Entries are sorted by encoding bytes.
    """
    if k < 1:
        raise InputError(f"robot count must be at least 1, got {k}")
    if not g.n:
        raise InputError(f"robot count {k} needs a graph with at least one vertex")
    _refuse_past_the_width(g.n, k)
    generators = canonical_form(g, (0,) * g.n).generators
    images = [operator.itemgetter(*gen) for gen in generators]  # for the seeds: an image is one C call
    by_encoding: dict[bytes, ConfigEntry] = {}
    encoding_of: dict[tuple[int, ...], bytes] = {}
    for lam in _weak_compositions(k, g.n):
        if lam in encoding_of:
            continue
        seeds = tuple(gen for gen, image_of in zip(generators, images) if image_of(lam) == lam)
        form = canonical_form(g, lam, seeds=seeds)
        enc = form.encoding
        if enc in by_encoding:
            raise InternalError(
                f"founder {lam} is in a known class: G's generators miss some of Aut(G)"
            )
        by_encoding[enc] = ConfigEntry(form=form, rep=Configuration(g, lam))
        encoding_of.update(dict.fromkeys(_orbit(lam, generators), enc))
    entries = tuple(entry for _, entry in sorted(by_encoding.items()))
    index = {entry.form.encoding: i for i, entry in enumerate(entries)}
    class_of = {lam: index[enc] for lam, enc in encoding_of.items()}
    return entries, class_of, generators


def build(g: Graph, k: int, scheduler: str = "fsync") -> ConfigHypergraph:
    """Construct the full configuration hypergraph for (g, k).

    For every configuration class, on the orbits its representative's form
    carries, and every one of its moves, the scheduler's outcome set Δ is
    the set of classes of the move's outcome codes, from one
    :func:`class_moves` sweep per class and the class table keyed by code;
    moves with identical (source, Δ) merge into one hyperarc, which keeps
    their indices.  Each class's arcs are appended to the layout as its
    sweep returns them, and each Δ is interned at its first arc.
    """
    if scheduler not in SCHEDULERS:
        raise InputError(f"unknown scheduler {scheduler!r}; expected one of {SCHEDULERS}")
    ssync = scheduler == "ssync"
    entries, class_of, generators = enumerate_configurations(g, k)
    class_by_code = class_table_by_code(class_of, g.n, k)
    factors = []
    ids: dict[tuple[int, ...], int] = {}  # Δ -> its id, in order of first use
    intern = ids.setdefault
    arc_start, arc_delta = array("i", [0]), array("i")
    move_start, moves = array("i", [0]), array("i")
    for entry in entries:
        options, deltas = class_moves(entry.rep, entry.form.orbits, ssync, class_by_code)
        factors.append(options)
        for d, ms in sorted(deltas.items()):
            arc_delta.append(intern(d, len(ids)))
            moves.extend(ms)
            move_start.append(len(moves))
        arc_start.append(len(arc_delta))
    h = ConfigHypergraph(
        graph=g, k=k, scheduler=scheduler, configs=entries, deltas=tuple(ids),
        arc_start=arc_start, arc_delta=arc_delta, move_start=move_start, moves=moves,
        class_of=class_of, option_sets=tuple(factors), generators=generators,
    )
    _built[id(g), k, scheduler] = h
    return h


def built(g: Graph, k: int, scheduler: str) -> ConfigHypergraph | None:
    """The hypergraph ``build(g, k, scheduler)`` returned for this very graph
    object, while some caller still holds it; otherwise None.  An equal graph
    that is another object, say one with another name, never matches."""
    h = _built.get((id(g), k, scheduler))
    return h if h is not None and h.graph is g else None


def check(h: ConfigHypergraph) -> None:
    """Certify ``h``'s classes and the structure of its hyperarc layout, or
    raise :class:`InternalError`, in one pass over the classes' orbits and
    one over the arcs and moves:

    * each class is exactly one orbit of the group ``h.generators``
      generate: encodings strictly increase along ``h.configs``; each
      generator is an automorphism of G, tested once against G's edge set;
      each representative holds k robots on n vertices and is the least
      member of its :func:`_orbit`, and every member names that class in
      ``h.class_of``; and the orbit sizes sum to C(n+k−1, k), the length of
      the class table, so the orbits are disjoint and hold every placement;
    * the starts are well formed: ``arc_start`` has one entry per class and
      one more, ``move_start`` one per arc and one more, each starts at 0,
      never decreases and ends at the length of the buffer it indexes, and
      every arc holds a move;
    * every Δ is non-empty, sorted, duplicate-free and a set of classes,
      and every arc's Δ id names one;
    * each class's arcs are sorted by Δ, so all arcs by (source, Δ), each
      arc's moves ascend, and together they cover every index 1 … P − 1 of
      the class's move product exactly once (index 0 is the all-nil
      function).

    A lost or duplicated move, a Δ out of order or out of range, a
    generator that is no automorphism, a placement outside its
    representative's orbit, a class missing, and two classes merged or out
    of order are caught.  So the classes are the orbits of a subgroup of
    Aut(G); that the generators generate all of it, so that no two classes
    are isomorphic, still rests on the canonizer.  That the Δs are the
    moves' outcomes is taken as built.
    """
    _check_classes(h)
    nc = len(h.configs)
    arc_start, arc_delta, move_start, moves = h.arc_start, h.arc_delta, h.move_start, h.moves
    _check_starts("arc", arc_start, nc, len(arc_delta), strict=False)
    _check_starts("move", move_start, len(arc_delta), len(moves), strict=True)
    if len(h.option_sets) != nc:
        raise InternalError(f"{len(h.option_sets)} option sets for {nc} classes")
    for t, d in enumerate(h.deltas):
        if not d or list(d) != sorted(set(d)) or not (0 <= d[0] and d[-1] < nc):
            raise InternalError(f"Δ {t} = {d} is not a sorted, duplicate-free set of classes")
    for source in range(nc):
        a0, a1 = arc_start[source], arc_start[source + 1]
        m0 = move_start[a0]
        ms = moves[m0:move_start[a1]].tolist()
        size = move_product(h.option_sets[source])
        if len(ms) != size - 1 or sorted(ms) != list(range(1, size)):
            raise InternalError(
                f"the arcs of class {source} do not cover its move indices 1 … {size - 1} once each"
            )
        previous = None
        for j in range(a0, a1):
            t = arc_delta[j]
            if not 0 <= t < len(h.deltas):
                raise InternalError(f"arc {j} names Δ {t}, past the {len(h.deltas)} Δs")
            delta = h.deltas[t]
            if previous is not None and delta <= previous:
                raise InternalError(f"arc {j} of class {source} breaks the (source, Δ) order")
            previous = delta
            own = ms[move_start[j] - m0:move_start[j + 1] - m0]
            if own != sorted(own):
                raise InternalError(f"the moves of arc {j} do not ascend")


def _check_classes(h: ConfigHypergraph) -> None:
    g, k, class_of = h.graph, h.k, h.class_of
    encodings = [entry.form.encoding for entry in h.configs]
    if not all(map(operator.lt, encodings, encodings[1:])):
        raise InternalError("the class encodings do not strictly increase")
    if len(class_of) != (count := math.comb(g.n + k - 1, k)):
        raise InternalError(f"the class table holds {len(class_of)} placements, not C(n+k−1, k) = {count}")
    edges = {*g.edges, *((b, a) for a, b in g.edges)}  # a permutation that keeps every edge keeps G
    for gen in h.generators:
        if sorted(gen) != list(range(g.n)) or not all((gen[a], gen[b]) in edges for a, b in g.edges):
            raise InternalError(f"the generator {gen} is not an automorphism of G")
    total = 0
    for i, entry in enumerate(h.configs):
        rep = entry.rep.lam
        if len(rep) != g.n or sum(rep) != k or min(rep) < 0:
            raise InternalError(f"the representative {rep} of class {i} is not a placement of {k} robots")
        orbit = _orbit(rep, h.generators)
        if (least := min(orbit)) != rep:
            raise InternalError(f"placement {least} of class {i} is less than its representative {rep}")
        if (stray := next((m for m in orbit if class_of.get(m) != i), None)) is not None:
            raise InternalError(f"placement {stray}, in class {i}'s orbit, names class {class_of.get(stray)}")
        total += len(orbit)
    if total != count:
        raise InternalError(f"the orbits of the classes hold {total} placements, not C(n+k−1, k) = {count}")


def _check_starts(what: str, starts: array, count: int, end: int, strict: bool) -> None:
    if len(starts) != count + 1 or starts[0] != 0 or starts[-1] != end:
        raise InternalError(f"the {what} starts do not span {count} entries over {end}")
    rise = operator.lt if strict else operator.le
    if not all(map(rise, starts, itertools.islice(starts, 1, None))):
        raise InternalError(f"the {what} starts decrease{', or leave an arc empty' if strict else ''}")


def _json_chunks(h: ConfigHypergraph):
    """The JSON export in chunks, keys in sorted order: the text before the
    hyperarcs, one string per source class holding its hyperarcs, then the
    tail.  Every value but the hyperarcs goes through :func:`compact_json`.
    Each text is made once: a class's move texts, entry i the open text of
    move index i, factor by factor over its move product (the later factors'
    texts start with the comma; the join closes each move), and each Δ's
    head.  A class's moves and starts are read with one slice of each
    buffer, never one per arc."""
    yield "".join((
        '{"configs":', compact_json([{"lambda": e.rep.lam} for e in h.configs]),
        ',"format_version":', compact_json(FORMAT_VERSION),
        ',"graph":', compact_json(h.graph.to_json_obj()),
        ',"hyperarcs":[',
    ))
    heads = ['{"delta":[' + ",".join(map(str, d)) + '],"moves":[' for d in h.deltas]
    arc_start, arc_delta, move_start, moves = h.arc_start, h.arc_delta, h.move_start, h.moves
    sep = ""
    for source, factors in enumerate(h.option_sets):
        a0, a1 = arc_start[source], arc_start[source + 1]
        if a0 == a1:
            continue
        level = [""]
        for j, (rank, opts) in enumerate(factors):
            texts = [f"{',' if j else '['}[{rank},{'null' if t is None else t}]" for t in opts]
            level = [a + b for a in level for b in texts]
        starts = move_start[a0:a1 + 1]
        m0 = starts[0]
        move_texts = list(map(level.__getitem__, moves[m0:starts[-1]]))
        tail = f'],"source":{source}}}'
        yield sep + ",".join([
            heads[t] + "],".join(move_texts[b - m0:e - m0]) + "]" + tail
            for t, b, e in zip(arc_delta[a0:a1], starts, itertools.islice(starts, 1, None))
        ])
        sep = ","
    yield f'],"k":{compact_json(h.k)},"scheduler":{compact_json(h.scheduler)}}}\n'


def _dot_chunks(h: ConfigHypergraph):
    """Graphviz text in chunks: one labeled node per config, then per source
    class a point node per hyperarc, arrows source -> hyperarc -> each Δ member."""
    yield "digraph hypergraph {\n" + "".join(
        f'  c{i} [shape=ellipse, label="C{i} [{",".join(map(str, e.rep.lam))}]"];\n'
        for i, e in enumerate(h.configs)
    )
    arc_start, arc_delta, deltas = h.arc_start, h.arc_delta, h.deltas
    for source in range(len(h.configs)):
        a0, a1 = arc_start[source], arc_start[source + 1]
        if a0 == a1:
            continue
        yield "".join(
            f'  a{j} [shape=point, label=""];\n  c{source} -> a{j};\n'
            + "".join(f"  a{j} -> c{d};\n" for d in deltas[t])
            for j, t in zip(range(a0, a1), arc_delta[a0:a1])
        )
    yield "}\n"


def export(h: ConfigHypergraph, format: str) -> str:
    """``h`` as a JSON document (``"json"``: compact, sorted keys, one trailing
    newline; see README "File formats") or as Graphviz text (``"dot"``)."""
    if format == "json":
        return "".join(_json_chunks(h))
    if format == "dot":
        return "".join(_dot_chunks(h))
    raise InputError(f"unknown export format {format!r}; expected 'json' or 'dot'")
