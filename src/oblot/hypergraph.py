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

Robots cannot tell automorphic placements apart, so a class is an orbit of
Aut(G) on placements.  Class enumeration runs one canonizer search for G and
one per class: placements are walked in lexicographic order, and each one
not yet in the class table founds a class, whose members are found by
applying the generators of G's search breadth-first
(:func:`enumerate_configurations`).  Those generate Aut(G), and the
canonizer's backjump keeps them few (11 on K12).  The result is the class
table ``class_of``, a map from every placement λ to its class index.  Each
class search is seeded with the generators of G's search that fix its
founder; its form is the unseeded search's, and a class's orbits come from
it (``entry.form.orbits``).

The walk also records a Schreier vector (Holt, Eick & O'Brien, *Handbook of
Computational Group Theory*, 2005): for every placement a generator reached,
the index of that generator, so that its inverse leads back to the parent
placement.  A class's founder, its representative, has no entry.  Composing
the generators along that chain gives ``h.transporter(λ)``, an automorphism
of G that carries the class representative onto λ; the simulator maps the
representative's outcomes through it instead of canonizing each placement
it visits.

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

import itertools
import operator
import weakref
from typing import NamedTuple

from .canonical import CanonicalForm, canonical_form
from .errors import InputError, InternalError
from .graphs import Configuration, Frozen, Graph, compact_json
from .moves import Move, OptionSets, class_moves, class_table_by_code, move_at

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
    """The moves of one class that share the outcome set ``delta``, as
    ascending indices into the class's move product (see
    :meth:`ConfigHypergraph.move`)."""

    source: int
    delta: tuple[int, ...]
    moves: tuple[int, ...]


class ConfigHypergraph(Frozen):
    """The configuration hypergraph of (``graph``, ``k``) under ``scheduler``.

    Equality and hashing read the graph, k, the scheduler, the classes and
    the hyperarcs; the lookup tables below derive from them.  The object is
    weakly referenceable, for the record :func:`build` keeps.
    """

    __slots__ = (
        "graph", "k", "scheduler", "configs", "hyperarcs",
        "class_of", "option_sets", "generators", "schreier", "__weakref__",
    )

    def __init__(
        self,
        graph: Graph,
        k: int,
        scheduler: str,
        configs: tuple[ConfigEntry, ...],
        hyperarcs: tuple[Hyperarc, ...],
        # Placement λ -> class index, for every k-robot placement on ``graph``.
        class_of: dict[tuple[int, ...], int],
        # Per class, the option sets whose product its move indices count in.
        option_sets: tuple[OptionSets, ...],
        # The generators of Aut(G) the class walk applied, those of G's
        # search, and its Schreier vector: placement -> index of the
        # generator that first reached it.
        generators: tuple[tuple[int, ...], ...],
        schreier: dict[tuple[int, ...], int],
    ) -> None:
        self._set(
            graph=graph, k=k, scheduler=scheduler, configs=configs, hyperarcs=hyperarcs,
            class_of=class_of, option_sets=option_sets, generators=generators, schreier=schreier,
        )

    def _key(self) -> tuple:
        return (self.graph, self.k, self.scheduler, self.configs, self.hyperarcs)

    def move(self, source: int, index: int) -> Move:
        """The move a hyperarc of class ``source`` stores as ``index``."""
        return move_at(self.option_sets[source], index)

    def transporter(self, lam: tuple[int, ...]) -> tuple[int, ...]:
        """An automorphism π of G that carries the representative of ``lam``'s
        class onto ``lam``: ``lam[v] == rep.lam[π[v]]`` for every vertex v.

        π composes the generators along the Schreier chain from ``lam`` back
        to the class representative; each class is one orbit of the walk's
        generators, so each chain ends there.  A chain that ends elsewhere
        or runs in a circle, from a damaged vector, raises.
        """
        try:
            rep = self.configs[self.class_of[lam]].rep.lam
        except KeyError:
            raise self._foreign() from None
        pi = tuple(range(self.graph.n))
        cur = lam
        steps = len(self.schreier)  # a longer chain visits some placement twice
        while (j := self.schreier.get(cur)) is not None:
            if (steps := steps - 1) < 0:
                raise InternalError(f"the Schreier chain from placement {lam} runs in a circle")
            gen = self.generators[j]
            pi = tuple(map(gen.__getitem__, pi))
            # cur was reached as parent ∘ gen, so parent[gen[v]] == cur[v]
            parent = [0] * len(cur)
            for v, image in enumerate(gen):
                parent[image] = cur[v]
            cur = tuple(parent)
        if cur != rep:
            raise InternalError(
                f"placement {lam} leads back to {cur}, not to its class representative {rep}"
            )
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
    cuts = itertools.combinations_with_replacement(range(total + 1), parts - 1) if parts else ()
    return (tuple(map(operator.sub, (*c, total), (0, *c))) for c in cuts)


def enumerate_configurations(g: Graph, k: int) -> tuple[
    tuple[ConfigEntry, ...],
    dict[tuple[int, ...], int],
    tuple[tuple[int, ...], ...],
    dict[tuple[int, ...], int],
]:
    """One entry per isomorphism class of k-robot placements on g, the class
    table mapping every placement to its entry's index, the generators of
    Aut(G) the walk applied, and its Schreier vector over those generators.

    The walk applies the generators G's search found, which generate
    Aut(G).  Placements are walked in ascending lexicographic order; each
    one not yet in the table founds a class and, as its least member,
    represents it: it is canonized, seeded with the generators that fix it,
    and its orbit under the generators is filled in breadth-first, each new
    member recording the generator that reached it.  So every orbit is a
    whole class, and a founder whose encoding already names a class raises.
    Entries are sorted by encoding bytes.
    """
    if k < 1:
        raise InputError(f"robot count must be at least 1, got {k}")
    if not g.n:
        raise InputError(f"robot count {k} needs a graph with at least one vertex")
    generators = canonical_form(g, (0,) * g.n).generators
    # the image of a placement under a generator, as one C call
    images = [operator.itemgetter(*gen) for gen in generators]
    by_encoding: dict[bytes, ConfigEntry] = {}
    encoding_of: dict[tuple[int, ...], bytes] = {}
    schreier: dict[tuple[int, ...], int] = {}
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
        encoding_of[lam] = enc
        orbit = [lam]
        for member in orbit:
            for j, image_of in enumerate(images):
                if (image := image_of(member)) not in encoding_of:
                    encoding_of[image] = enc
                    schreier[image] = j
                    orbit.append(image)
    entries = tuple(entry for _, entry in sorted(by_encoding.items()))
    index = {entry.form.encoding: i for i, entry in enumerate(entries)}
    class_of = {lam: index[enc] for lam, enc in encoding_of.items()}
    return entries, class_of, generators, schreier


def build(g: Graph, k: int, scheduler: str = "fsync") -> ConfigHypergraph:
    """Construct the full configuration hypergraph for (g, k).

    For every configuration class, on the orbits its representative's form
    carries, and every one of its moves, the scheduler's outcome set Δ is
    the set of classes of the move's outcome codes, from one
    :func:`class_moves` sweep per class and the class table keyed by code;
    moves with identical (source, Δ) merge into one hyperarc, which keeps
    their indices.
    """
    if scheduler not in SCHEDULERS:
        raise InputError(f"unknown scheduler {scheduler!r}; expected one of {SCHEDULERS}")
    ssync = scheduler == "ssync"
    entries, class_of, generators, schreier = enumerate_configurations(g, k)
    class_by_code = class_table_by_code(class_of, g.n, k)
    factors = []
    hyperarcs = []
    share = {}.setdefault  # for one build: arcs with equal Δs hold one tuple
    for i, entry in enumerate(entries):
        options, deltas = class_moves(entry.rep, entry.form.orbits, ssync, class_by_code)
        factors.append(options)
        arcs = sorted(deltas.items())
        # tuple.__new__ skips the named tuple's Python-level constructor
        hyperarcs += [tuple.__new__(Hyperarc, (i, share(d, d), tuple(ms))) for d, ms in arcs]
    h = ConfigHypergraph(
        graph=g, k=k, scheduler=scheduler, configs=entries, hyperarcs=tuple(hyperarcs),
        class_of=class_of, option_sets=tuple(factors), generators=generators, schreier=schreier,
    )
    _built[id(g), k, scheduler] = h
    return h


def built(g: Graph, k: int, scheduler: str) -> ConfigHypergraph | None:
    """The hypergraph ``build(g, k, scheduler)`` returned for this very graph
    object, while some caller still holds it; otherwise None.  An equal graph
    that is another object, say one with another name, never matches."""
    h = _built.get((id(g), k, scheduler))
    return h if h is not None and h.graph is g else None


def _json_chunks(h: ConfigHypergraph):
    """The JSON export in chunks, keys in sorted order: the text before the
    hyperarcs, one string per source class holding its hyperarcs, then the
    tail.  Every value but the hyperarcs goes through :func:`compact_json`.
    Each text is made once: a class's move texts, entry i the open text of
    move index i, factor by factor over its move product (the later factors'
    texts start with the comma; the join closes each move), and each
    distinct Δ's head from a memo that lives for this export."""
    yield "".join((
        '{"configs":', compact_json([{"lambda": e.rep.lam} for e in h.configs]),
        ',"format_version":', compact_json(FORMAT_VERSION),
        ',"graph":', compact_json(h.graph.to_json_obj()),
        ',"hyperarcs":[',
    ))
    heads: dict[tuple[int, ...], str] = {}
    for n, (source, group) in enumerate(itertools.groupby(h.hyperarcs, key=operator.itemgetter(0))):
        level = [""]
        for j, (rank, opts) in enumerate(h.option_sets[source]):
            texts = [f"{',' if j else '['}[{rank},{'null' if t is None else t}]" for t in opts]
            level = [a + b for a in level for b in texts]
        tail = f'],"source":{source}}}'
        yield ("," if n else "") + ",".join([
            (heads.get(d) or heads.setdefault(d, '{"delta":[' + ",".join(map(str, d)) + '],"moves":['))
            + "],".join(map(level.__getitem__, ms)) + "]" + tail
            for _, d, ms in group
        ])
    yield f'],"k":{compact_json(h.k)},"scheduler":{compact_json(h.scheduler)}}}\n'


def _dot_chunks(h: ConfigHypergraph):
    """Graphviz text in chunks: one labeled node per config, then per source
    class a point node per hyperarc, arrows source -> hyperarc -> each Δ member."""
    yield "digraph hypergraph {\n" + "".join(
        f'  c{i} [shape=ellipse, label="C{i} [{",".join(map(str, e.rep.lam))}]"];\n'
        for i, e in enumerate(h.configs)
    )
    for source, group in itertools.groupby(enumerate(h.hyperarcs), key=lambda ja: ja[1].source):
        yield "".join(
            f'  a{j} [shape=point, label=""];\n  c{source} -> a{j};\n'
            + "".join(f"  a{j} -> c{d};\n" for d in a.delta)
            for j, a in group
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
