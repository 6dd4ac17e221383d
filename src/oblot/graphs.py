"""Core value types: finite undirected graphs and robot configurations.

A configuration pairs a graph with a per-vertex robot count.  Both types are
immutable values; every operation that mutates conceptually returns a new
object.  Vertices are dense integer indices ``0..n-1``.

The package's value types are named tuples where a record is all they are,
and :class:`Frozen` subclasses where a type validates or normalizes its
fields, leaves one out of equality or builds a table on first use.  Neither
needs ``dataclasses``, whose import and per-class code generation would
add tens of milliseconds to every process start.
"""

from __future__ import annotations

import json
import reprlib
import warnings
from pathlib import Path

from .errors import InputError

# The canonical encoding writes n, and each vertex's robot count, in a
# 4-byte field.
ENCODING_LIMIT = 2**32


class Frozen:
    """Base of the value classes that are not named tuples: slotted and immutable.

    A subclass's public slots are its constructor's fields, in order; its
    ``__init__`` sets each slot once through :meth:`_set`, after which
    assignment and deletion raise AttributeError, as they do on a frozen
    dataclass.  Equality and hashing read the tuple ``_key()``, and
    instances of different classes never compare equal.  ``repr``, ``copy``
    and ``pickle`` go through the constructor's fields.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _set(self, **fields: object) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _items(self) -> list[tuple[str, object]]:
        return [(f, getattr(self, f)) for f in self.__slots__ if not f.startswith("_")]

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={value!r}" for f, value in self._items())
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(value for _, value in self._items())


class Graph(Frozen):
    """Finite undirected graph with vertices ``0..n-1``.

    ``edges`` is normalized at construction: each pair sorted, the sequence
    sorted and duplicate-free.  Equality is structural (``n`` plus edge set)
    and independent of the order edges were supplied in; ``name`` is a
    decorative tag that never participates in comparisons.  The adjacency
    table ``neighbors`` is built on first use.
    """

    __slots__ = ("n", "edges", "name", "_neighbors")

    def __init__(
        self, n: int, edges: tuple[tuple[int, int], ...], name: str | None = None
    ) -> None:
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {bounded_repr(n)}")
        seen: set[tuple[int, int]] = set()
        for pair in edges:
            if len(pair) != 2:
                raise InputError(f"edge must be a pair, got {pair!r}")
            u, v = pair
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(
                    f"edge endpoint out of range: {bounded_repr(pair)} with n={bounded_repr(n)}"
                )
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InputError(f"duplicate edge {bounded_repr(key)}")
            seen.add(key)
        self._set(n=n, edges=tuple(sorted(seen)), name=name, _neighbors=None)

    def _key(self) -> tuple:
        return (self.n, self.edges)

    @property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        if self._neighbors is None:
            adj: list[list[int]] = [[] for _ in range(self.n)]
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            self._set(_neighbors=tuple(tuple(sorted(a)) for a in adj))
        return self._neighbors

    def to_json_obj(self) -> dict:
        obj: dict = {"n": self.n, "edges": [list(e) for e in self.edges]}
        if self.name is not None:
            obj["name"] = self.name
        return obj


class Configuration(Frozen):
    """A graph plus the number of robots sitting on each vertex.

    Each count must be an integer, as :func:`is_json_int` reads it: a float,
    a string or a boolean raises :class:`InputError` instead of being
    truncated or read as 0 or 1.  Range and length are
    :func:`validate_configuration`'s."""

    __slots__ = ("graph", "lam")

    def __init__(self, graph: Graph, lam: tuple[int, ...]) -> None:
        # Tuples the engine keeps are built from lists, not iterators.
        # tuple() over an iterator starts from a 10-slot tuple and resizes it,
        # so a tuple of any other length is taken from the interpreter's free
        # list for length 10 and, once dropped, parked in the one for its own
        # length, which nothing of that length then draws down; over many
        # builds those free lists hold hundreds of KB.
        counts = [*lam]
        if not all(map(is_json_int, counts)):
            raise InputError(f"robot counts must be integers, got {bounded_repr(counts)}")
        self._set(graph=graph, lam=tuple(counts))

    def _key(self) -> tuple:
        return (self.graph, self.lam)


def validate_configuration(c: Configuration) -> None:
    """Raise :class:`InputError` unless ``c`` is a placement of at least one
    robot: one count per vertex, nonnegative and below the canonical
    encoding's 2**32, summing to at least 1."""
    if len(c.lam) != c.graph.n:
        raise InputError(
            f"length mismatch: lambda has {len(c.lam)} entries "
            f"for {bounded_repr(c.graph.n)} vertices"
        )
    if any(x < 0 for x in c.lam):
        raise InputError("robot counts must be nonnegative")
    if any(x >= ENCODING_LIMIT for x in c.lam):
        raise InputError(
            "robot counts must be below 2**32, the canonical encoding's limit, "
            f"got {bounded_repr(max(c.lam))}"
        )
    if sum(c.lam) < 1:
        raise InputError("zero robots: at least one robot is required")


def total_robots(c: Configuration) -> int:
    return sum(c.lam)


def is_json_int(x: object) -> bool:
    """Whether a parsed JSON value is an integer (``true``/``false`` are not)."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_json(text: str, what: str) -> object:
    """``json.loads(text)``; malformed, oversized or too deeply nested JSON is
    an InputError (``ValueError`` covers ``JSONDecodeError`` and the
    interpreter's limit on integer digits)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise InputError(f"{what} parse error: {e}") from e


def compact_json(obj: object) -> str:
    """The one JSON output form, without the newline: sorted keys, compact.

    Every value written is a tree the engine has just built, so it cannot
    hold a cycle; the encoder's cycle check, an id-keyed insert and delete
    per list and dict, is switched off because it would buy nothing.  The
    output bytes are the same."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)


def dump_json(obj: object) -> str:
    """A whole output document: :func:`compact_json` and one trailing newline."""
    return compact_json(obj) + "\n"


def bounded_repr(value: object) -> str:
    """``repr`` of an input value quoted in an error message, cut to a few levels,
    items and digits and at most 120 characters, however large the document."""
    text = reprlib.repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _warn_unknown_fields(obj: dict, known: set[str], what: str, stacklevel: int = 3) -> None:
    for key in obj:
        if key not in known:
            warnings.warn(
                f"ignoring unknown field {bounded_repr(key)} in {what} document",
                stacklevel=stacklevel,
            )


def load_graph(text: str) -> Graph:
    """Parse a graph JSON document: ``{"name": ..., "n": ..., "edges": [[u,v], ...]}``.

    Pure function of the document content; identical bytes yield equal graphs.
    Unknown fields warn rather than fail.
    """
    return _graph_from_obj(parse_json(text, "graph"))


def _graph_from_obj(obj: object) -> Graph:
    """The graph of a parsed graph document, for :func:`load_graph` and for a
    configuration's inline graph alike.  An unknown field's warning points at
    the code that called the loader."""
    if not isinstance(obj, dict):
        raise InputError("graph document must be a JSON object")
    for req in ("n", "edges"):
        if req not in obj:
            raise InputError(f"graph document missing field {req!r}")
    _warn_unknown_fields(obj, {"name", "n", "edges"}, "graph", stacklevel=4)
    n = obj["n"]
    if not is_json_int(n):
        raise InputError(f"field 'n' must be an integer, got {bounded_repr(n)}")
    if n >= ENCODING_LIMIT:
        raise InputError(
            f"field 'n' must be below 2**32, the canonical encoding's limit, got {bounded_repr(n)}"
        )
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise InputError("field 'edges' must be a list of pairs")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError("field 'name' must be a string")
    pairs = []
    for e in edges:
        if not isinstance(e, list) or len(e) != 2 or not all(is_json_int(x) for x in e):
            raise InputError(f"edge must be a pair of integers, got {bounded_repr(e)}")
        pairs.append((e[0], e[1]))
    return Graph(n=n, edges=tuple(pairs), name=name)


def read_input_file(path: str | Path, what: str) -> str:
    """The text of a UTF-8 input file; a read or decode failure, or a path
    holding a NUL character, is an InputError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as e:  # ValueError: a NUL in the path, or bad UTF-8
        raise InputError(f"cannot read {what} file {path}: {e}") from e


def load_graph_file(path: str | Path) -> Graph:
    return load_graph(read_input_file(path, "graph"))


def load_configuration(text: str, base_dir: str | Path | None = None) -> Configuration:
    """Parse a configuration document: ``{"graph": <object or path>, "lambda": [...]}``.

    A string ``graph`` field is a file path, resolved relative to ``base_dir``
    when given.  The result is validated.
    """
    obj = parse_json(text, "configuration")
    if not isinstance(obj, dict):
        raise InputError("configuration document must be a JSON object")
    for req in ("graph", "lambda"):
        if req not in obj:
            raise InputError(f"configuration document missing field {req!r}")
    _warn_unknown_fields(obj, {"graph", "lambda"}, "configuration")
    gfield = obj["graph"]
    if isinstance(gfield, str):
        gpath = Path(gfield)
        if base_dir is not None and not gpath.is_absolute():
            gpath = Path(base_dir) / gpath
        graph = load_graph_file(gpath)
    elif isinstance(gfield, dict):
        graph = _graph_from_obj(gfield)
    else:
        raise InputError("field 'graph' must be an object or a file path string")
    lam = obj["lambda"]
    if not isinstance(lam, list) or not all(is_json_int(x) for x in lam):
        raise InputError("field 'lambda' must be a list of integers")
    c = Configuration(graph=graph, lam=tuple(lam))
    validate_configuration(c)
    return c


def load_configuration_file(path: str | Path) -> Configuration:
    text = read_input_file(path, "configuration")
    return load_configuration(text, base_dir=Path(path).parent)
