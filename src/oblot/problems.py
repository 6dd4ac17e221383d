"""Final-configuration predicates for the supported problem family.

A problem is a predicate over configurations; the final set F of a hypergraph
is the set of classes whose representative satisfies it.  All predicates are
isomorphism-invariant, which is what makes F well defined on classes.
Geodesic mutual visibility is decided with one breadth-first search per
robot, not per pair of robots.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path

from .errors import InputError
from .graphs import Configuration, Frozen, bounded_repr, is_json_int, parse_json, read_input_file
from .graphs import total_robots
from .hypergraph import ConfigHypergraph

KINDS = ("gathering", "pattern", "explicit", "geodesic_mutual_visibility")


class ProblemSpec(Frozen):
    """Problem kind plus target placements for the kinds that need them.

    ``targets`` is empty for gathering and geodesic mutual visibility; for
    pattern and explicit problems it lists λ sequences on the input graph's
    own vertex indexing, matched up to isomorphism (robots are disoriented
    and cannot tell isomorphic placements apart).
    """

    __slots__ = ("kind", "targets")

    def __init__(self, kind: str, targets: tuple[tuple[int, ...], ...] = ()) -> None:
        if kind not in KINDS:
            raise InputError(f"unknown problem kind {kind!r}; expected one of {KINDS}")
        if kind not in ("pattern", "explicit") and targets:
            raise InputError(f"{kind} problem carries no targets")
        self._set(kind=kind, targets=tuple(tuple(int(x) for x in t) for t in targets))

    def _key(self) -> tuple:
        return (self.kind, self.targets)


def _check_target_dims(spec: ProblemSpec, n: int, k: int) -> None:
    for t in spec.targets:
        if len(t) != n:
            raise InputError(
                f"target length {len(t)} does not match vertex count {n}"
            )
        if any(x < 0 for x in t):
            raise InputError("target robot counts must be nonnegative")
        if sum(t) != k:
            raise InputError(f"target sums to {sum(t)}, expected k={k}")


def _clear_geodesics(c: Configuration, u: int) -> list[bool]:
    """For every vertex x, whether some shortest u-x path has no robot on
    its interior vertices.

    One breadth-first search from u: x is clear when some predecessor w on
    the previous layer is clear and is either u or empty.  A vertex the
    search never reaches is never clear.
    """
    adj = c.graph.neighbors
    layer: list[int | None] = [None] * c.graph.n
    clear = [False] * c.graph.n
    layer[u] = 0
    clear[u] = True
    queue = deque([u])
    while queue:
        w = queue.popleft()
        passes = clear[w] and (w == u or c.lam[w] == 0)
        for x in adj[w]:
            if layer[x] is None:
                layer[x] = layer[w] + 1
                queue.append(x)
            if passes and layer[x] == layer[w] + 1:
                clear[x] = True
    return clear


def is_final(spec: ProblemSpec, c: Configuration) -> bool:
    """Whether ``c`` is a final configuration for a gathering or geodesic
    mutual visibility problem.  A pattern or explicit problem's final set is
    read from a class table by :func:`resolve_final_set`.  Geodesic mutual
    visibility reads one flag per robot pair from one search per robot."""
    if spec.kind == "gathering":
        # All robots on one vertex; robots sense exact multiplicities, so
        # the predicate is simply that some count equals k.
        k = total_robots(c)
        return k > 0 and any(x == k for x in c.lam)
    if spec.kind != "geodesic_mutual_visibility":
        raise InputError(f"{spec.kind} targets are matched by resolve_final_set, not per placement")
    # geodesic mutual visibility: multiplicity-free, and every pair of
    # occupied vertices joined by some robot-free shortest path.
    if any(x > 1 for x in c.lam):
        return False
    occupied = [v for v in range(c.graph.n) if c.lam[v] == 1]
    for u in occupied:
        clear = _clear_geodesics(c, u)
        if not all(clear[v] for v in occupied):
            return False
    return True


def resolve_final_set(spec: ProblemSpec, h: ConfigHypergraph) -> frozenset[int]:
    """Indices of the hypergraph classes that are final for the problem.

    A pattern or explicit target, once checked to be a k-robot placement on
    ``h``'s graph, is looked up in the class table: its class is
    ``h.class_of[t]``, the class of every placement isomorphic to it.  Every
    other kind is decided by :func:`is_final` on the class representative.
    """
    if spec.kind in ("pattern", "explicit"):
        _check_target_dims(spec, h.graph.n, h.k)
        return frozenset(h.class_of[t] for t in spec.targets)
    return frozenset(
        i for i, entry in enumerate(h.configs) if is_final(spec, entry.rep)
    )


def load_problem(text: str) -> ProblemSpec:
    """Parse a problem document.

    Accepted forms: ``{"type":"gathering"}``,
    ``{"type":"pattern","targets":[[...], ...]}``,
    ``{"type":"explicit","final":[[...], ...]}``,
    ``{"type":"geodesic_mutual_visibility"}`` (also spelled with hyphens).
    """
    obj = parse_json(text, "problem")
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputError("problem document must be a JSON object with a 'type' field")
    kind_field = obj["type"]
    if kind_field == "gathering":
        return ProblemSpec(kind="gathering")
    if kind_field in ("geodesic-mutual-visibility", "geodesic_mutual_visibility"):
        return ProblemSpec(kind="geodesic_mutual_visibility")
    if kind_field in ("pattern", "explicit"):
        field = "targets" if kind_field == "pattern" else "final"
        if field not in obj:
            raise InputError(f"{kind_field} problem requires field {field!r}")
        raw = obj[field]
        ok = isinstance(raw, list) and all(
            isinstance(t, list) and all(is_json_int(x) for x in t) for t in raw
        )
        if not ok:
            raise InputError(f"field {field!r} must be a list of integer lists")
        return ProblemSpec(kind=kind_field, targets=tuple(tuple(t) for t in raw))
    raise InputError(f"unknown problem type {bounded_repr(kind_field)}")


def load_problem_file(path: str | Path) -> ProblemSpec:
    return load_problem(read_input_file(path, "problem"))
