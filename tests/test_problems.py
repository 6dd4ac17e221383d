import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oblot.errors import InputError
from oblot.graphs import Configuration, Graph
from oblot.hypergraph import build
from oblot.problems import (
    ProblemSpec,
    is_final,
    load_problem,
    resolve_final_set,
)

from bruteforce import (
    all_placements,
    config_isomorphic,
    connected_graph_corpus,
    gmv_oracle,
    random_graph,
)


GATHER = ProblemSpec(kind="gathering")
GMV = ProblemSpec(kind="geodesic_mutual_visibility")


def test_gathering(k23):
    assert is_final(GATHER, Configuration(k23, (0, 0, 2, 0, 0)))
    assert is_final(GATHER, Configuration(k23, (3, 0, 0, 0, 0)))
    assert not is_final(GATHER, Configuration(k23, (1, 1, 0, 0, 0)))
    assert not is_final(GATHER, Configuration(k23, (2, 1, 0, 0, 0)))


def _final_set_oracle(spec: ProblemSpec, h) -> set[int]:
    """The classes whose representative is isomorphic to some target, by the
    permutation-sweep oracle."""
    return {
        i for i, e in enumerate(h.configs)
        if any(config_isomorphic(e.rep, Configuration(h.graph, t)) for t in spec.targets)
    }


def test_pattern_matches_up_to_isomorphism(k23):
    h = build(k23, 2)
    spec = ProblemSpec(kind="pattern", targets=((0, 0, 2, 0, 0),))
    final = resolve_final_set(spec, h)
    assert final == _final_set_oracle(spec, h)
    # any vertex of the same orbit realizes the pattern
    assert h.index_of(Configuration(k23, (0, 0, 0, 0, 2))) in final
    # the two-vertex side is a different class
    assert h.index_of(Configuration(k23, (2, 0, 0, 0, 0))) not in final


def test_explicit_union_of_classes(p4):
    h = build(p4, 2)
    spec = ProblemSpec(kind="explicit", targets=((2, 0, 0, 0), (1, 0, 1, 0)))
    final = resolve_final_set(spec, h)
    assert final == _final_set_oracle(spec, h)
    assert h.index_of(Configuration(p4, (0, 0, 0, 2))) in final
    assert h.index_of(Configuration(p4, (0, 1, 0, 1))) in final
    assert h.index_of(Configuration(p4, (1, 1, 0, 0))) not in final


def test_empty_explicit_final_set_is_empty(p4):
    spec = ProblemSpec(kind="explicit", targets=())
    h = build(p4, 2)
    assert resolve_final_set(spec, h) == frozenset()


def test_target_dimension_errors(p4):
    h = build(p4, 2)
    with pytest.raises(InputError, match="length mismatch"):
        resolve_final_set(ProblemSpec(kind="pattern", targets=((1, 1, 0),)), h)
    with pytest.raises(InputError, match="sums to"):
        resolve_final_set(ProblemSpec(kind="pattern", targets=((1, 1, 1, 0),)), h)
    with pytest.raises(InputError, match="nonnegative"):
        resolve_final_set(ProblemSpec(kind="explicit", targets=((3, -1, 0, 0),)), h)


@pytest.mark.parametrize("target", [(1.5, "1", 0), (1, 1.0, 0), (False, 1, 1), ("2", 0, 0)])
def test_pattern_targets_refuse_counts_that_are_not_integers(p3, target):
    # never truncated: (1.5, "1", 0) resolved as (1, 1, 0), final class 2 on P3 (k=2)
    for kind in ("pattern", "explicit"):
        with pytest.raises(InputError, match=r"^target 1: robot counts must be integers"):
            ProblemSpec(kind=kind, targets=((2, 0, 0), target))
    spec = ProblemSpec(kind="pattern", targets=([1, 1, 0],))
    assert spec.targets == ((1, 1, 0),)
    assert resolve_final_set(spec, build(p3, 2)) == frozenset({2})


def test_is_final_refuses_target_kinds(p4):
    # a target kind never falls through to the visibility predicate
    c = Configuration(p4, (1, 0, 0, 1))
    for kind in ("pattern", "explicit"):
        with pytest.raises(InputError, match="matched by resolve_final_set"):
            is_final(ProblemSpec(kind=kind, targets=((1, 0, 0, 1),)), c)


def test_non_target_kinds_reject_targets():
    with pytest.raises(InputError, match="carries no targets"):
        ProblemSpec(kind="gathering", targets=((1, 0),))
    with pytest.raises(InputError, match="unknown problem kind"):
        ProblemSpec(kind="scattering")


def test_gmv_endpoints_of_path(p4):
    # robots on the two ends of a path see each other through empty interior
    assert is_final(GMV, Configuration(p4, (1, 0, 0, 1)))
    # a robot in the middle blocks the only geodesic
    assert not is_final(GMV, Configuration(p4, (1, 1, 0, 1)))
    # multiplicities are never final
    assert not is_final(GMV, Configuration(p4, (2, 0, 0, 1)))


def test_gmv_needs_only_one_clear_geodesic(c4_cycle):
    # antipodal robots on a 4-cycle have two geodesics; one blocked is fine
    c = Configuration(c4_cycle, (1, 1, 1, 0))
    assert is_final(GMV, c)
    # both blocked is not
    assert not is_final(GMV, Configuration(c4_cycle, (1, 1, 1, 1)))


def test_gmv_singleton_and_adjacent():
    g = Graph(n=2, edges=((0, 1),))
    assert is_final(GMV, Configuration(g, (1, 0)))
    assert is_final(GMV, Configuration(g, (1, 1)))


def test_gmv_matches_path_enumeration_oracle():
    # random graphs on 3 to 7 vertices, half of them allowed to be
    # disconnected, then robots with no path between them: two components
    # with robots in both, an isolated robot, and one robot alone
    rng = random.Random(1105)
    cases = []
    for _ in range(120):
        n = rng.randrange(3, 8)
        g = random_graph(rng, n, connected=rng.random() < 0.5)
        lam = tuple(rng.randrange(0, 2) for _ in range(n))
        if sum(lam):
            cases.append((g, lam, None))
    two_paths = Graph(n=6, edges=((0, 1), (1, 2), (3, 4), (4, 5)))
    with_isolated = Graph(n=5, edges=((0, 1), (1, 2), (2, 3)))
    cases += [
        (two_paths, (1, 0, 1, 0, 0, 0), True),
        (two_paths, (1, 0, 0, 1, 0, 0), False),
        (two_paths, (1, 0, 1, 1, 0, 1), False),
        (with_isolated, (1, 0, 0, 1, 1), False),
        (with_isolated, (0, 0, 0, 0, 1), True),
        (with_isolated, (0, 1, 0, 0, 0), True),
    ]
    for g, lam, want in cases:
        got = is_final(GMV, Configuration(g, lam))
        assert got == gmv_oracle(g, lam)
        assert want is None or got == want


def test_gmv_oracle_on_corpus_exhaustive():
    for g in connected_graph_corpus(5):
        for k in (1, 2, 3):
            for lam in all_placements(g.n, k):
                c = Configuration(g, lam)
                assert is_final(GMV, c) == gmv_oracle(g, lam)


def _permuted(g: Graph, lam, perm):
    edges = tuple((perm[a], perm[b]) for a, b in g.edges)
    new_lam = [0] * g.n
    for v in range(g.n):
        new_lam[perm[v]] = lam[v]
    return Configuration(Graph(n=g.n, edges=edges), tuple(new_lam))


@given(st.integers(2, 5), st.data())
def test_predicates_isomorphism_invariant(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = tuple(p for p in pairs if data.draw(st.booleans()))
    g = Graph(n=n, edges=edges)
    lam = list(data.draw(st.integers(0, 2)) for _ in range(n))
    if sum(lam) == 0:
        lam[0] = 1
    perm = tuple(data.draw(st.permutations(range(n))))
    c1 = Configuration(g, tuple(lam))
    c2 = _permuted(g, tuple(lam), perm)
    for spec in (GATHER, GMV):
        assert is_final(spec, c1) == is_final(spec, c2)
    # a pattern's final class on the permuted copy, with the permuted
    # target, is the class of the original's
    reps = []
    for c in (c1, c2):
        h = build(c.graph, sum(lam))
        (i,) = resolve_final_set(ProblemSpec(kind="pattern", targets=(c.lam,)), h)
        reps.append(h.configs[i].rep)
    assert config_isomorphic(reps[0], c1) and config_isomorphic(reps[1], c1)


def test_resolve_final_set_k23_gathering(k23):
    h = build(k23, 2)
    final = resolve_final_set(GATHER, h)
    assert final == {
        h.index_of(Configuration(k23, (2, 0, 0, 0, 0))),
        h.index_of(Configuration(k23, (0, 0, 2, 0, 0))),
    }


def test_resolve_target_final_sets_match_the_isomorphism_oracle():
    # the class-table lookup against the permutation sweep, which shares no
    # code with the canonizer that made the table
    for g in connected_graph_corpus(4):
        for k in (1, 2, 3):
            h = build(g, k)
            placements = all_placements(g.n, k)
            specs = [ProblemSpec(kind="pattern", targets=(lam,)) for lam in placements]
            specs += [
                ProblemSpec(kind="explicit", targets=tuple(placements[start::3]))
                for start in range(3)
            ]
            for spec in specs:
                assert resolve_final_set(spec, h) == _final_set_oracle(spec, h)


def test_load_problem_forms():
    assert load_problem('{"type": "gathering"}') == GATHER
    for gmv_type in ("geodesic-mutual-visibility", "geodesic_mutual_visibility"):
        assert load_problem(f'{{"type": "{gmv_type}"}}') == GMV
    pat = load_problem('{"type": "pattern", "targets": [[1, 0, 1]]}')
    assert pat == ProblemSpec(kind="pattern", targets=((1, 0, 1),))
    # an explicit document or spec is a pattern problem
    exp = load_problem('{"type": "explicit", "final": [[2, 0], [1, 1]]}')
    assert exp == ProblemSpec(kind="pattern", targets=((2, 0), (1, 1)))
    assert exp == ProblemSpec(kind="explicit", targets=((2, 0), (1, 1)))
    assert exp.kind == "pattern"


def test_load_problem_unknown_field_warns_once():
    # the known fields depend on the type; an extra one changes nothing but
    # a warning, which points at the loader's caller
    for doc, extra in (
        ({"type": "gathering"}, "targets"),
        ({"type": "geodesic-mutual-visibility"}, "final"),
        ({"type": "pattern", "targets": [[1, 0, 1]]}, "final"),
        ({"type": "explicit", "final": [[1, 0, 1]]}, "targets"),
    ):
        plain = load_problem(json.dumps(doc))
        with pytest.warns(UserWarning) as record:
            extra_spec = load_problem(json.dumps({**doc, extra: [[0, 2, 0]]}))
        assert extra_spec == plain
        assert [str(w.message) for w in record] == [
            f"ignoring unknown field '{extra}' in problem document"
        ]
        assert [w.filename for w in record] == [__file__]


def test_load_problem_errors():
    with pytest.raises(InputError, match="parse error"):
        load_problem("{")
    with pytest.raises(InputError, match="'type' field"):
        load_problem('{"kind": "gathering"}')
    with pytest.raises(InputError, match="unknown problem type"):
        load_problem('{"type": "scattering"}')
    with pytest.raises(InputError, match="requires field 'targets'"):
        load_problem('{"type": "pattern"}')
    with pytest.raises(InputError, match="requires field 'final'"):
        load_problem('{"type": "explicit"}')
    with pytest.raises(InputError, match="list of integer lists"):
        load_problem('{"type": "pattern", "targets": [1, 0]}')
