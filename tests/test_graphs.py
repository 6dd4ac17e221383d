import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oblot.canonical import canonical_form
from oblot.errors import InputError
from oblot.graphs import (
    Configuration,
    Graph,
    load_configuration,
    load_graph,
    total_robots,
    validate_configuration,
)

from bruteforce import configuration_graph


def test_edges_normalized_regardless_of_input_order():
    a = Graph(n=3, edges=((2, 1), (0, 1)))
    b = Graph(n=3, edges=((0, 1), (1, 2)))
    assert a == b
    assert a.edges == ((0, 1), (1, 2))


def test_name_does_not_affect_equality():
    assert Graph(n=2, edges=((0, 1),), name="x") == Graph(n=2, edges=((0, 1),))


def test_self_loop_rejected():
    with pytest.raises(InputError, match="self-loop"):
        Graph(n=2, edges=((1, 1),))


def test_out_of_range_endpoint_rejected():
    with pytest.raises(InputError, match="out of range"):
        Graph(n=2, edges=((0, 2),))


def test_duplicate_edge_rejected():
    with pytest.raises(InputError, match="duplicate"):
        Graph(n=3, edges=((0, 1), (1, 0)))


def test_neighbors(k23):
    assert k23.neighbors[0] == (2, 3, 4)
    assert k23.neighbors[2] == (0, 1)


def test_validate_configuration_errors(k23):
    with pytest.raises(InputError, match="length mismatch"):
        validate_configuration(Configuration(k23, (1, 0)))
    with pytest.raises(InputError, match="nonnegative"):
        validate_configuration(Configuration(k23, (1, -1, 0, 0, 0)))
    with pytest.raises(InputError, match="at least one robot"):
        validate_configuration(Configuration(k23, (0, 0, 0, 0, 0)))
    # structural operations accept an empty placement
    assert len(canonical_form(k23, (0, 0, 0, 0, 0)).orbits.orbits) == 2


def test_total_robots(k23):
    assert total_robots(Configuration(k23, (2, 0, 1, 0, 0))) == 3


def test_configuration_graph_counts(k23):
    # 2n + k vertices and |E| + n + k edges
    c = Configuration(k23, (1, 0, 1, 0, 0))
    gamma = configuration_graph(c)
    assert gamma.n == 2 * 5 + 2
    assert len(gamma.edges) == 6 + 5 + 2


def test_configuration_graph_single_vertex():
    c = Configuration(Graph(n=1, edges=()), (1,))
    gamma = configuration_graph(c)
    assert gamma.n == 3
    assert len(gamma.edges) == 2


@given(st.integers(1, 4), st.data())
def test_configuration_graph_counts_property(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = tuple(p for p in pairs if data.draw(st.booleans()))
    g = Graph(n=n, edges=edges)
    lam = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
    c = Configuration(g, lam)
    k = sum(lam)
    gamma = configuration_graph(c)
    assert gamma.n == 2 * n + k
    assert len(gamma.edges) == len(edges) + n + k


def test_load_graph_round_trip(k23):
    g = load_graph(json.dumps(k23.to_json_obj()))
    assert g == k23
    assert g.name == "K23"


def test_load_graph_is_pure_function_of_bytes():
    text = '{"n": 3, "edges": [[2, 1], [0, 1]]}'
    assert load_graph(text) == load_graph(text)


def test_load_graph_errors():
    with pytest.raises(InputError, match="parse error"):
        load_graph("{not json")
    with pytest.raises(InputError, match="missing field"):
        load_graph('{"n": 2}')
    with pytest.raises(InputError, match="must be an integer"):
        load_graph('{"n": "2", "edges": []}')
    with pytest.raises(InputError, match="pair of integers"):
        load_graph('{"n": 2, "edges": [[0]]}')


def test_load_graph_bounds_n_by_the_encoding_field():
    # the canonical encoding writes n in 4 bytes
    assert load_graph('{"n": 4294967295, "edges": []}').n == 2**32 - 1
    with pytest.raises(InputError, match=r"below 2\*\*32"):
        load_graph('{"n": 4294967296, "edges": []}')


def test_load_graph_unknown_field_warns():
    # the warning points at the loader's caller, for an inline graph too
    for load, text in (
        (load_graph, '{"n": 1, "edges": [], "weight": 3}'),
        (load_configuration, '{"graph": {"n": 1, "edges": [], "weight": 3}, "lambda": [1]}'),
    ):
        with pytest.warns(UserWarning, match="unknown field 'weight' in graph") as record:
            load(text)
        assert [w.filename for w in record] == [__file__]


def test_load_configuration_inline_and_by_path(tmp_path, k23):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(k23.to_json_obj()))
    inline = load_configuration(
        json.dumps({"graph": k23.to_json_obj(), "lambda": [1, 0, 1, 0, 0]})
    )
    by_path = load_configuration(
        json.dumps({"graph": "g.json", "lambda": [1, 0, 1, 0, 0]}), base_dir=tmp_path
    )
    assert inline == by_path
    assert inline.lam == (1, 0, 1, 0, 0)


def test_load_configuration_errors(k23):
    with pytest.raises(InputError, match="missing field"):
        load_configuration('{"lambda": [1]}')
    with pytest.raises(InputError, match="list of integers"):
        load_configuration(json.dumps({"graph": {"n": 1, "edges": []}, "lambda": [0.5]}))
    with pytest.raises(InputError, match="at least one robot"):
        load_configuration(json.dumps({"graph": {"n": 1, "edges": []}, "lambda": [0]}))
    with pytest.raises(InputError, match="cannot read graph file"):
        load_configuration(json.dumps({"graph": "g\u0000.json", "lambda": [1]}))
