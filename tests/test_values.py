"""The value types: immutable, and cheap to load.

Every public class of the package is either a named tuple or a ``Frozen``
subclass; none may be assigned to.  The CLI imports neither ``dataclasses``
(nor ``inspect``, which it pulls in) nor the simulator, which a ``move``
process never runs, nor, unless ``--cache`` names a directory, ``hashlib``
and its OpenSSL binding: each would add to every process start.
"""

import ast
import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import oblot
from oblot import canonical, cli, graphs, hypergraph, moves, problems, simulate, solver
from oblot.graphs import Configuration, Frozen
from oblot.problems import ProblemSpec

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = (canonical, cli, graphs, hypergraph, moves, problems, simulate, solver)


def _public_types() -> set[type]:
    return {
        cls for mod in MODULES for name, cls in vars(mod).items()
        if inspect.isclass(cls) and cls.__module__ == mod.__name__ and not name.startswith("_")
        and not issubclass(cls, Exception) and cls is not Frozen
    }


def _fields(value) -> tuple[str, ...]:
    if isinstance(value, tuple):
        return value._fields
    return tuple(f for f in type(value).__slots__ if not f.startswith("_"))


@pytest.fixture(scope="module")
def values(k23):
    # a graph object of its own: build records hypergraphs by graph identity
    g = graphs.Graph(n=k23.n, edges=k23.edges, name=k23.name)
    h = hypergraph.build(g, 2)
    spec = ProblemSpec(kind="gathering")
    sol = solver.solution(h, spec)
    c = Configuration(g, (1, 0, 1, 0, 0))
    idx = h.index_of(c)
    adversary = simulate.AdversaryStrategy(kind="worst")
    trace = simulate.run_fsync(c, spec, adversary)
    form = h.configs[idx].form
    return [
        g, c, form, form.orbits, h.move(h.hyperarcs[0].source, h.hyperarcs[0].moves[0]),
        h.configs[idx], h.hyperarcs[0], h, spec, sol.entries[idx], sol.decision(idx), sol,
        adversary, trace.rounds[0], trace, simulate.enumerate_adversary_plays(c, spec),
    ]


def test_every_public_value_type_is_covered(values):
    assert {type(v) for v in values} == _public_types()


def test_value_types_reject_attribute_assignment(values):
    for value in values:
        for field in _fields(value):
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = None


def test_value_types_survive_pickling(values):
    for value in values:
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value) and copy == value
        assert [getattr(copy, f) for f in _fields(value)] == [
            getattr(value, f) for f in _fields(value)
        ]


def test_frozen_equality_ignores_the_other_fields_and_types(k23):
    renamed = graphs.Graph(n=k23.n, edges=tuple(reversed(k23.edges)), name="other")
    assert renamed == k23 and hash(renamed) == hash(k23)
    assert renamed != (k23.n, k23.edges)
    assert ProblemSpec(kind="gathering") != simulate.AdversaryStrategy(kind="worst")


def test_the_cli_loads_no_dataclasses_and_no_simulator(tmp_path, k23):
    # a fresh interpreter: what `import oblot.cli` and one `move` add to sys.modules
    config = tmp_path / "c.json"
    problem = tmp_path / "p.json"
    config.write_text(json.dumps({"graph": k23.to_json_obj(), "lambda": [1, 0, 1, 0, 0]}))
    problem.write_text(json.dumps({"type": "gathering"}))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import oblot.cli\n"
        "imported = set(sys.modules) - before\n"
        f"oblot.cli.main(['move', '--config', {str(config)!r}, '--problem', {str(problem)!r}])\n"
        "print(' '.join(sorted(imported)))\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    decision, imported, after_move = proc.stdout.splitlines()
    assert json.loads(decision)["status"] == "step"
    assert "oblot.cli" in imported.split()
    for names in (imported, after_move):
        unwanted = {"dataclasses", "inspect", "oblot.simulate", "hashlib", "_hashlib"}
        assert not unwanted & set(names.split())


def test_no_module_imports_dataclasses():
    sources = sorted(Path(oblot.__file__).parent.glob("*.py"))
    assert len(sources) >= len(MODULES)
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "dataclasses"], path.name
