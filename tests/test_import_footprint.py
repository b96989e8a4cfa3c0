"""Cold-start guard: ``import repro`` loads numpy and the standard library only.

Every CLI call, worker and benchmark child pays for ``import repro`` before
its first task, so scipy and networkx are imported inside the functions that
use them (the sparse adjacency matrix, LDPGen's k-means, the
Erdős–Rényi/Barabási–Albert wrappers) rather than at module level.  The
defenses use neither: Detect1 counts by popcount on the packed plane, so a
defended degree point runs on numpy alone.  Each check runs in a fresh
interpreter, where ``sys.modules`` reflects exactly what the code under test
imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HEAVY = ("scipy", "networkx")

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = f"""
import json, sys

def heavy():
    return sorted(
        name for name in sys.modules if name.split(".")[0] in {HEAVY!r}
    )
"""


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result


def _heavy_after(code):
    """Heavy modules loaded in a fresh interpreter after running ``code``.

    ``code`` may print one JSON line of its own before the final report.
    """
    result = _run(["-c", PRELUDE + code + "\nprint(json.dumps(heavy()))"])
    return [json.loads(line) for line in result.stdout.splitlines()]


def _imported_modules(args):
    """Every module a fresh ``python -X importtime <args>`` imported."""
    result = _run(["-X", "importtime", *args])
    return [
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    ]


def test_import_repro_loads_no_heavy_dependency():
    (loaded,) = _heavy_after("import repro")
    assert loaded == []


def test_cli_list_loads_no_heavy_dependency():
    modules = _imported_modules(["-m", "repro", "list"])
    assert "repro" in modules
    assert [name for name in modules if name.split(".")[0] in HEAVY] == []


CALL_SITES = {
    "Graph.csr": (
        "scipy.sparse",
        """
from repro.graph.adjacency import Graph
graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
before = heavy()
matrix = graph.csr()
assert matrix.shape == (4, 4) and matrix.nnz == 6
""",
    ),
    "LDPGenProtocol.collect": (
        "scipy.cluster.vq",
        """
import warnings
from repro import LDPGenProtocol
from repro.graph.generators import powerlaw_cluster_graph
graph = powerlaw_cluster_graph(80, 3, 0.5, rng=0)
before = heavy()
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    reports = LDPGenProtocol(epsilon=4.0).collect(graph, rng=0)
assert reports.perturbed_graph.num_nodes == 80
""",
    ),
    "erdos_renyi_graph": (
        "networkx",
        """
from repro.graph.generators import erdos_renyi_graph
before = heavy()
graph = erdos_renyi_graph(50, 0.1, rng=0)
assert graph.num_nodes == 50
""",
    ),
}


@pytest.mark.parametrize("site", sorted(CALL_SITES))
def test_deferred_call_site_loads_its_module_when_called(site):
    module, code = CALL_SITES[site]
    before, after = _heavy_after(code + "\nprint(json.dumps(before))")
    assert before == []
    assert module in after


def test_defended_degree_point_loads_no_heavy_dependency():
    """One fig12a point per defended series (Detect1, Naive1) at scale
    0.02: detection, repair and estimation, with no scipy or networkx."""
    (gains, loaded) = _heavy_after(
        """
from repro.engine.kernels import execute_tasks_grouped
from repro.experiments.config import ExperimentConfig
from repro.scenarios import get_scenario
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.run import load_scenario_graph

spec = get_scenario("fig12a")
config = ExperimentConfig(trials=1, scale=0.02, seed=0, cache=False)
graph = load_scenario_graph(spec, config)
tasks = compile_scenario(spec, graph, config)
points = [
    next(task for task in tasks if task.defense == defense)
    for defense in ("detect1", "naive1")
]
print(json.dumps(execute_tasks_grouped(points, graph)))
"""
    )
    assert len(gains) == 2
    assert loaded == []
