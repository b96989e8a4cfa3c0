"""Degenerate-input grid for the compute plane.

Every registered protocol, attack, metric and defense runs on tiny and
extreme graphs (no edges, complete, a star) at a vanishing, a typical and a
huge privacy budget.  Each evaluation must return finite before/after values
and gain, or raise a :class:`ValueError` that names the offending argument.
"""

import math

import numpy as np
import pytest

from repro import ATTACKS, DEFENSES, PROTOCOLS, Graph, ThreatModel, evaluate_attack
from repro.core.gain import METRICS
from repro.defenses import evaluate_defended_attack
from repro.experiments.config import ExperimentConfig
from repro.protocols.base import FakeReport


def _complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


GRAPHS = {
    "empty3": Graph(3, []),
    "K3": _complete(3),
    "empty10": Graph(10, []),
    "K10": _complete(10),
    "star10": Graph(10, [(0, leaf) for leaf in range(1, 10)]),
}
EPSILONS = (1e-3, 4.0, 2000.0)
ARGUMENTS = ("epsilon", "beta", "gamma", "labels", "graph")
#: The paper's attacks on each metric a defense is evaluated against.
METRIC_ATTACKS = {
    "degree_centrality": ("degree/rva", "degree/rna", "degree/mga"),
    "clustering_coefficient": ("clustering/rva", "clustering/rna", "clustering/mga"),
}


def _assert_finite_or_named_error(evaluate):
    try:
        outcome = evaluate()
    except ValueError as error:
        assert any(name in str(error) for name in ARGUMENTS), error
        return
    after = getattr(outcome, "after", None)
    if after is None:
        after = outcome.after_defended
    assert np.isfinite(outcome.before).all()
    assert np.isfinite(after).all()
    assert math.isfinite(outcome.total_gain)


def _labels(graph, metric):
    return np.arange(graph.num_nodes) % 2 if metric == "modularity" else None


@pytest.mark.parametrize("graph_name", GRAPHS)
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("attack", ATTACKS.names())
@pytest.mark.parametrize("protocol", PROTOCOLS.names())
def test_undefended_cell(protocol, attack, metric, graph_name):
    graph = GRAPHS[graph_name]
    labels = _labels(graph, metric)
    for epsilon in EPSILONS:
        _assert_finite_or_named_error(
            lambda: evaluate_attack(
                graph,
                PROTOCOLS.create(protocol, epsilon=epsilon),
                ATTACKS.create(attack),
                ThreatModel.sample(graph, beta=0.05, gamma=0.05, rng=0),
                metric=metric,
                rng=0,
                labels=labels,
            )
        )


@pytest.mark.parametrize("graph_name", GRAPHS)
@pytest.mark.parametrize("metric", METRIC_ATTACKS)
@pytest.mark.parametrize("protocol", PROTOCOLS.names())
@pytest.mark.parametrize("defense", DEFENSES.names())
def test_defended_cell(defense, protocol, metric, graph_name):
    graph = GRAPHS[graph_name]
    for epsilon in EPSILONS:
        for attack in METRIC_ATTACKS[metric]:
            _assert_finite_or_named_error(
                lambda: evaluate_defended_attack(
                    graph,
                    PROTOCOLS.create(protocol, epsilon=epsilon),
                    ATTACKS.create(attack),
                    DEFENSES.create(defense),
                    ThreatModel.sample(graph, beta=0.05, gamma=0.05, rng=0),
                    metric=metric,
                    rng=0,
                )
            )


@pytest.mark.parametrize("epsilon", [math.inf, math.nan, True])
@pytest.mark.parametrize("protocol", PROTOCOLS.names())
def test_protocol_rejects_non_finite_or_boolean_epsilon(protocol, epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        PROTOCOLS.create(protocol, epsilon=epsilon)


@pytest.mark.parametrize("epsilon", [math.inf, math.nan, True])
def test_config_rejects_non_finite_or_boolean_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        ExperimentConfig(epsilon=epsilon)


@pytest.mark.parametrize("labels", [None, "float"])
@pytest.mark.parametrize("graph_name", GRAPHS)
@pytest.mark.parametrize("protocol", PROTOCOLS.names())
def test_modularity_without_integer_labels_names_labels(protocol, graph_name, labels):
    graph = GRAPHS[graph_name]
    if labels == "float":
        labels = np.arange(graph.num_nodes) % 2 + 0.5
    instance = PROTOCOLS.create(protocol, epsilon=4.0)
    reports = instance.collect(graph, rng=0)
    with pytest.raises(ValueError, match="labels"):
        instance.estimate_modularity(reports, labels)


@pytest.mark.parametrize("graph_name", GRAPHS)
@pytest.mark.parametrize(
    "beta, gamma", [(0.0, 0.05), (1.0, 0.05), (0.05, 0.0), (0.05, 1.0)]
)
def test_threat_model_rejects_degenerate_fractions(beta, gamma, graph_name):
    argument = "beta" if beta in (0.0, 1.0) else "gamma"
    with pytest.raises(ValueError, match=argument):
        ThreatModel.sample(GRAPHS[graph_name], beta=beta, gamma=gamma, rng=0)


@pytest.mark.parametrize(
    "claims",
    [[1.7, 2.2], np.array([1.0, 2.0]), [True, False], [[1, 2], [3, 4]], np.array([[5]])],
    ids=["floats", "integral-floats", "booleans", "2-d", "2-d-single"],
)
def test_fake_report_rejects_non_integer_or_multidimensional_claims(claims):
    with pytest.raises(ValueError, match="claimed_neighbors"):
        FakeReport(claimed_neighbors=claims, reported_degree=1.0)


@pytest.mark.parametrize(
    "claims",
    [[], np.empty(0), np.empty(0, dtype=bool), np.empty((0, 2), dtype=np.int64)],
    ids=["list", "float", "bool", "2-d"],
)
def test_fake_report_accepts_an_empty_claim_of_any_dtype(claims):
    report = FakeReport(claimed_neighbors=claims, reported_degree=0.0)
    assert report.claimed_neighbors.dtype == np.int64
    assert report.claimed_neighbors.shape == (0,)


def test_fake_report_sorts_and_dedupes_without_touching_the_input():
    claims = np.array([7, 2, 7, 0], dtype=np.int64)
    report = FakeReport(claimed_neighbors=claims, reported_degree=3.0)
    assert report.claimed_neighbors.tolist() == [0, 2, 7]
    assert claims.tolist() == [7, 2, 7, 0]


@pytest.mark.parametrize("nodes", [[-1, 2], [2, 4], [0, 10]], ids=["negative", "n", "beyond-n"])
def test_subgraph_rejects_out_of_range_nodes(nodes):
    graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="nodes"):
        graph.subgraph(nodes)


def test_subgraph_rejects_repeated_nodes():
    with pytest.raises(ValueError, match="nodes"):
        Graph(4, [(0, 1), (1, 2), (2, 3)]).subgraph([2, 1, 2])


@pytest.mark.parametrize(
    "kwargs, error, name",
    [
        ({"threshold": True}, TypeError, "threshold"),
        ({"threshold": 2.7}, TypeError, "threshold"),
        ({"threshold": 100.0}, TypeError, "threshold"),
        ({"threshold": 0}, ValueError, "threshold"),
        ({"threshold": -3}, ValueError, "threshold"),
        ({"item_support": -5}, ValueError, "item_support"),
        ({"item_support": True}, TypeError, "item_support"),
        ({"item_support": 2.5}, TypeError, "item_support"),
        ({"pair_support": True}, TypeError, "pair_support"),
        ({"pair_support": -1}, ValueError, "pair_support"),
        ({"pair_support": "3"}, TypeError, "pair_support"),
    ],
)
def test_detect1_rejects_non_integer_or_negative_arguments(kwargs, error, name):
    with pytest.raises(error, match=name):
        DEFENSES.create("detect1", **kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"threshold": np.int64(50)}, {"item_support": 0, "pair_support": 0},
     {"item_support": np.int32(4), "pair_support": None}],
)
def test_detect1_accepts_integer_arguments(kwargs):
    defense = DEFENSES.create("detect1", **kwargs)
    assert isinstance(defense.threshold, int)
    for support in (defense.item_support, defense.pair_support):
        assert support is None or (isinstance(support, int) and support >= 0)
