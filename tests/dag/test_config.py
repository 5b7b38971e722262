"""DagConfig / ServiceNode / Edge validation."""

import pytest

from repro.dag import DagConfig, Edge, ServiceNode
from repro.errors import ExperimentError
from repro.replica import ReplicaConfig

pytestmark = pytest.mark.dag


def _linear():
    return DagConfig(
        entry="front",
        nodes=(
            ServiceNode(name="front", edges=(Edge("back"),)),
            ServiceNode(name="back"),
        ),
    )


def test_valid_config_round_trips():
    config = _linear()
    assert config.validate() is config
    assert config.node("back").name == "back"


def test_config_is_hashable_and_value_comparable():
    assert _linear() == _linear()
    assert hash(_linear()) == hash(_linear())


def test_unknown_node_lookup_raises():
    with pytest.raises(ExperimentError):
        _linear().node("missing")


@pytest.mark.parametrize(
    "nodes, entry",
    [
        # no nodes at all
        ((), "front"),
        # duplicate names
        ((ServiceNode(name="a"), ServiceNode(name="a")), "a"),
        # entry not among the nodes
        ((ServiceNode(name="a"),), "missing"),
        # edge to an unknown node
        ((ServiceNode(name="a", edges=(Edge("ghost"),)),), "a"),
        # edge to itself
        ((ServiceNode(name="a", edges=(Edge("a"),)),), "a"),
        # duplicate edges to the same target
        (
            (
                ServiceNode(name="a", edges=(Edge("b"), Edge("b"))),
                ServiceNode(name="b"),
            ),
            "a",
        ),
        # unknown edge mode
        (
            (
                ServiceNode(name="a", edges=(Edge("b", mode="maybe"),)),
                ServiceNode(name="b"),
            ),
            "a",
        ),
        # empty pool
        (
            (
                ServiceNode(name="a", edges=(Edge("b", pool=0),)),
                ServiceNode(name="b"),
            ),
            "a",
        ),
        # zero request size
        (
            (
                ServiceNode(name="a", edges=(Edge("b", request_size=0),)),
                ServiceNode(name="b"),
            ),
            "a",
        ),
        # unknown fan-in policy
        (
            (
                ServiceNode(name="a", edges=(Edge("b"),), fan_in="most"),
                ServiceNode(name="b"),
            ),
            "a",
        ),
        # quorum outside [1, fan_out]
        (
            (
                ServiceNode(name="a", edges=(Edge("b"),), fan_in="quorum",
                            quorum=2),
                ServiceNode(name="b"),
            ),
            "a",
        ),
        # non-positive best-effort timeout
        (
            (
                ServiceNode(name="a", edges=(Edge("b"),),
                            fan_in="best_effort", best_effort_timeout=0.0),
                ServiceNode(name="b"),
            ),
            "a",
        ),
        # negative own work
        ((ServiceNode(name="a", service_cpu=-1.0e-6),), "a"),
        # negative jitter
        ((ServiceNode(name="a", service_jitter=-0.1),), "a"),
        # response below one byte
        ((ServiceNode(name="a", response_size=0),), "a"),
    ],
)
def test_validate_rejects_malformed_graphs(nodes, entry):
    with pytest.raises(ExperimentError):
        DagConfig(entry=entry, nodes=nodes).validate()


def test_validate_rejects_cycles():
    config = DagConfig(
        entry="a",
        nodes=(
            ServiceNode(name="a", edges=(Edge("b"),)),
            ServiceNode(name="b", edges=(Edge("c"),)),
            ServiceNode(name="c", edges=(Edge("a"),)),
        ),
    )
    with pytest.raises(ExperimentError, match="cycle"):
        config.validate()


def test_replicated_node_must_be_a_leaf():
    config = DagConfig(
        entry="a",
        nodes=(
            ServiceNode(name="a", edges=(Edge("b"),)),
            ServiceNode(name="b", edges=(Edge("c"),),
                        replica=ReplicaConfig(replicas=2)),
            ServiceNode(name="c"),
        ),
    )
    with pytest.raises(ExperimentError, match="leaf"):
        config.validate()


def test_replicated_node_needs_exactly_one_upstream_edge():
    config = DagConfig(
        entry="a",
        nodes=(
            ServiceNode(name="a", edges=(Edge("b"), Edge("c"))),
            ServiceNode(name="b", edges=(Edge("c"),)),
            ServiceNode(name="c", replica=ReplicaConfig(replicas=2)),
        ),
    )
    with pytest.raises(ExperimentError, match="upstream"):
        config.validate()


def test_topo_order_is_leaves_first_and_deterministic():
    config = DagConfig(
        entry="front",
        nodes=(
            ServiceNode(name="front", edges=(Edge("mid"), Edge("leaf2"))),
            ServiceNode(name="mid", edges=(Edge("leaf1"),)),
            ServiceNode(name="leaf1"),
            ServiceNode(name="leaf2"),
        ),
    )
    order = config.topo_order()
    assert order == ("leaf1", "leaf2", "mid", "front")
    assert order == config.topo_order()


def test_fan_out_counts_only_async_edges():
    node = ServiceNode(
        name="a",
        edges=(Edge("b"), Edge("c", mode="sync"), Edge("d")),
    )
    assert node.fan_out == 2


def test_empty_config_is_rejected():
    with pytest.raises(ExperimentError, match="at least one node"):
        DagConfig(entry="a", nodes=()).validate()

