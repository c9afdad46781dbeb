"""Unit tests for the simulated network, failure model and traffic metrics."""

from __future__ import annotations

import pytest

from repro.errors import MessageDroppedError, NodeUnreachableError, PartitionError
from repro.network.failures import FailureModel, NoFailures
from repro.network.metrics import NetworkMetrics
from repro.network.simnet import (
    LAN_LINK,
    WAN_LINK,
    LinkConfig,
    ServicePool,
    SimulatedNetwork,
)
from repro.observability import Tracer


def _echo_network(**kwargs) -> SimulatedNetwork:
    network = SimulatedNetwork(**kwargs)
    network.register("a", lambda source, payload: b"a:" + payload)
    network.register("b", lambda source, payload: b"b:" + payload)
    return network


class TestLinkConfig:
    def test_one_way_delay_includes_latency_and_transmission(self):
        import random

        link = LinkConfig(latency=0.001, bandwidth=1000.0, jitter=0.0)
        delay = link.one_way_delay(500, random.Random(0))
        assert delay == pytest.approx(0.001 + 0.5)

    def test_zero_bandwidth_means_no_transmission_cost(self):
        import random

        link = LinkConfig(latency=0.0, bandwidth=0.0)
        assert link.one_way_delay(10_000, random.Random(0)) == 0.0

    def test_wan_is_slower_than_lan(self):
        import random

        rng = random.Random(0)
        assert WAN_LINK.one_way_delay(1000, rng) > LAN_LINK.one_way_delay(1000, rng)


class TestMessageExchange:
    def test_request_response_roundtrip(self):
        network = _echo_network()
        assert network.send_request("a", "b", b"ping") == b"b:ping"

    def test_clock_advances_for_remote_exchange(self):
        network = _echo_network()
        network.send_request("a", "b", b"ping")
        assert network.clock.now > 0.0

    def test_same_node_exchange_is_free(self):
        network = _echo_network()
        assert network.send_request("a", "a", b"ping") == b"a:ping"
        assert network.clock.now == 0.0
        assert network.metrics.total_messages == 0

    def test_metrics_record_both_directions(self):
        network = _echo_network()
        network.send_request("a", "b", b"ping")
        assert network.metrics.messages_between("a", "b") == 1
        assert network.metrics.messages_between("b", "a") == 1
        assert network.metrics.total_bytes > 0

    def test_unknown_destination_raises(self):
        network = _echo_network()
        with pytest.raises(NodeUnreachableError):
            network.send_request("a", "ghost", b"ping")

    def test_unregister_makes_node_unreachable(self):
        network = _echo_network()
        network.unregister("b")
        with pytest.raises(NodeUnreachableError):
            network.send_request("a", "b", b"ping")

    def test_per_link_override_changes_latency(self):
        fast = _echo_network()
        slow = _echo_network()
        slow.set_symmetric_link("a", "b", WAN_LINK)
        fast.send_request("a", "b", b"x" * 100)
        slow.send_request("a", "b", b"x" * 100)
        assert slow.clock.now > fast.clock.now

    def test_nodes_listing(self):
        network = _echo_network()
        assert network.nodes() == {"a", "b"}
        assert network.is_registered("a")

    def test_reset_metrics(self):
        network = _echo_network()
        network.send_request("a", "b", b"ping")
        network.reset_metrics()
        assert network.metrics.total_messages == 0


class TestFailureInjection:
    def test_partition_blocks_traffic(self):
        failures = FailureModel()
        failures.partition(["a"], ["b"])
        network = _echo_network(failures=failures)
        with pytest.raises(PartitionError):
            network.send_request("a", "b", b"ping")

    def test_heal_restores_traffic(self):
        failures = FailureModel()
        failures.partition(["a"], ["b"])
        network = _echo_network(failures=failures)
        failures.heal()
        assert network.send_request("a", "b", b"ping") == b"b:ping"

    def test_heal_specific_pair(self):
        failures = FailureModel()
        failures.partition(["a"], ["b", "c"])
        failures.heal("a", "b")
        assert not failures.is_partitioned("a", "b")
        assert failures.is_partitioned("a", "c")

    def test_crashed_node_is_unreachable(self):
        failures = FailureModel()
        failures.crash_node("b")
        network = _echo_network(failures=failures)
        with pytest.raises(NodeUnreachableError):
            network.send_request("a", "b", b"ping")
        failures.recover_node("b")
        assert network.send_request("a", "b", b"ping") == b"b:ping"

    def test_message_loss_is_deterministic_for_a_seed(self):
        failures = FailureModel(drop_probability=1.0, seed=3)
        network = _echo_network(failures=failures)
        with pytest.raises(MessageDroppedError):
            network.send_request("a", "b", b"ping")
        assert network.metrics.total_drops == 1

    def test_invalid_drop_probability_rejected(self):
        with pytest.raises(ValueError):
            FailureModel(drop_probability=1.5)

    def test_no_failures_model_never_drops(self):
        model = NoFailures()
        assert not model.should_drop("a", "b")


class TestNetworkMetrics:
    def test_link_accumulation_and_means(self):
        metrics = NetworkMetrics()
        metrics.record("a", "b", 100, 0.001)
        metrics.record("a", "b", 300, 0.003)
        link = metrics.link("a", "b")
        assert link.messages == 2
        assert link.bytes_sent == 400
        assert link.mean_latency == pytest.approx(0.002)
        assert link.mean_message_size == pytest.approx(200.0)

    def test_messages_from_aggregates_by_source(self):
        metrics = NetworkMetrics()
        metrics.record("a", "b", 10, 0.0)
        metrics.record("a", "c", 10, 0.0)
        metrics.record("b", "a", 10, 0.0)
        assert metrics.messages_from("a") == 2

    def test_snapshot_is_plain_data(self):
        metrics = NetworkMetrics()
        metrics.record("a", "b", 10, 0.5)
        snapshot = metrics.snapshot()
        assert snapshot["messages"] == 1
        assert "a->b" in snapshot["links"]

    def test_empty_link_means_are_zero(self):
        metrics = NetworkMetrics()
        assert metrics.link("x", "y").mean_latency == 0.0
        assert metrics.link("x", "y").mean_message_size == 0.0


class _DropDirection(FailureModel):
    """Drops every message on one directed link and nothing else."""

    def __init__(self, source: str, destination: str) -> None:
        super().__init__()
        self.link = (source, destination)

    def should_drop(self, source: str, destination: str) -> bool:
        return (source, destination) == self.link


#: scenario -> (install a service pool, the handler raises, dropped link)
EXCHANGES = {
    "clean": (False, False, None),
    "pool": (True, False, None),
    "handler-error": (False, True, None),
    "pool-handler-error": (True, True, None),
    "request-drop": (False, False, ("a", "b")),
    "response-drop": (False, False, ("b", "a")),
    "pool-response-drop": (True, False, ("b", "a")),
}


def _run_exchange(driver: str, scenario: str):
    """One traced exchange a -> b, driven inline or through the event queue."""
    pool, handler_error, dropped = EXCHANGES[scenario]
    network = SimulatedNetwork(failures=_DropDirection(*dropped) if dropped else None)
    network.tracer = Tracer(network.clock)
    root = network.tracer.start_trace("call", ts=0.0)

    def handler(source, payload):
        network.clock.advance(0.001)
        if handler_error:
            raise ValueError("handler failed")
        return b"b:" + payload

    network.register("a", lambda source, payload: payload)
    network.register("b", handler)
    if pool:
        network.set_service_pool("b", ServicePool(workers=1, queue_limit=4, service_time=0.004))
    trace = [(root.trace_id, root.span_id)]
    payload = b"x" * 500
    if driver == "send_request":
        try:
            outcome = network.send_request("a", "b", payload, trace=trace)
        except Exception as error:  # noqa: BLE001 - compared below
            outcome = type(error).__name__
    else:
        outcomes = []
        network.post(
            "a",
            "b",
            payload,
            outcomes.append,
            lambda error: outcomes.append(type(error).__name__),
            trace=trace,
        )
        network.events.run_until_idle()
        (outcome,) = outcomes
    spans = [
        (span.name, span.start, span.end, span.attrs.get("error"))
        for span in network.tracer.collector.spans(root.trace_id)[1:]
    ]
    events = [event[0] for event in root.events]
    metrics = network.metrics
    return outcome, network.clock.now, spans, events, metrics.total_messages, metrics.total_drops


class TestOneExchange:
    """``send_request`` and ``post`` drive the same exchange: every check,
    span and wait is the same whether the clock advances inline or the
    steps are scheduled on the event queue."""

    @pytest.mark.parametrize("scenario", list(EXCHANGES))
    def test_inline_and_queued_drivers_agree(self, scenario):
        sync = _run_exchange("send_request", scenario)
        posted = _run_exchange("post", scenario)
        outcome, now, spans, events, messages, drops = sync
        assert posted[0] == outcome
        assert posted[1] == pytest.approx(now, rel=1e-12)
        assert [span[0::3] for span in posted[2]] == [span[0::3] for span in spans]
        for queued_span, inline_span in zip(posted[2], spans):
            assert queued_span[1:3] == pytest.approx(inline_span[1:3], rel=1e-12)
        assert posted[3:] == (events, messages, drops)

    def test_failing_handler_records_an_error_tagged_service_span(self):
        outcome, _, spans, _, _, _ = _run_exchange("send_request", "handler-error")
        assert outcome == "ValueError"
        assert [(name, error) for name, _, _, error in spans] == [
            ("request-wire", None),
            ("service", "ValueError"),
        ]

    def test_a_dropped_response_is_reported_when_the_handler_returns(self):
        # The worker's remaining service time is not waited out first.
        _, now, spans, events, _, drops = _run_exchange("send_request", "pool-response-drop")
        (service,) = [span for span in spans if span[0] == "service"]
        assert now == service[2] == pytest.approx(service[1] + 0.001)
        assert events == ["response-dropped"]
        assert drops == 1
