"""Golden dispatch timing: what every pipe shape costs on every transport, pinned.

The wire goldens pin the bytes of single messages; these pin what whole call
sequences cost once they cross the simulated network.  For each transport ×
dispatch shape × network condition the exact final simulated clock, the
message, byte and drop counts, the per-call outcomes and — for traced shapes —
a digest of every recorded ``(name, start, end)`` span are fixed, so a
refactor of the dispatch or network layers has to keep simulated time
identical to the last bit, not just close.

Shapes: direct synchronous calls, batch window 8, batch 8 × pipeline depth 2,
and traced variants of the direct and pipelined shapes.  Conditions: a clean
network, seeded message drops with retries, and a bounded single-worker
:class:`~repro.network.simnet.ServicePool` on the serving node.  The
process-wide call-id counter is pinned because call ids ride on the wire.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from repro.api import ServicePolicy, Session, middleware
from repro.network.failures import FailureModel
from repro.runtime.cluster import Cluster
from repro.workloads.bulk_orders import OrderIntake

CALLS = 24

#: shape name -> (batch window, pipeline depth, traced)
SHAPES = {
    "direct": (1, 1, False),
    "batch8": (8, 1, False),
    "batch8-pipe2": (8, 2, False),
    "traced-direct": (1, 1, True),
    "traced-batch8-pipe2": (8, 2, True),
}

CONDITIONS = ("clean", "drops", "pool")

TRANSPORTS = ("inproc", "rmi", "corba", "soap")


def _span_digest(tracer) -> tuple:
    collector = tracer.collector
    spans = [
        (span.name, span.start, span.end)
        for trace_id in collector.trace_ids()
        for span in collector.spans(trace_id)
    ]
    text = repr(spans).encode()
    return len(spans), hashlib.sha256(text).hexdigest()[:16]


def run_scenario(transport: str, shape: str, condition: str) -> dict:
    """Run one pinned call sequence and return what it cost."""
    window, depth, traced = SHAPES[shape]
    failures = FailureModel(drop_probability=0.25, seed=3) if condition == "drops" else None
    cluster = Cluster(("client", "server"), failures=failures)
    if condition == "pool":
        cluster.set_service_pool("server", workers=1, queue_limit=1, service_time=0.0004)
    policy = ServicePolicy(transport=transport)
    if window > 1:
        policy = policy.with_batching(window)
    if depth > 1:
        policy = policy.with_pipelining(depth)
    if traced:
        policy = policy.with_tracing(1.0)
    if condition == "drops":
        policy = policy.with_retry(max_attempts=8)
    outcomes = []
    with Session(cluster, node="client") as session:
        svc = session.service("orders", policy, impl=OrderIntake(), node="server")
        if window == 1 and depth == 1:
            for index in range(CALLS):
                try:
                    outcomes.append(svc.submit(f"sku-{index}", index % 3 + 1, 10))
                except Exception as error:  # noqa: BLE001 - pinned outcome
                    outcomes.append(type(error).__name__)
        else:
            futures = [
                svc.future.submit(f"sku-{index}", index % 3 + 1, 10)
                for index in range(CALLS)
            ]
            svc.drain()
            for future in futures:
                error = future.exception()
                outcomes.append(future.result() if error is None else type(error).__name__)
        result = {
            "now": cluster.clock.now,
            "messages": cluster.metrics.total_messages,
            "bytes": cluster.metrics.total_bytes,
            "drops": cluster.metrics.total_drops,
            "outcomes": outcomes,
        }
        if traced:
            result["spans"] = _span_digest(session.tracer())
    return result


IN_ORDER = list(range(CALLS))
#: Direct calls under drops: a dropped response re-executes its call.
DIRECT_RETRIED = [0, 1, 2, 3, 4, 6, 7, 9, 11, 12, 13, 14, 15, 17, 18, 19, 20, 21, 22, 23, 25, 26, 28, 30]
#: The first pipelined window is requeued after a drop and lands last.
FIRST_WINDOW_REQUEUED = list(range(16, 24)) + list(range(16))

#: (transport, shape, condition) -> (clock.now, messages, bytes, drops,
#: outcomes[, (span count, span digest)])
GOLDEN = {
    ("inproc", "direct", "clean"): (0.024242240000000026, 48, 3028, 0, IN_ORDER),
    ("inproc", "direct", "drops"): (0.045802079999999974, 55, 3776, 13, DIRECT_RETRIED),
    ("inproc", "direct", "pool"): (0.03384224000000003, 48, 3028, 0, IN_ORDER),
    ("inproc", "batch8", "clean"): (0.00323168, 6, 2896, 0, IN_ORDER),
    ("inproc", "batch8", "drops"): (0.00723168, 6, 2896, 3, IN_ORDER),
    ("inproc", "batch8", "pool"): (0.00443168, 6, 2896, 0, IN_ORDER),
    ("inproc", "batch8-pipe2", "clean"): (0.00215424, 6, 2896, 0, IN_ORDER),
    ("inproc", "batch8-pipe2", "drops"): (0.008154080000000001, 6, 2896, 3, FIRST_WINDOW_REQUEUED),
    ("inproc", "batch8-pipe2", "pool"): (0.0029542400000000003, 6, 2896, 0, IN_ORDER),
    ("inproc", "traced-direct", "clean"): (
        0.02431384000000001, 48, 3923, 0, IN_ORDER, (120, "0291361d1571fb6a"),
    ),
    ("inproc", "traced-direct", "drops"): (
        0.045894880000000006, 55, 4936, 13, DIRECT_RETRIED, (141, "4b65092ebe077c41"),
    ),
    ("inproc", "traced-direct", "pool"): (
        0.03391384000000002, 48, 3923, 0, IN_ORDER, (120, "918d6ee28ab0253e"),
    ),
    ("inproc", "traced-batch8-pipe2", "clean"): (
        0.00220096, 6, 3780, 0, IN_ORDER, (128, "8a4aab05274c1917"),
    ),
    ("inproc", "traced-batch8-pipe2", "drops"): (
        0.00820048, 6, 3780, 3, FIRST_WINDOW_REQUEUED, (144, "400b1af01c9a50eb"),
    ),
    ("inproc", "traced-batch8-pipe2", "pool"): (
        0.00300096, 6, 3780, 0, IN_ORDER, (136, "52799206c9ee49e6"),
    ),
    ("rmi", "direct", "clean"): (0.026731360000000006, 48, 4142, 0, IN_ORDER),
    ("rmi", "direct", "drops"): (0.048960640000000076, 55, 5133, 13, DIRECT_RETRIED),
    ("rmi", "direct", "pool"): (0.03633136000000002, 48, 4142, 0, IN_ORDER),
    ("rmi", "batch8", "clean"): (0.0036131200000000005, 6, 3914, 0, IN_ORDER),
    ("rmi", "batch8", "drops"): (0.00776312, 6, 3914, 3, IN_ORDER),
    ("rmi", "batch8", "pool"): (0.004813120000000001, 6, 3914, 0, IN_ORDER),
    ("rmi", "batch8-pipe2", "clean"): (0.00240864, 6, 3914, 0, IN_ORDER),
    ("rmi", "batch8-pipe2", "drops"): (0.008608479999999998, 6, 3914, 3, FIRST_WINDOW_REQUEUED),
    ("rmi", "batch8-pipe2", "pool"): (0.0032086400000000005, 6, 3914, 0, IN_ORDER),
    ("rmi", "traced-direct", "clean"): (
        0.02682792000000001, 48, 5349, 0, IN_ORDER, (120, "b72989e49e663a89"),
    ),
    ("rmi", "traced-direct", "drops"): (
        0.04908568000000003, 55, 6696, 13, DIRECT_RETRIED, (141, "dc56cb7c13998ad6"),
    ),
    ("rmi", "traced-direct", "pool"): (
        0.036427920000000016, 48, 5349, 0, IN_ORDER, (120, "f9fbbf0b386cf808"),
    ),
    ("rmi", "traced-batch8-pipe2", "clean"): (
        0.002472, 6, 5110, 0, IN_ORDER, (128, "a79b4c918e15e99e"),
    ),
    ("rmi", "traced-batch8-pipe2", "drops"): (
        0.008621519999999999, 6, 5110, 3, FIRST_WINDOW_REQUEUED, (144, "009e652d3ae4aed6"),
    ),
    ("rmi", "traced-batch8-pipe2", "pool"): (
        0.003272, 6, 5110, 0, IN_ORDER, (136, "ca1dfe16f9596e22"),
    ),
    ("corba", "direct", "clean"): (0.030197759999999976, 48, 5472, 0, IN_ORDER),
    ("corba", "direct", "drops"): (0.05335744, 55, 6718, 13, DIRECT_RETRIED),
    ("corba", "direct", "pool"): (0.039797759999999974, 48, 5472, 0, IN_ORDER),
    ("corba", "batch8", "clean"): (0.004104, 6, 4800, 0, IN_ORDER),
    ("corba", "batch8", "drops"): (0.008464000000000001, 6, 4800, 3, IN_ORDER),
    ("corba", "batch8", "pool"): (0.0053040000000000006, 6, 4800, 0, IN_ORDER),
    ("corba", "batch8-pipe2", "clean"): (0.002736, 6, 4800, 0, IN_ORDER),
    ("corba", "batch8-pipe2", "drops"): (0.009216000000000002, 6, 4800, 3, FIRST_WINDOW_REQUEUED),
    ("corba", "batch8-pipe2", "pool"): (0.0035360000000000005, 6, 4800, 0, IN_ORDER),
    ("corba", "traced-direct", "clean"): (
        0.03031119999999997, 48, 6890, 0, IN_ORDER, (120, "37655d3fb4ddeafa"),
    ),
    ("corba", "traced-direct", "drops"): (
        0.05350431999999999, 55, 8554, 13, DIRECT_RETRIED, (141, "5fab1b669741ff9e"),
    ),
    ("corba", "traced-direct", "pool"): (
        0.03991119999999997, 48, 6890, 0, IN_ORDER, (120, "7f76e49500781747"),
    ),
    ("corba", "traced-batch8-pipe2", "clean"): (
        0.0028080799999999997, 6, 6152, 0, IN_ORDER, (128, "01a59f0c083d995b"),
    ),
    ("corba", "traced-batch8-pipe2", "drops"): (
        0.00928808, 6, 6152, 3, FIRST_WINDOW_REQUEUED, (144, "5a325385ebadc99f"),
    ),
    ("corba", "traced-batch8-pipe2", "pool"): (
        0.00360808, 6, 6152, 0, IN_ORDER, (136, "2de7b791821bceac"),
    ),
    ("soap", "direct", "clean"): (0.03923744000000004, 48, 10468, 0, IN_ORDER),
    ("soap", "direct", "drops"): (0.06480312000000006, 55, 12539, 13, DIRECT_RETRIED),
    ("soap", "direct", "pool"): (0.048837440000000044, 48, 10468, 0, IN_ORDER),
    ("soap", "batch8", "clean"): (0.00539984, 6, 7498, 0, IN_ORDER),
    ("soap", "batch8", "drops"): (0.010299840000000001, 6, 7498, 3, IN_ORDER),
    ("soap", "batch8", "pool"): (0.00659984, 6, 7498, 0, IN_ORDER),
    ("soap", "batch8-pipe2", "clean"): (0.0035996799999999996, 6, 7498, 0, IN_ORDER),
    ("soap", "batch8-pipe2", "drops"): (0.010799519999999998, 6, 7498, 3, FIRST_WINDOW_REQUEUED),
    ("soap", "batch8-pipe2", "pool"): (0.00439968, 6, 7498, 0, IN_ORDER),
    ("soap", "traced-direct", "clean"): (
        0.039547120000000054, 48, 14339, 0, IN_ORDER, (120, "6a2641ae8d34fd46"),
    ),
    ("soap", "traced-direct", "drops"): (
        0.06520344000000006, 55, 17543, 13, DIRECT_RETRIED, (141, "1a17a9141efd4758"),
    ),
    ("soap", "traced-direct", "pool"): (
        0.049147120000000044, 48, 14339, 0, IN_ORDER, (120, "7826bddc48566346"),
    ),
    ("soap", "traced-batch8-pipe2", "clean"): (
        0.00380512, 6, 11358, 0, IN_ORDER, (128, "16e9f5dc75392a31"),
    ),
    ("soap", "traced-batch8-pipe2", "drops"): (
        0.01100464, 6, 11358, 3, FIRST_WINDOW_REQUEUED, (144, "8cf1529ae76043a6"),
    ),
    ("soap", "traced-batch8-pipe2", "pool"): (
        0.00460512, 6, 11358, 0, IN_ORDER, (136, "29075464d2f39624"),
    ),
}


@pytest.fixture(autouse=True)
def _pinned_call_ids(monkeypatch):
    monkeypatch.setattr(middleware, "_CALL_SEQ", itertools.count(0))


@pytest.mark.parametrize("condition", CONDITIONS)
@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_dispatch_cost_is_pinned(transport, shape, condition):
    now, messages, size, drops, outcomes, *spans = GOLDEN[(transport, shape, condition)]
    expected = {"now": now, "messages": messages, "bytes": size, "drops": drops, "outcomes": outcomes}
    if spans:
        expected["spans"] = spans[0]
    assert run_scenario(transport, shape, condition) == expected
