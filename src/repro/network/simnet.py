"""The simulated network connecting address spaces.

The paper deploys transformed applications on a LAN; this reproduction has no
testbed, so the substrate is a deterministic in-process network simulator.
Nodes register a message handler; :meth:`SimulatedNetwork.send_request`
models a synchronous request/response exchange with configurable per-link
latency, bandwidth-proportional transmission time, jitter, message loss and
partitions.  Simulated time is charged to a :class:`~repro.network.clock.SimClock`
and traffic is accounted in :class:`~repro.network.metrics.NetworkMetrics`.

:meth:`SimulatedNetwork.post` is the asynchronous sibling: it schedules the
delivery and the response as events on the network's
:class:`~repro.network.clock.EventQueue` and returns immediately, reporting
the outcome through completion callbacks.  Several posted messages can be in
flight at once, and their link delays overlap in simulated time — the
foundation of the pipelined invocation scheduler
(:mod:`repro.runtime.pipelining`).

Links have *capacity*: each directed link is a FIFO resource whose
transmission phase serializes — a message starts transmitting only once the
wire has finished the previous one, so concurrent traffic queues and the
wait is accounted per link in :class:`~repro.network.metrics.NetworkMetrics`
(propagation still overlaps).  Nodes can additionally be bounded by a
:class:`ServicePool` (``workers``/``queue_limit``/``service_time``); a
saturated pool refuses requests with
:class:`~repro.api.errors.AdmissionError`.  Pass ``queueing=False`` to restore
the idealised infinite-capacity model.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro._errors import (
    AdmissionError,
    MessageDroppedError,
    NodeUnreachableError,
    PartitionError,
)
from repro.network.clock import EventQueue, SimClock
from repro.network.failures import FailureModel, NoFailures
from repro.network.metrics import NetworkMetrics

#: A node-side handler: receives the raw request payload, returns the response.
MessageHandler = Callable[[str, bytes], bytes]

#: Completion callback for an asynchronous exchange: receives the response.
ResponseCallback = Callable[[bytes], None]

#: Failure callback for an asynchronous exchange: receives the network error.
ErrorCallback = Callable[[Exception], None]


@dataclass(frozen=True)
class LinkConfig:
    """Latency/bandwidth characteristics of one (or every) directed link."""

    #: One-way propagation latency in seconds.
    latency: float = 0.0005
    #: Link bandwidth in bytes per second (transmission time = size / bandwidth).
    bandwidth: float = 12_500_000.0  # 100 Mbit/s, a 2003-era LAN
    #: Maximum random jitter added to each one-way latency, in seconds.
    jitter: float = 0.0

    def transmission_time(self, size: int) -> float:
        """Seconds the wire is occupied putting ``size`` bytes on the link.

        This is the serialising component of the one-way delay: while one
        message transmits, the link is busy and later messages queue behind
        it.  Zero-bandwidth links (loopback) transmit instantaneously and
        therefore never queue.
        """
        return size / self.bandwidth if self.bandwidth > 0 else 0.0

    def propagation_delay(self, rng: random.Random) -> float:
        """Seconds a bit takes to cross the link (latency plus jitter).

        Propagation does not occupy the wire — messages overlap in flight —
        so it never contributes to queueing.
        """
        jitter = rng.uniform(0.0, self.jitter) if self.jitter > 0 else 0.0
        return self.latency + jitter

    def one_way_delay(self, size: int, rng: random.Random) -> float:
        return self.transmission_time(size) + self.propagation_delay(rng)


#: A link configuration approximating calls within a single address space.
LOOPBACK_LINK = LinkConfig(latency=0.0, bandwidth=0.0, jitter=0.0)

#: A link configuration approximating a 2003-era switched LAN.
LAN_LINK = LinkConfig(latency=0.0005, bandwidth=12_500_000.0, jitter=0.0)

#: A link configuration approximating a WAN hop.
WAN_LINK = LinkConfig(latency=0.030, bandwidth=1_250_000.0, jitter=0.002)


class ServicePool:
    """A node's bounded request-serving capacity: ``workers`` parallel
    servers fronted by an admission queue of at most ``queue_limit`` slots.

    Real middleware hosts do not execute unbounded concurrent requests; they
    run a fixed worker pool and shed load once the backlog is full.  A pool
    installed on a node (via :meth:`SimulatedNetwork.set_service_pool` or
    ``AddressSpace.install_service_pool``) makes delivered messages wait for
    a free worker, occupy it for ``service_time`` simulated seconds, and —
    when all workers are busy and the queue is full — be refused with a
    typed :class:`~repro.api.errors.AdmissionError` that fault-tolerant callers
    retry with backoff.  Sustainable capacity is ``workers / service_time``
    requests per simulated second.
    """

    def __init__(
        self,
        workers: int = 1,
        queue_limit: int = 16,
        service_time: float = 0.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be non-negative")
        if service_time < 0.0:
            raise ValueError("service_time must be non-negative")
        self.workers = workers
        self.queue_limit = queue_limit
        self.service_time = service_time
        #: Min-heap of each worker's busy-until timestamp.
        self._free_at: List[float] = [0.0] * workers
        self._waiting = 0
        self.admitted = 0
        self.rejected = 0
        self.served = 0
        self.max_queue_depth = 0
        self.total_queue_delay = 0.0

    @property
    def capacity(self) -> float:
        """Sustainable throughput in requests per simulated second."""
        if self.service_time <= 0.0:
            return math.inf
        return self.workers / self.service_time

    @property
    def queue_depth(self) -> int:
        """Requests admitted but still waiting for a worker."""
        return self._waiting

    def admit(self, now: float) -> float:
        """Reserve a worker for one request arriving at ``now``.

        Returns the simulated time service will start — ``now`` when a
        worker is free, later when the request must queue.  Raises
        :class:`~repro.api.errors.AdmissionError` when all workers are busy and
        the admission queue is full; a rejected request consumes no
        capacity.
        """
        earliest = self._free_at[0]
        if earliest <= now:
            start = now
        else:
            if self._waiting >= self.queue_limit:
                self.rejected += 1
                raise AdmissionError(
                    f"service pool saturated: {self.workers} workers busy and "
                    f"{self._waiting} requests already queued (limit {self.queue_limit})"
                )
            start = earliest
            self._waiting += 1
            if self._waiting > self.max_queue_depth:
                self.max_queue_depth = self._waiting
            self.total_queue_delay += start - now
        heapq.heapreplace(self._free_at, start + self.service_time)
        self.admitted += 1
        return start

    def begin_service(self, queued: bool) -> None:
        """Mark an admitted request as having reached its worker.

        ``queued`` says whether the request waited in the admission queue
        (its slot is released here) or started immediately.
        """
        if queued and self._waiting > 0:
            self._waiting -= 1
        self.served += 1

    def snapshot(self) -> dict:
        """Plain-data counters for benchmark reports."""
        return {
            "workers": self.workers,
            "queue_limit": self.queue_limit,
            "service_time": self.service_time,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "served": self.served,
            "max_queue_depth": self.max_queue_depth,
            "total_queue_delay": round(self.total_queue_delay, 6),
        }


class SimulatedNetwork:
    """A deterministic message-passing fabric between named nodes."""

    def __init__(
        self,
        default_link: LinkConfig = LAN_LINK,
        clock: Optional[SimClock] = None,
        failures: Optional[FailureModel] = None,
        seed: int = 0,
        queueing: bool = True,
    ) -> None:
        self.default_link = default_link
        self.clock = clock if clock is not None else SimClock()
        #: Discrete-event queue carrying asynchronous (pipelined) exchanges.
        self.events = EventQueue(self.clock)
        self.failures = failures if failures is not None else NoFailures()
        self.metrics = NetworkMetrics()
        #: When True (the default) each directed link is a FIFO resource:
        #: a message's transmission starts only once the wire is free, so
        #: concurrent messages serialize and queueing delay becomes visible.
        #: False restores the idealised infinite-capacity model.
        self.queueing = queueing
        self._handlers: Dict[str, MessageHandler] = {}
        self._links: Dict[Tuple[str, str], LinkConfig] = {}
        #: Per directed link: when the wire finishes its last transmission.
        self._link_busy_until: Dict[Tuple[str, str], float] = {}
        #: Per directed link: future transmission-start times of queued messages.
        self._link_backlog: Dict[Tuple[str, str], Deque[float]] = {}
        #: Per node: its bounded service pool, if one is installed.
        self._pools: Dict[str, ServicePool] = {}
        self._rng = random.Random(seed)
        #: The session tracer, when tracing is enabled (see
        #: :meth:`repro.api.session.Session.tracer`).  Every layer that
        #: instruments the data path — links, pools, server dispatch,
        #: replication — reads it from here; ``None`` keeps the hot path
        #: to a single attribute check.
        self.tracer = None

    # -- topology ----------------------------------------------------------------

    def register(self, node_id: str, handler: MessageHandler) -> None:
        """Attach a node's request handler to the network."""
        self._handlers[node_id] = handler

    def unregister(self, node_id: str) -> None:
        self._handlers.pop(node_id, None)

    def nodes(self) -> set[str]:
        return set(self._handlers)

    def is_registered(self, node_id: str) -> bool:
        return node_id in self._handlers

    def set_link(self, source: str, destination: str, config: LinkConfig) -> None:
        """Override the link characteristics for one directed pair."""
        self._links[(source, destination)] = config

    def set_symmetric_link(self, node_a: str, node_b: str, config: LinkConfig) -> None:
        self.set_link(node_a, node_b, config)
        self.set_link(node_b, node_a, config)

    def link_config(self, source: str, destination: str) -> LinkConfig:
        return self._links.get((source, destination), self.default_link)

    def set_service_pool(self, node_id: str, pool: Optional[ServicePool]) -> None:
        """Bound ``node_id``'s serving capacity with ``pool`` (None removes it).

        With a pool installed, every message delivered to the node must be
        admitted: it waits for one of the pool's workers, holds it for the
        pool's service time, and is refused with
        :class:`~repro.api.errors.AdmissionError` when the pool is saturated.
        Nodes without a pool keep the idealised unbounded-concurrency model.
        """
        if pool is None:
            self._pools.pop(node_id, None)
        else:
            self._pools[node_id] = pool

    def service_pool(self, node_id: str) -> Optional[ServicePool]:
        """The bounded service pool installed on ``node_id``, if any."""
        return self._pools.get(node_id)

    def _reserve_link(
        self, source: str, destination: str, size: int, link: LinkConfig
    ) -> float:
        """Claim the ``source -> destination`` wire for one message.

        Returns the message's total one-way delay from *now*: time spent
        waiting for earlier transmissions to clear the link (FIFO), plus its
        own transmission time, plus propagation.  With :attr:`queueing`
        disabled, or on zero-transmission links, the wait is always zero and
        this reduces to :meth:`LinkConfig.one_way_delay`.
        """
        propagation = link.propagation_delay(self._rng)
        transmission = link.transmission_time(size)
        if not self.queueing or transmission <= 0.0:
            return transmission + propagation
        now = self.clock.now
        key = (source, destination)
        busy_until = self._link_busy_until.get(key, 0.0)
        start = busy_until if busy_until > now else now
        queue_delay = start - now
        self._link_busy_until[key] = start + transmission
        # Backlog depth = earlier messages whose transmission has not started
        # yet; starts are monotone per link so expired entries pop in order.
        backlog = self._link_backlog.setdefault(key, deque())
        while backlog and backlog[0] <= now:
            backlog.popleft()
        self.metrics.record_queueing(source, destination, queue_delay, len(backlog))
        if queue_delay > 0.0:
            backlog.append(start)
        return queue_delay + transmission + propagation

    # -- tracing ------------------------------------------------------------------

    def _trace_interval(
        self,
        trace: Optional[List[Tuple[str, str]]],
        name: str,
        kind: str,
        start: float,
        end: float,
        **attrs,
    ) -> None:
        """Record one closed span per traced call riding this message.

        A batch message can carry several traced calls; each gets its own
        copy of the interval, parented to its client span, so every trace
        stays self-contained.
        """
        tracer = self.tracer
        if tracer is None or not trace:
            return
        for trace_id, parent_id in trace:
            tracer.record_span(
                name,
                trace_id=trace_id,
                parent_id=parent_id,
                kind=kind,
                start=start,
                end=end,
                **attrs,
            )

    def _trace_event(
        self, trace: Optional[List[Tuple[str, str]]], name: str, **attrs
    ) -> None:
        """Attach a point event to every traced call riding this message."""
        tracer = self.tracer
        if tracer is None or not trace:
            return
        now = self.clock.now
        for trace_id, parent_id in trace:
            tracer.annotate(trace_id, parent_id, name, ts=now, **attrs)

    # -- message exchange -----------------------------------------------------------

    def send_request(
        self,
        source: str,
        destination: str,
        payload: bytes,
        *,
        trace: Optional[List[Tuple[str, str]]] = None,
    ) -> bytes:
        """Synchronously deliver ``payload`` and return the handler's response.

        Simulated time advances by the request's one-way delay (including any
        wait for the link to free up), the handler runs behind the node's
        service pool if one is installed (its own nested sends advance time
        further), and time advances again for the response's one-way delay.
        Failures raise subclasses of :class:`~repro.api.errors.NetworkError`; a
        saturated destination pool raises
        :class:`~repro.api.errors.AdmissionError` synchronously.
        """

        if source == destination:
            # Same address space: no network is involved.
            handler = self._require_handler(destination)
            return handler(source, payload)

        self._check_reachability(source, destination)
        if self.failures.should_drop(source, destination):
            self.metrics.record_drop(source, destination)
            self._trace_event(trace, "request-dropped", link=f"{source}->{destination}")
            raise MessageDroppedError(
                f"message from {source!r} to {destination!r} was dropped"
            )

        link = self.link_config(source, destination)
        sent_at = self.clock.now
        request_delay = self._reserve_link(source, destination, len(payload), link)
        self.clock.advance(request_delay)
        self.metrics.record(source, destination, len(payload), request_delay)
        self._trace_interval(
            trace,
            "request-wire",
            "wire",
            sent_at,
            self.clock.now,
            link=f"{source}->{destination}",
            bytes=len(payload),
        )

        handler = self._require_handler(destination)
        pool = self._pools.get(destination)
        if pool is None:
            served_at = self.clock.now
            response = handler(source, payload)
            self._trace_interval(
                trace, "service", "service", served_at, self.clock.now, node=destination
            )
        else:
            arrived_at = self.clock.now
            try:
                start = pool.admit(arrived_at)
            except AdmissionError:
                self._trace_event(trace, "admission-rejected", node=destination)
                raise
            queued = start > arrived_at
            self.clock.advance_to(start)
            pool.begin_service(queued)
            if queued:
                self._trace_interval(
                    trace, "pool-queue", "server_queue", arrived_at, start, node=destination
                )
            response = handler(source, payload)
            finish = start + pool.service_time
            if finish > self.clock.now:
                self.clock.advance_to(finish)
            self._trace_interval(
                trace, "service", "service", start, self.clock.now, node=destination
            )

        if self.failures.should_drop(destination, source):
            self.metrics.record_drop(destination, source)
            self._trace_event(trace, "response-dropped", link=f"{destination}->{source}")
            raise MessageDroppedError(
                f"response from {destination!r} to {source!r} was dropped"
            )
        reverse_link = self.link_config(destination, source)
        responded_at = self.clock.now
        response_delay = self._reserve_link(
            destination, source, len(response), reverse_link
        )
        self.clock.advance(response_delay)
        self.metrics.record(destination, source, len(response), response_delay)
        self._trace_interval(
            trace,
            "response-wire",
            "wire",
            responded_at,
            self.clock.now,
            link=f"{destination}->{source}",
            bytes=len(response),
        )
        return response

    def post(
        self,
        source: str,
        destination: str,
        payload: bytes,
        on_response: ResponseCallback,
        on_error: ErrorCallback,
        *,
        trace: Optional[List[Tuple[str, str]]] = None,
    ) -> None:
        """Asynchronously deliver ``payload``; the outcome arrives via callback.

        Unlike :meth:`send_request`, this returns immediately: the request's
        one-way delay, the destination handler's execution and the response's
        one-way delay are scheduled on :attr:`events` and play out when the
        queue is pumped.  Messages posted before the queue is drained are in
        flight *concurrently* — their link delays overlap in simulated time,
        so N posted round trips cost roughly ``max`` rather than ``sum`` of
        their delays.

        Failure semantics mirror the synchronous path: unreachable or
        partitioned destinations and dropped messages surface through
        ``on_error`` as :class:`~repro.api.errors.NetworkError` subclasses (the
        sender is modelled as detecting loss immediately — a negative-ack
        model; retry backoff supplies any recovery delay).  Errors are
        reported through the event queue too, so completion order stays
        deterministic.
        """

        if source == destination:
            # Same address space: no network is involved, but completion
            # still travels through the event queue so that local and remote
            # completions interleave deterministically.
            def complete_locally() -> None:
                try:
                    handler = self._require_handler(destination)
                    response = handler(source, payload)
                except Exception as error:  # noqa: BLE001 - routed to callback
                    on_error(error)
                    return
                on_response(response)

            self.events.schedule(0.0, complete_locally)
            return

        try:
            self._check_reachability(source, destination)
        except Exception as error:  # noqa: BLE001 - routed to callback
            # Bind to a fresh name: `error` itself is unbound when the
            # except block exits, before the scheduled lambda runs.
            failure = error
            self.events.schedule(0.0, lambda: on_error(failure))
            return
        if self.failures.should_drop(source, destination):
            self.metrics.record_drop(source, destination)
            self._trace_event(trace, "request-dropped", link=f"{source}->{destination}")
            dropped = MessageDroppedError(
                f"message from {source!r} to {destination!r} was dropped"
            )
            self.events.schedule(0.0, lambda: on_error(dropped))
            return

        link = self.link_config(source, destination)
        sent_at = self.clock.now
        request_delay = self._reserve_link(source, destination, len(payload), link)
        self.metrics.record(source, destination, len(payload), request_delay)

        def serve(handler: MessageHandler, respond_at: Optional[float]) -> None:
            served_at = self.clock.now
            try:
                response = handler(source, payload)
            except Exception as error:  # noqa: BLE001 - routed to callback
                self._trace_interval(
                    trace,
                    "service",
                    "service",
                    served_at,
                    self.clock.now,
                    node=destination,
                    error=type(error).__name__,
                )
                on_error(error)
                return
            if self.failures.should_drop(destination, source):
                self.metrics.record_drop(destination, source)
                self._trace_interval(
                    trace, "service", "service", served_at, self.clock.now, node=destination
                )
                self._trace_event(trace, "response-dropped", link=f"{destination}->{source}")
                on_error(
                    MessageDroppedError(
                        f"response from {destination!r} to {source!r} was dropped"
                    )
                )
                return

            def send_response() -> None:
                # The worker releases the request here: the service
                # interval spans handler execution plus the remainder of
                # the pool's service time.
                self._trace_interval(
                    trace, "service", "service", served_at, self.clock.now, node=destination
                )
                reverse_link = self.link_config(destination, source)
                responded_at = self.clock.now
                response_delay = self._reserve_link(
                    destination, source, len(response), reverse_link
                )
                self.metrics.record(destination, source, len(response), response_delay)

                def arrive() -> None:
                    # Wire spans end at the clock reading the arrival event
                    # fires at, like the spans of the callbacks it runs:
                    # ``responded_at + response_delay`` can differ from it
                    # in the last bit.
                    self._trace_interval(
                        trace,
                        "response-wire",
                        "wire",
                        responded_at,
                        self.clock.now,
                        link=f"{destination}->{source}",
                        bytes=len(response),
                    )
                    on_response(response)

                self.events.schedule(response_delay, arrive)

            if respond_at is not None and respond_at > self.clock.now:
                # The worker holds the request until its service time has
                # elapsed; only then does the response hit the wire.  The
                # clock is NOT advanced here — other workers (and other
                # links) keep operating concurrently in simulated time.
                self.events.schedule_at(respond_at, send_response)
            else:
                send_response()

        def deliver() -> None:
            # Ends at the delivery event's clock reading, as in ``arrive``.
            self._trace_interval(
                trace,
                "request-wire",
                "wire",
                sent_at,
                self.clock.now,
                link=f"{source}->{destination}",
                bytes=len(payload),
            )
            handler = self._handlers.get(destination)
            if handler is None:
                on_error(
                    NodeUnreachableError(
                        f"node {destination!r} is not registered on the network"
                    )
                )
                return
            if self.failures.is_node_down(destination):
                # The destination crashed while this message was in flight:
                # it must not execute on a dead node (reachability was only
                # checked at post time).
                on_error(
                    NodeUnreachableError(
                        f"node {destination!r} went down before delivery"
                    )
                )
                return
            pool = self._pools.get(destination)
            if pool is None:
                serve(handler, None)
                return
            now = self.clock.now
            try:
                start = pool.admit(now)
            except AdmissionError as error:
                self._trace_event(trace, "admission-rejected", node=destination)
                on_error(error)
                return
            queued = start > now
            if queued:
                self._trace_interval(
                    trace, "pool-queue", "server_queue", now, start, node=destination
                )

            def begin() -> None:
                pool.begin_service(queued)
                # The destination can die while the request sits in the
                # admission queue (not just in flight): it must fail here
                # rather than execute on a dead node.
                current = self._handlers.get(destination)
                if current is None or self.failures.is_node_down(destination):
                    on_error(
                        NodeUnreachableError(
                            f"node {destination!r} went down while queued"
                        )
                    )
                    return
                serve(current, start + pool.service_time)

            if queued:
                self.events.schedule_at(start, begin)
            else:
                begin()

        self.events.schedule(request_delay, deliver)

    # -- helpers -----------------------------------------------------------------------

    def _require_handler(self, node_id: str) -> MessageHandler:
        handler = self._handlers.get(node_id)
        if handler is None:
            raise NodeUnreachableError(f"node {node_id!r} is not registered on the network")
        return handler

    def _check_reachability(self, source: str, destination: str) -> None:
        if destination not in self._handlers:
            raise NodeUnreachableError(
                f"node {destination!r} is not registered on the network"
            )
        if self.failures.is_node_down(source) or self.failures.is_node_down(destination):
            raise NodeUnreachableError(
                f"node {source!r} or {destination!r} is down"
            )
        if self.failures.is_partitioned(source, destination):
            raise PartitionError(
                f"nodes {source!r} and {destination!r} are partitioned"
            )

    def reset_metrics(self) -> None:
        self.metrics.reset()
