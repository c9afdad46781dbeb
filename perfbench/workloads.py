"""The four benchmark workloads.

Each workload generates its inputs (``inputs``) from the seed in
``__init__`` and then offers four steps to the runner:

* ``setup(policy_hook=None)`` builds a fresh cluster, deploys the service
  (or transforms and deploys the application) and makes the first call; the
  runner times it.  ``policy_hook`` may amend the service policy (the traced
  run uses it to turn on end-to-end tracing);
* ``run(fixture, inputs)`` performs the calls of ``inputs``; the runner times
  it and nothing else;
* ``check(fixture, outcome)`` verifies every output, untimed, and fills in
  the error, write-execution and counter figures of ``outcome``;
* ``teardown(fixture)`` releases the fixture.

``calls`` is the size of the simulated pass (all of ``inputs``) and
``window_calls`` the slice every timed window repeats.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from perfbench.common import (
    SLO_P99_S,
    Outcome,
    PatternDrops,
    bench_cluster,
    derive_seed,
    percentile,
)
from repro import ApplicationTransformer, DistributionController, all_local_policy
from repro.api import (
    CachePolicy,
    DeadlineInterceptor,
    MetricsInterceptor,
    ServicePolicy,
    Session,
    cacheable,
)
from repro.api.errors import AdmissionError
from repro.runtime.faulttolerance import RetryPolicy
from repro.workloads.orders import Catalog, CustomerSession, OrderStore


@dataclass
class Fixture:
    """One freshly built deployment a timing window runs against."""

    cluster: Any
    session: Any = None
    service: Any = None
    server: Any = None
    extra: Any = None

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        self.cluster.shutdown()


# ---------------------------------------------------------------------------
# served objects
# ---------------------------------------------------------------------------


class ScalarIntake:
    """Accepts three-scalar orders; keeps every execution, re-executions too."""

    def __init__(self):
        self.orders = []

    def submit(self, order_no, quantity, price):
        self.orders.append((order_no, quantity, price))
        return len(self.orders) - 1


class OrderIntake:
    """Accepts orders with line-item payloads; keeps every execution."""

    def __init__(self):
        self.orders = []

    def submit(self, order_no, sku, quantity, lines):
        self.orders.append((order_no, sku, quantity, lines))
        return len(self.orders) - 1


class CatalogShard:
    """A read-only catalog shard: the value of a key never changes."""

    def __init__(self, shard):
        self.shard = shard

    @cacheable
    def get(self, key):
        return self.shard * 100_000 + key * 7 + 1


class FeedShard:
    """The shard that takes writes: every publish bumps a key's version."""

    def __init__(self, keys):
        self.versions = [0] * keys
        self.publishes = 0

    @cacheable
    def get(self, key):
        return self.versions[key]

    def publish(self, key):
        self.publishes += 1
        self.versions[key] += 1
        return self.versions[key]


def _stratified_zipf(rng: random.Random, count: int, draws: int, exponent: float) -> List[int]:
    """``draws`` Zipf-distributed ranks below ``count``, one per equal stratum
    of probability, in seeded order."""
    weights = list(itertools.accumulate(1.0 / (rank + 1) ** exponent for rank in range(count)))
    total = weights[-1]
    ranks = [
        bisect.bisect_left(weights, (stratum + rng.random()) / draws * total)
        for stratum in range(draws)
    ]
    rng.shuffle(ranks)
    return ranks


# ---------------------------------------------------------------------------
# sync_small
# ---------------------------------------------------------------------------


class SyncSmall:
    """One caller, synchronous façade calls of three scalars over rmi."""

    name = "sync_small"
    repeatable_windows = True
    facade = True
    calls = 2048
    window_calls = 512

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(derive_seed(seed, self.name))
        self.inputs = [
            (index, rng.randrange(1, 100), rng.randrange(1, 10_000))
            for index in range(self.calls)
        ]

    def setup(self, policy_hook=None) -> Fixture:
        cluster = bench_cluster(("client", "server"), self.seed)
        session = Session(cluster, node="client")
        policy = ServicePolicy(transport="rmi")
        if policy_hook is not None:
            policy = policy_hook(policy)
        intake = ScalarIntake()
        service = session.service("intake", policy, impl=intake, node="server")
        service.submit(-1, 1, 1)
        return Fixture(cluster, session, service, intake)

    def run(self, fixture: Fixture, inputs: list) -> Outcome:
        clock = fixture.cluster.clock
        submit = fixture.service.submit
        outcome = Outcome(calls=len(inputs))
        ids: List[Optional[int]] = []
        latencies = outcome.latencies
        start = clock.now
        for args in inputs:
            sent = clock.now
            try:
                ids.append(submit(*args))
            except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
                ids.append(None)
                continue
            latencies.append(clock.now - sent)
        outcome.sim_elapsed = clock.now - start
        fixture.extra = (inputs, ids)
        return outcome

    def check(self, fixture: Fixture, outcome: Outcome) -> None:
        orders = fixture.server.orders
        acked = 0
        for args, order_id in zip(*fixture.extra):
            if order_id is None:
                outcome.errors += 1
                outcome.failures += 1
                continue
            acked += 1
            if not 0 <= order_id < len(orders) or orders[order_id] != args:
                outcome.problems.append(f"acknowledged order {args[0]} missing from intake")
        outcome.acked = acked
        outcome.executions = len(orders) - 1  # the set-up call is not a window call
        outcome.counters.update(
            _network_counters(fixture.cluster),
            shipped=acked,
            network_calls=acked,
            network_acked=acked,
        )

    def teardown(self, fixture: Fixture) -> None:
        fixture.close()


# ---------------------------------------------------------------------------
# batched_writes
# ---------------------------------------------------------------------------


class BatchedWrites:
    """One caller issuing windows of futures: batch 32 x pipeline depth 4."""

    name = "batched_writes"
    repeatable_windows = True
    facade = True
    calls = 16384
    window_calls = 512
    round_size = 128
    drop_probability = 0.05

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(derive_seed(seed, self.name))
        self.inputs = []
        for _ in range(self.calls // self.window_calls):
            shapes = self._shapes(self.window_calls)
            rng.shuffle(shapes)
            for lines, heavy in shapes:
                self.inputs.append(self._order(rng, len(self.inputs), lines, heavy))

    @staticmethod
    def _shapes(count: int) -> List[Tuple[int, bool]]:
        """``(line items, heavy)`` per order of a block, in exact shares.

        Half the orders are bare scalars, two fifths carry one to three small
        line items and the rest carry 8 to 39 nested line items (up to about
        2.6 KB), so every block of ``count`` orders encodes the same amount
        of data whatever the seed.
        """
        small = count * 2 // 5
        heavy = count - count // 2 - small
        return (
            [(0, False)] * (count // 2)
            + [(1 + index % 3, False) for index in range(small)]
            + [(8 + index * 32 // heavy, True) for index in range(heavy)]
        )

    @staticmethod
    def _order(rng: random.Random, index: int, count: int, heavy: bool) -> tuple:
        """One order: scalars plus ``count`` seeded line items."""
        if heavy:
            lines = [
                [
                    f"sku-{rng.randrange(1000)}",
                    rng.randrange(1, 9),
                    [rng.randrange(100) for _ in range(4)],
                ]
                for _ in range(count)
            ]
        else:
            lines = [[f"sku-{rng.randrange(1000)}", rng.randrange(1, 9)] for _ in range(count)]
        return (index, f"sku-{rng.randrange(1000)}", rng.randrange(1, 20), lines)

    def setup(self, policy_hook=None) -> Fixture:
        drops = PatternDrops(derive_seed(self.seed, "drops"), self.drop_probability)
        cluster = bench_cluster(("client", "server"), self.seed, failures=drops)
        session = Session(cluster, node="client")
        policy = (
            ServicePolicy(transport="rmi")
            .with_batching(32)
            .with_pipelining(4)
            .with_retry(max_attempts=8)
        )
        if policy_hook is not None:
            policy = policy_hook(policy)
        intake = OrderIntake()
        service = session.service("intake", policy, impl=intake, node="server")
        service.submit(-1, "sku-0", 1, [])
        return Fixture(cluster, session, service, intake)

    def run(self, fixture: Fixture, inputs: list) -> Outcome:
        clock = fixture.cluster.clock
        service = fixture.service
        submit = service.future.submit
        drain = service.drain
        futures = []
        size = self.round_size
        start = clock.now
        for first in range(0, len(inputs), size):
            futures.extend([submit(*args) for args in inputs[first:first + size]])
            drain()
        outcome = Outcome(calls=len(inputs))
        outcome.sim_elapsed = clock.now - start
        fixture.extra = (inputs, futures)
        return outcome

    def check(self, fixture: Fixture, outcome: Outcome) -> None:
        orders = fixture.server.orders
        acked = attempts = 0
        for args, future in zip(*fixture.extra):
            attempts += future.attempts
            if not future.ok:
                outcome.errors += 1
                outcome.failures += 1
                continue
            acked += 1
            outcome.latencies.append(future.completed_at - future.submitted_at)
            order_id = future.result()
            if not 0 <= order_id < len(orders) or orders[order_id] != args:
                outcome.problems.append(f"acknowledged order {args[0]} missing from intake")
        outcome.acked = acked
        outcome.executions = len(orders) - 1
        outcome.counters.update(
            _network_counters(fixture.cluster),
            shipped=attempts,
            network_calls=len(fixture.extra[1]),
            network_acked=acked,
            batches=fixture.service.scheduler.batches_shipped,
        )

    def teardown(self, fixture: Fixture) -> None:
        fixture.close()


# ---------------------------------------------------------------------------
# open_loop_reads
# ---------------------------------------------------------------------------


class OpenLoopReads:
    """Poisson arrivals on the simulated clock: cached Zipf reads plus feed writes."""

    name = "open_loop_reads"
    #: Every call carries a process-unique call id on the wire, so later
    #: windows send slightly longer messages than earlier ones.
    repeatable_windows = False
    facade = True
    arrivals = 12000
    window_calls = 500
    catalog_shards = 4
    keys_per_shard = 256
    zipf_exponent = 0.8
    write_share = 0.10
    workers = 2
    service_time = 0.0032
    queue_limit = 16
    deadline_s = 0.050
    cache_entries = 32
    #: The fixed ladder of offered rates, as shares of pool capacity.
    ladder = (0.3, 0.5, 0.7, 0.9, 1.1)
    nominal = 0.7

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.capacity = self.workers / self.service_time
        self.schedules = {share: self._schedule(share) for share in self.ladder}
        self.inputs = self.schedules[self.nominal]

    def _schedule(self, share: float) -> List[Tuple[float, str, int, int]]:
        """``(arrival time, member, shard, key)`` for every arrival at one rate.

        Gaps are exponential (a Poisson stream).  Each block of
        ``window_calls`` arrivals holds exactly ``write_share`` writes, and
        its keys are drawn by stratified sampling of the Zipf distribution,
        so every block asks for the same mix of keys in a seeded order and a
        timed window does the same work whatever the seed.
        """
        rng = random.Random(derive_seed(self.seed, f"{self.name}:{share}"))
        shards = self.catalog_shards + 1  # the feed is the last shard
        rate = share * self.capacity
        writes_per_block = round(self.window_calls * self.write_share)
        schedule = []
        now = 0.0
        for _ in range(self.arrivals // self.window_calls):
            reads = _stratified_zipf(
                rng,
                shards * self.keys_per_shard,
                self.window_calls - writes_per_block,
                self.zipf_exponent,
            )
            writes = _stratified_zipf(
                rng, self.keys_per_shard, writes_per_block, self.zipf_exponent
            )
            block = [("get", rank % shards, rank // shards) for rank in reads]
            block += [("publish", self.catalog_shards, key) for key in writes]
            rng.shuffle(block)
            for member, shard, key in block:
                now += rng.expovariate(rate)
                schedule.append((now, member, shard, key))
        return schedule

    def setup(self, policy_hook=None) -> Fixture:
        cluster = bench_cluster(("client", "server"), self.seed)
        pool = cluster.set_service_pool(
            "server",
            workers=self.workers,
            queue_limit=self.queue_limit,
            service_time=self.service_time,
        )
        session = Session(cluster, node="client")
        policy = (
            ServicePolicy(transport="rmi", batch_window=1, pipeline_depth=1_000_000)
            .with_retry(RetryPolicy(max_attempts=3, initial_backoff=self.service_time))
            .with_middleware(DeadlineInterceptor(self.deadline_s), MetricsInterceptor())
            .with_caching(CachePolicy(max_entries=self.cache_entries, mode="invalidate"))
        )
        if policy_hook is not None:
            policy = policy_hook(policy)
        shards = [CatalogShard(index) for index in range(self.catalog_shards)]
        feed = FeedShard(self.keys_per_shard)
        services = [
            session.service(f"shard-{index}", policy, impl=shard, node="server")
            for index, shard in enumerate(shards)
        ]
        services.append(session.service("feed", policy, impl=feed, node="server"))
        services[0].get(0)
        session.drain()
        return Fixture(cluster, session, services, feed, extra={"pool": pool})

    def run(self, fixture: Fixture, schedule: list) -> Outcome:
        cluster = fixture.cluster
        clock = cluster.clock
        events = cluster.network.events
        services = fixture.service
        start = clock.now
        done: List[Optional[Tuple[float, float, Any]]] = [None] * len(schedule)
        late = [0.0]

        def arrive(index: int) -> None:
            due, member, shard, key = schedule[index]
            issued = clock.now
            due += start
            if issued - due > late[0]:
                late[0] = issued - due

            def settle(settled: Any) -> None:
                done[index] = (issued, clock.now - due, settled)

            services[shard].future(member, key).add_done_callback(settle)

        for index, (due, _, _, _) in enumerate(schedule):
            events.schedule_at(start + due, lambda index=index: arrive(index))
        events.run_until_idle()
        fixture.session.drain()
        outcome = Outcome(calls=len(schedule))
        outcome.sim_elapsed = clock.now - start
        fixture.extra.update(done=done, late=late[0], start=start, schedule=schedule)
        return outcome

    def check(self, fixture: Fixture, outcome: Outcome) -> None:
        extra = fixture.extra
        start = extra["start"]
        schedule = extra["schedule"]
        refused = failed = late_calls = completed = 0
        acked_writes: List[Tuple[float, int, int]] = []
        feed_reads: List[Tuple[float, int, int]] = []
        shipped = network_calls = network_acked = 0
        for (due, member, shard, key), settled in zip(schedule, extra["done"]):
            if settled is None:
                outcome.problems.append(f"arrival at {due:.6f}s never settled")
                continue
            issued, latency, future = settled
            if future.attempts:
                shipped += future.attempts
                network_calls += 1
                network_acked += future.ok
            if not future.ok:
                if isinstance(future.exception(), AdmissionError):
                    refused += 1
                else:
                    failed += 1
                continue
            completed += 1
            outcome.latencies.append(latency)
            if latency > self.deadline_s:
                late_calls += 1
            value = future.result()
            if member == "publish":
                acked_writes.append((start + due + latency, key, value))
            elif shard == self.catalog_shards:
                feed_reads.append((issued, key, value))
            elif value != CatalogShard(shard).get(key):
                outcome.problems.append(f"shard {shard} key {key} read {value!r}")
        if completed + refused + failed != len(schedule):
            outcome.problems.append("arrivals != completed + refused + failed")
        outcome.problems.extend(self._stale_reads(acked_writes, feed_reads))
        outcome.failures = refused + failed
        outcome.errors = outcome.failures + late_calls
        outcome.acked = len(acked_writes)
        outcome.executions = fixture.server.publishes
        latencies = outcome.latencies
        quarter = len(latencies) // 4
        pool = extra["pool"]
        caches = [service.cache for service in fixture.service]
        outcome.counters.update(
            _network_counters(fixture.cluster),
            shipped=shipped,
            network_calls=network_calls,
            network_acked=network_acked,
            batches=fixture.service[0].scheduler.batches_shipped,
            refused=refused,
            failed=failed,
            past_deadline=late_calls,
            generator_late_s=extra["late"],
            middle_mean=_mean(latencies[quarter:2 * quarter]),
            last_mean=_mean(latencies[-quarter:]),
            hits=sum(cache.hits for cache in caches),
            lookups=sum(cache.hits + cache.misses for cache in caches),
            invalidated=sum(cache.entries_invalidated for cache in caches),
            writes=sum(1 for _, member, _, _ in schedule if member == "publish"),
            pool_served=pool.served,
            pool_rejected=pool.rejected,
            pool_admitted=pool.admitted,
        )

    @staticmethod
    def _stale_reads(
        acked_writes: List[Tuple[float, int, int]], feed_reads: List[Tuple[float, int, int]]
    ) -> List[str]:
        """Reads that returned a version older than a write acked before they began."""
        problems = []
        acked_writes.sort()
        feed_reads.sort()
        newest: Dict[int, int] = {}
        cursor = 0
        for issued, key, version in feed_reads:
            while cursor < len(acked_writes) and acked_writes[cursor][0] < issued:
                _, written_key, written = acked_writes[cursor]
                newest[written_key] = max(newest.get(written_key, 0), written)
                cursor += 1
            if version < newest.get(key, 0):
                problems.append(
                    f"stale read of feed key {key}: version {version} after "
                    f"version {newest[key]} was acknowledged"
                )
        return problems

    def ladder_point(self, share: float, outcome: Optional[Outcome] = None) -> Dict[str, Any]:
        """SLO figures of one rung of the offered-rate ladder.

        ``outcome`` is the rung's already-checked run when the caller has one
        (the nominal rung is the simulated pass itself); otherwise the rung
        is run here on a fresh fixture.
        """
        checked = outcome is not None
        if outcome is None:
            fixture = self.setup()
            try:
                outcome = self.run(fixture, self.schedules[share])
                self.check(fixture, outcome)
            finally:
                self.teardown(fixture)
        p99 = percentile(sorted(outcome.latencies), 0.99)
        error_rate = outcome.errors / outcome.calls
        counters = outcome.counters
        backlog_grows = counters["last_mean"] > 2.0 * counters["middle_mean"] + 0.001
        return {
            "rate": share * self.capacity,
            "sim_ms_p99": p99 * 1000.0,
            "error_rate": error_rate,
            "backlog_grows": backlog_grows,
            "meets_slo": p99 <= SLO_P99_S and error_rate <= 0.01 and not backlog_grows,
            "problems": [] if checked else outcome.problems,
        }

    def teardown(self, fixture: Fixture) -> None:
        fixture.close()


def _network_counters(cluster: Any) -> Dict[str, float]:
    """The simulated network's totals, plus zeroed call-shipping counters."""
    metrics = cluster.metrics
    return {
        "messages": metrics.total_messages,
        "drops": metrics.total_drops,
        "link_queue_s": metrics.total_queue_delay,
        "shipped": 0,
        "network_calls": 0,
        "network_acked": 0,
        "batches": 0,
    }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# transformed_app
# ---------------------------------------------------------------------------


class TransformedApp:
    """The paper's path: transform the orders classes, move Catalog while running."""

    name = "transformed_app"
    repeatable_windows = True
    facade = False
    calls = 1536
    window_calls = 384
    phase_calls = 128
    products = 40
    #: The boundary moves applied in turn, one every ``phase_calls`` calls.
    moves = (("make_remote", "server-a"), ("move", "server-b"), ("make_local", None))

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(derive_seed(seed, self.name))
        self.stock = [rng.randrange(20, 60) for _ in range(self.products)]
        self.prices = [rng.randrange(5, 500) for _ in range(self.products)]
        self.inputs = [
            ("buy", f"sku-{rng.randrange(self.products)}", rng.randrange(1, 4))
            if rng.random() < 0.3
            else ("price_of", f"sku-{rng.randrange(self.products + 5)}", 0)
            for _ in range(self.calls)
        ]
        self._references: Dict[int, dict] = {}

    def _populate(self, catalog: Any) -> None:
        for index, (price, stock) in enumerate(zip(self.prices, self.stock)):
            catalog.add_product(f"sku-{index}", price, stock)

    def _reference_run(self, inputs: list) -> dict:
        """The same calls on the original, untransformed classes (memoized)."""
        if len(inputs) in self._references:
            return self._references[len(inputs)]
        catalog, orders = Catalog(), OrderStore()
        shopper = CustomerSession("bench", catalog, orders)
        self._populate(catalog)
        catalog.product_count()
        results = [
            shopper.buy(sku, quantity) if op == "buy" else catalog.price_of(sku)
            for op, sku, quantity in inputs
        ]
        reference = {
            "results": results,
            "products": catalog.products,
            "lookups": catalog.lookups,
            "orders": orders.orders,
        }
        self._references[len(inputs)] = reference
        return reference

    def setup(self, policy_hook=None) -> Fixture:
        application = ApplicationTransformer(all_local_policy(dynamic=True)).transform(
            [Catalog, OrderStore, CustomerSession]
        )
        cluster = bench_cluster(("client", "server-a", "server-b"), self.seed)
        application.deploy(cluster, default_node="client")
        controller = DistributionController(application, cluster)
        catalog = application.new("Catalog")
        orders = application.new("OrderStore")
        shopper = application.new("CustomerSession", "bench", catalog, orders)
        self._populate(catalog)
        catalog.product_count()
        return Fixture(
            cluster,
            server=(catalog, orders, shopper),
            extra={"application": application, "controller": controller},
        )

    def run(self, fixture: Fixture, inputs: list) -> Outcome:
        clock = fixture.cluster.clock
        controller = fixture.extra["controller"]
        catalog, _, shopper = fixture.server
        buy = shopper.buy
        price_of = catalog.price_of
        moves = self.moves
        phase = self.phase_calls
        results = []
        outcome = Outcome(calls=len(inputs))
        latencies = outcome.latencies
        start = clock.now
        for index, (op, sku, quantity) in enumerate(inputs):
            if index % phase == 0:
                operation, node = moves[(index // phase) % len(moves)]
                if node is None:
                    getattr(controller, operation)(catalog)
                else:
                    getattr(controller, operation)(catalog, node)
            sent = clock.now
            results.append(buy(sku, quantity) if op == "buy" else price_of(sku))
            latencies.append(clock.now - sent)
        outcome.sim_elapsed = clock.now - start
        fixture.extra["inputs"] = inputs
        fixture.extra["results"] = results
        return outcome

    def check(self, fixture: Fixture, outcome: Outcome) -> None:
        catalog, orders, _ = fixture.server
        inputs = fixture.extra["inputs"]
        reference = self._reference_run(inputs)
        results = fixture.extra["results"]
        for index, (got, want) in enumerate(zip(results, reference["results"])):
            if got != want:
                outcome.problems.append(f"call {index} returned {got!r}, reference {want!r}")
                break
        if catalog.get_products() != reference["products"]:
            outcome.problems.append("catalog stock diverged from the reference run")
        if catalog.get_lookups() != reference["lookups"]:
            outcome.problems.append("catalog lookup count diverged from the reference run")
        placed = orders.get_orders()
        if placed != reference["orders"]:
            outcome.problems.append("order store diverged from the reference run")
        acked = sum(1 for (op, _, _), result in zip(inputs, results) if op == "buy" and result >= 0)
        outcome.acked = acked
        outcome.executions = len(placed)
        outcome.counters.update(
            _network_counters(fixture.cluster),
            moves=len(fixture.extra["controller"].changes),
        )

    def teardown(self, fixture: Fixture) -> None:
        fixture.close()


WORKLOADS = {
    workload.name: workload
    for workload in (SyncSmall, BatchedWrites, OpenLoopReads, TransformedApp)
}
