"""Shared pieces of the benchmark: seeded inputs, the simulated LAN, statistics.

Everything random in a run is drawn here from the workload seed, so the
program under test only ever receives generated inputs: the drop pattern, the
per-link jitter stream, keys, payload sizes and arrival times.
"""

from __future__ import annotations

import bisect
import math
import random
import resource
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import Cluster
from repro.network.failures import FailureModel
from repro.network.simnet import LinkConfig, SimulatedNetwork

#: A 100 Mbit/s switched LAN with up to 0.2 ms of per-hop jitter.  The jitter
#: stream is seeded from the workload seed, so simulated latencies differ
#: between seeds and repeat exactly at one seed.
BENCH_LINK = LinkConfig(latency=0.0005, bandwidth=12_500_000.0, jitter=0.0002)

#: The latency objective of every workload: p99 at or under 20 simulated ms.
SLO_P99_S = 0.020


def derive_seed(seed: int, stream: str) -> int:
    """An independent, reproducible sub-seed for one named random stream."""
    return random.Random(f"{seed}:{stream}").getrandbits(48)


class PatternDrops(FailureModel):
    """Message loss replayed from a drop pattern generated by the benchmark.

    The pattern drops exactly one message in every block of
    ``round(1 / probability)`` at a seeded position, so every run loses the
    same share of messages and only which messages are lost depends on the
    seed.  Every message the network asks about consumes the next entry.
    """

    #: Blocks in the pattern; it repeats after ``BLOCKS / probability``
    #: messages, far more than any run sends.
    BLOCKS = 4096

    def __init__(self, seed: int, probability: float) -> None:
        super().__init__(drop_probability=probability, seed=0)
        rng = random.Random(seed)
        block = round(1.0 / probability)
        self._pattern = []
        for _ in range(self.BLOCKS):
            lost = rng.randrange(block)
            self._pattern.extend(position == lost for position in range(block))
        self._cursor = 0

    def should_drop(self, source: str, destination: str) -> bool:
        drop = self._pattern[self._cursor]
        self._cursor = (self._cursor + 1) % len(self._pattern)
        return drop


def bench_cluster(
    nodes: Sequence[str], seed: int, failures: Optional[FailureModel] = None
) -> Cluster:
    """A cluster on the benchmark LAN whose jitter stream comes from ``seed``."""
    network = SimulatedNetwork(
        default_link=BENCH_LINK,
        failures=failures,
        seed=derive_seed(seed, "jitter"),
    )
    return Cluster(tuple(nodes), network=network)


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def median(values: Sequence[float]) -> float:
    """Median of ``values`` (0.0 when empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one timing window did, in simulated terms.

    ``latencies`` holds one simulated latency (seconds) per call that
    completed successfully; ``errors`` counts calls that failed, were
    refused or finished past their deadline, ``failures`` only the first two
    (a late call still completed).  ``executions`` and ``acked`` count
    server-side executions of writes and the writes acknowledged to the
    client.
    """

    calls: int = 0
    latencies: List[float] = field(default_factory=list)
    errors: int = 0
    failures: int = 0
    sim_elapsed: float = 0.0
    executions: int = 0
    acked: int = 0
    #: Workload-specific counters for the traced run's per-layer figures.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Correctness problems found by the workload's own checks.
    problems: List[str] = field(default_factory=list)

    def sim_metrics(self) -> Dict[str, float]:
        """The simulated end-to-end figures of this window (exact per seed)."""
        ordered = sorted(self.latencies)
        elapsed = self.sim_elapsed
        within_slo = bisect.bisect_right(ordered, SLO_P99_S)
        return {
            "sim_calls_per_s": len(ordered) / elapsed if elapsed > 0 else 0.0,
            "sim_ms_p50": percentile(ordered, 0.50) * 1000.0,
            "sim_ms_p99": percentile(ordered, 0.99) * 1000.0,
            "slo_goodput": within_slo / elapsed if elapsed > 0 else 0.0,
            "success_rate": (self.calls - self.errors) / self.calls if self.calls else 0.0,
            "exec_per_ack": self.executions / self.acked if self.acked else 0.0,
        }
