"""Workload generators for capacity experiments.

The paper's measurements are closed-loop (one client, back-to-back calls).
Downstream users also want open-loop and multi-client workloads, so this
module provides both:

- :class:`ClosedLoopClient` — N clients, each issuing the next call as
  soon as the previous returns (the Figure 4.5-4.7 pattern, generalized);
- :class:`OpenLoopGenerator` — open-loop arrivals (fixed, Poisson, or
  heavy-tailed Pareto interarrivals) at a configurable offered load,
  each call in its own thread (measures queueing behaviour);
- :func:`run_load_sweep` — throughput and latency of a troupe across a
  range of offered loads;
- :func:`capacity_builder` — the sharded capacity workload: machine
  cells each hosting an echo troupe, client sessions with Zipf key
  popularity and heavy-tailed arrivals, ownership-gated so the same
  builder drives every shard of a :func:`repro.sim.sharded.run_sharded`
  world (and its single-process reference) identically.

All randomness is drawn from seed-derived :class:`RandomStream`\\ s —
per session, never shared — so traffic patterns are deterministic and
independent of shard layout.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import List, Optional

from repro.core.runtime import ExportedModule, RuntimeConfig, TroupeRuntime
from repro.core.troupe import TroupeDescriptor
from repro.harness import World
from repro.pairedmsg.endpoint import PairedMessageConfig
from repro.rpc.threads import ThreadId
from repro.sim.kernel import Simulator, Sleep
from repro.sim.rng import RandomStream


#: supported interarrival processes for open-loop generators.
ARRIVAL_KINDS = ("fixed", "poisson", "pareto")


def interarrival_ms(kind: str, rng: RandomStream, rate: float,
                    pareto_alpha: float = 1.5) -> float:
    """One interarrival gap (ms) for an offered load of ``rate``
    calls/second.

    - ``fixed``: the deterministic mean gap;
    - ``poisson``: exponential gaps (memoryless arrivals);
    - ``pareto``: heavy-tailed gaps via inverse-CDF sampling, scaled so
      the mean matches ``rate`` (finite for ``pareto_alpha > 1``) —
      bursts of close arrivals separated by long quiet stretches, the
      shape real user traffic has.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    mean = 1000.0 / rate
    if kind == "fixed":
        return mean
    if kind == "poisson":
        return rng.expovariate(rate / 1000.0)
    if kind == "pareto":
        if pareto_alpha <= 1.0:
            raise ValueError("pareto_alpha must exceed 1 for a finite "
                             "mean (got %r)" % pareto_alpha)
        scale = mean * (pareto_alpha - 1.0) / pareto_alpha
        u = 1.0 - rng.random()          # in (0, 1]: never divides by zero
        return scale / u ** (1.0 / pareto_alpha)
    raise ValueError("unknown arrival kind %r (expected one of %s)"
                     % (kind, ", ".join(ARRIVAL_KINDS)))


class ZipfSampler:
    """Zipf(s) popularity over ranks ``0..n-1`` (rank 0 most popular),
    sampled by bisecting a precomputed CDF — O(log n) per draw, no
    rejection, deterministic under :class:`RandomStream`."""

    def __init__(self, n: int, s: float = 1.1):
        if n < 1:
            raise ValueError("need at least one rank")
        self.n = n
        self.s = s
        cdf = []
        total = 0.0
        for rank in range(1, n + 1):
            total += 1.0 / rank ** s
            cdf.append(total)
        self._cdf = cdf
        self._total = total

    def sample(self, rng: RandomStream) -> int:
        return bisect.bisect_left(self._cdf, rng.random() * self._total)


@dataclasses.dataclass
class WorkloadResult:
    """Aggregate outcome of a workload run."""

    offered_rate: float          # calls/second offered (0 = closed loop)
    completed: int
    duration_ms: float
    latencies: List[float]

    @property
    def throughput(self) -> float:
        """Completed calls per second of virtual time."""
        if self.duration_ms <= 0:
            return 0.0
        return 1000.0 * self.completed / self.duration_ms

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def percentile_latency(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]


class ClosedLoopClient:
    """N independent clients issuing back-to-back calls."""

    def __init__(self, world: World, troupe: TroupeDescriptor,
                 clients: int = 1, calls_per_client: int = 20,
                 procedure: int = 0, payload: bytes = b"w"):
        self.world = world
        self.troupe = troupe
        self.clients = clients
        self.calls_per_client = calls_per_client
        self.procedure = procedure
        self.payload = payload

    def run(self) -> WorkloadResult:
        world = self.world
        latencies: List[float] = []
        done: List[int] = []

        def client_body(runtime):
            def body():
                for _ in range(self.calls_per_client):
                    start = world.sim.now
                    yield from runtime.call_troupe(
                        self.troupe, 0, self.procedure, self.payload)
                    latencies.append(world.sim.now - start)
                done.append(1)
            return body

        start = world.sim.now
        for _ in range(self.clients):
            world.spawn(client_body(world.make_client())())
        world.sim.run(stop_when=lambda: len(done) == self.clients)
        return WorkloadResult(0.0, len(latencies),
                              world.sim.now - start, latencies)


class OpenLoopGenerator:
    """Open-loop arrivals at ``rate`` calls/second, one thread per call.

    ``arrival`` picks the interarrival process (:data:`ARRIVAL_KINDS`);
    the default is the historical Poisson behaviour."""

    def __init__(self, world: World, troupe: TroupeDescriptor,
                 rate: float, total_calls: int = 50,
                 procedure: int = 0, payload: bytes = b"w", seed: int = 0,
                 arrival: str = "poisson", pareto_alpha: float = 1.5):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if arrival not in ARRIVAL_KINDS:
            raise ValueError("unknown arrival kind %r (expected one of %s)"
                             % (arrival, ", ".join(ARRIVAL_KINDS)))
        self.world = world
        self.troupe = troupe
        self.rate = rate
        self.total_calls = total_calls
        self.procedure = procedure
        self.payload = payload
        self.arrival = arrival
        self.pareto_alpha = pareto_alpha
        self.rng = RandomStream(seed, "open-loop")

    def run(self) -> WorkloadResult:
        world = self.world
        latencies: List[float] = []
        finished: List[int] = []
        client = world.make_client()
        serial = [0]

        def one_call():
            # Each arrival runs on its own logical thread so calls overlap.
            serial[0] += 1
            thread_id = ThreadId("open-loop", serial[0])

            def body():
                start = world.sim.now
                yield from client.call_troupe(
                    self.troupe, 0, self.procedure, self.payload,
                    thread_id=thread_id)
                latencies.append(world.sim.now - start)
                finished.append(1)
            return body

        def arrivals():
            for _ in range(self.total_calls):
                world.spawn(one_call()())
                yield Sleep(interarrival_ms(self.arrival, self.rng,
                                            self.rate, self.pareto_alpha))

        start = world.sim.now
        world.spawn(arrivals())
        world.sim.run(
            stop_when=lambda: len(finished) == self.total_calls)
        return WorkloadResult(self.rate, len(latencies),
                              world.sim.now - start, latencies)


def echo_troupe(world: World, degree: int,
                service_ms: float = 2.0) -> TroupeDescriptor:
    """A troupe whose procedure costs ``service_ms`` of user CPU."""
    def factory():
        def serve(ctx, args):
            yield from ctx.compute(service_ms)
            return b"ok"
        return ExportedModule("load-echo", {0: serve})

    troupe, _ = world.make_troupe("load-echo", factory, degree=degree)
    return troupe


def run_load_sweep(rates: List[float], degree: int = 3,
                   total_calls: int = 40, seed: int = 0,
                   arrival: str = "poisson", pareto_alpha: float = 1.5):
    """Open-loop throughput/latency of a troupe across offered loads.

    ``arrival`` selects the interarrival process (``fixed``, ``poisson``
    or heavy-tailed ``pareto``); gaps are seed-derived either way.
    Returns a list of WorkloadResults, one per offered rate.
    """
    results = []
    for rate in rates:
        paired = PairedMessageConfig(retransmit_interval=800.0,
                                     probe_interval=2000.0,
                                     crash_timeout=20000.0)
        world = World(machines=degree + 1, seed=seed,
                      runtime_config=RuntimeConfig(execution="parallel",
                                                   paired=paired))
        troupe = echo_troupe(world, degree)
        generator = OpenLoopGenerator(world, troupe, rate,
                                      total_calls=total_calls, seed=seed,
                                      arrival=arrival,
                                      pareto_alpha=pareto_alpha)
        results.append(generator.run())
    return results


# ---------------------------------------------------------------------------
# the sharded capacity workload
# ---------------------------------------------------------------------------

def capacity_builder(*, cells: int, sessions: int,
                     calls_per_session: int = 4, rate: float = 20.0,
                     degree: int = 3, arrival: str = "pareto",
                     pareto_alpha: float = 1.5, zipf_s: float = 1.1,
                     service_ms: float = 2.0, payload: bytes = b"w",
                     seed: int = 0):
    """A ``builder(world)`` for :func:`repro.sim.sharded.run_sharded`.

    The world's machines split into ``cells`` equal contiguous blocks;
    each cell hosts one ``degree``-member echo troupe on its first
    machines.  ``sessions`` client sessions are laid out round-robin
    over all machines; each session issues ``calls_per_session``
    sequential calls, picking a target cell by Zipf(``zipf_s``)
    popularity and sleeping a seed-derived heavy-tailed gap between
    calls — open-loop across sessions, closed within one.

    Everything the builder does is a pure function of the world's
    machine list and ``seed``: troupes and the registry are built in
    every shard identically (ghost replicas are inert), while sessions
    are ownership-gated so each runs on exactly one shard.  Traffic is
    therefore byte-identical for any shard count; the striped partition
    puts every cell's members on different shards, so the Zipf-popular
    cells load all of them."""
    if cells < 1:
        raise ValueError("need at least one cell")

    # Queueing near saturation must read as latency, not as member
    # death: the same load-tolerant paired-message profile the load
    # sweep uses (retransmits and crash verdicts far beyond the knee).
    tolerant = RuntimeConfig(
        execution="parallel",
        paired=PairedMessageConfig(retransmit_interval=800.0,
                                   probe_interval=2000.0,
                                   crash_timeout=20000.0))

    def builder(world: World) -> None:
        names = [m.name for m in world.machines]
        if len(names) % cells:
            raise ValueError("%d machines do not split into %d cells"
                             % (len(names), cells))
        cell_size = len(names) // cells
        if degree > cell_size:
            raise ValueError("cell size %d cannot host a %d-member troupe"
                             % (cell_size, degree))

        def factory():
            def serve(ctx, args):
                yield from ctx.compute(service_ms)
                return b"ok"
            return ExportedModule("cell-echo", {0: serve})

        # Troupes first — in every shard, in the same order, so ports,
        # addresses and troupe IDs agree replica-for-replica.
        troupes = []
        for cell in range(cells):
            block = names[cell * cell_size:(cell + 1) * cell_size]
            troupe, _ = world.make_troupe("cell-%d" % cell, factory,
                                          degree=degree,
                                          on_machines=block[:degree],
                                          runtime_config=tolerant)
            troupes.append(troupe)
        zipf = ZipfSampler(cells, zipf_s)
        world.counters.setdefault("calls_completed", 0)
        world.counters.setdefault("calls_issued", 0)
        world.samples.setdefault("latency_ms", [])

        def session(index: int, home: str):
            client = world.make_client(home, runtime_config=tolerant)
            rng = RandomStream(seed, "session-%d" % index)

            def body():
                # Stagger the start so a million sessions do not arrive
                # as one t=0 batch.
                yield Sleep(rng.uniform(0.0, 1000.0 / rate))
                for call in range(calls_per_session):
                    cell = zipf.sample(rng)
                    world.counters["calls_issued"] += 1
                    start = world.sim.now
                    yield from client.call_troupe(
                        troupes[cell], 0, 0, payload,
                        thread_id=ThreadId("sess-%d" % index, call))
                    world.samples["latency_ms"].append(
                        world.sim.now - start)
                    world.counters["calls_completed"] += 1
                    yield Sleep(interarrival_ms(arrival, rng, rate,
                                                pareto_alpha))
            return body()

        # Sessions after every troupe exists; creation order within one
        # home machine is the same subsequence on its owning shard as in
        # the single-process run, so client ports agree too.
        for index in range(sessions):
            home = names[index % len(names)]
            if not world.owns(home):
                continue
            world.spawn(session(index, home), name="sess-%d" % index)

    return builder
