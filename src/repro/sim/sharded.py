"""Sharded parallel simulation: one world, many kernels.

A single :class:`~repro.harness.World` steps every host through one
event loop.  This module partitions a world's hosts across *shards* —
each shard a full :class:`~repro.sim.kernel.Simulator` kernel, optionally
in its own OS process — and synchronizes them with the classic
conservative-lookahead (Chandy–Misra–Bryant) protocol:

- **Lookahead** is the wire's minimum propagation delay,
  ``NetworkConfig.latency``: every cross-host packet sent at virtual
  time ``u`` is delivered no earlier than ``u + latency``.
- **Window rule**: with ``m = min over shards of the next pending event
  (or incoming delivery) time``, every shard may safely process all
  events strictly before ``bound = m + latency`` — no message generated
  inside the window can land inside it.
- **Null messages**: each round's bound broadcast carries every shard's
  clock advance; the bounded, time-stamped envelope exchange at the
  barrier carries the actual datagrams.

Determinism — the whole point
-----------------------------

A sharded run must be *byte-identical in behaviour* to the same seed's
single-process run, for any shard count.  Three design rules make the
canonical packet-event digest (:class:`PacketDigest`) provably equal:

1. **Every shard builds the entire world** (same construction order,
   same addresses, ports and troupe IDs) but *owns* only its block of
   hosts.  Non-owned ("ghost") replicas are inert: all server machinery
   is event-driven, and workload sessions are ownership-gated
   (:meth:`World.spawn_on`), so a ghost never runs, sends, or draws.
2. **Per-link RNG streams**: :class:`ShardNetwork` replaces the global
   network stream with one ``RandomStream(seed, "link:src>dst")`` per
   directed host pair.  All sends on a link originate on the source
   host's owning shard, so each stream's draw sequence depends only on
   that link's packet order — not on how sends interleave across hosts.
   (The global stream would entangle every host's timing with every
   other's, which no partition could reproduce.)  ``shards=1`` uses the
   same per-link streams and *is* the single-process reference.
3. **Source-authoritative transmit, destination-authoritative deliver**:
   loss/duplication/fault draws and the transit-time draw happen on the
   sending shard (where the source host and installed faults live);
   destination-down / partition-in-flight / port checks happen on the
   delivering shard — the same split of responsibilities the
   single-process :class:`~repro.net.network.Network` has.

Exact timestamp ties between a cross-shard delivery and an unrelated
local event may dispatch in a different order than the single-process
seq-number interleaving.  Distinct-time events cannot influence each
other across hosts (latency > 0), and with the default ``jitter > 0``
exact cross-host float-time ties have measure zero — the digest is
multiset-canonical over (time, kind, src, dst, payload), so same-time
reorderings of independent events do not change it anyway.

Two coordinator modes share one window algorithm: ``inproc`` steps the
shard kernels round-robin in this process (used by the deterministic
CI-gated tables and the tests), ``process`` forks one OS process per
shard and exchanges envelope batches over pipes (wall-clock speedup on
multi-core hosts; byte-identical results).
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
import time as _time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.runtime import RuntimeConfig
from repro.harness import World
from repro.net.addresses import ProcessAddress
from repro.net.network import Datagram, Network, NetworkConfig
from repro.sim.rng import RandomStream

#: Troupe IDs in every shard replica are allocated from this base so the
#: replicas agree; high enough to never collide with the process-global
#: allocator used by ordinary worlds in the same process.
SHARD_TROUPE_ID_BASE = 1 << 32

_DIGEST_MASK = (1 << 256) - 1


# ---------------------------------------------------------------------------
# host partitioning
# ---------------------------------------------------------------------------

def partition_hosts(names: Sequence[str], shards: int) -> List[List[str]]:
    """Split ``names`` into ``shards`` contiguous blocks whose sizes
    differ by at most one (the first ``len % shards`` blocks get the
    extra host).  Contiguity matters: workload builders lay troupes out
    over contiguous machine cells, so aligned shards keep most traffic
    intra-shard."""
    if shards < 1:
        raise ValueError("shards must be >= 1 (got %d)" % shards)
    if shards > len(names):
        raise ValueError("cannot split %d hosts across %d shards"
                         % (len(names), shards))
    base, extra = divmod(len(names), shards)
    blocks = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        blocks.append(list(names[start:start + size]))
        start += size
    return blocks


def shard_of_host(names: Sequence[str], shards: int) -> Dict[str, int]:
    """host name -> owning shard index, for the same partition."""
    owner = {}
    for index, block in enumerate(partition_hosts(names, shards)):
        for name in block:
            owner[name] = index
    return owner


# ---------------------------------------------------------------------------
# cross-shard envelopes and their wire codec
# ---------------------------------------------------------------------------

class Envelope(tuple):
    """A datagram crossing a shard boundary: the delivery time computed
    on the source shard plus the unmodified wire payload."""

    __slots__ = ()

    def __new__(cls, deliver_at: float, src: ProcessAddress,
                dst: ProcessAddress, payload: bytes):
        return tuple.__new__(cls, (deliver_at, src, dst, payload))

    deliver_at = property(lambda self: self[0])
    src = property(lambda self: self[1])
    dst = property(lambda self: self[2])
    payload = property(lambda self: self[3])


#: record header: deliver_at, src host len, src port, dst host len,
#: dst port, payload len.
_ENV_HEADER = struct.Struct("!dHIHII")


def encode_envelope(env: Envelope) -> bytes:
    """One length-delimited record.  The payload rides verbatim — it is
    already the zero-copy wire encoding the endpoints produced; the
    codec frames it, it never re-serializes it."""
    src_host = env[1].host.encode("utf-8")
    dst_host = env[2].host.encode("utf-8")
    payload = env[3]
    return b"".join((
        _ENV_HEADER.pack(env[0], len(src_host), env[1].port,
                         len(dst_host), env[2].port, len(payload)),
        src_host, dst_host, payload))


def encode_envelopes(envelopes: Sequence[Envelope]) -> bytes:
    """A batch: concatenated records (the per-window pipe message)."""
    return b"".join(encode_envelope(env) for env in envelopes)


def decode_envelopes(blob: bytes) -> List[Envelope]:
    """Decode a batch.  Host names and payloads are sliced out of one
    memoryview over the blob; payloads are materialized as bytes once
    (the pipe transfer already copied them into this buffer)."""
    view = memoryview(blob)
    offset = 0
    out = []
    header = _ENV_HEADER
    size = header.size
    while offset < len(blob):
        deliver_at, src_len, src_port, dst_len, dst_port, pay_len = \
            header.unpack_from(view, offset)
        offset += size
        src_host = str(view[offset:offset + src_len], "utf-8")
        offset += src_len
        dst_host = str(view[offset:offset + dst_len], "utf-8")
        offset += dst_len
        payload = bytes(view[offset:offset + pay_len])
        offset += pay_len
        out.append(Envelope(deliver_at, ProcessAddress(src_host, src_port),
                            ProcessAddress(dst_host, dst_port), payload))
    return out


# ---------------------------------------------------------------------------
# the canonical packet-event digest
# ---------------------------------------------------------------------------

class PacketDigest:
    """Order-insensitive canonical digest over ``net.*`` bus events.

    Each event canonicalizes to one line; the digest is the sum of the
    lines' sha256 values mod 2**256 — commutative, so shard partials
    merge without shipping the lines, and equal event *multisets* give
    equal digests regardless of same-timestamp dispatch order.  Process
    names are deliberately absent (kernel-local spawn counters differ
    between sharded and single-process runs); payloads enter by hash."""

    def __init__(self, sim):
        self._bus = sim.bus
        self._sub = sim.bus.subscribe(self._on_event, "net.")
        self._sum = 0
        self.events = 0

    def _on_event(self, event) -> None:
        kind = event.kind
        if kind == "net.send":
            payload = event.payload
            extra = "%d:%s" % (len(payload), hashlib.sha256(
                bytes(payload)).hexdigest()[:16])
        elif kind == "net.deliver":
            extra = str(event.size)
        elif kind == "net.drop":
            extra = event.reason
        else:
            extra = ""
        line = "%r %s %s>%s %s" % (event.t, kind, event.src, event.dst,
                                   extra)
        self._sum = (self._sum + int.from_bytes(
            hashlib.sha256(line.encode("utf-8")).digest(), "big")) \
            & _DIGEST_MASK
        self.events += 1

    def close(self) -> None:
        self._bus.unsubscribe(self._sub)

    @property
    def partial(self) -> int:
        """The raw running sum, for cross-process merging."""
        return self._sum

    def digest(self) -> str:
        return "%064x" % self._sum


def merge_digests(partials: Sequence[int]) -> str:
    return "%064x" % (sum(partials) & _DIGEST_MASK)


# ---------------------------------------------------------------------------
# the sharded wire
# ---------------------------------------------------------------------------

class ShardNetwork(Network):
    """A :class:`Network` owning a subset of its hosts.

    Draws come from per-link RNG streams (see the module docstring);
    datagrams for non-owned destinations leave through :attr:`outbox`
    as time-stamped envelopes instead of being scheduled locally.
    ``owned=None`` owns everything — that configuration is the
    single-process reference run."""

    def __init__(self, sim, seed: int = 0,
                 config: Optional[NetworkConfig] = None,
                 owned: Optional[frozenset] = None):
        super().__init__(sim, seed=seed, config=config)
        if self.config.latency <= 0.0:
            raise ValueError(
                "sharded simulation needs positive link latency for "
                "lookahead (got %r)" % self.config.latency)
        self.owned = owned
        self.outbox: List[Envelope] = []
        self.cross_shard_sent = 0
        self.cross_shard_received = 0
        self._seed = seed
        self._link_rngs: Dict[Tuple[str, str], RandomStream] = {}

    def _link_rng(self, src: str, dst: str) -> RandomStream:
        key = (src, dst)
        rng = self._link_rngs.get(key)
        if rng is None:
            rng = RandomStream(self._seed, "link:%s>%s" % (src, dst))
            self._link_rngs[key] = rng
        return rng

    def _carry(self, datagram: Datagram, delay: float) -> None:
        if self.owned is None or datagram.dst.host in self.owned:
            self.sim.schedule(delay, self._deliver, datagram)
        else:
            self.cross_shard_sent += 1
            self.outbox.append(Envelope(
                self.sim.now + delay, datagram.src, datagram.dst,
                datagram.payload))

    def take_outbox(self) -> List[Envelope]:
        out = self.outbox
        self.outbox = []
        return out

    def inject(self, env: Envelope) -> None:
        """Schedule delivery of an envelope received from another shard.
        The lookahead protocol guarantees the delivery time has not
        passed; a violation here is a coordinator bug, not recoverable."""
        self.cross_shard_received += 1
        if env[0] < self.sim.now:
            raise RuntimeError(
                "lookahead violated: envelope for t=%r arrived at t=%r"
                % (env[0], self.sim.now))
        # schedule_at, not schedule(env[0] - now): re-deriving the
        # absolute time from a delta can drift by an ulp, and the digest
        # demands the exact delivery timestamp the source shard computed.
        self.sim.schedule_at(env[0], self._deliver,
                             Datagram(env[1], env[2], env[3]))


class ShardedWorld(World):
    """A full replica of the world that owns one block of its hosts."""

    def __init__(self, machines: int = 6, seed: int = 0,
                 shard_index: int = 0, shard_count: int = 1, **kwargs):
        if not 0 <= shard_index < shard_count:
            raise ValueError("shard_index %d out of range for %d shards"
                             % (shard_index, shard_count))
        self.shard_index = shard_index
        self.shard_count = shard_count
        kwargs.setdefault("troupe_id_base", SHARD_TROUPE_ID_BASE)
        super().__init__(machines=machines, seed=seed, **kwargs)

    def _make_network(self, seed, net_config, machine_names):
        owned = None
        if self.shard_count > 1:
            owned = frozenset(
                partition_hosts(machine_names,
                                self.shard_count)[self.shard_index])
        return ShardNetwork(self.sim, seed=seed, config=net_config,
                            owned=owned)

    def owns(self, host: str) -> bool:
        owned = self.net.owned
        return owned is None or host in owned

    def endpoint_stats(self) -> Dict[str, float]:
        """Owned runtimes only: ghost replicas never run, but their
        endpoints exist (and count their construction-time daemon spawn),
        so summing them across shards would overcount.  Every runtime is
        owned by exactly one shard, so the per-shard sums add up to the
        single-process totals."""
        totals: Dict[str, float] = {}
        for runtime in self.runtimes:
            if not self.owns(runtime.process.machine.name):
                continue
            for key, value in runtime.endpoint.stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals


# ---------------------------------------------------------------------------
# shards and the window coordinator
# ---------------------------------------------------------------------------

#: builder(world) populates a (sharded) world: troupes first, then
#: ownership-gated workload sessions.  It runs identically in every
#: shard; only ownership gates differ.
WorldBuilder = Callable[[World], None]


class Shard:
    """One shard: a full world replica plus its digest collector."""

    def __init__(self, index: int, count: int, builder: WorldBuilder,
                 machines: int, seed: int,
                 net_config: Optional[NetworkConfig],
                 runtime_config: Optional[RuntimeConfig],
                 horizon: float):
        self.index = index
        self.horizon = horizon
        self.world = ShardedWorld(
            machines=machines, seed=seed, shard_index=index,
            shard_count=count, net_config=net_config,
            runtime_config=runtime_config)
        self.digest = PacketDigest(self.world.sim)
        self.windows = 0
        builder(self.world)

    def next_time(self) -> Optional[float]:
        return self.world.sim.next_event_time()

    def advance(self, bound: float) -> List[Envelope]:
        """Process every event strictly before ``bound`` (and within the
        horizon); return the envelopes generated for other shards."""
        sim = self.world.sim
        horizon = self.horizon
        while True:
            t = sim.next_event_time()
            if t is None or t >= bound or t > horizon:
                break
            sim.run(until=t)
        self.windows += 1
        return self.world.net.take_outbox()

    def summary(self) -> dict:
        world = self.world
        net = world.net
        return {
            "digest_partial": self.digest.partial,
            "events": self.digest.events,
            "windows": self.windows,
            "counters": dict(world.counters),
            "samples": {k: list(v) for k, v in world.samples.items()},
            "endpoint_stats": world.endpoint_stats(),
            "network": {
                "packets_sent": net.packets_sent,
                "packets_delivered": net.packets_delivered,
                "packets_dropped": net.packets_dropped,
                "packets_duplicated": net.packets_duplicated,
                "bytes_sent": net.bytes_sent,
                "multicasts_sent": net.multicasts_sent,
            },
            "cross_shard_sent": net.cross_shard_sent,
            "cross_shard_received": net.cross_shard_received,
        }


@dataclasses.dataclass
class ShardedRunResult:
    """Merged outcome of a sharded run — every field except
    ``wall_seconds`` (and ``mode``) is deterministic and identical for
    any shard count on the same seed."""

    shards: int
    mode: str
    horizon: float
    digest: str
    events: int
    windows: int
    cross_shard_messages: int
    counters: Dict[str, float]
    samples: Dict[str, List[float]]
    endpoint_stats: Dict[str, float]
    network: Dict[str, float]
    wall_seconds: float

    def percentile(self, key: str, q: float) -> float:
        values = sorted(self.samples.get(key, ()))
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(q * len(values)))]

    def to_json_dict(self) -> dict:
        """Deterministic fields only — two runs of the same seed must
        serialize byte-identically (the CI shard-smoke contract), so the
        wall clock stays out."""
        return {
            "shards": self.shards,
            "horizon": self.horizon,
            "digest": self.digest,
            "events": self.events,
            "windows": self.windows,
            "cross_shard_messages": self.cross_shard_messages,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "endpoint_stats": {k: self.endpoint_stats[k]
                               for k in sorted(self.endpoint_stats)},
            "network": {k: self.network[k] for k in sorted(self.network)},
        }


def _merge_summaries(summaries: List[dict], shards: int, mode: str,
                     horizon: float, wall: float) -> ShardedRunResult:
    counters: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}
    endpoint: Dict[str, float] = {}
    network: Dict[str, float] = {}
    for summary in summaries:
        for key, value in summary["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, values in summary["samples"].items():
            samples.setdefault(key, []).extend(values)
        for key, value in summary["endpoint_stats"].items():
            endpoint[key] = endpoint.get(key, 0) + value
        for key, value in summary["network"].items():
            network[key] = network.get(key, 0) + value
    for values in samples.values():
        values.sort()
    return ShardedRunResult(
        shards=shards, mode=mode, horizon=horizon,
        digest=merge_digests([s["digest_partial"] for s in summaries]),
        events=sum(s["events"] for s in summaries),
        windows=max(s["windows"] for s in summaries),
        cross_shard_messages=sum(s["cross_shard_sent"] for s in summaries),
        counters=counters, samples=samples, endpoint_stats=endpoint,
        network=network, wall_seconds=wall)


def run_sharded(builder: WorldBuilder, *, machines: int, horizon: float,
                shards: int = 1, seed: int = 0,
                net_config: Optional[NetworkConfig] = None,
                runtime_config: Optional[RuntimeConfig] = None,
                mode: str = "inproc") -> ShardedRunResult:
    """Run ``builder``'s workload to the virtual-time ``horizon`` across
    ``shards`` kernels and merge the results.

    ``mode="inproc"`` steps the shards round-robin in this process;
    ``mode="process"`` forks one OS process per shard (falling back to
    inproc where fork is unavailable).  Both produce identical results;
    only the wall clock differs."""
    if mode not in ("inproc", "process"):
        raise ValueError("mode must be 'inproc' or 'process' (got %r)"
                         % mode)
    if horizon <= 0:
        raise ValueError("horizon must be positive (got %r)" % horizon)
    config = net_config or NetworkConfig()
    if mode == "process" and shards > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            return _run_sharded_processes(
                builder, machines=machines, horizon=horizon, shards=shards,
                seed=seed, net_config=net_config,
                runtime_config=runtime_config)
        mode = "inproc"  # fall back: identical results, no parallelism
    start = _time.perf_counter()
    shard_objs = [Shard(i, shards, builder, machines, seed, net_config,
                        runtime_config, horizon) for i in range(shards)]
    names = ["host%d" % i for i in range(machines)]
    owner = shard_of_host(names, shards)
    lookahead = config.latency
    while True:
        times = [t for t in (s.next_time() for s in shard_objs)
                 if t is not None and t <= horizon]
        if not times:
            break
        bound = min(times) + lookahead
        outbound: List[Envelope] = []
        for shard in shard_objs:
            outbound.extend(shard.advance(bound))
        for env in outbound:
            shard_objs[owner[env[2].host]].world.net.inject(env)
    wall = _time.perf_counter() - start
    return _merge_summaries([s.summary() for s in shard_objs], shards,
                            "inproc", horizon, wall)


# -- the multiprocess coordinator -------------------------------------------

def _shard_child(conn, index: int, count: int, builder: WorldBuilder,
                 machines: int, seed: int,
                 net_config: Optional[NetworkConfig],
                 runtime_config: Optional[RuntimeConfig],
                 horizon: float) -> None:
    """Child body: build the shard, then serve coordinator windows.
    Protocol (parent -> child / child -> parent):

    - ``("window", bound, blob)`` -> ``("done", next_time, {dst: blob})``
    - ``("finish",)`` -> ``("result", summary)``
    """
    try:
        shard = Shard(index, count, builder, machines, seed, net_config,
                      runtime_config, horizon)
        names = ["host%d" % i for i in range(machines)]
        owner = shard_of_host(names, count)
        conn.send(("ready", shard.next_time()))
        while True:
            message = conn.recv()
            if message[0] == "finish":
                conn.send(("result", shard.summary()))
                return
            _, bound, blob = message
            if blob:
                for env in decode_envelopes(blob):
                    shard.world.net.inject(env)
            outbound = shard.advance(bound)
            batches: Dict[int, List[Envelope]] = {}
            for env in outbound:
                batches.setdefault(owner[env[2].host], []).append(env)
            # (floor, blob) per destination: the floor spares the parent
            # from decoding every envelope just to learn the clock bound.
            conn.send(("done", shard.next_time(),
                       {dst: (min(env[0] for env in envs),
                              encode_envelopes(envs))
                        for dst, envs in batches.items()}))
    except BaseException as exc:  # noqa: BLE001 — report, then die
        try:
            conn.send(("error", "%s: %s" % (type(exc).__name__, exc)))
        except Exception:
            pass
        raise


def _run_sharded_processes(builder: WorldBuilder, *, machines: int,
                           horizon: float, shards: int, seed: int,
                           net_config: Optional[NetworkConfig],
                           runtime_config: Optional[RuntimeConfig]
                           ) -> ShardedRunResult:
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    start = _time.perf_counter()
    pipes = []
    procs = []
    for index in range(shards):
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_shard_child,
            args=(child_conn, index, shards, builder, machines, seed,
                  net_config, runtime_config, horizon),
            daemon=True)
        proc.start()
        child_conn.close()
        pipes.append(parent_conn)
        procs.append(proc)
    config = net_config or NetworkConfig()
    lookahead = config.latency

    def _died(index):
        procs[index].join(timeout=5)
        return RuntimeError("shard %d child died (exit code %s)"
                            % (index, procs[index].exitcode))

    def _send(index, message):
        try:
            pipes[index].send(message)
        except OSError:
            raise _died(index) from None

    def _recv(index):
        try:
            message = pipes[index].recv()
        except EOFError:
            raise _died(index) from None
        if message[0] == "error":
            raise RuntimeError("shard %d child failed: %s"
                               % (index, message[1]))
        return message

    try:
        times: List[Optional[float]] = [None] * shards
        for index in range(shards):
            _, times[index] = _recv(index)
        #: earliest not-yet-delivered envelope per shard (clock floor).
        pending_floor: List[Optional[float]] = [None] * shards
        inboxes: List[List[bytes]] = [[] for _ in range(shards)]
        while True:
            live = [t for pair in zip(times, pending_floor) for t in pair
                    if t is not None and t <= horizon]
            if not live:
                break
            bound = min(live) + lookahead
            for index in range(shards):
                _send(index, ("window", bound, b"".join(inboxes[index])))
                inboxes[index] = []
                pending_floor[index] = None
            for index in range(shards):
                _, times[index], batches = _recv(index)
                for dst, (floor, blob) in batches.items():
                    inboxes[dst].append(blob)
                    if pending_floor[dst] is None \
                            or floor < pending_floor[dst]:
                        pending_floor[dst] = floor
        for index in range(shards):
            _send(index, ("finish",))
        summaries = [_recv(index)[1] for index in range(shards)]
    except BaseException:
        # Each child inherited its own pipe's parent end, so closing ours
        # is no EOF to it: stop the survivors rather than wait them out.
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for conn in pipes:
            conn.close()
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.terminate()
                proc.join()
    wall = _time.perf_counter() - start
    return _merge_summaries(summaries, shards, "process", horizon, wall)
