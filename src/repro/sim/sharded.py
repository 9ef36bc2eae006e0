"""Sharded parallel simulation: one world, many kernels.

A single :class:`~repro.harness.World` steps every host through one
event loop.  This module partitions a world's hosts across *shards* —
each shard a full :class:`~repro.sim.kernel.Simulator` kernel, optionally
in its own OS process — and synchronizes them with the classic
conservative-lookahead (Chandy–Misra–Bryant) protocol:

- **Lookahead** is the wire's *transit floor*,
  ``NetworkConfig.min_transit()`` — propagation latency plus the time
  the framing header alone takes at the wire's bandwidth: every
  cross-host packet sent at virtual time ``u`` is delivered no earlier
  than ``u + floor``.  (A delay is the floor plus payload time, jitter
  and fault holds, all >= 0, and float division and addition are
  monotone; :meth:`ShardNetwork.inject` raises on any violation.)
- **Window rule**: with ``m = min over shards of the next pending event
  (or incoming delivery) time``, every shard may safely process all
  events strictly before ``bound = m + floor`` — no message generated
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
   same addresses, ports and troupe IDs) but *owns* only its stripe of
   hosts (:func:`partition_hosts`: neighbouring hosts land on different
   shards, so a troupe's members — and a hot troupe's load — are spread
   the way the paper spreads them over machines).  Non-owned ("ghost")
   replicas are inert: all server machinery is event-driven, and
   workload sessions are ownership-gated (:meth:`World.spawn_on`), so a
   ghost never runs, sends, or draws.
2. **Per-link RNG streams**: :class:`ShardNetwork` replaces the global
   network stream with ``RandomStream(seed, "link:src>dst")``'s draws
   for every directed host pair, held in one table (``LinkDraws``).  All
   sends on a link originate on the source host's owning shard, so each
   stream's draw sequence depends only on that link's packet order —
   not on how sends interleave across hosts.
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

One window loop, ports in front of every shard
----------------------------------------------

:meth:`Shard.step` is one shard's half of a window (inject the inbox,
run to the bound, group the outbox by owning shard) and
:func:`run_sharded` holds the other half: the only coordinator loop.  It
drives a list of *ports* — ``begin(bound, inbox)`` / ``finish()`` /
``summary()`` / ``close(failed)`` — and never looks inside a batch.  With
``mode="inproc"`` the port is the :class:`Shard` itself (a direct call;
batches are lists of ``(deliver_at, src, dst, payload)`` tuples).  With
``mode="process"`` shards 1..n-1 are each a :class:`_ForkedShard`, a pipe
to a forked child running that same ``step``, and shard 0 is a
:class:`_LocalShard` in the coordinator's own process whose ``begin``
only notes the window and whose ``finish`` runs it: n shards are n
processes, and the children compute while the coordinator does its own
share.  Batches are pickled once by the source shard, routed as opaque
bytes and unpickled once by the destination (:func:`_step_pickled`, the
same on both sides of the pipe).  Results are byte-identical either way.
A pipe end waiting for its window polls (:func:`_poll_recv`, up to
:data:`SPIN_POLLS` looks) before it parks in the blocking read — except
where the process has fewer CPUs than shards, where it parks at once.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import math
import os
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.runtime import RuntimeConfig
from repro.harness import World
from repro.net.network import Datagram, Network, NetworkConfig
from repro.sim.rng import LinkDraws

#: Troupe IDs in every shard replica are allocated from this base so the
#: replicas agree; high enough to never collide with the process-global
#: allocator used by ordinary worlds in the same process.
SHARD_TROUPE_ID_BASE = 1 << 32

_DIGEST_MASK = (1 << 256) - 1


# ---------------------------------------------------------------------------
# host partitioning
# ---------------------------------------------------------------------------

def partition_hosts(names: Sequence[str], shards: int) -> List[List[str]]:
    """Stripe ``names`` over ``shards`` blocks whose sizes differ by at
    most one, each block in position order.

    Positions are ranked by the Fibonacci hash ``position * 2**32 / phi
    mod 2**32`` and the rank cut into ``shards`` equal runs, so (by the
    three-distance theorem) neighbouring positions land on different
    shards: no three consecutive hosts share one at 2-4 shards.  Workload
    builders lay a troupe out over consecutive machines and the popular
    troupes over the low-numbered ones, so a contiguous cut would hand
    one shard every member of every hot troupe; striping splits each
    troupe and with it the load.  Balance is what a window barrier pays
    for — its count is set by the lookahead, not by how much traffic
    crosses."""
    if shards < 1:
        raise ValueError("shards must be >= 1 (got %d)" % shards)
    count = len(names)
    if shards > count:
        raise ValueError("cannot split %d hosts across %d shards"
                         % (count, shards))
    ranked = sorted(range(count),
                    key=lambda position: (position * 2654435769) & 0xFFFFFFFF)
    owner = [0] * count
    for rank, position in enumerate(ranked):
        owner[position] = rank * shards // count
    blocks: List[List[str]] = [[] for _ in range(shards)]
    for position, name in enumerate(names):
        blocks[owner[position]].append(name)
    return blocks


def shard_of_host(names: Sequence[str], shards: int) -> Dict[str, int]:
    """host name -> owning shard index, for the same partition."""
    return {name: index
            for index, block in enumerate(partition_hosts(names, shards))
            for name in block}


# ---------------------------------------------------------------------------
# the canonical packet-event digest
# ---------------------------------------------------------------------------

class _AddressText(dict):
    """address -> ``str(address)``, formatted once per distinct address."""

    def __missing__(self, address) -> str:
        text = self[address] = str(address)
        return text


class PacketDigest:
    """Order-insensitive canonical digest over ``net.*`` bus events.

    Each event canonicalizes to one line; the digest is the sum of the
    lines' sha256 values mod 2**256 — commutative, so shard partials
    merge without shipping the lines, and equal event *multisets* give
    equal digests regardless of same-timestamp dispatch order.  Process
    names are deliberately absent (kernel-local spawn counters differ
    between sharded and single-process runs); payloads enter by hash."""

    def __init__(self, sim):
        sim.bus.subscribe(self._on_event, "net.")
        #: the raw running sum: what shards ship and :func:`merge_digests`
        #: adds up.
        self.partial = 0
        self.events = 0
        self._text = _AddressText()

    def _on_event(self, event) -> None:
        kind = event.kind
        if kind == "net.send":
            payload = event.payload
            extra = "%d:%s" % (len(payload),
                               hashlib.sha256(payload).hexdigest()[:16])
        elif kind == "net.deliver":
            extra = str(event.size)
        elif kind == "net.drop":
            extra = event.reason
        else:
            extra = ""
        text = self._text
        line = "%r %s %s>%s %s" % (event.t, kind, text[event.src],
                                   text[event.dst], extra)
        self.partial = (self.partial + int.from_bytes(
            hashlib.sha256(line.encode("utf-8")).digest(), "big")) \
            & _DIGEST_MASK
        self.events += 1


def merge_digests(partials: Sequence[int]) -> str:
    return "%064x" % (sum(partials) & _DIGEST_MASK)


# ---------------------------------------------------------------------------
# the sharded wire
# ---------------------------------------------------------------------------

class ShardNetwork(Network):
    """A :class:`Network` owning a subset of its hosts.

    Draws come from per-link RNG streams (see the module docstring);
    datagrams for non-owned destinations leave through :attr:`outbox`
    as envelopes — ``(deliver_at, src, dst, payload)``, the delivery time
    computed here plus the unmodified wire payload — instead of being
    scheduled locally.
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
        self.outbox: List[tuple] = []
        self.cross_shard_sent = 0
        self.links = LinkDraws(seed)   # the wire's draw path, bound
        self._link, self._random = self.links.number, self.links.random

    def _carry(self, datagram: Datagram, delay: float) -> None:
        if self.owned is None or datagram.dst.host in self.owned:
            self.sim.call_at(self.sim.now + delay, self._deliver, datagram)
        else:
            self.cross_shard_sent += 1
            self.outbox.append((self.sim.now + delay, datagram.src,
                                datagram.dst, datagram.payload))

    def inject(self, env: tuple) -> None:
        """Schedule delivery of an envelope received from another shard.
        The lookahead protocol guarantees the delivery time has not
        passed; a violation here is a coordinator bug, not recoverable."""
        if env[0] < self.sim.now:
            raise RuntimeError(
                "lookahead violated: envelope for t=%r arrived at t=%r"
                % (env[0], self.sim.now))
        # The absolute time, not a delta from now: re-deriving it from a
        # delta can drift by an ulp, and the digest demands the exact
        # delivery timestamp the source shard computed.
        self.sim.call_at(env[0], self._deliver,
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
        #: host name -> owning shard index, for every host of the world.
        self.owner = shard_of_host(machine_names, self.shard_count)
        owned = None
        if self.shard_count > 1:
            owned = frozenset(name for name, shard in self.owner.items()
                              if shard == self.shard_index)
        return ShardNetwork(self.sim, seed=seed, config=net_config,
                            owned=owned)

    def owns(self, host: str) -> bool:
        owned = self.net.owned
        return owned is None or host in owned


# ---------------------------------------------------------------------------
# shards and the window coordinator
# ---------------------------------------------------------------------------

#: builder(world) populates a (sharded) world: troupes first, then
#: ownership-gated workload sessions.  It runs identically in every
#: shard; only ownership gates differ.
WorldBuilder = Callable[[World], None]


class Shard:
    """One shard: a full world replica plus its digest collector.  It is
    also the in-process coordinator port (``begin`` is the direct call)."""

    def __init__(self, index: int, count: int, builder: WorldBuilder,
                 machines: int, seed: int,
                 net_config: Optional[NetworkConfig],
                 runtime_config: Optional[RuntimeConfig],
                 horizon: float):
        self.horizon = horizon
        self.world = ShardedWorld(
            machines=machines, seed=seed, shard_index=index,
            shard_count=count, net_config=net_config,
            runtime_config=runtime_config)
        self.digest = PacketDigest(self.world.sim)
        builder(self.world)
        #: what :meth:`finish` hands the coordinator next; before the
        #: first window, just the first event time.
        self._done = (self.world.sim.next_event_time(), {})

    def step(self, bound: float, inbox: Sequence[Sequence[tuple]]):
        """One window: inject the batches other shards sent here, process
        every event strictly before ``bound`` (and within the horizon),
        and group the envelopes generated for other shards by owner.
        Returns ``(next_time, {dst_shard: (floor, batch)})`` — ``floor``
        is the batch's earliest delivery time, so the coordinator can
        bound the next window without looking inside."""
        world = self.world
        net = world.net
        for batch in inbox:
            for env in batch:
                net.inject(env)
        # "strictly before bound" as an inclusive limit: the last float
        # below it.  An event at exactly the horizon still runs.
        world.sim.run(until=min(math.nextafter(bound, -math.inf),
                                self.horizon))
        owner = world.owner
        batches: Dict[int, List[tuple]] = {}
        for env in net.outbox:
            batches.setdefault(owner[env[2].host], []).append(env)
        net.outbox = []
        return world.sim.next_event_time(), {
            dst: (min(env[0] for env in batch), batch)
            for dst, batch in batches.items()}

    def begin(self, bound: float, inbox) -> None:
        self._done = self.step(bound, inbox)

    def finish(self):
        return self._done

    def close(self, failed: bool) -> None:
        pass

    def summary(self) -> dict:
        """This shard's share of the run; every leaf adds across shards
        (numbers sum, sample lists concatenate)."""
        world = self.world
        net = world.net
        return {
            "digest_partial": self.digest.partial,
            "events": self.digest.events,
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
        }


def _step_pickled(shard: Shard, bound: float, inbox: Sequence[bytes]):
    """:meth:`Shard.step` as seen through a process-mode port: every
    batch, in and out, is the pickled list — what crosses a pipe and what
    the coordinator routes unopened."""
    import pickle       # here: an in-process run never loads it
    next_time, batches = shard.step(
        bound, [pickle.loads(blob) for blob in inbox])
    return next_time, {
        dst: (floor, pickle.dumps(batch, pickle.HIGHEST_PROTOCOL))
        for dst, (floor, batch) in batches.items()}


class _LocalShard(Shard):
    """Coordinator port for the shard the coordinator steps itself while
    the others run in forked children: ``begin`` only notes the window
    and ``finish`` runs it, so the children — begun in the same loop —
    are computing while this process does its own share."""

    _window: Optional[tuple] = None

    def begin(self, bound: float, inbox) -> None:
        self._window = (bound, inbox)

    def finish(self):
        if self._window is None:
            return self._done            # before the first window
        window, self._window = self._window, None
        return _step_pickled(self, *window)


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: How many times a shard pipe's reader looks (``poll(0)``, ~4 us)
#: before it parks in a blocking read.  A count, not a time: nothing
#: under ``src/repro`` reads a wall clock.  Both pipe ends find their
#: message within this many looks in all but a handful of a run's ~4,570
#: waits (docs/PERFORMANCE.md, "A waiting shard polls before it parks");
#: past it — a child still building, a dead peer — sleeping is right.
SPIN_POLLS = 2000


def _poll_recv(conn, spin: int):
    """``conn.recv()``, after up to ``spin`` non-blocking looks for the
    message.  A reader parked in the kernel costs more to wake — and its
    peer more to wake it — than the wait between two windows lasts."""
    for _ in range(spin):
        if conn.poll(0):
            break
    return conn.recv()


def _shard_child(conn, spin: int, *shard_args) -> None:
    """Forked child body: build the shard, then serve the coordinator.
    Every reply is ``(error, value)``; requests are ``(bound, inbox)``
    for a window and ``None`` for the summary, after which it exits."""
    import signal

    # A terminal's Ctrl-C goes to the whole process group; the coordinator
    # handles it and terminates the children (``close(failed=True)``),
    # which should not each die with a traceback of their own.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        shard = Shard(*shard_args)
        reply = shard.finish()
        while True:
            conn.send((None, reply))
            request = _poll_recv(conn, spin)
            if request is None:
                conn.send((None, shard.summary()))
                return
            reply = _step_pickled(shard, *request)
    except BaseException as exc:  # noqa: BLE001 — report, then die
        try:
            conn.send(("%s: %s" % (type(exc).__name__, exc), None))
        except Exception:
            pass
        raise


class _ForkedShard:
    """Coordinator port to a forked child running :meth:`Shard.step`."""

    def __init__(self, spin: int, index: int, *shard_args):
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        self.index = index
        self._spin = spin
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=_shard_child,
            args=(child_conn, spin, index) + shard_args, daemon=True)
        self._proc.start()
        child_conn.close()

    def _died(self) -> RuntimeError:
        self._proc.join(timeout=5)
        return RuntimeError("shard %d child died (exit code %s)"
                            % (self.index, self._proc.exitcode))

    def _send(self, request) -> None:
        try:
            self._conn.send(request)
        except OSError:
            raise self._died() from None

    def _recv(self):
        try:
            error, value = _poll_recv(self._conn, self._spin)
        except EOFError:
            raise self._died() from None
        if error is not None:
            raise RuntimeError("shard %d child failed: %s"
                               % (self.index, error))
        return value

    def begin(self, bound: float, inbox) -> None:
        self._send((bound, inbox))

    def finish(self):
        return self._recv()

    def summary(self) -> dict:
        self._send(None)
        return self._recv()

    def close(self, failed: bool) -> None:
        # The child inherited its own pipe's parent end, so closing ours
        # is no EOF to it: stop a survivor rather than wait it out.
        if failed:
            self._proc.terminate()
        self._conn.close()
        self._proc.join(timeout=30)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join()


@dataclasses.dataclass
class ShardedRunResult:
    """Merged outcome of a sharded run — every field except ``mode`` is
    deterministic, and what the world did (digest, events, counters,
    samples, endpoint and network totals) is identical for any shard
    count on the same seed.  ``shard_events`` is the one field with an
    entry per shard: how evenly the partition spread the work."""

    shards: int
    mode: str
    horizon: float
    digest: str
    events: int
    windows: int
    cross_shard_messages: int
    #: each shard's :attr:`PacketDigest.events`, in shard order.
    shard_events: List[int]
    counters: Dict[str, float]
    samples: Dict[str, List[float]]
    endpoint_stats: Dict[str, float]
    network: Dict[str, float]

    def percentile(self, key: str, q: float) -> float:
        values = sorted(self.samples.get(key, ()))
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(q * len(values)))]

    def to_json_dict(self) -> dict:
        """Deterministic fields only — two runs of the same seed must
        serialize byte-identically in either mode (the CI shard-smoke
        contract), so ``mode`` stays out."""
        return {
            "shards": self.shards,
            "horizon": self.horizon,
            "digest": self.digest,
            "events": self.events,
            "windows": self.windows,
            "cross_shard_messages": self.cross_shard_messages,
            "shard_events": list(self.shard_events),
            "counters": dict(sorted(self.counters.items())),
            "endpoint_stats": dict(sorted(self.endpoint_stats.items())),
            "network": dict(sorted(self.network.items())),
        }


def _add_into(total: dict, part: dict) -> None:
    """``total += part``, leaf by leaf through nested dicts."""
    for key, value in part.items():
        if isinstance(value, dict):
            _add_into(total.setdefault(key, {}), value)
        else:
            total[key] = total[key] + value if key in total else value


def _run_windows(ports: Sequence, horizon: float, lookahead: float) -> int:
    """The conservative-lookahead loop; returns the windows run.

    Collect what every port's last window produced, route the batches,
    and open the next window up to ``bound = (earliest pending event or
    undelivered envelope anywhere) + lookahead`` on all ports at once."""
    count = len(ports)
    times: List[Optional[float]] = [None] * count
    #: per shard: earliest envelope routed to it but not yet injected.
    floors: List[Optional[float]] = [None] * count
    inboxes: List[list] = [[] for _ in range(count)]
    windows = 0
    while True:
        for index, port in enumerate(ports):
            times[index], batches = port.finish()
            for dst, (floor, batch) in batches.items():
                inboxes[dst].append(batch)
                if floors[dst] is None or floor < floors[dst]:
                    floors[dst] = floor
        live = [t for t in times + floors if t is not None and t <= horizon]
        if not live:
            return windows
        bound = min(live) + lookahead
        windows += 1
        for index, port in enumerate(ports):
            port.begin(bound, inboxes[index])
            inboxes[index] = []
            floors[index] = None


@contextlib.contextmanager
def _collector_held() -> Iterator[None]:
    """Keep the cyclic collector off while :func:`run_sharded` owns a
    world.  It builds one, runs it to the horizon, summarises it and drops
    it inside one call, and what the kernel allocates in between is
    reclaimed by reference counting — whereas every full pass the
    collector starts walks the whole world (hundreds of thousands of
    objects at 1,000 hosts, growing in flight) to free nothing
    (docs/PERFORMANCE.md, "The capacity gap, explained").

    Re-enabled on the way out only if it was on at entry, so nested use
    and a caller's own ``gc.disable()`` are left alone; forked shard
    children inherit the suspended state and exit when done.  This is the
    only place in ``repro`` that touches ``gc``
    (tests/test_no_wall_clock.py).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def run_sharded(builder: WorldBuilder, *, machines: int, horizon: float,
                shards: int = 1, seed: int = 0,
                net_config: Optional[NetworkConfig] = None,
                runtime_config: Optional[RuntimeConfig] = None,
                mode: str = "inproc") -> ShardedRunResult:
    """Run ``builder``'s workload to the virtual-time ``horizon`` across
    ``shards`` kernels and merge the results.

    ``mode="inproc"`` steps the shards in this process;
    ``mode="process"`` forks one OS process per shard after the first
    and steps shard 0 in this one (falling back to inproc where fork is
    unavailable).  Both go through the same window loop and produce
    identical results.

    The cyclic collector is held off (:func:`_collector_held`) from before
    the first shard is built until the merged result exists."""
    if mode not in ("inproc", "process"):
        raise ValueError("mode must be 'inproc' or 'process' (got %r)"
                         % mode)
    if horizon <= 0:
        raise ValueError("horizon must be positive (got %r)" % horizon)
    if mode == "process":
        # Imported here (and in the port): ~30 ms no in-process run pays.
        import multiprocessing
        if shards == 1 \
                or "fork" not in multiprocessing.get_all_start_methods():
            mode = "inproc"  # identical results, no parallelism to be had
    shard_args = (shards, builder, machines, seed, net_config,
                  runtime_config, horizon)
    with _collector_held():
        #: filled one port at a time, so whatever was built before a
        #: later build fails is still closed.
        ports: list = []
        failed = True
        try:
            if mode == "process":
                # Poll only where every shard has a CPU to poll on; with
                # fewer, a spinning reader holds the CPU its peer needs.
                spin = SPIN_POLLS if available_cpus() >= shards else 0
                # Children first: they build their worlds while this
                # process builds shard 0's, and inherit no copy of it.
                ports.extend(_ForkedShard(spin, index, *shard_args)
                             for index in range(1, shards))
                ports.insert(0, _LocalShard(0, *shard_args))
            else:
                ports.extend(Shard(index, *shard_args)
                             for index in range(shards))
            windows = _run_windows(
                ports, horizon,
                (net_config or NetworkConfig()).min_transit())
            summaries = [port.summary() for port in ports]
            failed = False
        finally:
            for port in ports:
                port.close(failed)
        total: dict = {}
        for summary in summaries:
            _add_into(total, summary)
        for values in total["samples"].values():
            values.sort()
        return ShardedRunResult(
            shards=shards, mode=mode, horizon=horizon,
            digest=merge_digests([s["digest_partial"] for s in summaries]),
            events=total["events"], windows=windows,
            cross_shard_messages=total["cross_shard_sent"],
            shard_events=[s["events"] for s in summaries],
            counters=total["counters"], samples=total["samples"],
            endpoint_stats=total["endpoint_stats"],
            network=total["network"])
