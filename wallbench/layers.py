"""Spans, and the layer drivers that are timed by them.

A span is one timed interval recorded by the benchmark's own code around
a call into the program: name, start, end, and the span that caused it.
Spans stay in memory until the run ends (``--trace-out`` writes them).
Times are ``time.monotonic()`` seconds, which on Linux is one system-wide
clock, so a parent's spans and its children's share an axis.

The layer drivers (metric group (c)) exercise one layer's public entry
points alone — a bare ``Simulator``, a UDP socket pair, two
``PairedEndpoint``s, the codecs, the bus — so a change to one layer can
be read without the rest of the stack in the way.
"""

from __future__ import annotations

import contextlib
import heapq
import statistics
import time
from typing import Callable, Dict, List, Optional

from repro.harness import World
from repro.obs import EventBus, events
from repro.pairedmsg import (MSG_CALL, PairedEndpoint, PairedMessageConfig,
                             segments, split_message)
from repro.rpc import (CallHeader, ThreadId, decode_call, decode_return,
                       encode_call, encode_return)
from repro.sim.events import Event, Queue
from repro.sim.kernel import AnyOf, Simulator, Sleep


class Span:
    __slots__ = ("name", "start", "end", "parent", "workload")

    def __init__(self, name: str, start: float, parent: Optional[int]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.workload = ""      # set by the parent runner

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    """An in-memory span list; ``parent`` is an index into it."""

    def __init__(self):
        self.rows: List[Span] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.rows)
        span = Span(name, time.monotonic(),
                    self._open[-1] if self._open else None)
        self.rows.append(span)
        self._open.append(index)
        try:
            yield span
        finally:
            span.end = time.monotonic()
            self._open.pop()

    def adopt(self, rows: List[dict], parent: int) -> None:
        """Append a child process's spans under span ``parent``."""
        offset = len(self.rows)
        for row in rows:
            span = Span(row["name"], row["start"],
                        parent if row["parent"] is None
                        else offset + row["parent"])
            span.end = row["end"]
            self.rows.append(span)

    def to_rows(self) -> List[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "workload": s.workload}
                for s in self.rows]


# ---------------------------------------------------------------------------
# the host-speed reference
# ---------------------------------------------------------------------------

#: what one reference unit takes on the container the benchmark was
#: defined on when nothing disturbs it; only a scale, so that corrected
#: and raw numbers read alike there.
REFERENCE_SECONDS = 0.0200


def _reference_unit() -> float:
    """Seconds one fixed piece of work takes right now: a miniature
    event loop (heap of timestamped generator processes, a dict of
    counters), i.e. the same kind of Python the simulator is made of —
    but the benchmark's own code, so that no change to the program can
    move it."""
    start = time.perf_counter()
    heap: list = []
    seq = 0
    counters: Dict[int, int] = {}

    def process(index):
        for step in range(800):
            counters[index & 7] = counters.get(index & 7, 0) + step
            yield 1.0 + (index % 5) * 0.1

    for index in range(40):
        gen = process(index)
        heapq.heappush(heap, (next(gen), seq, gen))
        seq += 1
    while heap:
        now, _seq, gen = heapq.heappop(heap)
        try:
            delay = gen.send(None)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, (now + delay, seq, gen))
    return time.perf_counter() - start


def host_speed(units: int = 1) -> float:
    """How fast the host is at this moment, as the reference unit's
    nominal time over its measured time (median of ``units``): 1.0 on
    the defining container at rest, 0.8 when it runs a fifth slower.

    The VM this was calibrated on drifts by +-20 % over minutes (noisy
    neighbours); a reading taken next to each batch and divided out is
    what lets ten runs of one commit agree (README "Spread")."""
    return REFERENCE_SECONDS / statistics.median(
        _reference_unit() for _ in range(units))


# ---------------------------------------------------------------------------
# (c) layer drivers: each runs one unit of work and returns how many
# operations that was; _rate() repeats units inside one span.
# ---------------------------------------------------------------------------

def _sim_timer() -> int:
    """Every process repeatedly sleeps: the timer hot path."""
    sim = Simulator()

    def worker():
        for _ in range(500):
            yield Sleep(1.0)

    for _ in range(100):
        sim.spawn(worker())
    sim.run()
    return 100 * 500


def _sim_queue() -> int:
    """Pairs of processes bouncing items through queues: the event /
    blocking-get hot path."""
    sim = Simulator()
    steps = 500

    def player(inbox, outbox, serve):
        if serve:
            outbox.put(0)
        while True:
            n = yield inbox.get()
            if n >= steps:
                return
            outbox.put(n + 1)

    for _ in range(50):
        a, b = Queue(sim, "a"), Queue(sim, "b")
        sim.spawn(player(a, b, True))
        sim.spawn(player(b, a, False))
    sim.run()
    return 50 * steps


def _sim_select() -> int:
    """AnyOf(event-that-never-fires, timeout): the select/timeout shape
    every retransmission loop uses."""
    sim = Simulator()

    def worker():
        for _ in range(200):
            yield AnyOf(Event(sim, "never"), Sleep(1.0))

    for _ in range(100):
        sim.spawn(worker())
    sim.run()
    return 100 * 200


def _net_datagrams() -> int:
    """A UDP echo between two hosts: sim + host + net, nothing above."""
    world = World(machines=2, seed=1)
    client = world.machines[0].spawn_process("udp-client")
    server = world.machines[1].spawn_process("udp-server")
    client_sock = client.udp_socket()
    server_sock = server.udp_socket(700)
    exchanges = 2000

    def serve():
        while True:
            datagram = yield from server.recvmsg(server_sock)
            yield from server.sendmsg(server_sock, datagram.payload,
                                      datagram.src)

    world.sim.spawn(serve(), name="udp-server", daemon=True)

    def body():
        for _ in range(exchanges):
            yield from client.sendmsg(client_sock, b"x" * 64,
                                      server_sock.addr)
            yield from client.recvmsg(client_sock)

    world.run(body())
    return 2 * exchanges


def _pairedmsg_transfers() -> int:
    """2 KiB calls between two PairedEndpoints: no rpc, no core."""
    world = World(machines=2, seed=1)
    config = PairedMessageConfig(max_segment_data=512)
    client_proc = world.machines[0].spawn_process("pm-client")
    server_proc = world.machines[1].spawn_process("pm-server")
    client = PairedEndpoint(client_proc, config=config)
    server = PairedEndpoint(server_proc, port=600, config=config)
    message = bytes(range(256)) * 8
    transfers = 200

    def serve():
        while True:
            msg = yield from server.next_call()
            yield from server.send_return(msg.peer, msg.call_number, b"ok")

    server_proc.spawn(serve(), daemon=True)

    def body():
        for number in range(1, transfers + 1):
            yield from client.call(server.addr, number, message)

    world.run(body())
    return transfers


def _pairedmsg_codec() -> int:
    """Split a 6 KiB message, encode and decode every segment."""
    message = bytes(range(256)) * 24
    count = 0
    for number in range(1, 201):
        for segment in split_message(MSG_CALL, number, message, 512):
            if segments.decode(segment.encode()).call_number != number:
                raise AssertionError("segment codec round-trip broke")
            count += 1
    return count


def _rpc_codec() -> int:
    """Encode and decode call and return messages."""
    header = CallHeader(ThreadId("host0", 7), 0, 1 << 32, 0, 0)
    args = b"12345678"
    for _ in range(2000):
        if decode_call(encode_call(header, args))[1] != args:
            raise AssertionError("call codec round-trip broke")
        if decode_return(encode_return(args))[1] != args:
            raise AssertionError("return codec round-trip broke")
    return 2 * 2000


def _obs_emit() -> int:
    """Construct one event and emit it to a subscriber that ignores it."""
    bus = EventBus()
    bus.subscribe(lambda event: None)
    for _ in range(20000):
        bus.emit(events.PacketDuplicated(t=0.0, src=None, dst=None))
    return 20000


def _rate(spans: Spans, name: str, unit_of_work: Callable[[], int],
          reps: int, min_seconds: float) -> float:
    """Median over ``reps`` spans of operations per second (at reference
    host speed), each span repeating the unit of work for at least
    ``min_seconds``."""
    rates = []
    speed = host_speed()
    for _ in range(reps):
        done = 0
        with spans.span(name) as span:
            deadline = span.start + min_seconds
            while True:
                done += unit_of_work()
                if time.monotonic() >= deadline:
                    break
        before, speed = speed, host_speed()
        rates.append(done / (span.seconds * (before + speed) / 2.0))
    return statistics.median(rates)


def run_drivers(spans: Spans, build_hosts: Callable[[], int],
                reps: int, min_seconds: float) -> Dict[str, float]:
    """Every (c) metric.  ``build_hosts`` builds the capacity world once
    and returns how many hosts it has (workloads.py owns the builder)."""
    def rate(name, unit_of_work):
        return _rate(spans, "driver:" + name, unit_of_work, reps,
                     min_seconds)

    return {
        "sim.timer_events_per_s": rate("sim.timer", _sim_timer),
        "sim.queue_events_per_s": rate("sim.queue", _sim_queue),
        "sim.select_events_per_s": rate("sim.select", _sim_select),
        "net.datagrams_per_s": rate("net.datagrams", _net_datagrams),
        "pairedmsg.transfers_per_s":
            rate("pairedmsg.transfers", _pairedmsg_transfers),
        "pairedmsg.codec_segments_per_s":
            rate("pairedmsg.codec", _pairedmsg_codec),
        "rpc.codec_msgs_per_s": rate("rpc.codec", _rpc_codec),
        "obs.emit_ns": 1e9 / rate("obs.emit", _obs_emit),
        "harness.build_ms_per_host":
            1e3 / rate("harness.build", build_hosts),
    }
