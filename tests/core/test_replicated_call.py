"""Tests for replicated procedure calls (§4.3): one-to-many, many-to-one,
many-to-many, collators, crash masking, and stale bindings."""

import pytest

from repro.core import (
    CollationError,
    FirstComeCollator,
    MajorityCollator,
    StaleBindingError,
    TroupeFailure,
)
from repro.core.runtime import ExportedModule
from repro.harness import World
from repro.rpc import RemoteError
from repro.sim import Sleep


def echo_module():
    def echo(ctx, args):
        return b"echo:" + args
    return ExportedModule("echo", {0: echo})


def test_one_to_many_call_unanimous():
    world = World(machines=4)
    troupe, runtimes = world.make_troupe("echo", echo_module, degree=3)
    client = world.make_client()

    def body():
        reply = yield from client.call_troupe(troupe, 0, 0, b"hello")
        return reply

    assert world.run(body()) == b"echo:hello"
    # Exactly-once at every member.
    assert [r.calls_executed for r in runtimes] == [1, 1, 1]


def test_degree_one_is_conventional_rpc():
    world = World(machines=2)
    troupe, _ = world.make_troupe("echo", echo_module, degree=1)
    client = world.make_client()

    def body():
        return (yield from client.call_troupe(troupe, 0, 0, b"x"))

    assert world.run(body()) == b"echo:x"


def test_sequence_of_calls():
    world = World(machines=4)
    troupe, runtimes = world.make_troupe("echo", echo_module, degree=3)
    client = world.make_client()

    def body():
        out = []
        for i in range(5):
            out.append((yield from client.call_troupe(troupe, 0, 0, b"%d" % i)))
        return out

    assert world.run(body()) == [b"echo:%d" % i for i in range(5)]
    assert [r.calls_executed for r in runtimes] == [5, 5, 5]


def test_call_masks_member_crash():
    """A replicated program functions as long as one member survives."""
    world = World(machines=4)
    troupe, runtimes = world.make_troupe("echo", echo_module, degree=3)
    client = world.make_client()
    # Crash one server machine before the call.
    world.machine(troupe.members[0].process.host).crash()

    def body():
        return (yield from client.call_troupe(troupe, 0, 0, b"survive"))

    assert world.run(body()) == b"echo:survive"


def test_total_failure_raises():
    world = World(machines=4)
    troupe, _ = world.make_troupe("echo", echo_module, degree=2)
    client = world.make_client()
    for member in troupe.members:
        world.machine(member.process.host).crash()

    def body():
        return (yield from client.call_troupe(troupe, 0, 0, b"void"))

    with pytest.raises(TroupeFailure):
        world.run(body())


def test_remote_error_propagates():
    def failing(ctx, args):
        raise RemoteError("AppError", "deliberate")

    world = World(machines=4)
    troupe, _ = world.make_troupe(
        "bad", ExportedModule("bad", {0: failing}), degree=3)
    client = world.make_client()

    def body():
        yield from client.call_troupe(troupe, 0, 0, b"")

    with pytest.raises(RemoteError) as info:
        world.run(body())
    assert info.value.kind == "AppError"


def test_unknown_module_and_procedure():
    world = World(machines=2)
    troupe, _ = world.make_troupe("echo", echo_module, degree=1)
    client = world.make_client()

    def call(module, proc):
        def body():
            yield from client.call_troupe(troupe, module, proc, b"")
        return body

    with pytest.raises(RemoteError) as info:
        world.run(call(9, 0)())
    assert info.value.kind == "BadModule"
    with pytest.raises(RemoteError) as info:
        world.run(call(0, 9)())
    assert info.value.kind == "BadProcedure"


def test_unanimous_collator_detects_divergent_replicas():
    """A nondeterministic 'replica' is caught by the unanimous collator
    (error detection, §4.3.4)."""
    counter = [0]

    def make_divergent():
        def proc(ctx, args):
            counter[0] += 1
            return b"reply-%d" % counter[0]  # different at each member!
        return ExportedModule("divergent", {0: proc})

    world = World(machines=4)
    troupe, _ = world.make_troupe("divergent", make_divergent, degree=3)
    client = world.make_client()

    def body():
        yield from client.call_troupe(troupe, 0, 0, b"")

    with pytest.raises(CollationError):
        world.run(body())


def test_first_come_collator_returns_fastest():
    """First-come: execution time is set by the fastest member (§4.3.4)."""
    def make_member(delay):
        def proc(ctx, args):
            yield Sleep(delay)
            return b"done-%d" % int(delay)
        return ExportedModule("slowpoke", {0: proc})

    world = World(machines=4)
    delays = iter([300.0, 5.0, 150.0])
    troupe, _ = world.make_troupe(
        "slowpoke", lambda: make_member(next(delays)), degree=3)
    client = world.make_client()

    def body():
        start = world.sim.now
        reply = yield from client.call_troupe(
            troupe, 0, 0, b"", collator=FirstComeCollator())
        return reply, world.sim.now - start

    reply, elapsed = world.run(body())
    assert reply == b"done-5"
    assert elapsed < 150.0


def test_majority_collator_outvotes_one_divergent_member():
    counter = [0]

    def make_member():
        index = counter[0]
        counter[0] += 1

        def proc(ctx, args):
            if index == 0:
                return b"WRONG"
            return b"right"
        return ExportedModule("voted", {0: proc})

    world = World(machines=4)
    troupe, _ = world.make_troupe("voted", make_member, degree=3)
    client = world.make_client()

    def body():
        return (yield from client.call_troupe(
            troupe, 0, 0, b"", collator=MajorityCollator()))

    assert world.run(body()) == b"right"


def test_stale_troupe_id_rejected():
    """§6.2: a call bearing an old destination troupe ID must not execute."""
    world = World(machines=4)
    troupe, runtimes = world.make_troupe("echo", echo_module, degree=2)
    client = world.make_client()
    # The troupe is re-registered under a new ID (membership change).
    for runtime in runtimes:
        runtime.set_troupe_id(troupe.troupe_id + 1000)

    def body():
        yield from client.call_troupe(troupe, 0, 0, b"stale")

    with pytest.raises(StaleBindingError):
        world.run(body())
    assert all(r.calls_executed == 0 for r in runtimes)


def test_many_to_one_executes_once_per_member():
    """A 2-member client troupe calling a 3-member server troupe: each
    server member executes exactly once (the many-to-many case, §4.3.3)."""
    world = World(machines=8)
    server_troupe, server_runtimes = world.make_troupe(
        "echo", echo_module, degree=3)
    client_troupe, client_runtimes = world.make_client_troupe(
        "clients", degree=2)

    replies = []

    def client_body(runtime):
        def body():
            reply = yield from runtime.call_troupe(server_troupe, 0, 0, b"mm")
            replies.append(reply)
        return body

    for runtime in client_runtimes:
        world.spawn(client_body(runtime)())
    world.sim.run()
    assert replies == [b"echo:mm", b"echo:mm"]
    # Exactly-once at each server member despite two call messages each.
    assert [r.calls_executed for r in server_runtimes] == [1, 1, 1]


def test_many_to_one_waits_for_all_client_members():
    """The server gathers the call messages of the whole client troupe
    before executing (default unanimous server wait)."""
    world = World(machines=8)
    executions = []

    def make_module():
        def proc(ctx, args):
            executions.append(world.sim.now)
            return b"ok"
        return ExportedModule("gather", {0: proc})

    server_troupe, _ = world.make_troupe("gather", make_module, degree=1)
    client_troupe, client_runtimes = world.make_client_troupe(
        "clients", degree=2)

    def slow_client(runtime, delay):
        def body():
            yield Sleep(delay)
            yield from runtime.call_troupe(server_troupe, 0, 0, b"x")
        return body

    world.spawn(slow_client(client_runtimes[0], 0.0)())
    world.spawn(slow_client(client_runtimes[1], 80.0)())
    world.sim.run()
    assert len(executions) == 1
    # Execution happened only after the slow member's call arrived.
    assert executions[0] >= 80.0


def test_client_troupe_member_crash_does_not_block_server():
    """If a client troupe member crashes before calling, the server's
    gather times out and the call still executes for the live members."""
    world = World(machines=8)
    server_troupe, server_runtimes = world.make_troupe(
        "echo", echo_module, degree=1)
    client_troupe, client_runtimes = world.make_client_troupe(
        "clients", degree=2)
    # One client member dies before it can send its call message.
    world.machine(client_runtimes[1].process.host).crash()

    def body():
        return (yield from client_runtimes[0].call_troupe(
            server_troupe, 0, 0, b"alone"))

    assert world.run(body()) == b"echo:alone"
    assert server_runtimes[0].calls_executed == 1


def test_nested_calls_propagate_thread_id():
    """Troupe A's procedure calls troupe B; B sees A's adopted thread ID
    (the §3.4.1 propagation algorithm), matching the original caller."""
    world = World(machines=8)
    seen_thread_ids = []

    def make_b():
        def proc(ctx, args):
            seen_thread_ids.append(ctx.thread_id)
            return b"from-b"
        return ExportedModule("b", {0: proc})

    troupe_b, _ = world.make_troupe("b", make_b, degree=1)

    def make_a():
        def proc(ctx, args):
            inner = yield from ctx.call(troupe_b, 0, 0, b"")
            return b"a-saw:" + inner
        return ExportedModule("a", {0: proc})

    troupe_a, _ = world.make_troupe("a", make_a, degree=1)
    client = world.make_client()

    def body():
        return (yield from client.call_troupe(troupe_a, 0, 0, b""))

    assert world.run(body()) == b"a-saw:from-b"
    assert seen_thread_ids == [client.threads.current]


def test_replicated_middle_tier_nested_calls_execute_once():
    """client -> troupe A (x2) -> troupe B (x2): B executes once per member
    even though it receives call messages from both A members."""
    world = World(machines=8)

    def make_b():
        def proc(ctx, args):
            return b"B"
        return ExportedModule("b", {0: proc})

    troupe_b, b_runtimes = world.make_troupe("b", make_b, degree=2)

    def make_a():
        def proc(ctx, args):
            inner = yield from ctx.call(troupe_b, 0, 0, b"")
            return b"A+" + inner
        return ExportedModule("a", {0: proc})

    troupe_a, a_runtimes = world.make_troupe("a", make_a, degree=2)
    client = world.make_client()

    def body():
        return (yield from client.call_troupe(troupe_a, 0, 0, b""))

    assert world.run(body()) == b"A+B"
    assert [r.calls_executed for r in a_runtimes] == [1, 1]
    assert [r.calls_executed for r in b_runtimes] == [1, 1]


def test_result_stream_explicit_replication():
    """§7.4: iterate over per-member responses, stop when satisfied."""
    counter = [0]

    def make_member():
        index = counter[0]
        counter[0] += 1

        def proc(ctx, args):
            yield Sleep(10.0 * (index + 1))
            return b"member-%d" % index
        return ExportedModule("stream", {0: proc})

    world = World(machines=4)
    troupe, _ = world.make_troupe("stream", make_member, degree=3)
    client = world.make_client()

    def body():
        stream = yield from client.call_troupe_stream(troupe, 0, 0, b"")
        results = []
        while True:
            result = yield from stream.next()
            if result is None:
                break
            results.append((result.status, result.data))
            if len(results) == 2:
                stream.cancel()
                break
        return results

    results = world.run(body())
    assert len(results) == 2
    assert all(status == "ok" for status, _ in results)


def test_cancelled_result_streams_leave_no_discard_marks():
    """Cancelling a stream forgets only the returns still pending: a
    member whose return the stream already took leaves no discard mark
    (nothing would ever clear it)."""
    world = World(machines=4)
    troupe, _ = world.make_troupe("echo", echo_module, degree=3)
    client = world.make_client()

    def body():
        for _ in range(20):
            stream = yield from client.call_troupe_stream(
                troupe, 0, 0, b"x")
            result = yield from stream.next()
            assert result.status == "ok"
            stream.cancel()

    world.run(body())
    world.sim.run()
    assert len(client.endpoint._discarded_returns) == 0


def test_multicast_reduces_send_operations():
    """§4.3.3: with multicast, sending a call to an n-member troupe costs
    one sendmsg instead of n."""
    from repro.core.runtime import RuntimeConfig

    def measure(use_multicast):
        world = World(machines=6, runtime_config=RuntimeConfig(
            use_multicast=use_multicast))
        troupe, _ = world.make_troupe("echo", echo_module, degree=4)
        client = world.make_client()

        def body():
            yield from client.call_troupe(troupe, 0, 0, b"mc")

        world.run(body())
        return (client.process.syscall_counts.get("sendmsg", 0),
                world.net.multicasts_sent)

    mc_sends, mc_casts = measure(True)
    p2p_sends, p2p_casts = measure(False)
    assert mc_casts >= 1 and p2p_casts == 0
    assert mc_sends < p2p_sends
