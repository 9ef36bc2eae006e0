"""The canned scenarios the CLI and the gated tables both run (and the
echo module the explorer's echo troupes serve).

Each factory returns ``(world, body)``: a built :class:`World` and a
no-argument callable producing the client generator, so the caller
decides what to attach (tracer, monitors, collectors) before
``world.run(body())``.  Seeds are fixed: every run of a scenario — and
every number derived from it — is reproducible.
"""

from __future__ import annotations

from repro.core import ExportedModule, TroupeFailure
from repro.harness import World
from repro.net.network import NetworkConfig


def echo_module():
    def echo(ctx, args):
        yield from ctx.compute(1.0)
        return b"echo:" + args

    return ExportedModule("echo", {0: echo})


def quickstart():
    """The examples/quickstart.py scenario: a 3-member echo troupe
    answering replicated calls while its machines crash underneath it."""
    world = World(machines=5, seed=42)
    troupe, _members = world.make_troupe("echo-service", echo_module,
                                         degree=3)
    client = world.make_client()

    def body():
        yield from client.call_troupe(troupe, 0, 0, b"hello")
        world.machine(troupe.members[0].process.host).crash()
        yield from client.call_troupe(troupe, 0, 0, b"still there?")
        world.machine(troupe.members[1].process.host).crash()
        yield from client.call_troupe(troupe, 0, 0, b"last one?")
        world.machine(troupe.members[2].process.host).crash()
        try:
            yield from client.call_troupe(troupe, 0, 0, b"anyone?")
        except TroupeFailure:
            pass

    return world, body


def protocol_trace():
    """The examples/protocol_trace.py scenario: one replicated call to a
    2-member troupe."""
    world = World(machines=3, seed=5,
                  machine_names=["client", "server-1", "server-2"])
    troupe, _ = world.make_troupe("echo", echo_module, degree=2,
                                  on_machines=["server-1", "server-2"])
    client = world.make_client("client")

    def body():
        yield from client.call_troupe(troupe, 0, 0, b"hi")

    return world, body


def circus(iterations: int):
    """``iterations`` sequential replicated calls to a 3-member troupe —
    the Table 4.1 Circus(3) shape, with the bus attached."""
    world = World(machines=4, seed=7)
    troupe, _ = world.make_troupe("echo", echo_module, degree=3)
    client = world.make_client()

    def body():
        for i in range(iterations):
            yield from client.call_troupe(troupe, 0, 0, b"ping %d" % i)

    return world, body


def lossy():
    """A 3-member troupe under a lossy, duplicating wire plus a machine
    crash mid-run: every recovery path (retransmission, duplicate
    suppression, crash declaration) exercises under the monitors.  The
    seed is fixed so the run — and its silence — is reproducible."""
    world = World(machines=5, seed=1234,
                  net_config=NetworkConfig(loss_probability=0.05,
                                           duplicate_probability=0.02))
    troupe, _ = world.make_troupe("echo", echo_module, degree=3)
    client = world.make_client()

    def body():
        for i in range(10):
            yield from client.call_troupe(troupe, 0, 0, b"lossy %d" % i)
        world.machine(troupe.members[0].process.host).crash()
        try:
            for i in range(5):
                yield from client.call_troupe(troupe, 0, 0, b"after %d" % i)
        except TroupeFailure:
            pass

    return world, body
