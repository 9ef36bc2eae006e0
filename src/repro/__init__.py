"""repro — a reproduction of *Replicated Distributed Programs*
(Eric C. Cooper, Berkeley, 1985): troupes, replicated procedure call, and
the Circus system, rebuilt on a deterministic discrete-event simulation.

Quick tour
----------

    from repro.harness import World
    from repro.core import ExportedModule

    world = World(machines=6, seed=42)

    def echo_factory():
        def echo(ctx, args):
            return b"echo:" + args
        return ExportedModule("echo", {0: echo})

    troupe, members = world.make_troupe("echo-svc", echo_factory, degree=3)
    client = world.make_client()

    def body():
        return (yield from client.call_troupe(troupe, 0, 0, b"hello"))

    print(world.run(body()))   # b'echo:hello' — exactly-once at 3 replicas

Packages
--------

=====================  ====================================================
``repro.sim``          discrete-event kernel (processes, events, queues)
``repro.net``          simulated wire, UDP and TCP analogues
``repro.host``         machines, OS processes, the Table 4.2 cost model
``repro.pairedmsg``    the Circus paired message protocol (§4.2)
``repro.rpc``          call/return messages, thread IDs (§3.4.1, §4.3)
``repro.core``         troupes, replicated calls, collators (§3.5, §4.3)
``repro.model``        the Chapter 3 formal model, executable
``repro.transactions`` lightweight transactions, troupe commit, ordered
                       broadcast (Chapter 5)
``repro.binding``      the Ringmaster binding agent, reconfiguration
                       (Chapter 6)
``repro.stubs``        IDL, stub compiler, explicit binding/replication
                       (Chapter 7)
``repro.config``       troupe configuration language and manager (§7.5)
``repro.analysis``     the paper's closed-form models (Eq 5.1, 6.1, 6.2,
                       harmonic-number call-time analysis)
``repro.harness``      convenience assembly of simulated worlds
=====================  ====================================================
"""

__version__ = "1.0.0"

import importlib
import sys


def _namespace(package: str, exports: dict):
    """The PEP 562 ``__getattr__`` and ``__dir__`` of ``package``, whose
    ``exports`` maps every public name to the submodule that defines it
    (a submodule maps to itself).  A package ``__init__`` lists its
    exports here and imports none of them: a name's submodule is imported
    when the name is first read, and the value is then kept on the
    package, so a process imports only what it uses."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError("module %r has no attribute %r"
                                 % (package, name))
        module = importlib.import_module(package + "." + exports[name])
        value = module if exports[name] == name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__


__getattr__, __dir__ = _namespace(__name__, {
    "CollationError": "core",
    "ExportedModule": "core",
    "FirstComeCollator": "core",
    "MajorityCollator": "core",
    "StaleBindingError": "core",
    "TroupeDescriptor": "core",
    "TroupeFailure": "core",
    "TroupeRuntime": "core",
    "UnanimousCollator": "core",
    "World": "harness",
    **{package: package for package in (
        "analysis", "bench", "binding", "config", "core", "elastic",
        "explore", "harness", "host", "model", "net", "obs", "pairedmsg",
        "rpc", "sim", "stubs", "tools", "transactions")},
})

__all__ = [
    "CollationError",
    "ExportedModule",
    "FirstComeCollator",
    "MajorityCollator",
    "StaleBindingError",
    "TroupeDescriptor",
    "TroupeFailure",
    "TroupeRuntime",
    "UnanimousCollator",
    "World",
    "__version__",
]
