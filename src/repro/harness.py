"""Convenience harness for assembling simulated replicated programs.

Building a replicated distributed program by hand takes a simulator, a
network, machines, processes, runtimes, troupe descriptors, and a resolver.
This module packages those steps so examples, tests, and benchmarks can
say what they mean:

    world = World(machines=6, seed=42)
    echo = world.make_module("echo", {0: echo_handler})
    troupe, runtimes = world.make_troupe("echo-svc", echo, degree=3)
    client = world.make_client("client-host")
    reply = world.run(client.call_troupe(troupe, 0, 0, b"hi"))

The World keeps a static troupe registry (the resolver a real deployment
would get from the Ringmaster binding agent in :mod:`repro.binding`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.runtime import ExportedModule, RuntimeConfig, TroupeRuntime
from repro.core.troupe import TroupeDescriptor, TroupeId, new_troupe_id
from repro.host.machine import Machine
from repro.host.syscalls import SyscallCostModel
from repro.net.addresses import ProcessAddress
from repro.net.network import Network, NetworkConfig
from repro.rpc.threads import ThreadId
from repro.sim.kernel import Simulator


class World:
    """A simulator, a network, and a set of machines, wired together."""

    def __init__(self, machines: int = 6, seed: int = 0,
                 net_config: Optional[NetworkConfig] = None,
                 runtime_config: Optional[RuntimeConfig] = None,
                 cost_model: Optional[SyscallCostModel] = None,
                 machine_names: Optional[List[str]] = None,
                 troupe_id_base: Optional[int] = None):
        self.sim = Simulator()
        self.runtime_config = runtime_config or RuntimeConfig()
        if machine_names is None:
            machine_names = ["host%d" % i for i in range(machines)]
        self.net = self._make_network(seed, net_config, machine_names)
        # One cost model, shared by every machine.
        cost_model = cost_model or SyscallCostModel()
        self.machines: List[Machine] = [
            Machine(self.sim, self.net, name, cost_model=cost_model)
            for name in machine_names]
        self._machine_by_name = {m.name: m for m in self.machines}
        #: troupe_id -> list of member process addresses (the resolver's map)
        self.registry: Dict[TroupeId, List[ProcessAddress]] = {}
        #: every runtime this world created, so benchmarks can aggregate
        #: per-endpoint counters (see :meth:`endpoint_stats`).
        self.runtimes: List[TroupeRuntime] = []
        self._next_host = 0
        #: workload scratch space: generators accumulate completion counts
        #: here so drivers (e.g. :func:`repro.sim.sharded.run_sharded`)
        #: can sum them without threading result objects through builders.
        self.counters: Dict[str, float] = {}
        #: like :attr:`counters`, but for per-observation samples
        #: (latencies); values are plain lists of floats.
        self.samples: Dict[str, List[float]] = {}
        # Troupe IDs normally come from the process-global allocator
        # (permanently unique).  A sharded run builds N replicas of the
        # same world in one process and needs their troupe IDs to match
        # replica-for-replica, so it pins a per-world base instead.
        self._troupe_ids = (iter(range(troupe_id_base, 1 << 62))
                            if troupe_id_base is not None else None)

    def _make_network(self, seed: int, net_config: Optional[NetworkConfig],
                      machine_names: List[str]) -> Network:
        """Build this world's wire; sharded worlds override this to route
        cross-shard traffic through an outbox (:mod:`repro.sim.sharded`)."""
        return Network(self.sim, seed=seed, config=net_config)

    def _new_troupe_id(self) -> TroupeId:
        if self._troupe_ids is not None:
            return next(self._troupe_ids)
        return new_troupe_id()

    def owns(self, host: str) -> bool:
        """Whether this world simulates ``host`` itself (always true for a
        plain single-process world; sharded worlds own a subset)."""
        return True

    def spawn_on(self, machine_name: str, gen, name: Optional[str] = None):
        """Spawn ``gen`` only when this world owns ``machine_name``.

        Workload builders use this so the same builder code runs in every
        shard of a sharded world: each session starts exactly once, on the
        shard that owns its home machine.  Returns the process, or None
        when the host belongs to another shard (the generator is closed)."""
        if not self.owns(machine_name):
            gen.close()
            return None
        return self.spawn(gen, name=name)

    # -- machines -----------------------------------------------------------

    def machine(self, name: str) -> Machine:
        return self._machine_by_name[name]

    def _pick_machines(self, count: int,
                       names: Optional[List[str]] = None) -> List[Machine]:
        if names is not None:
            return [self._machine_by_name[name] for name in names]
        if count > len(self.machines):
            raise ValueError("world has only %d machines, %d requested"
                             % (len(self.machines), count))
        picked = []
        for _ in range(count):
            picked.append(self.machines[self._next_host % len(self.machines)])
            self._next_host += 1
        return picked

    # -- resolver -------------------------------------------------------

    def resolver(self, troupe_id: TroupeId) -> Optional[List[ProcessAddress]]:
        """The client-troupe-membership lookup servers use for many-to-one
        calls (§4.3.2)."""
        return self.registry.get(troupe_id)

    def register(self, descriptor: TroupeDescriptor) -> None:
        self.registry[descriptor.troupe_id] = list(descriptor.processes)

    # -- modules and troupes ------------------------------------------------

    @staticmethod
    def make_module(name: str,
                    procedures: Dict[int, Callable]) -> ExportedModule:
        return ExportedModule(name, procedures)

    def make_troupe(self, name: str,
                    module_factory,
                    degree: int = 3,
                    on_machines: Optional[List[str]] = None,
                    port: Optional[int] = None,
                    runtime_config: Optional[RuntimeConfig] = None,
                    ) -> Tuple[TroupeDescriptor, List[TroupeRuntime]]:
        """Instantiate a troupe of ``degree`` members.

        ``module_factory`` is either an :class:`ExportedModule` (shared
        state is then shared between members — fine for stateless modules)
        or a zero-argument callable returning a fresh ExportedModule per
        member (required for stateful modules: members must not literally
        share memory, they are replicas on different machines).
        """
        machines = self._pick_machines(degree, on_machines)
        troupe_id = self._new_troupe_id()
        runtimes = []
        members = []
        for machine in machines:
            process = machine.spawn_process(name)
            runtime = TroupeRuntime(
                process, port=port,
                config=runtime_config or self.runtime_config,
                resolver=self.resolver, troupe_id=troupe_id)
            if callable(module_factory) and not isinstance(
                    module_factory, ExportedModule):
                module = module_factory()
            else:
                module = module_factory
            member_addr = runtime.export(module)
            runtime.start_server()
            runtimes.append(runtime)
            self.runtimes.append(runtime)
            members.append(member_addr)
        descriptor = TroupeDescriptor(name, troupe_id, tuple(members))
        self.register(descriptor)
        return descriptor, runtimes

    def make_client(self, machine_name: Optional[str] = None,
                    troupe_id: TroupeId = 0,
                    thread_id: Optional[ThreadId] = None,
                    runtime_config: Optional[RuntimeConfig] = None,
                    ) -> TroupeRuntime:
        """An unreplicated client runtime on the named (or next) machine."""
        if machine_name is None:
            machine = self._pick_machines(1)[0]
        else:
            machine = self._machine_by_name[machine_name]
        process = machine.spawn_process("client")
        runtime = TroupeRuntime(process,
                                config=runtime_config or self.runtime_config,
                                resolver=self.resolver, troupe_id=troupe_id,
                                thread_id=thread_id)
        self.runtimes.append(runtime)
        return runtime

    def make_client_troupe(self, name: str, degree: int,
                           on_machines: Optional[List[str]] = None,
                           thread_id: Optional[ThreadId] = None,
                           runtime_config: Optional[RuntimeConfig] = None,
                           ) -> Tuple[TroupeDescriptor, List[TroupeRuntime]]:
        """A client troupe: replicated callers sharing one logical thread
        ID (§4.3.2) and a registered troupe ID so servers can gather their
        many-to-one calls."""
        machines = self._pick_machines(degree, on_machines)
        troupe_id = self._new_troupe_id()
        if thread_id is None:
            thread_id = ThreadId("logical-%s" % name, troupe_id)
        runtimes = []
        members = []
        for machine in machines:
            process = machine.spawn_process(name)
            runtime = TroupeRuntime(
                process, config=runtime_config or self.runtime_config,
                resolver=self.resolver, troupe_id=troupe_id,
                thread_id=thread_id)
            runtimes.append(runtime)
            self.runtimes.append(runtime)
            members.append(runtime.addr)
        self.registry[troupe_id] = members
        from repro.net.addresses import ModuleAddress
        descriptor = TroupeDescriptor(
            name, troupe_id, tuple(ModuleAddress(a, 0) for a in members))
        return descriptor, runtimes

    def endpoint_stats(self) -> Dict[str, float]:
        """Sum the paired-endpoint stats/counters across every runtime
        this world created on a machine it owns (the message-path proxy
        metrics).  A sharded world's ghost replicas never run, but their
        endpoints exist and count their construction-time daemon spawn;
        every runtime is owned by exactly one shard, so the per-shard
        sums add up to the single-process totals."""
        totals: Dict[str, float] = {}
        for runtime in self.runtimes:
            if not self.owns(runtime.process.machine.name):
                continue
            for key, value in runtime.endpoint.stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # -- running --------------------------------------------------------

    def run(self, gen, name: Optional[str] = None,
            until: Optional[float] = None):
        """Run a client generator to completion and return its result."""
        return self.sim.run_process(gen, name=name, until=until)

    def spawn(self, gen, name: Optional[str] = None):
        return self.sim.spawn(gen, name=name)

    # -- fault schedules ------------------------------------------------

    def install_schedule(self, schedule):
        """Wire a :class:`repro.explore.schedule.FaultSchedule` into this
        world; returns the (not yet started)
        :class:`repro.explore.driver.ScheduleDriver`::

            driver = world.install_schedule(schedule)
            driver.start()
            world.run(body())
            driver.stop()
        """
        from repro.explore.driver import ScheduleDriver
        return ScheduleDriver(self.sim, self.machines, self.net, schedule)

    # -- monitoring -----------------------------------------------------

    def watch(self, monitors=None, capacity: int = 2048,
              trace: bool = False):
        """Invariant-monitor this world for a ``with`` block — see
        :func:`repro.obs.monitor.watch`::

            with world.watch() as probe:
                world.run(body())
            assert not probe.violations
        """
        from repro.obs.monitor import watch
        return watch(self.sim, monitors=monitors, capacity=capacity,
                     trace=trace)

    def observe(self):
        """Full telemetry for a ``with`` block: metrics (with their
        windows) and critical-path attribution, in one attach::

            with world.observe() as obs:
                world.run(body())
            obs.critpath.report()["attributed_pct"]
            obs.metrics.series("rpc.calls_completed", ...).points()
        """
        return _Observation(self)


class _Observation:
    """What :meth:`World.observe` yields: the two telemetry observers
    over one world's bus, attached together and detached together."""

    def __init__(self, world: World):
        self._world = world
        self.metrics = None        # MetricsRegistry after __enter__
        self.critpath = None       # CritPathAnalyzer after __enter__
        self._collectors = []

    def __enter__(self) -> "_Observation":
        from repro.obs import CritPathAnalyzer, MetricsCollector
        metrics = MetricsCollector(self._world.sim.bus)
        self.critpath = CritPathAnalyzer(self._world.sim)
        self.metrics = metrics.registry
        self._collectors = [metrics, self.critpath]
        return self

    def __exit__(self, *exc_info) -> None:
        for collector in reversed(self._collectors):
            collector.close()
        self._collectors = []
