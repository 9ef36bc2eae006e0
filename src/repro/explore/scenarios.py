"""The scenario catalog: workloads the fault explorer drives.

A :class:`Scenario` bundles a workload factory with the knobs the
explorer needs: how many machines the world has, which machines the
fault schedule may target (the *servers* — the client stays a reliable
observer, Jepsen-style, so verdicts are about the system, not about a
dead tester), the schedule horizon, and the virtual-time budget after
which a stuck run is abandoned.

Every workload must terminate under arbitrary fault schedules: expected
fault outcomes (:class:`~repro.core.TroupeFailure`,
:class:`~repro.pairedmsg.PeerCrashed`, ...) are caught and recorded as
outcome strings; only *unexpected* exceptions escape, and the explorer
reports those as crashes.  Outcome strings must be deterministic and
process-independent (no troupe IDs, no object reprs) — they feed the run
digest.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from typing import Callable, Dict, List, Optional, Tuple

# Every module a seed imports is imported with the catalog: a sweep asks
# for its scenario before it forks, so no forked worker imports one.  A
# module only some scenarios use is a ``Scenario.imports`` entry instead,
# off the other scenarios' path.
from repro.bench.scenarios import echo_module
from repro.core import (CollationError, ExportedModule, FirstComeCollator,
                        ReplicatedCallError, RuntimeConfig,
                        StaleBindingError, TroupeDescriptor, TroupeRuntime,
                        new_troupe_id)
from repro.explore.schedule import (
    ADVERSARIAL_PROFILE,
    DEFAULT_PROFILE,
    ELASTIC_ADVERSARIAL_PROFILE,
    ELASTIC_PROFILE,
    Profile,
)
from repro.harness import World
from repro.host.machine import MachineCrashed
from repro.net.network import NetworkConfig
from repro.obs.history import OperationHistoryRecorder
from repro.obs.lincheck import HistoryOracle
from repro.pairedmsg import (PairedEndpoint, PairedMessageConfig, PeerCrashed,
                             SendTimeout)
from repro.rpc import RemoteError
from repro.sim.kernel import Sleep
from repro.sim.rng import RandomStream
from repro.transactions import (BinaryExponentialBackoff, CommitCoordinator,
                                CommitParticipant, TransactionalStore,
                                TransactionManager)
from repro.transactions.commit import TXN_ABORTED_ERROR


@dataclasses.dataclass
class ScenarioRun:
    """What a scenario factory returns: a built world, a workload
    generator factory, and the machine names faults may target."""

    world: World
    body: Callable[[], object]
    fault_machines: List[str]
    #: an :class:`~repro.obs.history.OperationHistoryRecorder` when the
    #: workload records a client-visible operation history; the explorer
    #: finalizes it and runs the scenario's offline ``checker`` on it.
    history: Optional[object] = None


@dataclasses.dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    horizon: float          # schedule generation window (virtual ms)
    budget: float           # abandon the run at this virtual time
    profile: Profile
    factory: Callable[[int], ScenarioRun]
    #: default oracle slugs for this scenario (None = the full suite).
    #: Scenarios whose profiles produce partitions exclude
    #: ``troupe-determinism`` by default: a partition can make a client
    #: falsely declare a live member crashed (§4.2.3), after which that
    #: member legitimately misses calls — the §4.3.5 hazard the paper
    #: resolves by reconfiguration, which these workloads don't run.
    #: Pass ``oracles=``/``monitors=`` to :func:`repro.explore.run` to
    #: opt back in.
    oracles: Optional[Tuple[str, ...]] = None
    #: offline checker semantics (:data:`repro.obs.lincheck.SEMANTICS`)
    #: applied to the recorded history after the run; requires the
    #: factory to populate :attr:`ScenarioRun.history`.
    checker: Optional[str] = None
    #: modules this scenario's seeds import that the catalog does not
    #: (the elastic scenarios' binding agent and autoscaler, kept off
    #: every other scenario's path); :meth:`load` imports them.
    imports: Tuple[str, ...] = ()

    def build(self, seed: int) -> ScenarioRun:
        return self.factory(seed)

    def load(self) -> "Scenario":
        """Import :attr:`imports` and return the scenario: with the
        catalog's own imports, every module a seed of it imports.
        :func:`get_scenario` does this, and so does a sweep before it
        forks its workers."""
        for module in self.imports:
            importlib.import_module(module)
        return self

    def history_oracle(self, run: ScenarioRun) -> Optional[HistoryOracle]:
        """The :attr:`checker` over ``run``'s recorded history, or None
        when the scenario checks none."""
        if run.history is None or not self.checker:
            return None
        return HistoryOracle(run.history, self.checker)


def _make_echo(seed: int, degree: int = 3,
               net_config: Optional[NetworkConfig] = None) -> ScenarioRun:
    """A ``degree``-member echo troupe answering a client's replicated
    calls; the workload length and pacing are themselves seed-derived
    (the client-workload knob of the schedule)."""
    world = World(machines=degree + 2, seed=seed, net_config=net_config)
    troupe, _runtimes = world.make_troupe("echo-svc", echo_module,
                                          degree=degree)
    servers = sorted({m.process.host for m in troupe.members})
    client = world.make_client()
    rng = RandomStream(seed, "explore-workload")
    calls = rng.randint(6, 14)
    gaps = [round(rng.uniform(0.0, 250.0), 3) for _ in range(calls)]

    def body():
        outcomes = []
        for i in range(calls):
            if gaps[i] > 0:
                yield Sleep(gaps[i])
            payload = b"ping-%d" % i
            try:
                reply = yield from client.call_troupe(troupe, 0, 0, payload)
            except ReplicatedCallError as exc:
                outcomes.append("call-%d:%s" % (i, type(exc).__name__))
            else:
                ok = reply == b"echo:" + payload
                outcomes.append("call-%d:%s" % (i, "ok" if ok else
                                                "WRONG-REPLY"))
        return outcomes

    return ScenarioRun(world=world, body=body, fault_machines=servers)


def _make_pairs(seed: int) -> ScenarioRun:
    """Two paired-message endpoints exchanging seed-sized calls — the
    §4.2 protocol fuzzed below the RPC layer."""
    world = World(machines=3, seed=seed)
    client_m, server_m = world.machines[0], world.machines[1]
    config = PairedMessageConfig(max_segment_data=256,
                                 retransmit_interval=25.0,
                                 crash_timeout=600.0,
                                 probe_interval=100.0)
    client = PairedEndpoint(client_m.spawn_process("pm-client"),
                            config=config)
    server_proc = server_m.spawn_process("pm-server")
    server = PairedEndpoint(server_proc, port=500, config=config)

    def serve():
        while True:
            msg = yield from server.next_call()
            yield from server.send_return(msg.peer, msg.call_number,
                                          b"r:" + msg.data)

    server_proc.spawn(serve(), daemon=True)
    rng = RandomStream(seed, "explore-workload")
    sizes = [rng.randint(0, 2048) for _ in range(rng.randint(3, 8))]

    def body():
        outcomes = []
        for number, size in enumerate(sizes, start=1):
            try:
                reply = yield from client.call(server.addr, number,
                                               b"p" * size)
            except (PeerCrashed, SendTimeout, MachineCrashed) as exc:
                outcomes.append("xfer-%d:%s" % (number, type(exc).__name__))
            else:
                ok = reply == b"r:" + b"p" * size
                outcomes.append("xfer-%d:%s" % (number, "ok" if ok else
                                                "WRONG-REPLY"))
        yield Sleep(300.0)   # let stray duplicates drain under the oracles
        return outcomes

    # The server machine only — crashing the client machine would kill
    # the observer, not the system under test.
    return ScenarioRun(world=world, body=body,
                       fault_machines=[server_m.name])


# ---------------------------------------------------------------------------
# Transactional-store scenarios (history-checked)
#
# High-contention workloads over a replicated TransactionalStore under
# the §5.3 troupe commit protocol.  Every client call is recorded as a
# client-visible operation (repro.obs.history); after the run the
# explorer feeds the history to the offline checker named by
# ``Scenario.checker`` — the oracle that can falsify the paper's §5
# claim that replica divergence surfaces as deadlock/unavailability,
# never as inconsistent data.


def _store_troupe(world: World, name: str, degree: int, build_procs,
                  initial=None, divergence_bug: bool = False):
    """A ``degree``-member transactional-store troupe on the world's
    first ``degree`` machines.  Built by hand (not ``make_troupe``)
    because each member owns per-replica state: its own
    TransactionManager + TransactionalStore + CommitParticipant, which
    ``build_procs(participant, store, index)`` wires into a fresh
    ExportedModule.

    ``divergence_bug`` plants the §5 bug the checker exists to catch:
    the last member acknowledges commits but never applies them to its
    global state — a silently diverging replica.
    """
    machines = world.machines[:degree]
    troupe_id = new_troupe_id()
    members = []
    for index, machine in enumerate(machines):
        process = machine.spawn_process(name)
        runtime = TroupeRuntime(
            process, config=RuntimeConfig(execution="parallel"),
            resolver=world.resolver, troupe_id=troupe_id)
        manager = TransactionManager(world.sim)
        store = TransactionalStore(manager, initial=dict(initial or {}))
        if divergence_bug and index == degree - 1:
            store._apply_to_global = lambda writes: None
        participant = CommitParticipant(runtime, manager, store)
        members.append(runtime.export(build_procs(participant, store,
                                                  index)))
        runtime.start_server()
        world.runtimes.append(runtime)
    descriptor = TroupeDescriptor(name, troupe_id, tuple(members))
    world.register(descriptor)
    return descriptor


def _txn_clients(world: World, recorder, first: int, names):
    """``(runtime, history client)`` per name: unreplicated client
    runtimes on machines ``first``, ``first + 1``, ..., each with the
    commit coordinator exported as module 0 (the §5.3 convention)."""
    sessions = []
    for offset, name in enumerate(names):
        runtime = world.make_client(
            machine_name=world.machines[first + offset].name)
        CommitCoordinator(runtime)
        sessions.append((runtime, recorder.client(name, runtime)))
    return sessions


def _guarded_txn_call(runtime, troupe, procedure, payload, hclient, op,
                      outcomes, tag, result, collator=None):
    """One recorded attempt at a transactional troupe call.  Returns
    ``"ok"`` (the history records ``result(reply)`` as the op's result),
    ``"aborted"`` (clean §5.3 abort — the operation definitely did not
    take effect) or ``"info"`` (troupe failure / collation error / other
    remote error — unknown whether it took effect)."""
    try:
        reply = yield from runtime.call_troupe(troupe, 0, procedure,
                                               payload, collator=collator)
    except RemoteError as exc:
        if exc.kind == TXN_ABORTED_ERROR:
            hclient.fail(op)
            outcomes.append("%s:aborted" % tag)
            return "aborted"
        hclient.info(op)
        outcomes.append("%s:remote-%s" % (tag, exc.kind))
        return "info"
    except (ReplicatedCallError, CollationError) as exc:
        hclient.info(op)
        outcomes.append("%s:%s" % (tag, type(exc).__name__))
        return "info"
    outcomes.append("%s:ok" % tag)
    hclient.ok(op, result(reply))
    return "ok"


def _spawn_clients(world: World, seed: int, plans, attempt, name: str):
    """Spawn one client process per plan, ``<name>-client-<ci>``, and
    return a generator that ends when all of them have.

    Client ``ci`` works through ``plans[ci]`` in order: it sleeps the
    op's gap (its last field), then runs ``attempt(ci, oi, op, tries)``.
    An attempt that returns ``"aborted"`` — a clean §5.3 abort, so the op
    did not take effect — is retried up to three times, each after a
    binary exponential back-off drawn from the client's own stream."""
    done: List[int] = []

    def drive(ci):
        backoff = BinaryExponentialBackoff(
            RandomStream(seed, "explore-backoff-%d" % ci),
            initial_mean=60.0)
        for oi, op in enumerate(plans[ci]):
            if op[-1] > 0:
                yield Sleep(op[-1])
            tries = 0
            while (yield from attempt(ci, oi, op, tries)) == "aborted" \
                    and tries < 3:
                tries += 1
                yield Sleep(backoff.next_delay())
        done.append(ci)

    for ci in range(len(plans)):
        world.spawn(drive(ci), name="%s-client-%d" % (name, ci))

    def wait():
        while len(done) < len(plans):
            yield Sleep(50.0)
    return wait()


def _make_register(seed: int, degree: int = 3, clients: int = 2,
                   divergence_bug: bool = False) -> ScenarioRun:
    """Concurrent blind writes and reads on two replicated registers.

    Every write runs as a §5.3 transaction; reads collate unanimously
    (so live divergence surfaces as a CollationError, per the paper)
    unless ``divergence_bug`` — then reads take the fastest member
    (FirstComeCollator, §4.3.4's speed-over-safety trade) and the
    planted non-applying replica becomes client-visible as stale reads
    the linearizability checker rejects.
    """
    READ, WRITE = 0, 1
    world = World(machines=degree + clients, seed=seed)

    def build_procs(participant, store, _index):
        def read(ctx, args):
            def body(txn):
                value = yield from store.read(txn, args)
                return value if value is not None else b""
            return (yield from participant.run_transaction(ctx, body))

        def write(ctx, args):
            key, _, value = args.partition(b"=")

            def body(txn):
                yield from store.write(txn, key, value)
                return b"ok"
            return (yield from participant.run_transaction(ctx, body))

        return ExportedModule("register", {READ: read, WRITE: write})

    troupe = _store_troupe(world, "register", degree, build_procs,
                           divergence_bug=divergence_bug)
    servers = [m.name for m in world.machines[:degree]]
    recorder = OperationHistoryRecorder(
        world.sim,
        scenario="register-divergence" if divergence_bug else "register",
        seed=seed, semantics="register")

    rng = RandomStream(seed, "explore-workload")
    keys = (b"x", b"y")
    plans = []
    for ci in range(clients):
        ops = []
        for k in range(rng.randint(3, 5)):
            key = keys[rng.randint(0, len(keys) - 1)]
            gap = round(rng.uniform(0.0, 120.0), 3)
            if rng.uniform(0.0, 1.0) < 0.6:
                ops.append(("w", key, b"c%d-%d" % (ci, k), gap))
            else:
                ops.append(("r", key, None, gap))
        plans.append(ops)

    outcomes: List[str] = []

    def attempt(ci, oi, op, _tries):
        kind, key, value, _gap = op
        runtime, hclient = sessions[ci]
        tag = "c%d-%d" % (ci, oi)
        if kind == "w":
            hop = hclient.invoke("w", key=key.decode(), args=value.decode())
            return (yield from _guarded_txn_call(
                runtime, troupe, WRITE, key + b"=" + value, hclient, hop,
                outcomes, tag, lambda _reply: "ok"))
        hop = hclient.invoke("r", key=key.decode())
        return (yield from _guarded_txn_call(
            runtime, troupe, READ, key, hclient, hop, outcomes, tag,
            lambda reply: None if reply == b"" else reply.decode(),
            collator=FirstComeCollator() if divergence_bug else None))

    sessions = _txn_clients(world, recorder, degree,
                            ["c%d" % ci for ci in range(clients)])

    def body():
        yield from _spawn_clients(world, seed, plans, attempt, "register")
        yield Sleep(200.0)   # let stray duplicates drain under the oracles
        return sorted(outcomes)

    return ScenarioRun(world=world, body=body, fault_machines=servers,
                       history=recorder)


def _make_bank(seed: int, degree: int = 3, clients: int = 2) -> ScenarioRun:
    """Concurrent transfers between three replicated accounts, checked
    for strict serializability.

    Each account holds a *versioned cell* ``balance@opid``; a transfer
    reads both cells, sleeps inside the transaction to widen the
    conflict window, and writes uniquely tagged successor cells.  Every
    committed transaction returns exactly the versions it read and
    wrote, which is all the serialization-graph checker needs.
    """

    XFER, AUDIT = 0, 1
    accounts = (b"a", b"b", b"c")
    initial = {key: b"100@init" for key in accounts}
    world = World(machines=degree + clients + 1, seed=seed)

    def build_procs(participant, store, _index):
        def xfer(ctx, args):
            head, _, opid = args.rpartition(b":")
            pair, _, amount_raw = head.rpartition(b":")
            src, _, dst = pair.partition(b">")
            amount = int(amount_raw)

            def body(txn):
                cells = {}
                for key in sorted((src, dst)):
                    cells[key] = yield from store.read(txn, key)
                yield Sleep(1.0)   # widen the conflict window
                balances = {key: int(cell.split(b"@", 1)[0])
                            for key, cell in cells.items()}
                writes = {}
                if balances[src] >= amount:
                    writes[src] = b"%d@%s/s" % (balances[src] - amount,
                                                opid)
                    writes[dst] = b"%d@%s/d" % (balances[dst] + amount,
                                                opid)
                    for key in sorted(writes):
                        yield from store.write(txn, key, writes[key])
                return json.dumps(
                    {"reads": {k.decode(): cells[k].decode()
                               for k in cells},
                     "writes": {k.decode(): writes[k].decode()
                                for k in writes}},
                    sort_keys=True).encode()
            return (yield from participant.run_transaction(ctx, body))

        def audit(ctx, _args):
            def body(txn):
                cells = {}
                for key in accounts:
                    cells[key] = yield from store.read(txn, key)
                return json.dumps(
                    {"reads": {k.decode(): cells[k].decode()
                               for k in cells},
                     "writes": {}},
                    sort_keys=True).encode()
            return (yield from participant.run_transaction(ctx, body))

        return ExportedModule("bank", {XFER: xfer, AUDIT: audit})

    troupe = _store_troupe(world, "bank", degree, build_procs,
                           initial=initial)
    servers = [m.name for m in world.machines[:degree]]
    recorder = OperationHistoryRecorder(
        world.sim, scenario="bank-transfer", seed=seed, semantics="bank",
        initial={key.decode(): cell.decode()
                 for key, cell in initial.items()})

    rng = RandomStream(seed, "explore-workload")
    plans = []
    for ci in range(clients):
        ops = []
        for _k in range(rng.randint(2, 4)):
            src = accounts[rng.randint(0, 2)]
            dst = accounts[(accounts.index(src)
                            + rng.randint(1, 2)) % len(accounts)]
            ops.append((src, dst, rng.randint(5, 40),
                        round(rng.uniform(0.0, 100.0), 3)))
        plans.append(ops)

    outcomes: List[str] = []

    def decode_reply(reply):
        return json.loads(reply.decode())

    def attempt(ci, oi, op, tries):
        src, dst, amount, _gap = op
        runtime, hclient = sessions[ci]
        # version tags must stay unique across retries of an
        # unknown-outcome attempt, hence the attempt suffix
        opid = b"c%d-%d.%d" % (ci, oi, tries)
        hop = hclient.invoke("xfer", args="%s>%s:%d" % (
            src.decode(), dst.decode(), amount))
        return (yield from _guarded_txn_call(
            runtime, troupe, XFER, b"%s>%s:%d:%s" % (src, dst, amount, opid),
            hclient, hop, outcomes, "c%d-%d" % (ci, oi), decode_reply))

    sessions = _txn_clients(world, recorder, degree,
                            ["c%d" % ci for ci in range(clients)]
                            + ["auditor"])
    auditor_rt, auditor = sessions[-1]

    def body():
        yield from _spawn_clients(world, seed, plans, attempt, "bank")
        op = auditor.invoke("audit")
        yield from _guarded_txn_call(auditor_rt, troupe, AUDIT, b"", auditor,
                                     op, outcomes, "audit", decode_reply)
        yield Sleep(200.0)
        return sorted(outcomes)

    return ScenarioRun(world=world, body=body, fault_machines=servers,
                       history=recorder)


def _make_list_append(seed: int, degree: int = 3,
                      clients: int = 2) -> ScenarioRun:
    """Concurrent appends to one replicated list — the classic
    lost-update hunt: every client hammers the same key, so two
    transactions reading the same list and both committing their append
    would lose one element, which the linearizability checker rejects."""
    APPEND, READ = 0, 1
    KEY = b"log"
    world = World(machines=degree + clients, seed=seed)

    def build_procs(participant, store, _index):
        def append(ctx, args):
            def body(txn):
                value = yield from store.read(txn, KEY)
                yield Sleep(1.0)   # widen the conflict window
                new = args if not value else value + b"," + args
                yield from store.write(txn, KEY, new)
                return b"ok"
            return (yield from participant.run_transaction(ctx, body))

        def read(ctx, _args):
            def body(txn):
                value = yield from store.read(txn, KEY)
                return value if value is not None else b""
            return (yield from participant.run_transaction(ctx, body))

        return ExportedModule("list", {APPEND: append, READ: read})

    troupe = _store_troupe(world, "list", degree, build_procs)
    servers = [m.name for m in world.machines[:degree]]
    recorder = OperationHistoryRecorder(
        world.sim, scenario="list-append", seed=seed,
        semantics="list-append")

    rng = RandomStream(seed, "explore-workload")
    plans = []
    for ci in range(clients):
        ops = []
        for k in range(rng.randint(3, 5)):
            gap = round(rng.uniform(0.0, 80.0), 3)
            if rng.uniform(0.0, 1.0) < 0.7:
                ops.append(("append", b"c%d-%d" % (ci, k), gap))
            else:
                ops.append(("r", None, gap))
        plans.append(ops)

    outcomes: List[str] = []

    def attempt(ci, oi, op, _tries):
        kind, token, _gap = op
        runtime, hclient = sessions[ci]
        tag = "c%d-%d" % (ci, oi)
        if kind == "append":
            hop = hclient.invoke("append", key=KEY.decode(),
                                 args=token.decode())
            return (yield from _guarded_txn_call(
                runtime, troupe, APPEND, token, hclient, hop, outcomes, tag,
                lambda _reply: "ok"))
        hop = hclient.invoke("r", key=KEY.decode())
        return (yield from _guarded_txn_call(
            runtime, troupe, READ, b"", hclient, hop, outcomes, tag,
            lambda reply: [] if reply == b"" else reply.decode().split(",")))

    sessions = _txn_clients(world, recorder, degree,
                            ["c%d" % ci for ci in range(clients)])

    def body():
        yield from _spawn_clients(world, seed, plans, attempt, "list")
        yield Sleep(200.0)
        return sorted(outcomes)

    return ScenarioRun(world=world, body=body, fault_machines=servers,
                       history=recorder)


# ---------------------------------------------------------------------------
# Elastic scenarios: reconfiguration under fire (§6.4.1 + ROADMAP item 5)
#
# A TroupeAutoscaler (repro.elastic) grows and shrinks a replicated
# register troupe while clients read and write it.  The workload is
# shaped so membership changes happen even on fault-free seeds — a
# concurrent read burst forces a load-grow, the quiet tail a shrink —
# which keeps the bus full of the bind.get_state / bind.member events
# the reconfiguration-aware fault kinds (crash-during-transfer,
# partition-during-join) arm on.  Crashed members are swept and
# repaired machines re-join, so a fault mid-transfer begets *another*
# membership change for the next armed fault to hit.


def _elastic_register_module():
    """A fresh replicated register with §6.4.1 state transfer."""
    from repro.binding import ReplaceableModule

    state: Dict[bytes, bytes] = {}

    def read(ctx, args):
        return state.get(args, b"")

    def write(ctx, args):
        key, _, value = args.partition(b"=")
        state[key] = value
        return b"ok"

    def externalize():
        return b";".join(k + b"=" + state[k] for k in sorted(state))

    def internalize(raw):
        state.clear()
        for pair in raw.split(b";"):
            if pair:
                key, _, value = pair.partition(b"=")
                state[key] = value

    return ReplaceableModule("elastic-reg", {0: read, 1: write},
                             externalize=externalize,
                             internalize=internalize)


def _make_elastic(seed: int, pool: int = 4, clients: int = 2,
                  scenario_name: str = "elastic") -> ScenarioRun:
    """Autoscaled replicated register under client load.

    The controller and the clients live on reliable machines (``ctl``,
    ``obs``); faults target only the member pool.  Client operations are
    recorded for the offline linearizability check — which here spans
    reconfigurations: an operation can start against one troupe
    incarnation and complete against the next.
    """
    from repro.binding import BindingClient, BindingError, start_ringmaster
    from repro.elastic.controller import AutoscalerConfig, TroupeAutoscaler

    READ, WRITE = 0, 1
    NAME = "elastic-reg"
    names = ["ctl", "obs"] + ["pool%d" % i for i in range(pool)]
    world = World(machines=len(names), seed=seed, machine_names=names)
    ringmaster, _rm = start_ringmaster([world.machine("ctl")])
    controller_rt = world.make_client(machine_name="ctl")
    controller_binding = BindingClient(controller_rt, ringmaster)
    autoscaler = TroupeAutoscaler(
        world, controller_rt, controller_binding, NAME,
        _elastic_register_module,
        [world.machine(n) for n in names[2:]],
        config=AutoscalerConfig(interval=120.0, min_members=2,
                                max_members=3, high_depth=2.0,
                                low_depth=1.0, high_latency=70.0,
                                low_latency=30.0))
    recorder = OperationHistoryRecorder(
        world.sim, scenario=scenario_name, seed=seed, semantics="register")

    rng = RandomStream(seed, "explore-workload")
    keys = (b"x", b"y")
    plans = []
    for ci in range(clients):
        ops = []
        for k in range(rng.randint(4, 7)):
            key = keys[rng.randint(0, len(keys) - 1)]
            gap = round(rng.uniform(0.0, 350.0), 3)
            if rng.uniform(0.0, 1.0) < 0.55:
                ops.append(("w", key, b"c%d-%d" % (ci, k), gap))
            else:
                ops.append(("r", key, None, gap))
        plans.append(ops)
    burst_at = round(rng.uniform(250.0, 600.0), 3)
    burst_size = rng.randint(4, 6)

    outcomes: List[str] = []
    expected = (BindingError, ReplicatedCallError, CollationError,
                RemoteError, StaleBindingError, MachineCrashed)

    def guarded(step, tag, hclient=None, op=None):
        try:
            reply = yield from step
        except expected as exc:
            if hclient is not None:
                hclient.info(op)   # unknown whether it took effect
            outcomes.append("%s:%s" % (tag, type(exc).__name__))
            return None
        outcomes.append("%s:ok" % tag)
        return reply

    def attempt(ci, oi, op, _tries):
        kind, key, value, _gap = op
        binding, hclient = sessions[ci]
        tag = "c%d-%d" % (ci, oi)
        if kind == "w":
            hop = hclient.invoke("w", key=key.decode(), args=value.decode())
            reply = yield from guarded(
                binding.call(NAME, WRITE, key + b"=" + value), tag, hclient,
                hop)
            if reply is not None:
                hclient.ok(hop, "ok")
        else:
            hop = hclient.invoke("r", key=key.decode())
            reply = yield from guarded(binding.call(NAME, READ, key), tag,
                                       hclient, hop)
            if reply is not None:
                hclient.ok(hop, None if reply == b"" else reply.decode())

    sessions = []
    for ci in range(clients):
        runtime = world.make_client(machine_name="obs")
        sessions.append((BindingClient(runtime, ringmaster),
                         recorder.client("c%d" % ci, runtime)))
    burst_rt = world.make_client(machine_name="obs")
    burst_binding = BindingClient(burst_rt, ringmaster)

    def burst_reader(bi):
        # unrecorded concurrent reads: they pile up queue depth to
        # force a load-grow, and reads can't perturb the checked history
        yield from guarded(burst_binding.call(NAME, READ, keys[0]),
                           "b%d" % bi)

    def body():
        pool_machines = autoscaler.pool
        yield from guarded(autoscaler.bootstrap(pool_machines[0]),
                           "setup-bootstrap")
        yield from guarded(autoscaler.join(pool_machines[1]), "setup-join")
        autoscaler.start()
        waiting = _spawn_clients(world, seed, plans, attempt, "elastic")
        yield Sleep(burst_at)
        for bi in range(burst_size):
            world.spawn(burst_reader(bi), name="elastic-burst-%d" % bi)
            yield Sleep(5.0)
        yield from waiting
        yield Sleep(400.0)   # quiet tail: the autoscaler shrinks; stray
        autoscaler.stop()    # duplicates drain under the oracles
        return sorted(outcomes)

    return ScenarioRun(world=world, body=body,
                       fault_machines=names[2:], history=recorder)


#: the oracles that must hold under *every* fault schedule (see
#: :class:`Scenario.oracles` for why troupe-determinism is opt-in).
UNCONDITIONAL_ORACLES = (
    "exactly-once",
    "collation-completeness",
    "commit-unanimity",
    "crash-silence",
    "incarnation-monotonic",
)

#: oracles for the transactional (history-checked) scenarios.  On top of
#: the :data:`UNCONDITIONAL_ORACLES` exclusions, these also drop
#: ``collation-completeness``: a partition can make one client falsely
#: declare a live store member crashed (§4.2.3), after which that member
#: misses calls and its replica legitimately diverges — a later
#: unanimous read then yields the *sanctioned* disagreement verdict the
#: monitor treats as a breach (§4.3.5, resolved by reconfiguration these
#: workloads don't run).  The offline history checker is the sound
#: replacement: divergence surfacing as an error/unavailability is legal
#: per the paper; divergence surfacing as wrong data fails the check.
TXN_ORACLES = (
    "exactly-once",
    "commit-unanimity",
    "crash-silence",
    "incarnation-monotonic",
)

#: what only the elastic factories import
_ELASTIC_IMPORTS = ("repro.binding", "repro.elastic.controller")

#: the catalog, by name
SCENARIOS: Dict[str, Scenario] = {scenario.name: scenario for scenario in (
    Scenario(
        name="echo",
        description="3-member echo troupe, replicated calls from one client",
        horizon=2500.0, budget=30000.0, profile=DEFAULT_PROFILE,
        factory=_make_echo,
        oracles=UNCONDITIONAL_ORACLES),
    Scenario(
        name="echo-adversarial",
        description="echo troupe under dense, correlated fault schedules",
        horizon=2500.0, budget=40000.0, profile=ADVERSARIAL_PROFILE,
        factory=_make_echo,
        oracles=UNCONDITIONAL_ORACLES),
    Scenario(
        name="lossy-echo",
        description="echo troupe over a baseline-lossy wire plus scheduled "
                    "faults",
        horizon=2500.0, budget=40000.0, profile=DEFAULT_PROFILE,
        factory=lambda seed: _make_echo(seed, net_config=NetworkConfig(
            loss_probability=0.05, duplicate_probability=0.02)),
        oracles=UNCONDITIONAL_ORACLES),
    Scenario(
        name="pairs",
        description="raw paired-message exchanges (the §4.2 layer, below "
                    "RPC)",
        horizon=2000.0, budget=30000.0, profile=DEFAULT_PROFILE,
        factory=_make_pairs),
    Scenario(
        name="register",
        description="transactional replicated registers under concurrent "
                    "blind writes; oracle: offline linearizability check",
        horizon=2500.0, budget=90000.0, profile=DEFAULT_PROFILE,
        factory=_make_register,
        oracles=TXN_ORACLES, checker="register"),
    Scenario(
        name="register-divergence",
        description="the register scenario with a planted silently-diverging "
                    "replica and fastest-member reads — the §5 bug the "
                    "lincheck oracle exists to catch (validation scenario)",
        horizon=2500.0, budget=90000.0, profile=DEFAULT_PROFILE,
        factory=lambda seed: _make_register(seed, divergence_bug=True),
        oracles=TXN_ORACLES, checker="register"),
    Scenario(
        name="bank-transfer",
        description="concurrent transfers between replicated accounts; "
                    "oracle: offline strict-serializability check",
        horizon=2500.0, budget=90000.0, profile=DEFAULT_PROFILE,
        factory=_make_bank,
        oracles=TXN_ORACLES, checker="bank"),
    Scenario(
        name="elastic",
        description="autoscaled replicated register: membership grows and "
                    "shrinks under load while armed faults land mid-transfer; "
                    "all six monitors plus the offline linearizability check "
                    "run across the membership boundary",
        horizon=3000.0, budget=90000.0, profile=ELASTIC_PROFILE,
        factory=_make_elastic,
        oracles=None, checker="register", imports=_ELASTIC_IMPORTS),
    Scenario(
        name="elastic-adversarial",
        description="the elastic scenario under dense armed fault schedules "
                    "(more mid-transfer crashes and mid-join partitions)",
        horizon=3000.0, budget=90000.0, profile=ELASTIC_ADVERSARIAL_PROFILE,
        factory=lambda seed: _make_elastic(
            seed, scenario_name="elastic-adversarial"),
        oracles=None, checker="register", imports=_ELASTIC_IMPORTS),
    Scenario(
        name="list-append",
        description="concurrent appends to one replicated list (lost-update "
                    "hunt); oracle: offline linearizability check",
        horizon=2500.0, budget=90000.0, profile=DEFAULT_PROFILE,
        factory=_make_list_append,
        oracles=TXN_ORACLES, checker="list-append"),
)}


def get_scenario(name: str) -> Scenario:
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise KeyError("unknown scenario %r (choose from: %s)"
                       % (name, ", ".join(sorted(SCENARIOS))))
    return scenario.load()
