"""The §6.4.2 availability experiment, run live under the autoscaler.

:func:`run_elastic` assembles one controller machine (Ringmaster +
autoscaler + clients — the reliable observer) and an ``n``-machine member
pool, then lets two processes fight over the pool for ``duration``
virtual milliseconds:

- a stock exponential :class:`~repro.host.failures.FailureModel` crashes
  and repairs exactly the ``n`` pool machines (mean lifetime ``mttf``,
  mean repair ``mttr``) — the literal birth-death process of Figure 6.3;
- the :class:`~repro.elastic.controller.TroupeAutoscaler` keeps a
  replicated counter troupe alive on whatever machines are up, removing
  fail-stopped members and re-joining repaired machines through §6.4.1
  state transfer, while also scaling on the client load (the workload
  alternates bursts and quiet phases so both directions trigger).

Because the failure process runs over exactly the ``n`` pool machines,
``FailureModel.measured_availability()`` is a direct measurement of
``1 - p_n`` and lands next to Equation 6.1's prediction
(:func:`repro.analysis.availability.availability`) in the report.  A
second measured number — the fraction of time the *troupe* had at least
one live member — shows the reconfiguration lag the machine-level model
cannot see.

Everything in the returned payload is virtual-time-deterministic: the
same seed produces byte-identical JSON under any ``PYTHONHASHSEED``, which
``tests/test_determinism_end_to_end.py`` checks in three fresh processes.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.analysis.availability import availability
from repro.binding import BindingClient, ReplaceableModule, start_ringmaster
from repro.elastic.controller import AutoscalerConfig, TroupeAutoscaler
from repro.harness import World
from repro.host.failures import FailureModel
from repro.obs.critpath import CritPathAnalyzer
from repro.sim.kernel import Sleep
from repro.sim.rng import RandomStream

#: the deterministic report format tag.
ELASTIC_FORMAT = "repro.elastic/1"

#: troupe name used by the experiment and the explore scenarios.
TROUPE_NAME = "elastic-svc"

READ_PROC, INCR_PROC = 0, 1


def counter_module() -> ReplaceableModule:
    """A fresh replicated counter with §6.4.1 state transfer."""
    state: Dict[str, int] = {}

    def increment(ctx, args):
        state["count"] = state.get("count", 0) + 1
        return b"%d" % state["count"]

    def get(ctx, args):
        return b"%d" % state.get("count", 0)

    return ReplaceableModule(
        "counter", {READ_PROC: get, INCR_PROC: increment},
        externalize=lambda: b"%d" % state.get("count", 0),
        internalize=lambda raw: state.__setitem__("count", int(raw)))


def _percentile(samples: List[float], pct: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(pct / 100.0 * (len(ordered) - 1))))
    return ordered[index]


def build_world(seed: int, pool: int):
    """Controller machine + ``pool`` member machines, Ringmaster and
    autoscaler wired on the controller.  Returns
    ``(world, autoscaler, client_binding)``."""
    names = ["ctl"] + ["pool%d" % i for i in range(pool)]
    world = World(machines=len(names), seed=seed, machine_names=names)
    ctl = world.machine("ctl")
    ringmaster, _members = start_ringmaster([ctl])
    controller_rt = world.make_client(machine_name="ctl")
    controller_binding = BindingClient(controller_rt, ringmaster)
    autoscaler = TroupeAutoscaler(
        world, controller_rt, controller_binding, TROUPE_NAME,
        counter_module, [world.machine(n) for n in names[1:]],
        config=AutoscalerConfig(min_members=1, max_members=max(2, pool - 1)))
    client_rt = world.make_client(machine_name="ctl")
    client_binding = BindingClient(client_rt, ringmaster)
    return world, autoscaler, client_binding


def run_elastic(seed: int = 0, pool: int = 4, duration: float = 30000.0,
                mttf: float = 8000.0, mttr: float = 1200.0,
                burst_every: float = 4000.0, burst_calls: int = 6,
                config: Optional[AutoscalerConfig] = None) -> Dict:
    """Run the experiment; returns the deterministic report payload."""
    if pool < 2:
        raise ValueError("the member pool needs at least 2 machines")
    world, autoscaler, client_binding = build_world(seed, pool)
    if config is not None:
        autoscaler.config = config
    sim = world.sim
    pool_machines = autoscaler.pool
    model = FailureModel(sim, pool_machines, failure_rate=1.0 / mttf,
                         repair_rate=1.0 / mttr, seed=seed)
    rng = RandomStream(seed, "elastic-workload")
    ok: List[int] = [0]
    failed: List[int] = [0]
    latencies: List[float] = []
    troupe_up_ms: List[float] = [0.0]

    def one_call(tag: bytes):
        started = sim.now
        try:
            reply = yield from client_binding.call(
                TROUPE_NAME, INCR_PROC, tag)
        except Exception:
            failed[0] += 1
        else:
            ok[0] += 1
            latencies.append(sim.now - started)
            return reply

    def troupe_uptime_poller():
        # samples whether >=1 registered member is live; 25 ms resolution.
        while True:
            yield Sleep(25.0)
            live = any(not autoscaler._broken(name)
                       for name in autoscaler.members)
            if live:
                troupe_up_ms[0] += 25.0

    def body():
        # found the troupe on the first two pool machines before the
        # failure process starts gunning for them.
        yield from autoscaler.bootstrap(pool_machines[0])
        yield from autoscaler.join(pool_machines[1])
        autoscaler.start()
        model.start()
        sim.spawn(troupe_uptime_poller(), name="troupe-uptime", daemon=True)
        t_end = sim.now + duration
        cycle = 0
        while sim.now < t_end:
            # burst phase: concurrent calls pile up queue depth (grow)...
            for i in range(burst_calls):
                sim.spawn(one_call(b"b%d-%d" % (cycle, i)),
                          name="burst-%d-%d" % (cycle, i))
                yield Sleep(round(rng.uniform(1.0, 15.0), 3))
            # ...then a quiet phase: sparse sequential calls (shrink).
            quiet_until = min(t_end, sim.now + burst_every)
            while sim.now < quiet_until:
                yield from one_call(b"q%d" % cycle)
                yield Sleep(round(rng.uniform(150.0, 400.0), 3))
            cycle += 1
        model.stop()
        autoscaler.stop()
        yield Sleep(300.0)   # drain retransmits and in-flight calls

    with CritPathAnalyzer(sim) as critpath:
        world.run(body(), name="elastic-experiment")
        cp_report = critpath.report()

    elapsed = sim.now
    measured = model.measured_availability()
    predicted = availability(pool, 1.0 / mttf, 1.0 / mttr)
    troupe_avail = min(1.0, troupe_up_ms[0] / duration) if duration else 1.0
    return {
        "format": ELASTIC_FORMAT,
        "seed": seed,
        "pool": pool,
        "mttf_ms": mttf,
        "mttr_ms": mttr,
        "duration_ms": duration,
        "virtual_end_ms": round(elapsed, 3),
        "calls": {
            "ok": ok[0],
            "failed": failed[0],
            "p50_ms": round(_percentile(latencies, 50.0), 3),
            "p99_ms": round(_percentile(latencies, 99.0), 3),
        },
        "availability": {
            "predicted_mmnn": round(predicted, 6),
            "measured_machine": round(measured, 6),
            "machine_delta": round(measured - predicted, 6),
            "measured_troupe": round(troupe_avail, 6),
        },
        "failures": {
            "machine_failures": model.total_failures,
            "machine_repairs": model.total_repairs,
        },
        "membership": autoscaler.summary(),
        "critpath": {
            "calls": cp_report["calls"],
            "degraded_calls": cp_report["degraded_calls"],
            "attributed_pct": cp_report["attributed_pct"],
            "dominant": cp_report["dominant"],
        },
    }


def payload_json(payload: Dict) -> str:
    """Canonical serialization (what the smoke job ``cmp``\\ s)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
