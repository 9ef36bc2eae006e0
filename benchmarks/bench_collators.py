"""Ablation — wait policies and collators (§4.3.4, §4.3.6).

Unanimous waiting pins a call to the *slowest* troupe member and buys
error detection; first-come runs at the speed of the *fastest* member and
forfeits it; majority sits in between and tolerates one divergent member.
This bench quantifies the latency spread under skewed member execution
rates, and measures the §4.3.4 buffering cost: with first-come, returns
from slow members accumulate at the client until they arrive.
"""

from repro.bench.report import Table, register_table
from repro.core import (
    FirstComeCollator,
    MajorityCollator,
    UnanimousCollator,
)
from repro.core.runtime import ExportedModule, RuntimeConfig
from repro.harness import World
from repro.pairedmsg.endpoint import PairedMessageConfig
from repro.sim import Sleep

#: Skewed member execution times (ms): one fast, one middling, one slow —
#: the "variation in execution rate" of §4.3.4.
MEMBER_DELAYS = [5.0, 40.0, 120.0]
CALLS = 30


def run_with_collator(make_collator, calls: int = CALLS, seed: int = 3):
    paired = PairedMessageConfig(retransmit_interval=1000.0,
                                 probe_interval=2000.0,
                                 crash_timeout=10000.0)
    world = World(machines=4, seed=seed,
                  runtime_config=RuntimeConfig(paired=paired))
    index = [0]

    def factory():
        delay = MEMBER_DELAYS[index[0]]
        index[0] += 1

        def serve(ctx, args, _delay=delay):
            yield Sleep(_delay)
            return b"result"
        return ExportedModule("skewed", {0: serve})

    troupe, _ = world.make_troupe("skewed", factory,
                                  degree=len(MEMBER_DELAYS))
    client = world.make_client()

    def body():
        start = world.sim.now
        for _ in range(calls):
            yield from client.call_troupe(troupe, 0, 0, b"",
                                          collator=make_collator())
        mean_latency = (world.sim.now - start) / calls
        # §4.3.4 buffering: returns nobody consumed yet sit in the
        # endpoint (client-side buffering of early/slow responses).
        buffered = len(client.endpoint._completed_returns)
        return mean_latency, buffered

    return world.run(body())


def test_collator_latency_spread():
    unanimous, buf_u = run_with_collator(UnanimousCollator)
    first_come, buf_f = run_with_collator(FirstComeCollator)
    majority, buf_m = run_with_collator(MajorityCollator)

    table = Table(
        "Ablation (Sec 4.3.4): wait policy vs per-call latency",
        ["policy", "mean ms/call", "decides after", "error detection"],
        notes="Member execution times skewed %s ms.  Unanimous is paced "
              "by the slowest member, first-come by the fastest." %
              MEMBER_DELAYS)
    table.add_row("unanimous", unanimous, "all members", "full")
    table.add_row("majority", majority, "majority agree", "partial")
    table.add_row("first-come", first_come, "first response", "none")
    register_table(table)

    assert first_come < majority < unanimous
    # Unanimous is paced by the slowest member (120 ms + protocol).
    assert unanimous > MEMBER_DELAYS[-1]
    # First-come is paced by the fastest (5 ms + protocol) — far below
    # the middle member's delay.
    assert first_come < MEMBER_DELAYS[1] + 30.0


def test_first_come_discards_straggler_returns():
    """Early decision must not leak: stragglers' returns are discarded by
    the endpoint (forget_return), so buffering stays bounded."""
    _latency, buffered = run_with_collator(FirstComeCollator, calls=30)
    assert buffered <= len(MEMBER_DELAYS)
