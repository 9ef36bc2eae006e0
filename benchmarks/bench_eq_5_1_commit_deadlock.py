"""Equation 5.1 — deadlock probability of the troupe commit protocol.

P[deadlock] = 1 - (1/k!)^(n-1) for k conflicting transactions and an
n-member troupe whose members serialize independently and uniformly.

Two experiments:

1. a Monte-Carlo run of the protocol's decision structure: each member
   serializes the k conflicting transactions in an independent random
   order (lock-table arrival order); the coordinators' gathers succeed
   only if all members chose the same order — measured frequency vs the
   closed form;
2. a full-stack spot check at k=2, n=2: two clients run conflicting
   transactions through the real commit protocol with randomized
   arrival; aborted transactions retry with binary exponential back-off
   and eventually both commit (the §5.3.1 starvation remedy).
"""

import itertools

import pytest

from repro.analysis import deadlock_probability
from repro.bench.report import Table, register_table
from repro.sim.rng import RandomStream

TRIALS = 4000


def monte_carlo_deadlock(k: int, n: int, trials: int = TRIALS,
                         seed: int = 13) -> float:
    """Sample the §5.3.1 model: n members independently pick one of the
    k! serialization orders; deadlock-free iff all orders agree."""
    rng = RandomStream(seed, "eq51-k%d-n%d" % (k, n))
    orders = list(itertools.permutations(range(k)))
    deadlocks = 0
    for _ in range(trials):
        picks = {rng.choice(orders) for _ in range(n)}
        if len(picks) > 1:
            deadlocks += 1
    return deadlocks / trials


def test_equation_5_1_monte_carlo():
    table = Table(
        "Eq 5.1: troupe commit deadlock probability, measured vs analytic",
        ["k (txns)", "n (members)", "analytic", "measured"],
        notes="P[deadlock] = 1 - (1/k!)^(n-1); approaches certainty as "
              "conflicts grow, the starvation argument of Sec 5.3.1.")
    for k in (1, 2, 3, 4):
        for n in (1, 2, 3):
            analytic = deadlock_probability(k, n)
            measured = monte_carlo_deadlock(k, n)
            table.add_row(k, n, analytic, measured)
            assert measured == pytest.approx(analytic, abs=0.03), (k, n)
    register_table(table)


def test_full_protocol_conflict_resolves_with_backoff():
    """The end-to-end behaviour behind the equation: conflicting
    transactions may abort (the protocol turned divergent orders into a
    deadlock, broken by timeout), and back-off retry makes progress."""
    from repro.core import ExportedModule, RuntimeConfig
    from repro.harness import World
    from repro.rpc import RemoteError
    from repro.sim import Sleep
    from repro.transactions import (
        BinaryExponentialBackoff,
        CommitCoordinator,
        CommitParticipant,
        TransactionManager,
        TransactionalStore,
    )
    from repro.transactions.commit import TXN_ABORTED_ERROR

    def run_conflict(seed):
        world = World(machines=8, seed=seed)
        stores = []

        def factory():
            return ExportedModule("kv", {})

        troupe, runtimes = world.make_troupe(
            "kv", factory, degree=2,
            runtime_config=RuntimeConfig(execution="parallel"))
        for runtime, module in zip(runtimes,
                                   [r.exports[0] for r in runtimes]):
            manager = TransactionManager(world.sim)
            store = TransactionalStore(manager)
            stores.append(store)
            participant = CommitParticipant(runtime, manager, store)

            def make_increment(participant=participant, store=store):
                def increment(ctx, args):
                    def body(txn):
                        value = yield from store.read(txn, "counter")
                        yield Sleep(5.0)  # widen the conflict window
                        yield from store.write(txn, "counter",
                                               (value or 0) + 1)
                        return b"ok"
                    return (yield from participant.run_transaction(ctx, body))
                return increment

            module.define(0, make_increment())

        outcomes = []

        def make_client(tag, delay):
            client = world.make_client()
            CommitCoordinator(client)

            def body():
                yield Sleep(delay)
                backoff = BinaryExponentialBackoff(
                    RandomStream(seed * 100 + ord(tag), tag),
                    initial_mean=150.0)
                aborts = 0
                for _ in range(10):
                    try:
                        yield from client.call_troupe(troupe, 0, 0, b"")
                        outcomes.append((tag, aborts))
                        return
                    except RemoteError as exc:
                        if exc.kind != TXN_ABORTED_ERROR:
                            raise
                        aborts += 1
                        yield Sleep(backoff.next_delay())
                outcomes.append((tag, -1))
            return body

        world.spawn(make_client("A", 0.0)())
        world.spawn(make_client("B", 2.0)())
        world.sim.run(until=120000.0)
        final = {store.committed_get("counter") for store in stores}
        return outcomes, final

    total_aborts = 0
    committed_clients = 0
    for seed in range(4):
        outcomes, final = run_conflict(seed)
        for _tag, aborts in outcomes:
            assert aborts >= 0, "a client starved despite back-off"
            total_aborts += aborts
            committed_clients += 1
        # Troupe consistency: both members converged to the same value,
        # equal to the number of committed increments.
        assert len(final) == 1
        assert final.pop() == len(outcomes)
    assert committed_clients == 8

    table = Table(
        "Eq 5.1 (full stack): conflicting transactions under the troupe "
        "commit protocol",
        ["runs", "clients committed", "protocol aborts observed"],
        notes="Aborts are the protocol converting divergent serialization "
              "orders into deadlocks; binary exponential back-off retries "
              "them to completion.")
    table.add_row(4, committed_clients, total_aborts)
    register_table(table)
