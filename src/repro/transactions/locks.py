"""Two-phase locking (§2.3.1) with nested-transaction lock inheritance.

The simplest two-phase locking associates a lock with each shared object;
this table supports shared (read) and exclusive (write) modes, FIFO
waiting, and the Moss rules for nested transactions: a transaction may
acquire a lock whose conflicting holders are all its ancestors, a
committing subtransaction's locks are inherited by its parent, and an
aborting subtransaction's locks are released.

The table also exposes the *waits-for* relation (§2.3.1): "T waits for T'"
when T waits for a lock held by T'; a cycle in it is a deadlock.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Set

from repro.obs import events as obs_events
from repro.sim.events import Event
from repro.sim.kernel import Simulator

SHARED = "shared"
EXCLUSIVE = "exclusive"


class TransactionAborted(Exception):
    """Raised inside transaction code when the transaction was aborted
    (deadlock victim, explicit abort, or commit refused)."""

    def __init__(self, txn_id: Any, reason: str = ""):
        super().__init__("transaction %s aborted%s" % (
            txn_id, ": " + reason if reason else ""))
        self.txn_id = txn_id
        self.reason = reason


def _conflicts(mode_a: str, mode_b: str) -> bool:
    return mode_a == EXCLUSIVE or mode_b == EXCLUSIVE


class _Waiter:
    __slots__ = ("txn", "mode", "event")

    def __init__(self, txn, mode: str, event: Event):
        self.txn = txn
        self.mode = mode
        self.event = event


class _ObjectLock:
    """The lock state of one shared object."""

    def __init__(self, key: Hashable):
        self.key = key
        self.holders: Dict[Any, str] = {}   # txn -> mode
        self.queue: List[_Waiter] = []


class LockTable:
    """All object locks of one troupe member, plus the waits-for graph.

    ``ancestors`` maps a transaction to the set of its ancestors (for the
    Moss compatibility rule); for flat transactions pass the default,
    which treats every transaction as unrelated.
    """

    def __init__(self, sim: Simulator,
                 ancestors: Optional[Callable[[Any], Set[Any]]] = None):
        self.sim = sim
        self._locks: Dict[Hashable, _ObjectLock] = {}
        self._held_by: Dict[Any, Set[Hashable]] = {}
        self._ancestors = ancestors or (lambda txn: set())
        #: called whenever a transaction blocks on a lock — the hook an
        #: event-driven deadlock detector arms itself from.
        self.block_listeners: List[Callable[[], None]] = []

    # -- acquisition -----------------------------------------------------

    def acquire(self, txn, key: Hashable, mode: str):
        """Generator: block until ``txn`` holds ``key`` in ``mode``.

        Raises :class:`TransactionAborted` if the transaction is aborted
        while waiting (deadlock victim).
        """
        if mode not in (SHARED, EXCLUSIVE):
            raise ValueError("unknown lock mode: %r" % mode)
        lock = self._locks.setdefault(key, _ObjectLock(key))
        wait_started = None
        while not self._grantable(lock, txn, mode):
            if wait_started is None:
                wait_started = self.sim.now
                if "txn.lock_wait" in self.sim.bus.wanted:
                    self.sim.bus.emit(obs_events.LockWait(
                        t=self.sim.now, txn=str(txn), key=repr(key),
                        mode=mode,
                        holders=tuple(sorted(str(h)
                                             for h in lock.holders))))
            waiter = _Waiter(txn, mode, Event(self.sim, "lock-%r" % (key,)))
            lock.queue.append(waiter)
            for listener in self.block_listeners:
                listener()
            outcome = yield waiter.event
            if outcome == "aborted":
                raise TransactionAborted(txn, "aborted while waiting for %r"
                                         % (key,))
        self._grant(lock, txn, mode)
        if (wait_started is not None
                and "txn.lock_grant" in self.sim.bus.wanted):
            self.sim.bus.emit(obs_events.LockGranted(
                t=self.sim.now, txn=str(txn), key=repr(key), mode=mode,
                waited=self.sim.now - wait_started))

    def try_acquire(self, txn, key: Hashable, mode: str) -> bool:
        """Non-blocking acquire; True on success."""
        lock = self._locks.setdefault(key, _ObjectLock(key))
        if self._grantable(lock, txn, mode):
            self._grant(lock, txn, mode)
            return True
        return False

    def _grantable(self, lock: _ObjectLock, txn, mode: str) -> bool:
        ancestors = self._ancestors(txn)
        for holder, held_mode in lock.holders.items():
            if holder == txn:
                if mode == EXCLUSIVE and held_mode == SHARED:
                    # Upgrade: allowed only if no other conflicting holder.
                    continue
                return True  # already held in a sufficient or equal mode
            if holder in ancestors:
                continue  # Moss rule: conflicts with ancestors don't count
            if _conflicts(mode, held_mode):
                return False
        return True

    def _grant(self, lock: _ObjectLock, txn, mode: str) -> None:
        current = lock.holders.get(txn)
        if current == EXCLUSIVE:
            mode = EXCLUSIVE
        lock.holders[txn] = mode
        self._held_by.setdefault(txn, set()).add(lock.key)

    # -- release -----------------------------------------------------------

    def release_all(self, txn) -> None:
        """Release every lock held by ``txn`` (commit or abort of a
        top-level transaction): strict two-phase locking.  Keys go in
        ``repr`` order, never set order, so which waiter wakes first does
        not depend on the string-hash seed (keys of mixed types sort
        too)."""
        for key in sorted(self._held_by.pop(txn, set()), key=repr):
            lock = self._locks.get(key)
            if lock is None:
                continue
            lock.holders.pop(txn, None)
            self._wake(lock)

    def inherit_all(self, child, parent) -> None:
        """Moss: a committing subtransaction's locks pass to its parent."""
        for key in sorted(self._held_by.pop(child, set()), key=repr):
            lock = self._locks.get(key)
            if lock is None:
                continue
            child_mode = lock.holders.pop(child, SHARED)
            parent_mode = lock.holders.get(parent)
            if parent_mode != EXCLUSIVE:
                lock.holders[parent] = (
                    EXCLUSIVE if child_mode == EXCLUSIVE else
                    parent_mode or child_mode)
            self._held_by.setdefault(parent, set()).add(key)
            self._wake(lock)

    def abort_waiter(self, txn) -> None:
        """Wake ``txn`` with an abort if it is blocked on any lock."""
        for lock in self._locks.values():
            for waiter in list(lock.queue):
                if waiter.txn == txn:
                    lock.queue.remove(waiter)
                    if not waiter.event.fired:
                        waiter.event.fire("aborted")

    def _wake(self, lock: _ObjectLock) -> None:
        """Wake waiters whose requests are now grantable, FIFO."""
        for waiter in list(lock.queue):
            if self._grantable(lock, waiter.txn, waiter.mode):
                lock.queue.remove(waiter)
                if not waiter.event.fired:
                    waiter.event.fire("granted")
            elif waiter.mode == EXCLUSIVE:
                # FIFO fairness: a blocked exclusive waiter blocks later ones.
                break

    # -- introspection ----------------------------------------------------

    def holders(self, key: Hashable) -> Dict[Any, str]:
        lock = self._locks.get(key)
        return dict(lock.holders) if lock else {}

    def held_keys(self, txn) -> Set[Hashable]:
        return set(self._held_by.get(txn, set()))

    def waiting(self) -> Dict[Event, Any]:
        """Each queued waiter's wake-up event -> its transaction."""
        return {waiter.event: waiter.txn for lock in self._locks.values()
                for waiter in lock.queue}

    def waits_for(self) -> Dict[Any, Set[Any]]:
        """The waits-for relation: waiter -> set of conflicting holders."""
        graph: Dict[Any, Set[Any]] = {}
        for lock in self._locks.values():
            for waiter in lock.queue:
                ancestors = self._ancestors(waiter.txn)
                blockers = {
                    holder for holder, held_mode in lock.holders.items()
                    if holder != waiter.txn and holder not in ancestors
                    and _conflicts(waiter.mode, held_mode)}
                if blockers:
                    graph.setdefault(waiter.txn, set()).update(blockers)
        return graph
