"""Lightweight nested transactions in volatile memory (§5.2).

Conventional nested transaction mechanisms (Reed, Moss) guarantee
atomicity, serializability, *and* permanence, using stable storage for
intention lists and commit records.  Permanence is not required in
programs constructed from troupes, because troupes mask partial failures;
"an implementation of transactions for replicated distributed programs can
dispense with the crash recovery facilities based on stable storage and
operate entirely in volatile memory.  The result is ... lightweight
transactions."

This module provides:

- :class:`Transaction` — a node in the nesting tree with status tracking;
- :class:`TransactionManager` — begin/commit/abort, ancestor queries,
  integration with the lock table and deadlock detector;
- :class:`TransactionalStore` — a keyed object store with two-phase
  locking, per-transaction write sets (tentative updates), and the Moss
  visibility rules: a transaction's tentative updates are visible to its
  descendants; a committed subtransaction's updates become visible to its
  parent; an abort undoes everything, and aborts never cascade.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Hashable, List, Optional, Set

from repro.sim.kernel import Simulator
from repro.transactions.locks import (
    EXCLUSIVE,
    LockTable,
    SHARED,
    TransactionAborted,
)


class TransactionStatus:
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One transaction in the nesting tree.

    Serial numbers come from the member-local manager, so deterministic
    troupe members assign identical serials to corresponding transactions
    (replica determinism: error messages and votes must not differ)."""

    def __init__(self, manager: "TransactionManager",
                 parent: Optional["Transaction"] = None):
        self.manager = manager
        self.parent = parent
        self.children: List[Transaction] = []
        self.serial = next(manager._serials)
        self.started_at = manager.sim.now
        self.status = TransactionStatus.ACTIVE
        #: tentative updates: key -> value (a deleted key maps to TOMBSTONE)
        self.writes: Dict[Hashable, Any] = {}
        if parent is not None:
            parent.children.append(self)

    @property
    def txn_id(self) -> str:
        return "T%d" % self.serial

    def __repr__(self) -> str:
        return "<Transaction %s (%s)>" % (self.txn_id, self.status)

    def ancestors(self) -> Set["Transaction"]:
        result = set()
        node = self.parent
        while node is not None:
            result.add(node)
            node = node.parent
        return result

    def require_active(self) -> None:
        if self.status != TransactionStatus.ACTIVE:
            raise TransactionAborted(self.txn_id,
                                     "transaction is %s" % self.status)


class _Tombstone:
    def __repr__(self) -> str:
        return "<deleted>"


TOMBSTONE = _Tombstone()


class TransactionManager:
    """Creates and terminates transactions for one troupe member."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.locks = LockTable(sim, ancestors=lambda t: t.ancestors())
        self.active: Set[Transaction] = set()
        self.commits = 0
        self.aborts = 0
        self._serials = itertools.count(1)

    def begin(self, parent: Optional[Transaction] = None) -> Transaction:
        if parent is not None:
            parent.require_active()
        txn = Transaction(self, parent)
        self.active.add(txn)
        return txn

    def commit(self, txn: Transaction, store: "TransactionalStore") -> None:
        """Commit: merge tentative updates into the parent (or the global
        state for a top-level transaction) and handle locks accordingly."""
        txn.require_active()
        self._require_children_settled(txn)
        if txn.parent is None:
            store._apply_to_global(txn.writes)
            self.locks.release_all(txn)
        else:
            txn.parent.require_active()
            txn.parent.writes.update(txn.writes)
            self.locks.inherit_all(txn, txn.parent)
        txn.status = TransactionStatus.COMMITTED
        self.active.discard(txn)
        self.commits += 1

    def abort(self, txn: Transaction, reason: str = "") -> None:
        """Abort: discard tentative updates; recursively abort any active
        subtransactions; undo is implicit because updates were tentative."""
        if txn.status != TransactionStatus.ACTIVE:
            return
        for child in txn.children:
            self.abort(child, "parent aborted")
        txn.writes.clear()
        txn.status = TransactionStatus.ABORTED
        self.locks.release_all(txn)
        self.locks.abort_waiter(txn)
        self.active.discard(txn)
        self.aborts += 1

    def waits_for(self):
        return self.locks.waits_for()

    @staticmethod
    def _require_children_settled(txn: Transaction) -> None:
        for child in txn.children:
            if child.status == TransactionStatus.ACTIVE:
                raise RuntimeError(
                    "cannot commit %s: child %s still active" % (
                        txn.txn_id, child.txn_id))


class TransactionalStore:
    """A keyed store with two-phase locking and nested visibility.

    All reads and writes go through transactions; the global state changes
    only when a top-level transaction commits.  Entirely volatile: a
    machine crash loses it, and that is fine — replication is the
    alternative to stable storage (§3.5.1).
    """

    def __init__(self, manager: TransactionManager,
                 initial: Optional[Dict[Hashable, Any]] = None):
        self.manager = manager
        self._global: Dict[Hashable, Any] = dict(initial or {})

    # -- transactional operations (generators: they may block on locks) --

    def read(self, txn: Transaction, key: Hashable):
        """Generator: the value of ``key`` visible to ``txn`` (or None)."""
        txn.require_active()
        yield from self.manager.locks.acquire(txn, key, SHARED)
        return self._visible(txn, key)

    def write(self, txn: Transaction, key: Hashable, value: Any):
        """Generator: tentatively set ``key`` to ``value``."""
        txn.require_active()
        yield from self.manager.locks.acquire(txn, key, EXCLUSIVE)
        txn.writes[key] = value

    def delete(self, txn: Transaction, key: Hashable):
        """Generator: tentatively delete ``key``."""
        txn.require_active()
        yield from self.manager.locks.acquire(txn, key, EXCLUSIVE)
        txn.writes[key] = TOMBSTONE

    def keys(self, txn: Transaction):
        """Generator: the set of keys visible to ``txn``.

        Locks the whole keyspace conservatively by taking a shared lock on
        a distinguished whole-store key.
        """
        txn.require_active()
        yield from self.manager.locks.acquire(txn, _WHOLE_STORE, SHARED)
        visible = set(self._global)
        node: Optional[Transaction] = txn
        chain = []
        while node is not None:
            chain.append(node)
            node = node.parent
        for node in reversed(chain):
            for key, value in node.writes.items():
                if value is TOMBSTONE:
                    visible.discard(key)
                else:
                    visible.add(key)
        visible.discard(_WHOLE_STORE)
        return visible

    # -- non-transactional access (state transfer, assertions in tests) --

    def snapshot(self) -> Dict[Hashable, Any]:
        """The committed global state (used by get_state, §6.4.1)."""
        return dict(self._global)

    def load_snapshot(self, state: Dict[Hashable, Any]) -> None:
        """Install a state copied from an existing troupe member."""
        self._global = dict(state)

    def committed_get(self, key: Hashable, default: Any = None) -> Any:
        return self._global.get(key, default)

    # -- internals ----------------------------------------------------------

    def _visible(self, txn: Transaction, key: Hashable) -> Any:
        node: Optional[Transaction] = txn
        while node is not None:
            if key in node.writes:
                value = node.writes[key]
                return None if value is TOMBSTONE else value
            node = node.parent
        return self._global.get(key)

    def _apply_to_global(self, writes: Dict[Hashable, Any]) -> None:
        for key, value in writes.items():
            if value is TOMBSTONE:
                self._global.pop(key, None)
            else:
                self._global[key] = value


class _WholeStoreKey:
    def __repr__(self) -> str:
        return "<whole-store>"


_WHOLE_STORE = _WholeStoreKey()
