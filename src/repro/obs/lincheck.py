"""Offline consistency checking of recorded operation histories.

Three checkers over :class:`~repro.obs.history.OperationHistory`:

* **Wing–Gong linearizability** (``register`` / ``list-append``
  semantics): the classic backtracking search [Wing & Gong 1993] with
  the Lowe memoization refinement (a seen set of
  ``(completed-mask, model-state)`` pairs) and **P-compositionality**:
  linearizability is compositional [Herlihy & Wing 1990], so the
  history is partitioned per key and each sub-history checked
  independently — turning one exponential search into many small ones.

* **Strict serializability via serialization graph** (``bank``
  semantics): transactions report the versions they read and wrote;
  every written version is a globally unique cell, so the checker can
  build the direct serialization graph (write-read, write-write,
  read-write edges) plus real-time precedence edges, and report any
  cycle.  Lost updates (two committed transactions replacing the same
  predecessor version) and aborted reads are detected directly.

* **Total order** (``total-order`` semantics, for ordered-broadcast /
  troupe-commit delivery histories): each process reports its local
  delivery sequence; pairwise order disagreements form a precedence
  graph whose cycles witness the violation.

Unknown-outcome (``info``) operations are handled Jepsen-style: a
mutator whose response was lost *may* have taken effect, so the search
may linearize it or discard it; an ``info`` read is discarded outright
(it constrains nothing).  ``fail`` operations definitely did not take
effect and are dropped.

Every rejection carries a *minimal violating sub-history*: the failing
per-key partition is shrunk by greedy single-operation removal (each
candidate removal re-checked) so the report shows only operations that
are jointly necessary for the contradiction.

:class:`HistoryOracle` adapts a checker verdict to the explorer's
invariant-monitor protocol, so ``repro fuzz`` can hunt for consistency
violations with the same shrinking/triage machinery as the online
monitors (see docs/CHECKING.md).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.history import Operation, OperationHistory
from repro.obs.monitor import InvariantMonitor

#: semantics slug -> the invariant name the oracle reports under.
SEMANTICS = {
    "register": "linearizable-register",
    "list-append": "linearizable-list",
    "bank": "strict-serializable",
    "total-order": "total-order-delivery",
}

#: give up minimizing partitions larger than this (the re-check per
#: removed op is itself a search; beyond ~40 ops the shrunken schedule,
#: not the checker, is the minimization tool).
_MINIMIZE_LIMIT = 40


@dataclasses.dataclass
class CheckResult:
    """Verdict of one history check."""

    ok: bool
    semantics: str
    checked: int                     # operations actually considered
    reason: str = ""
    key: Optional[str] = None        # failing partition, if per-key
    violation: List[Operation] = dataclasses.field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "semantics": self.semantics,
            "checked": self.checked,
            "reason": self.reason,
            "key": self.key,
            "violation": [op.to_dict() for op in self.violation],
        }


# ---------------------------------------------------------------------------
# sequential models for the Wing–Gong search


class RegisterSemantics:
    """A single read/write register.  State is the current value."""

    name = "register"

    def initial(self, value: Any) -> Any:
        return value

    def apply(self, state: Any, op: Operation) -> Tuple[bool, Any]:
        if op.op == "w":
            return True, op.args
        if op.op == "r":
            # an info read constrains nothing (no observed result)
            if op.status != "ok":
                return True, state
            return op.result == state, state
        raise ValueError("register model cannot apply op %r" % op.op)


class ListAppendSemantics:
    """An append-only list.  State is the tuple of appended elements."""

    name = "list-append"

    def initial(self, value: Any) -> Tuple:
        return tuple(value or ())

    def apply(self, state: Tuple, op: Operation) -> Tuple[bool, Any]:
        if op.op == "append":
            return True, state + (op.args,)
        if op.op == "r":
            if op.status != "ok":
                return True, state
            return tuple(op.result or ()) == state, state
        raise ValueError("list model cannot apply op %r" % op.op)


_MODELS = {"register": RegisterSemantics(), "list-append": ListAppendSemantics()}


def _is_mutator(op: Operation) -> bool:
    return op.op != "r"


def _partition_by_key(ops: Sequence[Operation]) -> Dict[str, List[Operation]]:
    parts: Dict[str, List[Operation]] = {}
    for op in ops:
        parts.setdefault(op.key, []).append(op)
    return parts


def _wg_linearizable(ops: Sequence[Operation], model, initial: Any) -> bool:
    """The Wing–Gong search: is there a legal sequential order of
    ``ops`` consistent with their real-time (inv_seq/ret_seq) order?

    ``info`` mutators additionally carry a "never happened" branch.
    Returns True iff such an order exists.
    """
    ops = list(ops)
    n = len(ops)
    if n == 0:
        return True
    if n > 62:            # bitmask domain; partitions this large are
        return True       # out of scope (and would never terminate)
    inv = [op.inv_seq for op in ops]
    ret = [op.ret_seq if op.ret_seq is not None else float("inf")
           for op in ops]
    is_info = [op.status == "info" for op in ops]
    full = (1 << n) - 1

    seen = set()
    # frames: (done_mask, dropped_mask, state); done includes dropped.
    stack = [(0, 0, model.initial(initial))]
    while stack:
        done, dropped, state = stack.pop()
        if done == full:
            return True
        marker = (done, dropped, state)
        if marker in seen:
            continue
        seen.add(marker)
        # an op is a candidate for "next linearized" iff no pending op
        # returned before it was invoked (real-time order respected)
        horizon = min((ret[i] for i in range(n) if not done >> i & 1),
                      default=float("inf"))
        for i in range(n):
            if done >> i & 1 or inv[i] > horizon:
                continue
            accepts, new_state = model.apply(state, ops[i])
            if accepts:
                stack.append((done | 1 << i, dropped, new_state))
            if is_info[i]:
                # unknown outcome: maybe it never took effect
                stack.append((done | 1 << i, dropped | 1 << i, state))
    return False


def _minimize(ops: List[Operation], still_fails) -> List[Operation]:
    """Greedy delta-debugging: drop ops one at a time while the check
    still fails.  ``still_fails(subset) -> bool``."""
    if len(ops) > _MINIMIZE_LIMIT:
        return ops
    current = list(ops)
    shrunk = True
    while shrunk:
        shrunk = False
        for i in range(len(current)):
            trial = current[:i] + current[i + 1:]
            if still_fails(trial):
                current = trial
                shrunk = True
                break
    return current


def _check_linearizable(history: OperationHistory,
                        semantics: str) -> CheckResult:
    model = _MODELS[semantics]
    # fail = definitely no effect; info reads constrain nothing.
    ops = [op for op in history.ops
           if op.status == "ok"
           or (op.status == "info" and _is_mutator(op))]
    for key, part in sorted(_partition_by_key(ops).items()):
        initial = history.initial.get(key)
        if not _wg_linearizable(part, model, initial):
            minimal = _minimize(
                part, lambda sub: not _wg_linearizable(sub, model, initial))
            return CheckResult(
                ok=False, semantics=semantics, checked=len(ops),
                reason="no linearization of %d operation(s) on key %r "
                       "exists" % (len(minimal), key),
                key=key, violation=minimal)
    return CheckResult(ok=True, semantics=semantics, checked=len(ops))


# ---------------------------------------------------------------------------
# strict serializability via the direct serialization graph


def _cycle(graph: Dict[int, set]) -> Optional[List[int]]:
    """First cycle found by iterative DFS, as a list of node ids."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    parent: Dict[int, int] = {}
    for root in sorted(graph):
        if color[root] != WHITE:
            continue
        stack = [(root, iter(sorted(graph[root])))]
        color[root] = GREY
        while stack:
            node, edges = stack[-1]
            advanced = False
            for nxt in edges:
                if nxt not in color:
                    continue
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    parent[nxt] = node
                    stack.append((nxt, iter(sorted(graph[nxt]))))
                    advanced = True
                    break
                if color[nxt] == GREY:
                    cycle = [nxt, node]
                    walk = node
                    while walk != nxt:
                        walk = parent[walk]
                        cycle.append(walk)
                    cycle.pop()          # drop the duplicated start
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def _check_serializable(history: OperationHistory) -> CheckResult:
    """Bank semantics: each committed transaction's result is
    ``{"reads": {key: cell}, "writes": {key: cell}}`` where a *cell* is
    a globally unique version id (``value@opid``).  Build the direct
    serialization graph and hunt for anomalies."""
    semantics = "bank"
    committed = [op for op in history.ops
                 if op.status == "ok" and isinstance(op.result, dict)]
    aborted = [op for op in history.ops if op.status == "fail"]

    def reads(op: Operation) -> Dict[str, Any]:
        return op.result.get("reads", {}) if isinstance(op.result, dict) else {}

    def writes(op: Operation) -> Dict[str, Any]:
        return op.result.get("writes", {}) if isinstance(op.result, dict) else {}

    # cell -> writing op; seed the version chains with the initial cells
    writer: Dict[Tuple[str, Any], Optional[Operation]] = {}
    for key, cell in history.initial.items():
        writer[(key, cell)] = None
    for op in committed:
        for key, cell in writes(op).items():
            if (key, cell) in writer:
                other = writer[(key, cell)]
                pair = [op] if other is None else [other, op]
                return CheckResult(
                    ok=False, semantics=semantics, checked=len(committed),
                    reason="duplicate version %r of key %r written twice "
                           "(replica divergence)" % (cell, key),
                    key=key, violation=pair)
            writer[(key, cell)] = op

    aborted_cells = {(key, cell)
                     for op in aborted if isinstance(op.result, dict)
                     for key, cell in writes(op).items()}

    # key -> cell -> successor cell, from each txn's read->write pairs;
    # lost update = two committed txns replacing the same version.
    replaced: Dict[Tuple[str, Any], Operation] = {}
    for op in committed:
        for key, new_cell in writes(op).items():
            pred = reads(op).get(key)
            if pred is None:
                continue
            slot = (key, pred)
            if slot in replaced:
                return CheckResult(
                    ok=False, semantics=semantics, checked=len(committed),
                    reason="lost update on key %r: two transactions both "
                           "replaced version %r" % (key, pred),
                    key=key, violation=[replaced[slot], op])
            replaced[slot] = op

    graph: Dict[int, set] = {op.index: set() for op in committed}
    by_index = {op.index: op for op in committed}
    for op in committed:
        for key, cell in reads(op).items():
            if (key, cell) in aborted_cells:
                return CheckResult(
                    ok=False, semantics=semantics, checked=len(committed),
                    reason="aborted read: version %r of key %r came from "
                           "an aborted transaction" % (cell, key),
                    key=key, violation=[op])
            if (key, cell) not in writer:
                return CheckResult(
                    ok=False, semantics=semantics, checked=len(committed),
                    reason="read of version %r of key %r that no "
                           "transaction wrote" % (cell, key),
                    key=key, violation=[op])
            source = writer[(key, cell)]
            if source is not None and source is not op:
                graph[source.index].add(op.index)          # wr edge
            successor = replaced.get((key, cell))
            if (successor is not None and successor is not op
                    and source is not successor):
                graph[op.index].add(successor.index)       # rw edge
                if source is not None:
                    graph[source.index].add(successor.index)  # ww edge
    # real-time (strictness) edges: a returned before b was invoked
    finite = [op for op in committed if op.ret_seq is not None]
    for a in finite:
        for b in committed:
            if a is not b and a.ret_seq < b.inv_seq:
                graph[a.index].add(b.index)

    cycle = _cycle(graph)
    if cycle is not None:
        return CheckResult(
            ok=False, semantics=semantics, checked=len(committed),
            reason="serialization graph cycle over %d transaction(s)"
                   % len(cycle),
            violation=[by_index[i] for i in cycle])
    return CheckResult(ok=True, semantics=semantics, checked=len(committed))


# ---------------------------------------------------------------------------
# total delivery order


def _check_total_order(history: OperationHistory) -> CheckResult:
    """Each ``ok`` operation is a delivery: ``process`` is the observer,
    ``args`` the delivered message id.  All observers must agree on a
    single total order."""
    semantics = "total-order"
    sequences: Dict[str, List[Operation]] = {}
    for op in history.ops:
        if op.status == "ok":
            sequences.setdefault(op.process, []).append(op)
    for seq in sequences.values():
        seq.sort(key=lambda op: op.inv_seq)

    graph: Dict[Any, set] = {}
    witness: Dict[Tuple[Any, Any], Operation] = {}
    for seq in sequences.values():
        for i, earlier in enumerate(seq):
            for later in seq[i + 1:]:
                graph.setdefault(earlier.args, set()).add(later.args)
                graph.setdefault(later.args, set())
                witness.setdefault((earlier.args, later.args), later)
    checked = sum(len(seq) for seq in sequences.values())
    cycle = _cycle({msg: nxt for msg, nxt in graph.items()})
    if cycle is not None:
        ops = []
        ring = cycle + cycle[:1]
        for a, b in zip(ring, ring[1:]):
            witness_op = witness.get((a, b))
            if witness_op is not None and witness_op not in ops:
                ops.append(witness_op)
        return CheckResult(
            ok=False, semantics=semantics, checked=checked,
            reason="delivery orders disagree: messages %s form a "
                   "precedence cycle" % (cycle,),
            violation=ops)
    return CheckResult(ok=True, semantics=semantics, checked=checked)


# ---------------------------------------------------------------------------
# entry points


def check_history(history: OperationHistory,
                  semantics: Optional[str] = None) -> CheckResult:
    """Check ``history`` under ``semantics`` (defaults to the history's
    own recorded semantics)."""
    semantics = semantics or history.semantics
    if semantics in ("register", "list-append"):
        return _check_linearizable(history, semantics)
    if semantics == "bank":
        return _check_serializable(history)
    if semantics == "total-order":
        return _check_total_order(history)
    raise ValueError("unknown history semantics %r (have: %s)"
                     % (semantics, ", ".join(sorted(SEMANTICS))))


class HistoryOracle(InvariantMonitor):
    """Adapt an offline checker verdict to the invariant-monitor
    protocol, so the explorer treats a consistency violation exactly
    like an online monitor firing (shrinking, post-mortems, triage).
    The violation cites the ``rpc.call_start`` / ``rpc.call_end`` events
    of every operation in the minimal violating sub-history, so its
    causal cut explains those calls.

    Not bus-driven: call :meth:`check` once the run is over.
    """

    kinds = ()            # nothing to observe live
    invariant = "linearizable"
    section = "3.3/5.3"

    def __init__(self, recorder, semantics: Optional[str] = None):
        super().__init__()
        self.recorder = recorder
        self.semantics = semantics or recorder.semantics
        self.invariant = SEMANTICS.get(self.semantics, "linearizable")
        self.result: Optional[CheckResult] = None

    def observe(self, event) -> None:     # pragma: no cover - kinds=()
        pass

    def check(self, t: float = 0.0) -> CheckResult:
        """Finalize the recording and run the checker; report a
        violation through the monitor protocol if it fails."""
        self.recorder.finalize()
        history = self.recorder.history()
        self.result = check_history(history, self.semantics)
        if not self.result.ok:
            subject = "%s:%s" % (self.semantics,
                                 self.result.key
                                 if self.result.key is not None
                                 else "history")
            self.report(self.result.reason, subject=subject,
                        evidence=self.recorder.events_of(
                            self.result.violation))
        return self.result
