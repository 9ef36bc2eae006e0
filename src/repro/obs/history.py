"""Client-visible operation histories (§3.3.1, made live).

``repro.model.histories`` formalizes the paper's event sequences;
this module feeds that notion real executions: an
:class:`OperationHistoryRecorder` rides a simulation's bus and turns a
workload's replicated calls into *operations* — invocation/response
records with virtual-time intervals, the recording client's process id,
and the vector-clock stamps the :class:`~repro.obs.clocks.ClockDomain`
puts on ``rpc.call_start`` / ``rpc.call_end``.

The split of responsibilities mirrors Jepsen: the *workload* knows the
semantics of each call (``w x=1``, ``r x``), so it declares operations
through a :class:`HistoryClient` handle (``invoke`` / ``ok`` / ``fail``
/ ``info``); the *bus* knows the wire-level identity of each call
(thread id, call number, causal stamps), so the recorder correlates the
next ``rpc.call_start`` on the declaring client's node with the open
operation.  Each logical client is a sequential process (one
outstanding operation), which makes the correlation exact.

Operation status is Jepsen's three-valued outcome:

``ok``
    the call returned; for a mutator the effect definitely applied.
``fail``
    the call definitely did **not** take effect (a clean
    ``TransactionAborted`` — §5.3 aborts discard tentative writes at
    every member), so checkers may discard it.
``info``
    outcome unknown (timeout, troupe failure, collation error, run cut
    off by the budget): a mutator *may* have applied, and the offline
    checkers must try both possibilities.

Histories serialize to canonical JSON (sorted keys, fixed layout) under
``HISTORY_FORMAT``; the same seed and scenario produce byte-identical
files in different processes — the determinism contract ``repro fuzz``
extends to histories.  ``repro lincheck <history.json>`` re-checks a
saved history offline (see :mod:`repro.obs.lincheck`).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.export import SCHEMA_VERSION

#: history file format tag (bump on layout changes).
HISTORY_FORMAT = "repro.history/1"


@dataclasses.dataclass
class Operation:
    """One client-visible operation: an invocation/response pair.

    ``inv_seq`` / ``ret_seq`` are positions in the recorder's global
    event sequence — a total order consistent with the simulation's
    real-time order, so checkers can use strict inequalities instead of
    tie-breaking equal virtual times.  ``ret_seq`` is ``None`` while the
    response is missing (``info`` operations never get one).
    """

    index: int
    process: str                 # logical client name ("c1")
    op: str                      # "r" | "w" | "append" | "xfer" | ...
    key: str = ""
    args: Any = None             # JSON-able argument summary
    result: Any = None           # JSON-able decoded result
    status: str = "open"         # "open" -> "ok" | "fail" | "info"
    invoked_at: float = 0.0      # virtual ms
    returned_at: Optional[float] = None
    inv_seq: int = 0
    ret_seq: Optional[int] = None
    node: str = ""               # "host/proc" of the calling runtime
    thread_id: str = ""
    call_number: int = -1
    vc_invoke: Dict[str, int] = dataclasses.field(default_factory=dict)
    vc_return: Dict[str, int] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "process": self.process,
            "op": self.op,
            "key": self.key,
            "args": self.args,
            "result": self.result,
            "status": self.status,
            "invoked_at": self.invoked_at,
            "returned_at": self.returned_at,
            "inv_seq": self.inv_seq,
            "ret_seq": self.ret_seq,
            "node": self.node,
            "thread_id": self.thread_id,
            "call_number": self.call_number,
            "vc_invoke": dict(self.vc_invoke),
            "vc_return": dict(self.vc_return),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Operation":
        return cls(**{field.name: data.get(field.name)
                      for field in dataclasses.fields(cls)
                      if field.name in data})


def format_operation(op: Dict[str, Any]) -> str:
    """One-line human rendering of an operation dict (shared by
    ``repro lincheck`` and the post-mortem renderer)."""
    what = op.get("op", "?")
    if op.get("key"):
        what += " %s" % op["key"]
    if op.get("args") is not None:
        what += "=%s" % (op["args"],)
    arrow = op.get("result")
    line = "#%-3s %-4s %-22s" % (op.get("index", "?"),
                                 op.get("process", "?"), what)
    line += " -> %-5s" % op.get("status", "?")
    if arrow is not None:
        line += " %s" % (arrow,)
    returned = op.get("returned_at")
    line += "   [%g, %s]" % (op.get("invoked_at", 0.0),
                             "..." if returned is None else "%g" % returned)
    if op.get("call_number", -1) >= 0:
        line += " call#%d" % op["call_number"]
    return line


def canonical_dumps(payload: Dict[str, Any]) -> str:
    """The canonical history serialization: sorted keys, two-space
    indent, trailing newline — byte-identical across processes."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class OperationHistory:
    """A finished (or loaded) operation history plus its metadata."""

    def __init__(self, ops: List[Operation], scenario: str = "",
                 seed: int = 0, semantics: str = "",
                 initial: Optional[Dict[str, Any]] = None):
        self.ops = list(ops)
        self.scenario = scenario
        self.seed = seed
        self.semantics = semantics
        #: initial value per key (what a read sees before any write);
        #: the serialization-graph checker grounds version chains here.
        self.initial: Dict[str, Any] = dict(initial or {})

    def __len__(self) -> int:
        return len(self.ops)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": HISTORY_FORMAT,
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "seed": self.seed,
            "semantics": self.semantics,
            "initial": dict(self.initial),
            "ops": [op.to_dict() for op in self.ops],
        }

    def dumps(self) -> str:
        return canonical_dumps(self.to_dict())

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OperationHistory":
        if not isinstance(data, dict):
            raise ValueError("not an operation history (not a JSON object)")
        if data.get("format") != HISTORY_FORMAT:
            raise ValueError("not an operation history (format %r, "
                             "expected %r)" % (data.get("format"),
                                               HISTORY_FORMAT))
        return cls([Operation.from_dict(op) for op in data.get("ops", [])],
                   scenario=data.get("scenario", ""),
                   seed=data.get("seed", 0),
                   semantics=data.get("semantics", ""),
                   initial=data.get("initial") or {})

    @classmethod
    def load(cls, path) -> "OperationHistory":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


class HistoryClient:
    """One logical client's recording handle: a sequential process that
    declares its operations around each replicated call."""

    def __init__(self, recorder: "OperationHistoryRecorder", name: str,
                 node: str):
        self._recorder = recorder
        self.name = name
        self.node = node

    def invoke(self, op: str, key: str = "", args: Any = None) -> Operation:
        """Declare an operation about to be issued; the next
        ``rpc.call_start`` on this client's node stamps it."""
        return self._recorder._invoke(self, op, key, args)

    def ok(self, operation: Operation, result: Any = None) -> Operation:
        return self._recorder._respond(self, operation, "ok", result)

    def fail(self, operation: Operation) -> Operation:
        """The operation definitely did not take effect."""
        return self._recorder._respond(self, operation, "fail", None)

    def info(self, operation: Operation) -> Operation:
        """Outcome unknown (timeout / failure mid-call)."""
        return self._recorder._respond(self, operation, "info", None)


class OperationHistoryRecorder:
    """Record a workload's client-visible operation history off the bus.

    Subscribes to ``rpc.call_start`` / ``rpc.call_end`` for the wire
    identity and causal stamps of each declared operation; the workload
    declares semantics through :meth:`client` handles.  Detach (or
    :meth:`finalize`) when the run ends; operations still open become
    ``info``.  The events an operation's stamps came from are kept
    beside it, for :meth:`events_of` to cite.
    """

    def __init__(self, sim, scenario: str = "", seed: int = 0,
                 semantics: str = "", initial: Optional[Dict] = None):
        self.sim = sim
        self.bus = sim.bus
        self.scenario = scenario
        self.seed = seed
        self.semantics = semantics
        self.initial = dict(initial or {})
        self.ops: List[Operation] = []
        self._seq = 0
        #: node -> the one open (invoked, unresponded) operation there.
        self._open_by_node: Dict[str, Operation] = {}
        #: (operation index, the event it took a stamp from), in
        #: emission order.
        self._events: List[Tuple[int, Any]] = []
        self._sub = self.bus.subscribe(
            self._observe, kinds=("rpc.call_start", "rpc.call_end"))

    # -- workload side -----------------------------------------------------

    def client(self, name: str, runtime=None) -> HistoryClient:
        """A recording handle for one logical client.  ``runtime`` (a
        :class:`~repro.core.runtime.TroupeRuntime`) binds the handle to
        its process's node so bus events can be correlated; omit it for
        hand-built histories."""
        node = ""
        if runtime is not None:
            process = runtime.process
            node = "%s/%s" % (process.host, process.name)
        return HistoryClient(self, name, node)

    def _invoke(self, client: HistoryClient, op: str, key: str,
                args: Any) -> Operation:
        operation = Operation(
            index=len(self.ops), process=client.name, op=op, key=key,
            args=args, status="open", invoked_at=self.sim.now,
            inv_seq=self._next_seq(), node=client.node)
        self.ops.append(operation)
        if client.node:
            self._open_by_node[client.node] = operation
        return operation

    def _respond(self, client: HistoryClient, operation: Operation,
                 status: str, result: Any) -> Operation:
        operation.status = status
        operation.result = result
        operation.returned_at = self.sim.now
        operation.ret_seq = self._next_seq()
        if self._open_by_node.get(client.node) is operation:
            del self._open_by_node[client.node]
        return operation

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- bus side ----------------------------------------------------------

    def _observe(self, event) -> None:
        node = "%s/%s" % (event.host, event.proc)
        operation = self._open_by_node.get(node)
        if operation is None:
            return
        if event.kind == "rpc.call_start":
            if operation.call_number < 0:
                operation.call_number = event.call_number
                operation.thread_id = event.thread_id
                operation.vc_invoke = dict(getattr(event, "vc", {}) or {})
                self._events.append((operation.index, event))
        elif operation.call_number == event.call_number:
            operation.vc_return = dict(getattr(event, "vc", {}) or {})
            self._events.append((operation.index, event))

    def events_of(self, operations: Iterable[Operation]) -> Tuple[Any, ...]:
        """The ``rpc.call_start`` / ``rpc.call_end`` events whose stamps
        ``operations`` carry, in emission order."""
        wanted = {operation.index for operation in operations}
        return tuple(event for index, event in self._events
                     if index in wanted)

    # -- lifecycle ---------------------------------------------------------

    def finalize(self) -> None:
        """Close the recording: operations still open (the run ended
        mid-call) become ``info`` — their effects are unknown."""
        for operation in self.ops:
            if operation.status == "open":
                operation.status = "info"
        self._open_by_node.clear()
        self.detach()

    def detach(self) -> None:
        if self._sub is not None:
            self.bus.unsubscribe(self._sub)
            self._sub = None

    def history(self) -> OperationHistory:
        return OperationHistory(self.ops, scenario=self.scenario,
                                seed=self.seed, semantics=self.semantics,
                                initial=self.initial)
