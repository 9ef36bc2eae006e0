"""Distributed threads of control and the thread ID propagation algorithm.

§3.4.1 of the paper: the lifetime of a *base process* is that of the whole
distributed thread, so its local process ID plus a machine ID makes a
unique thread ID.  Every call message bears the caller's thread ID, and a
server process *adopts* that ID while performing the requested procedure,
so the ID propagates correctly through nested remote calls.

In the replicated case (§4.3.2), all members of a client troupe act on
behalf of the same logical thread and therefore attach the *same* thread
ID to their call messages — that is how a server recognizes the call
messages of one replicated call.  A troupe that originates a thread itself
must thus be given its root thread ID explicitly (the configuration
manager does this); a troupe member invents its own ID only when it is
genuinely unreplicated.
"""

from __future__ import annotations

import struct
from typing import List, NamedTuple, Optional


class ThreadId(NamedTuple):
    """A globally unique identifier for one distributed thread of control.

    ``origin`` identifies the base process's machine (or a logical name
    assigned by the configuration manager); ``pid`` is the base process's
    local process ID (or a logical serial number).
    """

    origin: str
    pid: int

    def __str__(self) -> str:
        return "%s.%d" % (self.origin, self.pid)

    def encode(self) -> bytes:
        raw = self.origin.encode("utf-8")
        return struct.pack("!HI", len(raw), self.pid & 0xFFFFFFFF) + raw

    @classmethod
    def decode(cls, data: bytes, offset: int = 0):
        """Returns (thread_id, next_offset)."""
        length, pid = struct.unpack_from("!HI", data, offset)
        offset += 6
        origin = data[offset:offset + length].decode("utf-8")
        return cls(origin, pid), offset + length


class ThreadContext:
    """The per-OS-process bookkeeping for thread IDs and call sequencing.

    A server process pushes the caller's thread ID while executing a call
    (adoption) and pops it afterwards; the ID on top of the stack is
    attached to any nested outgoing calls.  The call sequence counter is
    monotonic per process, so call numbers are unique per process pair —
    and because deterministic troupe members issue the same sequence of
    calls, corresponding members use the same call numbers (§4.3.2).
    """

    __slots__ = ("_stack", "default", "_next_call_number")

    def __init__(self, default: Optional[ThreadId] = None):
        self._stack: List[ThreadId] = []
        self.default = default
        self._next_call_number = 1

    @property
    def current(self) -> ThreadId:
        if self._stack:
            return self._stack[-1]
        if self.default is None:
            raise RuntimeError("no thread ID in context and no default set")
        return self.default

    def adopt(self, thread_id: ThreadId) -> None:
        """Assume the caller's thread ID for the duration of a procedure."""
        self._stack.append(thread_id)

    def release(self, thread_id: ThreadId) -> None:
        if not self._stack or self._stack[-1] != thread_id:
            raise RuntimeError(
                "thread ID release out of order: %s" % (thread_id,))
        self._stack.pop()

    def next_call_number(self) -> int:
        number = self._next_call_number
        self._next_call_number += 1
        return number

    def depth(self) -> int:
        return len(self._stack)
