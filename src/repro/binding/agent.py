"""The Ringmaster: the Circus binding agent (§6.3).

The Ringmaster is a specialized name server that enables programs to
import and export troupes by name.  It is itself a troupe whose procedures
are invoked via replicated procedure calls, so its registry state stays
consistent across members as long as the members are deterministic —
every mutation arrives as a replicated call processed in the same order
(serial execution) at every member.

Bootstrap uses the paper's "degenerate binding mechanism": the Ringmaster
listens on a well-known port on each machine, and the set of machines
running it comes from a configuration list (§6.3).

Interface (Figure 6.1, plus the §6.1 rebind and enumeration for the
garbage collector):

    0  register_troupe(name, members) -> troupe_id
    1  add_troupe_member(name, member) -> troupe_id
    2  remove_troupe_member(name, member) -> troupe_id
    3  lookup_troupe_by_name(name) -> (troupe_id, members)
    4  lookup_troupe_by_id(id) -> members
    5  rebind(name, old_id) -> (troupe_id, members)
    6  list_troupes() -> [names]

``add_troupe_member`` and ``remove_troupe_member`` atomically change both
membership and troupe ID, running ``set_troupe_id`` at every member
(Figure 6.2); atomicity comes from the serial execution of binding calls
at each Ringmaster member.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from repro.binding import wire
from repro.core.runtime import (
    CONTROL_MODULE,
    CallContext,
    ExportedModule,
    RuntimeConfig,
    SET_TROUPE_ID_PROC,
    TroupeRuntime,
)
from repro.core.troupe import TroupeDescriptor, TroupeId
from repro.host.machine import Machine
from repro.net.addresses import ModuleAddress, ProcessAddress
from repro.obs import events as obs_events
from repro.rpc.messages import RemoteError

RINGMASTER_MODULE_NAME = "ringmaster"
RINGMASTER_PORT = 369
#: the Ringmaster's own (well-known) troupe ID — it cannot be used to
#: import itself, so its identity is fixed by configuration (§6.3).
RINGMASTER_TROUPE_ID: TroupeId = (1 << 62) + 1
#: Ringmaster-allocated troupe IDs live in their own space, disjoint from
#: locally allocated ones.
ALLOCATED_ID_BASE: TroupeId = 1 << 32

REGISTER_TROUPE_PROC = 0
ADD_TROUPE_MEMBER_PROC = 1
REMOVE_TROUPE_MEMBER_PROC = 2
LOOKUP_BY_NAME_PROC = 3
LOOKUP_BY_ID_PROC = 4
REBIND_PROC = 5
LIST_TROUPES_PROC = 6

NOT_FOUND_ERROR = "NotFound"
ALREADY_EXISTS_ERROR = "AlreadyExists"
LAST_MEMBER_ERROR = "LastMember"


class BindingError(Exception):
    """A binding operation failed (unknown name, duplicate registration)."""


class RingmasterMember:
    """One replica of the Ringmaster binding agent."""

    def __init__(self, process, port: int = RINGMASTER_PORT,
                 config: Optional[RuntimeConfig] = None):
        self.runtime = TroupeRuntime(
            process, port=port,
            config=config or RuntimeConfig(execution="serial"),
            troupe_id=RINGMASTER_TROUPE_ID,
            resolver=self.resolve)
        #: name -> (troupe_id, [ModuleAddress])
        self.by_name: Dict[str, Tuple[TroupeId, List[ModuleAddress]]] = {}
        #: troupe_id -> name
        self.by_id: Dict[TroupeId, str] = {}
        self._next_id = 0
        # Deterministic counter for the nested set_troupe_id calls: every
        # Ringmaster member processes binding mutations serially in the
        # same order, so corresponding nested calls get the same number —
        # and numbers on the (ringmaster -> target) channel never repeat.
        self._nested_calls = 0
        self.descriptor: Optional[TroupeDescriptor] = None
        module = ExportedModule(RINGMASTER_MODULE_NAME, {
            REGISTER_TROUPE_PROC: self._register_troupe,
            ADD_TROUPE_MEMBER_PROC: self._add_troupe_member,
            REMOVE_TROUPE_MEMBER_PROC: self._remove_troupe_member,
            LOOKUP_BY_NAME_PROC: self._lookup_by_name,
            LOOKUP_BY_ID_PROC: self._lookup_by_id,
            REBIND_PROC: self._rebind,
            LIST_TROUPES_PROC: self._list_troupes,
        })
        self.module_addr = self.runtime.export(module)
        self.runtime.start_server()

    # -- resolver ---------------------------------------------------------

    def resolve(self, troupe_id: TroupeId) -> Optional[List[ProcessAddress]]:
        """Many-to-one gathers at this member use the member's own
        registry — the Ringmaster is its own binding agent."""
        if self.descriptor is not None and troupe_id == RINGMASTER_TROUPE_ID:
            return list(self.descriptor.processes)
        name = self.by_id.get(troupe_id)
        if name is None:
            return None
        _tid, members = self.by_name[name]
        return [m.process for m in members]

    def install_descriptor(self, descriptor: TroupeDescriptor) -> None:
        """Bootstrap: tell this member who its fellow Ringmasters are
        (the configuration-file mechanism of §6.3)."""
        self.descriptor = descriptor

    # -- ID allocation -----------------------------------------------------

    def _new_troupe_id(self) -> TroupeId:
        """Deterministic: members allocate identical ID sequences because
        they process identical mutation sequences."""
        self._next_id += 1
        return ALLOCATED_ID_BASE + self._next_id

    # -- observability -----------------------------------------------------

    def _emit_lookup(self, op: str, name: str, found: bool) -> None:
        sim = self.runtime.sim
        if "bind.lookup" in sim.bus.wanted:
            process = self.runtime.process
            sim.bus.emit(obs_events.BindingLookup(
                t=sim.now, host=process.host, proc=process.name, op=op,
                name=name, found=found))

    def _emit_member(self, op: str, name: str, new_id: TroupeId,
                     members: int, old_id: TroupeId = 0) -> None:
        sim = self.runtime.sim
        if "bind.member" in sim.bus.wanted:
            process = self.runtime.process
            sim.bus.emit(obs_events.MembershipChanged(
                t=sim.now, host=process.host, proc=process.name, op=op,
                name=name, new_id=new_id, members=members, old_id=old_id))

    # -- procedures ---------------------------------------------------------

    def _register_troupe(self, ctx: CallContext, args: bytes) -> bytes:
        name, offset = wire.decode_str(args, 0)
        members, _ = wire.decode_members(args, offset)
        if name in self.by_name:
            raise RemoteError(ALREADY_EXISTS_ERROR, name)
        troupe_id = self._new_troupe_id()
        self.by_name[name] = (troupe_id, list(members))
        self.by_id[troupe_id] = name
        self._emit_member("register", name, troupe_id, len(members))
        return wire.encode_u64(troupe_id)

    def _add_troupe_member(self, ctx: CallContext, args: bytes):
        name, offset = wire.decode_str(args, 0)
        member, _ = wire.decode_module_address(args, offset)
        if name not in self.by_name:
            # First export under this name creates the troupe (§6.3).
            troupe_id = self._new_troupe_id()
            self.by_name[name] = (troupe_id, [member])
            self.by_id[troupe_id] = name
            self._emit_member("add", name, troupe_id, 1)
            yield from self._set_troupe_id_at(name, troupe_id, [member],
                                              ctx)
            return wire.encode_u64(troupe_id)
        old_id, members = self.by_name[name]
        if member in members:
            raise RemoteError(ALREADY_EXISTS_ERROR,
                              "%s already in %s" % (member, name))
        new_members = members + [member]
        new_id = self._new_troupe_id()
        del self.by_id[old_id]
        self.by_name[name] = (new_id, new_members)
        self.by_id[new_id] = name
        self._emit_member("add", name, new_id, len(new_members),
                          old_id=old_id)
        # Figure 6.2: membership and troupe ID change together, and every
        # member (including the new one) learns the new ID.
        yield from self._set_troupe_id_at(name, new_id, new_members, ctx)
        return wire.encode_u64(new_id)

    def _remove_troupe_member(self, ctx: CallContext, args: bytes):
        name, offset = wire.decode_str(args, 0)
        member, _ = wire.decode_module_address(args, offset)
        if name not in self.by_name:
            raise RemoteError(NOT_FOUND_ERROR, name)
        old_id, members = self.by_name[name]
        if member not in members:
            raise RemoteError(NOT_FOUND_ERROR,
                              "%s not in %s" % (member, name))
        new_members = [m for m in members if m != member]
        if not new_members:
            # A troupe cannot scale to zero: its state would be lost with
            # the last replica (§6.4.1 — get_state needs a surviving
            # member).  Rejected before any mutation, so every Ringmaster
            # replica's registry stays untouched and identical.
            raise RemoteError(LAST_MEMBER_ERROR,
                              "%s is the last member of %s" % (member, name))
        new_id = self._new_troupe_id()
        del self.by_id[old_id]
        self._emit_member("remove", name, new_id, len(new_members),
                          old_id=old_id)
        self.by_name[name] = (new_id, new_members)
        self.by_id[new_id] = name
        yield from self._set_troupe_id_at(name, new_id, new_members, ctx)
        return wire.encode_u64(new_id)

    def _lookup_by_name(self, ctx: CallContext, args: bytes) -> bytes:
        name, _ = wire.decode_str(args, 0)
        if name not in self.by_name:
            self._emit_lookup("by_name", name, found=False)
            raise RemoteError(NOT_FOUND_ERROR, name)
        troupe_id, members = self.by_name[name]
        self._emit_lookup("by_name", name, found=True)
        return wire.encode_u64(troupe_id) + wire.encode_members(members)

    def _lookup_by_id(self, ctx: CallContext, args: bytes) -> bytes:
        troupe_id, _ = wire.decode_u64(args, 0)
        name = self.by_id.get(troupe_id)
        if name is None:
            self._emit_lookup("by_id", "troupe id %d" % troupe_id,
                              found=False)
            raise RemoteError(NOT_FOUND_ERROR, "troupe id %d" % troupe_id)
        _tid, members = self.by_name[name]
        self._emit_lookup("by_id", name, found=True)
        return wire.encode_members(members)

    def _rebind(self, ctx: CallContext, args: bytes) -> bytes:
        """§6.1: the old binding is a hint that may be stale; return the
        current binding (and do not blindly delete the old one)."""
        name, offset = wire.decode_str(args, 0)
        _old_id, _ = wire.decode_u64(args, offset)
        self._emit_lookup("rebind", name, found=name in self.by_name)
        return self._lookup_by_name(ctx, wire.encode_str(name))

    def _list_troupes(self, ctx: CallContext, args: bytes) -> bytes:
        self._emit_lookup("list", "", found=True)
        names = sorted(self.by_name)
        out = [struct.pack("!H", len(names))]
        for name in names:
            out.append(wire.encode_str(name))
        return b"".join(out)

    # -- the nested set_troupe_id call (Figure 6.2) -----------------------

    def _set_troupe_id_at(self, name: str, new_id: TroupeId,
                          members: List[ModuleAddress], ctx: CallContext):
        """Replicated call to the control interface of every member."""
        control = TroupeDescriptor(
            name, 0,  # dest troupe id 0: the member may not know any ID yet
            tuple(ModuleAddress(m.process, CONTROL_MODULE) for m in members))
        self._nested_calls += 1
        yield from self.runtime.call_troupe(
            control, CONTROL_MODULE, SET_TROUPE_ID_PROC,
            struct.pack("!Q", new_id), thread_id=ctx.thread_id,
            call_number=0x40000000 | self._nested_calls)


def start_ringmaster(machines: List[Machine], port: int = RINGMASTER_PORT,
                     config: Optional[RuntimeConfig] = None,
                     ) -> Tuple[TroupeDescriptor, List[RingmasterMember]]:
    """Start a Ringmaster member on each machine and wire them together.

    Returns the Ringmaster's troupe descriptor — the piece of well-known
    configuration every client starts from.
    """
    members = []
    for machine in machines:
        process = machine.spawn_process("ringmaster")
        members.append(RingmasterMember(process, port=port, config=config))
    descriptor = TroupeDescriptor(
        RINGMASTER_MODULE_NAME, RINGMASTER_TROUPE_ID,
        tuple(member.module_addr for member in members))
    for member in members:
        member.install_descriptor(descriptor)
    return descriptor, members
