"""Reconfiguration: replacing crashed troupe members (§6.4.1).

Adding a new member to an existing troupe takes two steps:

1. bring the new member into a state consistent with the others — a
   replicated call to the ``get_state`` procedure of the existing members
   (checkpoint-style state transfer; the replicated call doubles as a
   consistency check, since the unanimous collator verifies that all
   existing members externalize the same state);
2. register the new member with the binding agent
   (``add_troupe_member``), which atomically issues the new troupe ID.

The paper brackets the two in one atomic transaction; this implementation
performs them back-to-back and documents that reconfiguration should be
quiescent with respect to state-changing calls (DESIGN.md lists the
simplification).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.binding.client import BindingClient
from repro.core.runtime import CallContext, ExportedModule, TroupeRuntime
from repro.net.addresses import ModuleAddress
from repro.obs import events as obs_events

#: Reserved procedure number for the automatically generated get_state.
GET_STATE_PROC = 0xFFF0


class ReplaceableModule(ExportedModule):
    """An ExportedModule with the generated ``get_state`` procedure.

    ``externalize`` returns the member's state as bytes; ``internalize``
    installs state received from an existing member.  The paper produces
    both from the stub compiler; here they are supplied by the module
    author (or by the stub layer's record marshaling).
    """

    def __init__(self, name: str, procedures: Optional[Dict[int, Callable]],
                 externalize: Callable[[], bytes],
                 internalize: Callable[[bytes], None]):
        super().__init__(name, procedures)
        self.externalize = externalize
        self.internalize = internalize
        self.define(GET_STATE_PROC, self._get_state)

    def _get_state(self, ctx: CallContext, args: bytes) -> bytes:
        # Read-only by construction: externalize must not mutate.
        state = self.externalize()
        sim = ctx.runtime.sim
        if "bind.get_state" in sim.bus.wanted:
            sim.bus.emit(obs_events.StateTransferred(
                t=sim.now, module=self.name, size=len(state)))
        return state


def join_troupe(runtime: TroupeRuntime, module: ReplaceableModule,
                member_addr: ModuleAddress, name: str,
                binding: BindingClient):
    """Generator: make ``runtime``/``module`` a new member of ``name``.

    Fetches state from the existing members (replicated get_state with the
    unanimous collator — troupe consistency is verified for free), installs
    it, then registers with the binding agent, which reissues the troupe ID
    everywhere.  Returns the new troupe ID.
    """
    descriptor = yield from binding.import_troupe(name)
    state = yield from runtime.call_troupe(
        descriptor, None, GET_STATE_PROC, b"")
    module.internalize(state)
    new_id = yield from binding.export_module(name, member_addr)
    return new_id
