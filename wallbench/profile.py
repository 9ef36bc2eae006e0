"""(a) Self time per layer, from a profiler the benchmark attaches.

``cProfile`` records, per function, the time spent in the function
itself (``tottime``) and, per caller, how much of it was on behalf of
that caller.  A function under ``src/repro`` is charged to its layer.  A
function outside it — a C builtin, the standard library — is charged to
the layer that *called* it, through that callers table, so the buckets
account for all profiled time.  ``cProfile`` slows pure-Python calls and
not native code, so the shares lean towards Python-heavy layers; they
find candidates, the untraced metrics decide.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Dict, Tuple

from wallbench import SRC
from wallbench.spec import LAYERS

_REPRO = os.path.join(SRC, "repro") + os.sep
_WALLBENCH = os.path.dirname(os.path.abspath(__file__)) + os.sep
_OBS_BUS = ("bus.py", "events.py", "clocks.py")
_HARNESS = ("harness.py", "cli.py", "bench", "elastic")


def layer_of(filename: str) -> str:
    """The layer a source file belongs to; "" when it belongs to none
    (stdlib, builtins) and its time must follow its callers."""
    if filename.startswith(_WALLBENCH):
        return "other"
    if not filename.startswith(_REPRO):
        return ""
    parts = filename[len(_REPRO):].split(os.sep)
    if parts[0] == "sim" and parts[1:] == ["sharded.py"]:
        return "sharded"
    if parts[0] == "obs":
        return "obs.bus" if parts[-1] in _OBS_BUS else "obs.subscribers"
    if parts[0] in _HARNESS:
        return "harness"
    return parts[0] if parts[0] in LAYERS else "other"


def bucket(profile: cProfile.Profile) -> Tuple[Dict[str, float], float]:
    """``({layer: seconds}, attributed_share)``: every function's
    ``tottime`` lands in exactly one layer, so the buckets sum to the
    profiled total.  ``attributed_share`` is the part that reached a
    layer (or the benchmark's own code) rather than falling to "other"
    for want of a known caller."""
    stats = pstats.Stats(profile).stats
    owners_memo: Dict[tuple, Dict[str, float]] = {}

    def owners(func, visiting) -> Dict[str, float]:
        """Which layers a layerless function was working for, as shares
        summing to 1 ("?" = no known caller)."""
        layer = layer_of(func[0])
        if layer:
            return {layer: 1.0}
        if func in owners_memo:
            return owners_memo[func]
        callers = stats[func][4] if func in stats else {}
        if not callers or func in visiting:
            return {"?": 1.0}
        visiting = visiting | {func}
        # cumulative time of each caller->func edge: what that caller
        # asked for, including what func went on to call.
        weights = {c: edge[3] for c, edge in callers.items()}
        if not any(weights.values()):
            weights = {c: edge[0] for c, edge in callers.items()}
        total = sum(weights.values())
        shares: Dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, share in owners(caller, visiting).items():
                shares[layer] = shares.get(layer, 0.0) \
                    + share * weight / total
        owners_memo[func] = shares
        return shares

    seconds = dict.fromkeys(LAYERS, 0.0)
    unattributed = 0.0
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        if layer:
            seconds[layer] += tottime
            continue
        # exact per-caller self time where the profiler has it
        edge_self = {c: edge[2] for c, edge in callers.items()}
        known = sum(edge_self.values())
        if known <= 0.0:
            edge_self, known = {func: tottime}, tottime
        for caller, part in edge_self.items():
            charged = tottime * part / known if known else 0.0
            shares = ({"?": 1.0} if caller == func
                      else owners(caller, frozenset((func,))))
            for owner, share in shares.items():
                if owner == "?":
                    unattributed += charged * share
                    owner = "other"
                seconds[owner] += charged * share
    total = sum(seconds.values())
    return seconds, (1.0 - unattributed / total if total else 1.0)
