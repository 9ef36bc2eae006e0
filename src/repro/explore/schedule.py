"""Fault schedules: seed-derived, replayable sequences of typed faults.

A :class:`FaultSchedule` is the deterministic heart of the explorer: the
same ``(seed, machines, horizon, profile)`` always generates the same
action list, every action serializes losslessly to JSON (the *repro
script* the fuzzer hands you when a seed fails), and the whole schedule
hashes to a stable digest so two runs can prove they explored the same
fault pattern.

Action taxonomy (all times are virtual milliseconds):

==============  ==========================================================
``crash``       crash a machine at ``at``; repair it ``duration`` ms
                later (``duration=None`` leaves it down forever)
``partition``   split the named machines into groups at ``at``; hosts
                not named fall into the implicit leftover group; heal
                after ``duration`` ms
``loss``        a loss window: matching packets dropped with
                ``probability`` (optionally scoped to one ``src``/``dst``)
``duplicate``   a duplication window
``delay``       an extra-latency window (``extra`` ms per packet)
``reorder``     a reordering window: with ``probability`` a packet is
                held back up to ``hold`` extra ms, overtaking later ones
==============  ==========================================================

Two kinds are *reconfiguration-aware* (§6.4.1): instead of firing at
``at`` they are **armed** at ``at`` and fire when the driver observes the
matching membership-change bus event, so the fault lands exactly inside
the §6 window the paper worries about:

==========================  ==============================================
``crash-during-transfer``   armed at ``at``; crashes ``machine`` the
                            moment the next ``bind.get_state`` event
                            (a member externalizing state for a joiner)
                            is observed; disarms after ``expiry`` ms
``partition-during-join``   armed at ``at``; isolates ``machine`` from
                            every other host the moment the next
                            ``bind.member`` *add* event (the binding
                            agent committing a join) is observed; heals
                            ``duration`` ms later; disarms after
                            ``expiry`` ms
==========================  ==============================================

An armed action whose trigger never happens before ``expiry`` simply
never fires — the driver records it as expired, and the run digest (which
includes the applied-op log) still distinguishes fired from unfired.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.rng import RandomStream

#: the repro-script file format tag.
SCHEDULE_FORMAT = "repro.fuzz/1"


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class FaultAction:
    """Base: one typed fault at a virtual time."""

    at: float

    #: subclasses set this; doubles as the JSON discriminator.
    kind = ""

    @property
    def window(self) -> Optional[float]:
        """The action's duration when it is a window, else ``None``."""
        return getattr(self, "duration", None)

    def to_dict(self) -> Dict[str, Any]:
        out = {"kind": self.kind}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, tuple):
                value = [list(g) if isinstance(g, tuple) else g
                         for g in value]
            out[field.name] = value
        return out

    def describe(self) -> str:
        payload = ", ".join(
            "%s=%s" % (f.name, getattr(self, f.name))
            for f in dataclasses.fields(self) if f.name != "at")
        return "%s@%g(%s)" % (self.kind, self.at, payload)


@dataclasses.dataclass(frozen=True)
class Crash(FaultAction):
    machine: str = ""
    duration: Optional[float] = None   # None: never repaired

    kind = "crash"


@dataclasses.dataclass(frozen=True)
class Partition(FaultAction):
    duration: float = 0.0
    groups: Tuple[Tuple[str, ...], ...] = ()

    kind = "partition"

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(
            tuple(group) for group in self.groups))


@dataclasses.dataclass(frozen=True)
class Loss(FaultAction):
    duration: float = 0.0
    probability: float = 0.0
    src: Optional[str] = None
    dst: Optional[str] = None

    kind = "loss"


@dataclasses.dataclass(frozen=True)
class Duplicate(FaultAction):
    duration: float = 0.0
    probability: float = 0.0
    src: Optional[str] = None
    dst: Optional[str] = None

    kind = "duplicate"


@dataclasses.dataclass(frozen=True)
class Delay(FaultAction):
    duration: float = 0.0
    extra: float = 0.0
    src: Optional[str] = None
    dst: Optional[str] = None

    kind = "delay"


@dataclasses.dataclass(frozen=True)
class Reorder(FaultAction):
    duration: float = 0.0
    probability: float = 0.0
    hold: float = 5.0
    src: Optional[str] = None
    dst: Optional[str] = None

    kind = "reorder"


@dataclasses.dataclass(frozen=True)
class CrashDuringTransfer(FaultAction):
    """Armed at ``at``; crashes ``machine`` when the next
    ``bind.get_state`` bus event lands — i.e. mid-state-transfer, after
    an existing member externalized its state for a joiner but before
    the reply (and the subsequent ``add_troupe_member``) completes."""

    machine: str = ""
    duration: Optional[float] = None   # repair delay once fired; None: never
    expiry: float = 2000.0             # disarm this long after ``at``

    kind = "crash-during-transfer"

    @property
    def window(self) -> Optional[float]:
        # Not a plain window: ``duration`` is the post-trigger repair
        # delay, and the shrinker/driver must not treat it as one.
        return None


@dataclasses.dataclass(frozen=True)
class PartitionDuringJoin(FaultAction):
    """Armed at ``at``; isolates ``machine`` from every other host when
    the next ``bind.member`` *add* event lands — i.e. the instant the
    binding agent commits a membership change, while the nested
    ``set_troupe_id`` calls and the joiner's first serving window are
    still in flight.  Heals ``duration`` ms after firing."""

    duration: float = 0.0
    machine: str = ""
    expiry: float = 2000.0

    kind = "partition-during-join"


ACTION_TYPES: Dict[str, type] = {
    cls.kind: cls
    for cls in (Crash, Partition, Loss, Duplicate, Delay, Reorder,
                CrashDuringTransfer, PartitionDuringJoin)
}


def action_from_dict(data: Dict[str, Any]) -> FaultAction:
    if not isinstance(data, dict):
        raise ValueError("a fault action is an object, not %r" % (data,))
    data = dict(data)
    kind = data.pop("kind", None)
    cls = ACTION_TYPES.get(kind)
    if cls is None:
        raise ValueError("unknown fault action kind: %r" % (kind,))
    for field in dataclasses.fields(cls):
        if field.name in data and not _fits(field.type, data[field.name]):
            raise ValueError("%s action: field %r is %r, expected %s" % (
                kind, field.name, data[field.name], field.type))
    if cls is Partition and "groups" in data:
        data["groups"] = tuple(tuple(g) for g in data["groups"])
    return cls(**data)


def _fits(annotation: str, value: Any) -> bool:
    """Does JSON ``value`` fit a field annotated ``annotation``?"""
    if annotation.startswith("Optional["):
        return value is None or _fits(annotation[9:-1], value)
    if annotation == "str":
        return type(value) is str
    if annotation == "float":
        return type(value) in (int, float)
    return isinstance(value, list) and all(     # partition groups
        isinstance(g, list) and all(type(m) is str for m in g) for g in value)


# ---------------------------------------------------------------------------
# The schedule
# ---------------------------------------------------------------------------

def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_of(obj: Any) -> str:
    """A stable sha256 hex digest of any JSON-able object."""
    return hashlib.sha256(_canonical_json(obj).encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class FaultSchedule:
    """A replayable fault schedule: scenario, seed, horizon, actions."""

    scenario: str
    seed: int
    horizon: float
    actions: Tuple[FaultAction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))

    def with_actions(self, actions: Sequence[FaultAction]) -> "FaultSchedule":
        return dataclasses.replace(self, actions=tuple(actions))

    def machines(self) -> List[str]:
        """Every machine name the schedule references (sorted)."""
        names = set()
        for action in self.actions:
            if isinstance(action, Crash):
                names.add(action.machine)
            elif isinstance(action, Partition):
                for group in action.groups:
                    names.update(group)
            elif isinstance(action, (CrashDuringTransfer, PartitionDuringJoin)):
                names.add(action.machine)
            else:
                if action.src:
                    names.add(action.src)
                if action.dst:
                    names.add(action.dst)
        return sorted(names)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": SCHEDULE_FORMAT,
            "scenario": self.scenario,
            "seed": self.seed,
            "horizon": self.horizon,
            "actions": [action.to_dict() for action in self.actions],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSchedule":
        if not isinstance(data, dict):
            raise ValueError("not a fault schedule (not a JSON object)")
        fmt = data.get("format", SCHEDULE_FORMAT)
        if fmt != SCHEDULE_FORMAT:
            raise ValueError("unsupported schedule format: %r" % (fmt,))
        if not isinstance(data.get("actions", []), list):
            raise ValueError("field 'actions' is %r, expected a list"
                             % (data["actions"],))
        return cls(
            scenario=data["scenario"],
            seed=int(data["seed"]),
            horizon=float(data["horizon"]),
            actions=tuple(action_from_dict(a) for a in data["actions"]))

    def save(self, path) -> Dict[str, Any]:
        payload = self.to_dict()
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return payload

    @classmethod
    def load(cls, path) -> "FaultSchedule":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def digest(self) -> str:
        return digest_of(self.to_dict())

    def describe(self) -> str:
        return "\n".join(action.describe() for action in self.actions)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Profile:
    """Knobs for schedule generation: how many faults, of which kinds,
    how dense.  Weights of zero disable a kind entirely (a profile with
    only ``crash`` weight fuzzes pure crash/repair schedules)."""

    min_actions: int = 2
    max_actions: int = 8
    crash_weight: int = 4
    partition_weight: int = 3
    loss_weight: int = 3
    duplicate_weight: int = 2
    delay_weight: int = 2
    reorder_weight: int = 2
    #: probability a crash is permanent (no repair before the horizon).
    permanent_crash_chance: float = 0.2
    #: window durations as fractions of the horizon.
    min_window: float = 0.05
    max_window: float = 0.4
    #: reconfiguration-aware (armed) kinds.  Default 0 so every profile
    #: that predates them keeps generating byte-identical schedules.
    crash_during_transfer_weight: int = 0
    partition_during_join_weight: int = 0
    #: guarantee at least this many crash-during-transfer actions per
    #: schedule (topped up after the weighted draw, so the weighted
    #: portion of the rng sequence is unchanged).
    min_crash_during_transfer: int = 0
    #: expiry for armed actions, as a fraction of the horizon.
    arm_expiry: float = 0.9

    def weighted_kinds(self) -> List[str]:
        expanded: List[str] = []
        for kind, weight in (("crash", self.crash_weight),
                             ("partition", self.partition_weight),
                             ("loss", self.loss_weight),
                             ("duplicate", self.duplicate_weight),
                             ("delay", self.delay_weight),
                             ("reorder", self.reorder_weight),
                             # appended after the original six so legacy
                             # profiles draw the exact same choices
                             ("crash-during-transfer",
                              self.crash_during_transfer_weight),
                             ("partition-during-join",
                              self.partition_during_join_weight)):
            expanded.extend([kind] * max(0, weight))
        if not expanded:
            raise ValueError("profile disables every fault kind")
        return expanded


DEFAULT_PROFILE = Profile()

#: dense, correlated faults (the 'performing work efficiently in the
#: presence of faults' regime): more actions, longer windows, more
#: permanent crashes.
ADVERSARIAL_PROFILE = Profile(
    min_actions=5, max_actions=14, permanent_crash_chance=0.35,
    min_window=0.1, max_window=0.6)

#: crash/repair only — the §6.4.2 availability regime, made adversarial.
CRASH_ONLY_PROFILE = Profile(
    partition_weight=0, loss_weight=0, duplicate_weight=0,
    delay_weight=0, reorder_weight=0)

#: reconfiguration under fire (§6.4.1): armed faults that land
#: mid-state-transfer and mid-join.  Blanket partitions are disabled —
#: partitions only arrive event-aligned via ``partition-during-join`` —
#: because the elastic scenarios run with all six oracles and an
#: arbitrary long partition makes §4.3.5 troupe-determinism hazards
#: (which the paper accepts as a known residual risk) dominate the
#: signal.  Crashes, loss, and delay remain.
ELASTIC_PROFILE = Profile(
    min_actions=2, max_actions=6,
    partition_weight=0, duplicate_weight=0, reorder_weight=0,
    loss_weight=1, delay_weight=1, crash_weight=2,
    crash_during_transfer_weight=3, partition_during_join_weight=1,
    min_crash_during_transfer=1, permanent_crash_chance=0.0,
    min_window=0.02, max_window=0.15)

#: the dense variant: more armed faults, permanent crashes allowed.
ELASTIC_ADVERSARIAL_PROFILE = Profile(
    min_actions=4, max_actions=10,
    partition_weight=0, duplicate_weight=0, reorder_weight=0,
    loss_weight=2, delay_weight=2, crash_weight=3,
    crash_during_transfer_weight=4, partition_during_join_weight=2,
    min_crash_during_transfer=1, permanent_crash_chance=0.15,
    min_window=0.03, max_window=0.25)


def _round(value: float) -> float:
    return round(value, 3)


def generate(seed: int, machines: Sequence[str], horizon: float,
             profile: Optional[Profile] = None,
             scenario: str = "") -> FaultSchedule:
    """Derive a :class:`FaultSchedule` from a seed, deterministically.

    All randomness flows from one :class:`~repro.sim.rng.RandomStream`
    forked off ``(seed, "explore-schedule")``, so the same seed always
    yields the identical action list — the property the replay files,
    the shrinker, and the CI digests all rest on.
    """
    if not machines:
        raise ValueError("cannot generate a schedule over zero machines")
    profile = profile or DEFAULT_PROFILE
    rng = RandomStream(seed, "explore-schedule")
    kinds = profile.weighted_kinds()
    count = rng.randint(profile.min_actions, profile.max_actions)
    machines = list(machines)
    actions: List[FaultAction] = []
    for _ in range(count):
        kind = rng.choice(kinds)
        at = _round(rng.uniform(0.0, horizon * 0.8))
        window = _round(rng.uniform(profile.min_window * horizon,
                                    profile.max_window * horizon))
        expiry = _round(profile.arm_expiry * horizon)
        if kind == "crash":
            duration: Optional[float] = window
            if rng.chance(profile.permanent_crash_chance):
                duration = None
            actions.append(Crash(at=at, machine=rng.choice(machines),
                                 duration=duration))
        elif kind == "crash-during-transfer":
            repair: Optional[float] = window
            if rng.chance(profile.permanent_crash_chance):
                repair = None
            actions.append(CrashDuringTransfer(
                at=at, machine=rng.choice(machines),
                duration=repair, expiry=expiry))
        elif kind == "partition-during-join":
            actions.append(PartitionDuringJoin(
                at=at, duration=window, machine=rng.choice(machines),
                expiry=expiry))
        elif kind == "partition":
            shuffled = list(machines)
            rng.shuffle(shuffled)
            split = rng.randint(1, max(1, len(shuffled) - 1))
            groups = (tuple(sorted(shuffled[:split])),
                      tuple(sorted(shuffled[split:])))
            groups = tuple(g for g in groups if g)
            actions.append(Partition(at=at, duration=window, groups=groups))
        else:
            src = dst = None
            if rng.chance(0.5):
                src = rng.choice(machines)
                dst = rng.choice(machines)
            if kind == "loss":
                actions.append(Loss(
                    at=at, duration=window,
                    probability=_round(rng.uniform(0.1, 0.9)),
                    src=src, dst=dst))
            elif kind == "duplicate":
                actions.append(Duplicate(
                    at=at, duration=window,
                    probability=_round(rng.uniform(0.1, 0.6)),
                    src=src, dst=dst))
            elif kind == "delay":
                actions.append(Delay(
                    at=at, duration=window,
                    extra=_round(rng.uniform(1.0, 50.0)),
                    src=src, dst=dst))
            else:
                actions.append(Reorder(
                    at=at, duration=window,
                    probability=_round(rng.uniform(0.1, 0.8)),
                    hold=_round(rng.uniform(1.0, 20.0)),
                    src=src, dst=dst))
    # Top up armed mid-transfer crashes *after* the weighted draw, so
    # profiles without the floor consume the identical rng sequence.
    have = sum(1 for a in actions if isinstance(a, CrashDuringTransfer))
    for _ in range(max(0, profile.min_crash_during_transfer - have)):
        at = _round(rng.uniform(0.0, horizon * 0.5))
        window = _round(rng.uniform(profile.min_window * horizon,
                                    profile.max_window * horizon))
        repair = None if rng.chance(profile.permanent_crash_chance) else window
        actions.append(CrashDuringTransfer(
            at=at, machine=rng.choice(machines), duration=repair,
            expiry=_round(profile.arm_expiry * horizon)))
    actions.sort(key=lambda a: (a.at, a.kind))
    return FaultSchedule(scenario=scenario, seed=seed, horizon=horizon,
                         actions=tuple(actions))
