"""Collators: reducing a set of messages to a single result (§4.3.6).

A collator is a function that maps a set of messages into a single result.
To improve performance, computation should proceed as soon as enough
messages have arrived for the collator to make a decision (the lazy
evaluation of §4.3.6 / the generators of §7.4).

The three protocol-level collators view message contents as uninterpreted
bits:

- *unanimous* — requires all messages identical; raises otherwise
  (transparent error correction plus error detection, §4.3.4);
- *majority* — majority voting on the messages;
- *first-come* — accepts the first message that arrives.

Programmers define application-specific collators by subclassing
:class:`Collator` or by wrapping a plain function over the complete set
(:class:`FunctionCollator`).  The runtime feeds a collator from §7.4's
generator of messages from a troupe, the one reply stream every call form
reads; the explicit-replication stubs (:mod:`repro.stubs.explicit`) run
the same collators over decoded values.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, List, Optional, Tuple


class CollationError(Exception):
    """The collator could not produce a result (disagreement, no majority,
    or the set of responses was exhausted before a decision)."""


class Collator:
    """Incremental collation: feed values as they arrive, stop early.

    ``add(source, value)`` returns ``(decided, result)``; once ``decided``
    is True the caller may stop waiting for further messages.  ``finish()``
    is called when no more values will arrive (all received or senders
    crashed) and must either return the result or raise
    :class:`CollationError`.

    ``expected`` is the number of senders; collators that need it (e.g.
    majority) receive it at reset time.
    """

    #: True if the collator can never decide before all values arrive.
    needs_all = False

    def __init__(self):
        self.values: List[Tuple[Any, Any]] = []
        self.expected = 0

    def reset(self, expected: int) -> None:
        self.values = []
        self.expected = expected

    def add(self, source: Any, value: Any) -> Tuple[bool, Optional[Any]]:
        raise NotImplementedError

    def finish(self) -> Any:
        raise NotImplementedError


class UnanimousCollator(Collator):
    """All messages must be identical; disagreement is an error (§4.3.4's
    default: error detection as well as transparent error correction)."""

    needs_all = True

    def add(self, source, value):
        if self.values and value != self.values[0][1]:
            raise CollationError(
                "disagreement between replicas: %r from %r vs %r from %r" % (
                    self.values[0][1], self.values[0][0], value, source))
        self.values.append((source, value))
        return (False, None)  # must hear from everyone

    def finish(self):
        if not self.values:
            raise CollationError("no responses to collate")
        return self.values[0][1]


class FirstComeCollator(Collator):
    """Accept the first message that arrives; forfeits error detection but
    runs at the speed of the fastest troupe member (§4.3.4)."""

    def add(self, source, value):
        self.values.append((source, value))
        return (True, value)

    def finish(self):
        if not self.values:
            raise CollationError("no responses to collate")
        return self.values[0][1]


class MajorityCollator(Collator):
    """Majority voting: decide as soon as one value has more than half of
    the expected votes; fail if the full set has no majority."""

    def add(self, source, value):
        self.values.append((source, value))
        counts = Counter(v for _, v in self.values)
        value_, count = counts.most_common(1)[0]
        if count * 2 > self.expected:
            return (True, value_)
        return (False, None)

    def finish(self):
        if not self.values:
            raise CollationError("no responses to collate")
        counts = Counter(v for _, v in self.values)
        value, count = counts.most_common(1)[0]
        # A majority of those who responded is not enough: the paper's
        # majority collator raises "no majority" unless count > n/2.
        if count * 2 > self.expected:
            return value
        raise CollationError(
            "no majority among %d expected responses" % self.expected)


class QuorumCollator(Collator):
    """Decide once ``quorum`` identical values have arrived — the building
    block for weighted-voting style schemes (§4.3.6 cites Gifford)."""

    def __init__(self, quorum: int):
        super().__init__()
        if quorum < 1:
            raise ValueError("quorum must be at least 1")
        self.quorum = quorum

    def add(self, source, value):
        self.values.append((source, value))
        counts = Counter(v for _, v in self.values)
        value_, count = counts.most_common(1)[0]
        if count >= self.quorum:
            return (True, value_)
        return (False, None)

    def finish(self):
        counts = Counter(v for _, v in self.values)
        if counts:
            value, count = counts.most_common(1)[0]
            if count >= self.quorum:
                return value
        raise CollationError(
            "quorum of %d not reached (%d responses)" % (
                self.quorum, len(self.values)))


class WeightedVotingCollator(Collator):
    """Gifford-style weighted voting (§4.3.6: "the framework of replicated
    calls and collators is sufficiently general to express weighted
    voting").

    Each source carries a weight; a value wins as soon as the weights of
    its supporters reach the quorum.  Sources absent from ``weights`` get
    ``default_weight``.
    """

    def __init__(self, quorum: int, weights=None, default_weight: int = 1):
        super().__init__()
        if quorum < 1:
            raise ValueError("quorum must be at least 1")
        self.quorum = quorum
        self.weights = dict(weights or {})
        self.default_weight = default_weight

    def _tally(self):
        tally = {}
        for source, value in self.values:
            weight = self.weights.get(source, self.default_weight)
            tally[value] = tally.get(value, 0) + weight
        return tally

    def add(self, source, value):
        self.values.append((source, value))
        tally = self._tally()
        winner = max(tally, key=lambda v: tally[v])
        if tally[winner] >= self.quorum:
            return (True, winner)
        return (False, None)

    def finish(self):
        tally = self._tally()
        if tally:
            winner = max(tally, key=lambda v: tally[v])
            if tally[winner] >= self.quorum:
                return winner
        raise CollationError(
            "weighted quorum of %d not reached (votes: %r)"
            % (self.quorum, sorted(tally.values(), reverse=True)))


class FunctionCollator(Collator):
    """Wrap an application-specific function over the complete value set.

    The function receives the list of (source, value) pairs.  It cannot
    decide early — use a custom :class:`Collator` subclass for laziness.
    """

    needs_all = True

    def __init__(self, fn: Callable[[List[Tuple[Any, Any]]], Any]):
        super().__init__()
        self.fn = fn

    def add(self, source, value):
        self.values.append((source, value))
        return (False, None)

    def finish(self):
        if not self.values:
            raise CollationError("no responses to collate")
        return self.fn(self.values)


# -- collator factories (the spellable names used in call options) ---------

def unanimous() -> Collator:
    return UnanimousCollator()


def first_come() -> Collator:
    return FirstComeCollator()


def majority() -> Collator:
    return MajorityCollator()
