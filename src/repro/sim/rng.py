"""Seeded random-number streams.

Every stochastic component (network loss, exponential service times,
failure/repair processes, backoff jitter) draws from its own named stream so
that adding randomness to one component never perturbs another.  This is the
standard common-random-numbers discipline for simulation experiments.

:class:`RandomStream` is the general stream and owns a generator for life.
:class:`LinkStream` is the same sequence of ``random()`` doubles for a
component that exists by the thousand and draws a handful of times: it
holds its next few draws instead of the generator.
"""

from __future__ import annotations

import random
from array import array
from typing import Optional, Sequence, Tuple

#: ``random()`` doubles a :class:`LinkStream` takes before it drops its
#: generator.  Of the ~15,000 directed links the 1,000-host capacity world
#: sends on, all but 24-35 are asked for at most four draws in their whole
#: life (histogram in docs/PERFORMANCE.md); a Mersenne Twister is 2.5 KiB.
_LINK_DRAWS_HELD = 4


class RandomStream:
    """A named, independently seeded random stream."""

    def __init__(self, seed: int, name: str = ""):
        # Derive the child seed from (seed, name) deterministically.
        self.name = name
        self._rng = random.Random("%d\x00%s" % (seed, name))

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return self._rng.uniform(low, high)

    def random(self) -> float:
        return self._rng.random()

    def expovariate(self, rate: float) -> float:
        """An exponential variate with the given rate (mean ``1/rate``)."""
        return self._rng.expovariate(rate)

    def randint(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def choice(self, seq: Sequence):
        return self._rng.choice(seq)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def sample(self, seq: Sequence, k: int) -> list:
        return self._rng.sample(seq, k)

    def chance(self, probability: float) -> bool:
        """True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability

    def fork(self, name: str) -> "RandomStream":
        """Derive a sub-stream, independent of this one."""
        child = RandomStream.__new__(RandomStream)
        child.name = "%s/%s" % (self.name, name)
        child._rng = random.Random("%r\x00%s" % (self._rng.random(), name))
        return child


class LinkStream:
    """Draw for draw the ``random()`` sequence of ``RandomStream(seed,
    "link:src>dst")``, at the size of the few draws a network link ever
    makes.

    It keeps the ``(src, dst)`` tuple it is given (the network's own key)
    and no seeding string.  The first :data:`_LINK_DRAWS_HELD` doubles are
    taken at construction into an ``array('d')`` and the generator dropped;
    a draw past them seeds the same generator again, skips what was
    handed out, and keeps it from then on.

    Only ``random``, ``uniform`` and ``chance`` exist — each exactly one
    underlying ``random()`` (``chance(0.0)`` / ``chance(1.0)``: none).  The
    rest of :class:`RandomStream` consumes a varying number of generator
    outputs per call and is left out on purpose: an ``AttributeError``,
    not a silently different sequence.
    """

    __slots__ = ("_seed", "_link", "_held", "_next", "_rng")

    def __init__(self, seed: int, link: Tuple[str, str]):
        self._seed = seed
        self._link = link
        rng = random.Random(self._key())
        self._held = array("d", [rng.random()
                                 for _ in range(_LINK_DRAWS_HELD)])
        self._next = 0
        self._rng: Optional[random.Random] = None

    def _key(self) -> str:   # RandomStream(seed, "link:src>dst")'s seed
        return "%d\x00link:%s>%s" % ((self._seed,) + self._link)

    def random(self) -> float:
        index = self._next
        if index < _LINK_DRAWS_HELD:
            self._next = index + 1
            return self._held[index]
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._key())
            for _ in range(_LINK_DRAWS_HELD):
                rng.random()
        return rng.random()

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        # random.Random.uniform's own expression, so the same double.
        return low + (high - low) * self.random()

    def chance(self, probability: float) -> bool:
        """True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self.random() < probability
