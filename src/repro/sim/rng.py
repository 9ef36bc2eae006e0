"""Seeded random-number streams.

Every stochastic component (network loss, exponential service times,
failure/repair processes, backoff jitter) draws from its own named stream so
that adding randomness to one component never perturbs another.  This is the
standard common-random-numbers discipline for simulation experiments.

:class:`RandomStream` is the general stream and owns a generator for life.
:class:`LinkDraws` is the same sequence for every link of a wire, links
that exist by the thousand and draw a handful of times each: it holds
their first few draws as numbers instead of generators.
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, List, Sequence, Tuple

#: ``random()`` doubles :class:`LinkDraws` holds per link.  Of the ~15,000
#: directed links the 1,000-host capacity world sends on, all but 24-35
#: are asked for at most four draws in their whole life (histogram in
#: docs/PERFORMANCE.md); a Mersenne Twister is 2.5 KiB.
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


class LinkDraws:
    """Draw for draw the ``random()`` sequence of ``RandomStream(seed,
    "link:src>dst")`` for every directed link of a wire, as numbers.

    A link is numbered on first use; its first :data:`_LINK_DRAWS_HELD`
    doubles go into one ``array('d')`` for all links, and one
    ``bytearray`` counts the draws each took.  A draw past the held ones
    seeds the same generator again, skips what was handed out, and keeps
    it.  :meth:`random` is the only draw: the rest of
    :class:`RandomStream` takes a varying number of generator outputs per
    call, and is left out on purpose.
    """

    __slots__ = ("_seed", "numbers", "_keys", "_held", "_taken", "_rngs")

    def __init__(self, seed: int):
        self._seed = seed
        self.numbers: Dict[Tuple[str, str], int] = {}   # _keys: and back
        self._keys: List[Tuple[str, str]] = []
        self._held = array("d")
        self._taken = bytearray()
        self._rngs: Dict[int, random.Random] = {}   # past the held draws

    def _generator(self, link: int) -> random.Random:
        return random.Random("%d\x00link:%s>%s"
                             % ((self._seed,) + self._keys[link]))

    def number(self, src: str, dst: str) -> int:
        key = (src, dst)
        link = self.numbers.get(key)
        if link is None:
            link = self.numbers[key] = len(self._keys)
            self._keys.append(key)
            rng = self._generator(link)
            self._held.extend(rng.random() for _ in range(_LINK_DRAWS_HELD))
            self._taken.append(0)
        return link

    def random(self, link: int) -> float:
        taken = self._taken[link]
        if taken < _LINK_DRAWS_HELD:
            self._taken[link] = taken + 1
            return self._held[link * _LINK_DRAWS_HELD + taken]
        rng = self._rngs.get(link)
        if rng is None:
            rng = self._rngs[link] = self._generator(link)
            for _ in range(_LINK_DRAWS_HELD):
                rng.random()
        return rng.random()
