"""Input generation: everything a workload consumes, made from ``--seed``.

Only the standard library's ``random.Random`` is used, each stream
seeded by a string that names its purpose, so the same seed gives the
same inputs and the program under test receives nothing but the
generated values.  The Zipf and Pareto samplers are copies (of
``repro.bench.workloads``) owned by the benchmark, so the traffic shape
is part of the workload rather than something a later PR can move.
"""

from __future__ import annotations

import bisect
import random
from typing import List, NamedTuple, Tuple


def _stream(seed: int, purpose: str) -> random.Random:
    return random.Random("wallbench:%d:%s" % (seed, purpose))


class PayloadStream:
    """The argument bytes of one echo workload's calls, in call order.

    Batches draw from one stream, so the call sequence depends on the
    seed and the size only — ``observed`` asks for circus-seq's stream
    and gets circus-seq's calls byte for byte."""

    def __init__(self, seed: int, size: int):
        self._rng = _stream(seed, "payload-%d" % size)
        self._size = size

    def take(self, count: int) -> List[bytes]:
        return [self._rng.randbytes(self._size) for _ in range(count)]


#: fuzz seeds are drawn from this pool of explorer seeds ...
FUZZ_POOL = 3000
#: ... minus the seeds on which, at the commit that defined the benchmark,
#: the bank-transfer scenario's own serializability oracle reports a
#: violation.  They are findings for a correctness PR (README
#: "Findings"), not benchmark inputs: a workload is chosen so that no
#: operation fails.
FUZZ_KNOWN_VIOLATIONS = frozenset((
    396, 514, 554, 734, 742, 824, 899, 1587, 1760, 1870, 2985))
#: ... and minus the seeds whose workload is still unfinished when its
#: 90,000 ms virtual-time budget runs out ("budget-exhausted": no
#: violation, but no outcome either).  One in twelve seeds is like that,
#: costs up to ten times the host time of a median seed and completes no
#: call, so a handful more or fewer of them in a run moved calls_per_s by
#: +-10 % between --seed values.
FUZZ_KNOWN_UNFINISHED = frozenset((
    18, 34, 74, 80, 106, 110, 118, 126, 137, 139, 156, 166, 190, 191, 231,
    235, 265, 269, 284, 309, 310, 316, 326, 346, 370, 388, 394, 406, 407,
    417, 420, 427, 432, 449, 507, 515, 525, 531, 546, 570, 578, 612, 644,
    652, 655, 685, 703, 717, 724, 731, 736, 750, 757, 763, 786, 803, 836,
    843, 848, 851, 866, 868, 900, 904, 913, 966, 1005, 1030, 1040, 1044,
    1053, 1061, 1067, 1083, 1127, 1140, 1154, 1165, 1169, 1171, 1180,
    1185, 1192, 1210, 1213, 1222, 1229, 1240, 1247, 1284, 1306, 1317,
    1321, 1325, 1358, 1371, 1374, 1398, 1409, 1424, 1437, 1438, 1455,
    1456, 1461, 1471, 1479, 1497, 1503, 1506, 1516, 1535, 1544, 1545,
    1546, 1553, 1558, 1591, 1611, 1629, 1630, 1663, 1666, 1671, 1682,
    1701, 1704, 1708, 1711, 1718, 1725, 1745, 1764, 1806, 1810, 1822,
    1824, 1829, 1830, 1837, 1850, 1853, 1863, 1865, 1868, 1885, 1892,
    1894, 1912, 1918, 1919, 1926, 1931, 1946, 1968, 1974, 1977, 1983,
    2035, 2053, 2056, 2057, 2064, 2155, 2202, 2209, 2210, 2252, 2255,
    2260, 2282, 2284, 2295, 2302, 2307, 2315, 2316, 2336, 2343, 2345,
    2356, 2362, 2386, 2408, 2432, 2439, 2462, 2476, 2478, 2491, 2496,
    2497, 2510, 2511, 2516, 2518, 2591, 2621, 2627, 2628, 2643, 2646,
    2647, 2649, 2659, 2660, 2665, 2667, 2720, 2721, 2722, 2727, 2734,
    2785, 2789, 2792, 2796, 2805, 2817, 2823, 2829, 2841, 2902, 2945,
    2961, 2973, 2976, 2982, 2997))


def fuzz_seeds(seed: int, count: int) -> List[int]:
    """``count`` distinct explorer seeds for the fuzz-bank workload."""
    pool = [s for s in range(FUZZ_POOL)
            if s not in FUZZ_KNOWN_VIOLATIONS
            and s not in FUZZ_KNOWN_UNFINISHED]
    return _stream(seed, "fuzz").sample(pool, count)


class ZipfSampler:
    """Zipf(s) popularity over ranks ``0..n-1`` (rank 0 most popular),
    sampled by bisecting a precomputed CDF."""

    def __init__(self, n: int, s: float):
        cdf = []
        total = 0.0
        for rank in range(1, n + 1):
            total += 1.0 / rank ** s
            cdf.append(total)
        self._cdf = cdf
        self._total = total

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cdf, rng.random() * self._total)


def pareto_gap_ms(rng: random.Random, rate: float, alpha: float) -> float:
    """One heavy-tailed interarrival gap whose mean matches ``rate``
    calls/second (inverse-CDF sampling; finite mean needs alpha > 1)."""
    mean = 1000.0 / rate
    scale = mean * (alpha - 1.0) / alpha
    u = 1.0 - rng.random()          # in (0, 1]: never divides by zero
    return scale / u ** (1.0 / alpha)


class Session(NamedTuple):
    home: int                       # index of the client's machine
    start_ms: float                 # stagger before the first call
    #: per call: target cell, argument bytes, think time after the reply.
    calls: Tuple[Tuple[int, bytes, float], ...]


class CapacityPlan(NamedTuple):
    hosts: int
    cells: int
    horizon_ms: float
    sessions: Tuple[Session, ...]


def capacity_plan(seed: int, scale: float = 1.0) -> CapacityPlan:
    """The capacity workload: 1,000 hosts in 250 four-host cells, 1,500
    sessions of 2 calls each placed round-robin over the hosts, Zipf(1.1)
    cell choice, Pareto(1.5) gaps at 20 calls/s/session, cut at 1,200 ms
    of virtual time.  Open loop across sessions in virtual time, fixed
    work in host time.  ``scale`` shrinks the world (not its shape) for
    the self-test."""
    cells = max(2, round(250 * scale))
    hosts = cells * 4
    sessions = max(4, round(1500 * scale))
    rate, alpha = 20.0, 1.5
    zipf = ZipfSampler(cells, 1.1)
    planned = []
    for index in range(sessions):
        rng = _stream(seed, "session-%d" % index)
        start = rng.uniform(0.0, 1000.0 / rate)
        calls = tuple((zipf.sample(rng), rng.randbytes(8),
                       pareto_gap_ms(rng, rate, alpha))
                      for _ in range(2))
        planned.append(Session(index % hosts, start, calls))
    return CapacityPlan(hosts, cells, 1200.0, tuple(planned))
