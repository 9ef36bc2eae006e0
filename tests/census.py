"""An exact heap census: every live object, by type, and its bytes.

``census()`` collects, then counts every object the cyclic collector
tracks plus, transitively, the untracked objects ``gc.get_referents``
finds in them and the keys of every dict (a str-keyed dict reports
none): a dict that grows by untracked keys, or a retained payload, shows
as surely as a new instance.  Two censuses around a run differ by
exactly what the run left behind, and no tracing hook slows the run::

    before = census()
    run()
    after = census(before)          # ``before`` itself is left out
    after - before                  # type -> objects the run left behind
    after.bytes - before.bytes      # ... their sys.getsizeof bytes
    after.keys - before.keys        # ... and the entries of their dicts
"""

import collections
import gc
import itertools
import sys


class Census(collections.Counter):
    """``type -> objects`` alive at one moment; ``bytes`` is their size
    and ``keys`` the entries of every dict among them."""

    bytes = keys = 0


def tracked(hidden=()) -> list:
    """Every object the collector tracks after a collection, but the
    censuses in ``hidden``."""
    gc.collect()
    objects = gc.get_objects()
    skip = {id(objects), id(hidden), *map(id, hidden),
            *(id(vars(other)) for other in hidden)}
    return [o for o in objects if id(o) not in skip]


def census(*hidden) -> Census:
    """Count every live object by type, leaving ``hidden`` out."""
    objects = tracked(hidden)
    seen = set()
    wave = objects
    while wave:
        refs = itertools.chain(gc.get_referents(*wave),
                               *(o for o in wave if isinstance(o, dict)))
        fresh = {id(r): r for r in refs
                 if not gc.is_tracked(r) and id(r) not in seen}
        seen.update(fresh)
        wave = list(fresh.values())
        objects += wave
    tally = Census(map(type, objects))
    tally.bytes = sum(map(sys.getsizeof, objects))
    tally.keys = sum(len(o) for o in objects if isinstance(o, dict))
    return tally
