"""Tests for seeded random streams (the common-random-numbers discipline)."""

import itertools

import pytest

from repro.net.network import NetworkConfig
from repro.sim import RandomStream, Simulator
from repro.sim.rng import _LINK_DRAWS_HELD, LinkDraws
from repro.sim.sharded import ShardNetwork


def test_same_seed_same_stream():
    a = RandomStream(7, "net")
    b = RandomStream(7, "net")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_are_independent():
    a = RandomStream(7, "net")
    b = RandomStream(7, "failures")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_fork_derives_deterministic_substream():
    a1 = RandomStream(3, "root").fork("child")
    a2 = RandomStream(3, "root").fork("child")
    assert a1.name == "root/child"
    assert [a1.random() for _ in range(3)] == [a2.random() for _ in range(3)]


def test_fork_consumes_parent_state():
    parent = RandomStream(3, "root")
    parent.fork("x")
    one = parent.random()
    fresh = RandomStream(3, "root")
    assert fresh.random() != one  # fork advanced the parent


def test_chance_extremes():
    rng = RandomStream(1, "c")
    assert rng.chance(0.0) is False
    assert rng.chance(1.0) is True
    assert rng.chance(-0.5) is False
    assert rng.chance(1.5) is True


def test_expovariate_mean():
    rng = RandomStream(5, "exp")
    samples = [rng.expovariate(1 / 10.0) for _ in range(5000)]
    assert 9.0 < sum(samples) / len(samples) < 11.0


def test_sample_and_choice_and_shuffle():
    rng = RandomStream(2, "s")
    population = list(range(10))
    picked = rng.sample(population, 3)
    assert len(picked) == 3 and len(set(picked)) == 3
    assert rng.choice(population) in population
    shuffled = list(population)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == population


# --- LinkDraws: RandomStream's draws without RandomStream's generator -----

_CHANCES = (0.0, 0.1, 1.0)


def _apply(stream, op, position):
    """One call of the wire's vocabulary; ``position`` varies the arguments."""
    if op == "uniform":
        return stream.uniform(0, position + 1)
    if op == "chance":
        return stream.chance(_CHANCES[position % 3])
    return stream.random()


class _Link:
    """One link of a :class:`ShardNetwork`'s table, spoken to the way the
    wire speaks to it: ``Network._chance``, ``random.uniform``'s own
    expression over ``_random``, and ``_random``."""

    def __init__(self, net, pair):
        self.net, self.link = net, net._link(*pair)

    def uniform(self, low, high):
        return low + (high - low) * self.net._random(self.link)

    def chance(self, probability):
        return self.net._chance(self.link, probability)

    def random(self):
        return self.net._random(self.link)


def _network(seed):
    return ShardNetwork(Simulator(), seed=seed, config=NetworkConfig())


def _assert_same_draws(seed, pair, pattern):
    reference = RandomStream(seed, "link:%s>%s" % pair)
    link = _Link(_network(seed), pair)
    for position, op in enumerate(pattern):
        want, got = _apply(reference, op, position), _apply(link, op, position)
        assert type(got) is type(want) and got == want, (seed, pair, pattern)
    assert link.random() == reference.random(), (seed, pair, pattern)


def test_link_stream_is_random_stream_draw_for_draw():
    """200 (seed, name) pairs, each under its own 12-call interleaving of
    the three calls — 9 to 12 underlying draws, so well past the held ones."""
    ops = ("uniform", "chance", "random")
    patterns = itertools.product(ops, repeat=12)
    for pair in range(200):
        # every 2,654th: 200 of them span all 3**12 patterns end to end
        pattern = next(itertools.islice(patterns, 2653, None))
        _assert_same_draws(pair * 7919, ("m%d" % pair, "m%d" % (pair % 17)),
                           pattern)


def test_link_stream_every_short_interleaving_across_the_boundary():
    """Every pattern of up to six calls: each way of reaching, landing on
    and crossing the held/generator boundary, with ``chance(0)`` and
    ``chance(1)`` (no draw) at every position."""
    for length in range(1, _LINK_DRAWS_HELD + 3):
        for pattern in itertools.product(("uniform", "chance", "random"),
                                         repeat=length):
            _assert_same_draws(7, ("a", "b"), pattern)
            _assert_same_draws(length, ("", ""), pattern)


def test_links_of_one_table_draw_independently():
    """Links numbered in one table, drawn in an interleaving that takes
    some past their held doubles: each still yields its own stream."""
    table = LinkDraws(11)
    pairs = [("h%d" % (i % 4), "h%d" % (i // 4)) for i in range(16)]
    references = {pair: RandomStream(11, "link:%s>%s" % pair)
                  for pair in pairs}
    for step in range(200):
        pair = pairs[(step * step) % 7 + (step % 3) * 3]
        assert table.random(table.number(*pair)) \
            == references[pair].random(), (step, pair)
    assert sorted(table.numbers) == sorted(
        {pairs[(s * s) % 7 + (s % 3) * 3] for s in range(200)})
    assert list(table.numbers.values()) == list(range(len(table.numbers)))


def test_link_stream_holds_a_generator_only_past_its_held_draws():
    table = LinkDraws(3)
    other, link = table.number("b", "a"), table.number("a", "b")
    for _ in range(_LINK_DRAWS_HELD):
        table.random(link)
        assert not table._rngs
    assert list(table._taken) == [0, _LINK_DRAWS_HELD]
    # the fifth draw seeds the link's generator again and skips four
    reference = RandomStream(3, "link:a>b")
    assert table.random(link) == [reference.random() for _ in range(5)][-1]
    assert list(table._rngs) == [link]
    assert len(table._held) == 2 * _LINK_DRAWS_HELD and other == 0


def test_link_stream_chance_extremes_draw_nothing():
    link, reference = _Link(_network(1), ("c", "d")), \
        RandomStream(1, "link:c>d")
    assert link.chance(0.0) is False and link.chance(-0.5) is False
    assert link.chance(1.0) is True and link.chance(1.5) is True
    assert link.random() == reference.random()


@pytest.mark.parametrize("method", ["fork", "randint", "expovariate",
                                    "choice", "shuffle", "sample"])
def test_link_stream_has_no_call_that_draws_a_varying_number(method):
    assert hasattr(RandomStream(1, "x"), method)
    with pytest.raises(AttributeError):
        getattr(LinkDraws(1), method)
