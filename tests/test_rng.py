"""Unit tests for the deterministic RNG."""

from repro.sim.rng import DeterministicRNG


def test_same_seed_same_sequence():
    a = DeterministicRNG(1)
    b = DeterministicRNG(1)
    assert [a.uniform("x", 0, 1) for _ in range(5)] == [b.uniform("x", 0, 1) for _ in range(5)]


def test_different_seeds_differ():
    a = DeterministicRNG(1)
    b = DeterministicRNG(2)
    assert [a.uniform("x", 0, 1) for _ in range(5)] != [b.uniform("x", 0, 1) for _ in range(5)]


def test_streams_are_independent_of_request_order():
    a = DeterministicRNG(3)
    b = DeterministicRNG(3)
    # Draw from streams in different orders; each stream's own sequence is stable.
    a_first = a.uniform("alpha", 0, 1)
    a.uniform("beta", 0, 1)
    b.uniform("beta", 0, 1)
    b_first = b.uniform("alpha", 0, 1)
    assert a_first == b_first


def test_randint_within_bounds():
    rng = DeterministicRNG(4)
    values = [rng.randint("ints", 1, 10) for _ in range(100)]
    assert all(1 <= value <= 10 for value in values)


def test_shuffle_returns_a_permuted_copy():
    rng = DeterministicRNG(5)
    items = list(range(20))
    shuffled = rng.shuffle("mix", items)
    assert sorted(shuffled) == items
    assert items == list(range(20)), "shuffle must not mutate its input"


def test_streams_names_what_was_drawn():
    rng = DeterministicRNG(6)
    assert rng.streams() == ()
    rng.uniform("network-latency", 0.0, 0.01)
    rng.randint("alpha", 0, 3)
    rng.uniform("network-latency", 0.0, 0.01)
    assert rng.streams() == ("alpha", "network-latency")
