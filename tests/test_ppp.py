"""Product-probability triples: brute-force agreement and number-theory laws."""
from __future__ import annotations

import pytest

from pathway_entropy.errors import DomainError
from pathway_entropy.ppp import (
    PppSolution,
    has_independent_events,
    independent_event_triples,
    scan,
)


def brute_force(n: int) -> list[tuple[int, int, int]]:
    out = []
    for x in range(1, n):
        for y in range(1, n):
            for z in range(1, n):
                if n * z == x * y and z < x and z < y:
                    out.append((x, y, z))
    return out


def test_matches_cubic_brute_force():
    for n in range(2, 61):
        fast = independent_event_triples(n).triples
        assert list(fast) == brute_force(n)


def test_small_primes_empty():
    for n in (2, 3, 5, 7):
        assert independent_event_triples(n).triples == ()
        assert not has_independent_events(n)


def test_four_and_six():
    assert (2, 2, 1) in independent_event_triples(4).triples
    assert independent_event_triples(4).triples == ((2, 2, 1),)
    six = independent_event_triples(6).triples
    assert (2, 3, 1) in six and (3, 2, 1) in six
    assert has_independent_events(6)


def _primes(limit: int) -> list[int]:
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i:: i] = [False] * len(sieve[i * i:: i])
    return [i for i, flag in enumerate(sieve) if flag]


def test_independent_events_exactly_when_triples_exist():
    for n in range(2, 1001):
        assert has_independent_events(n) == (
            len(independent_event_triples(n).triples) > 0)
    with pytest.raises(DomainError):
        has_independent_events(1)


def test_primes_have_no_solutions_to_1000():
    counts = dict(scan(1000))
    for p in _primes(1000):
        assert counts[p] == 0


def test_squares_have_witness():
    for k in range(2, 32):
        triples = independent_event_triples(k * k).triples
        assert (k, k, 1) in triples


def test_symmetry_in_first_two_slots():
    for n in (12, 30, 100):
        triples = set(independent_event_triples(n).triples)
        for x, y, z in triples:
            assert (y, x, z) in triples


def test_lexicographic_order():
    for n in (24, 36):
        triples = independent_event_triples(n).triples
        assert list(triples) == sorted(triples)


def test_validation():
    with pytest.raises(DomainError):
        independent_event_triples(1)
    with pytest.raises(DomainError):
        scan(1)
    with pytest.raises(DomainError, match="n >= 2"):
        PppSolution(1, ())
    with pytest.raises(DomainError):
        PppSolution(4, ((2, 2, 2),))
    with pytest.raises(DomainError):
        PppSolution(4, ((3, 2, 1),))
    PppSolution(4, ((2, 2, 1),))


def test_scan_shape():
    table = scan(10)
    assert table[0] == (2, 0)
    assert table[-1][0] == 10
    assert len(table) == 9
