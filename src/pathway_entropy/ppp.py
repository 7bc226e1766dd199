"""Integer triples witnessing product-form events on equiprobable spaces.

On a sample space of n equally likely points, an event pair with sizes x and
y whose intersection has size z is independent exactly when n z = x y.  The
search space is 1 <= x, y, z <= n-1 with z strictly below both x and y
(equality would make one event contain the other or exhaust the space).

`independent_event_triples` enumerates all solutions for one n.  Instead of
the cubic scan it walks x and the admissible y directly: x y must be a
multiple of n, so y ranges over multiples of n / gcd(n, x), which keeps a
full scan to n = 1000 well under a second.  Primes have no solutions
(x y < n^2 and n | x y force a factor of n into x or y), composites always
do: n = a b with 2 <= a <= b gives (a, b, 1), so `has_independent_events`
is a trial-division compositeness test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "PppSolution",
    "independent_event_triples",
    "has_independent_events",
    "scan",
]


@dataclass(frozen=True)
class PppSolution:
    n: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DomainError(f"need n >= 2, got {self.n}")
        for x, y, z in self.triples:
            ok = (self.n * z == x * y
                  and 1 <= x <= self.n - 1
                  and 1 <= y <= self.n - 1
                  and 1 <= z < x and z < y)
            if not ok:
                raise DomainError(f"invalid triple {(x, y, z)} for n = {self.n}")

    def __len__(self) -> int:
        return len(self.triples)


def independent_event_triples(n: int) -> PppSolution:
    """All (x, y, z) with n z = x y in lexicographic order."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    found: list[tuple[int, int, int]] = []
    for x in range(2, n):  # z < x forces x >= 2
        step = n // math.gcd(n, x)
        for y in range(step, n, step):
            z = (x * y) // n
            if 1 <= z < x and z < y:
                found.append((x, y, z))
    return PppSolution(n, tuple(found))


def has_independent_events(n: int) -> bool:
    """True exactly when n is composite."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    return any(n % a == 0 for a in range(2, math.isqrt(n) + 1))


def scan(n_max: int) -> list[tuple[int, int]]:
    """(n, solution count) for every n from 2 through n_max."""
    if n_max < 2:
        raise DomainError(f"need n_max >= 2, got {n_max}")
    return [(n, len(independent_event_triples(n).triples))
            for n in range(2, n_max + 1)]
