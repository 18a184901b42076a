"""Representing a positive rational m/n as (p+1)/(q+1) with p, q prime.

With gcd(m, n) = 1 the representation forces (p, q) = (2mk - 1, 2nk - 1)
for a common multiplier k.  The search filters k through remainder
sequences: a window prime p rules out any k for which p properly divides
2mk - 1 or 2nk - 1.  "Properly" matters: when the divisible value equals
p itself it is prime, and discarding that k would skip valid solutions
(m = 1, n = 8: k = 2 gives 2mk - 1 = 3, divisible by the window prime 3
yet prime).  The filter therefore only rejects k when the divisible value
exceeds the dividing prime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .residues import RemainderSequence, ResidueSpec, _form_entries, remainder_sequence
from .sieve import PrimeTable, checked_primes, is_prime, sieving_prime_set

__all__ = [
    "SchinzelResult",
    "lambda_filter",
    "schinzel_search",
    "naive_schinzel_search",
    "verify_shifted_quotient",
    "window_primes",
    "remainder_tables",
]


@dataclass(frozen=True)
class SchinzelResult:
    m: int
    n: int
    k: int
    p: int
    q: int
    reduced: bool  # True when the input fraction was reduced first


def lambda_filter(m: int, n: int, primes) -> ResidueSpec:
    """Multiplier residues struck per prime: the roots of the forms 2m*k - 1 and 2n*k - 1.

    lambda is struck mod p at (2m)^-1 or (2n)^-1, where p divides the
    corresponding shifted value 2mk - 1 or 2nk - 1.  When p divides 2m
    (or 2n) that side strikes nothing.  Between 0 and 2 residues are
    struck per prime.
    """
    if math.gcd(m, n) != 1:
        raise ValueError(f"gcd({m}, {n}) != 1")
    return ResidueSpec(_form_entries(((2 * m, -1), (2 * n, -1)), checked_primes(primes)))


def window_primes(value: int, table: PrimeTable | None = None) -> tuple[int, ...]:
    """Primes p with p * p < value -- the filter window for a shifted value."""
    if value < 5:
        return ()
    return tuple(int(p) for p in sieving_prime_set(value - 1, table))


def _filter_allows(m: int, n: int, k: int, primes) -> bool:
    """True unless a window prime properly divides 2mk - 1 or 2nk - 1."""
    for p in primes:
        for side in (m, n):
            value = 2 * side * k - 1
            if value > p and value % p == 0:
                return False
    return True


def schinzel_search(
    m: int, n: int, k_max: int = 1000, table: PrimeTable | None = None
) -> SchinzelResult | None:
    """Smallest k <= k_max with 2mk - 1 and 2nk - 1 both prime.

    Candidates k walk ascending; each is screened by the remainder-sequence
    filter over the window primes p with p^2 < 2 * max(m, n) * k (the window
    only ever grows), then the survivors' shifted values are verified with
    explicit primality certificates.
    """
    if m < 1 or n < 1 or k_max < 1:
        raise ValueError("m, n, k_max must be positive")
    g = math.gcd(m, n)
    reduced = g > 1
    m, n = m // g, n // g
    big = max(m, n)
    for k in range(1, k_max + 1):
        primes = window_primes(2 * big * k, table)
        if not _filter_allows(m, n, k, primes):
            continue
        p_val, q_val = 2 * m * k - 1, 2 * n * k - 1
        if is_prime(p_val, table) and is_prime(q_val, table):
            return SchinzelResult(m, n, k, p_val, q_val, reduced)
    return None


def naive_schinzel_search(
    m: int, n: int, k_max: int = 1000, table: PrimeTable | None = None
) -> SchinzelResult | None:
    """Oracle: test every k directly with no filtering."""
    if m < 1 or n < 1 or k_max < 1:
        raise ValueError("m, n, k_max must be positive")
    g = math.gcd(m, n)
    reduced = g > 1
    m, n = m // g, n // g
    for k in range(1, k_max + 1):
        p_val, q_val = 2 * m * k - 1, 2 * n * k - 1
        if is_prime(p_val, table) and is_prime(q_val, table):
            return SchinzelResult(m, n, k, p_val, q_val, reduced)
    return None


def verify_shifted_quotient(m: int, n: int, p: int, q: int) -> bool:
    """True iff (p+1)/(q+1) equals m/n with both p and q prime."""
    if p < 2 or q < 2:
        raise ValueError("p, q must be >= 2")
    return (p + 1) * n == (q + 1) * m and is_prime(p) and is_prime(q)


def remainder_tables(m: int, n: int, k: int, table: PrimeTable | None = None) -> list[RemainderSequence]:
    """The tabular remainder sequences of 2m and 2n over the filter window."""
    primes = window_primes(2 * max(m, n) * max(k, 1), table)
    if not primes:
        primes = (2,)
    return [remainder_sequence(2 * m, primes), remainder_sequence(2 * n, primes)]
