import math

import pytest
from hypothesis import given, settings, strategies as st

from primelab.schinzel import (
    lambda_filter,
    naive_schinzel_search,
    remainder_tables,
    schinzel_search,
    verify_shifted_quotient,
    window_primes,
)


def test_lambda_filter_worked_values():
    spec = lambda_filter(11, 13, [2, 3, 5, 7])
    assert sorted(spec.allowed(5)) == [0, 2, 4]
    assert sorted(spec.allowed(7)) == [0, 2, 4, 5, 6]


def test_lambda_filter_side_divisible_by_p_removes_nothing():
    # 2m = 0 mod p: that side's congruence has no solution
    spec = lambda_filter(5, 3, [5])
    assert len(spec.allowed(5)) == 4  # only the n-side removes one residue


def test_lambda_filter_requires_coprime():
    with pytest.raises(ValueError):
        lambda_filter(4, 6, [5])


@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 300))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_disallowed_lambda_really_divides(m, n, k):
    if math.gcd(m, n) != 1:
        return
    for p in (3, 5, 7, 11):
        allowed = lambda_filter(m, n, [p]).allowed(p)
        if k % p not in allowed:
            assert (2 * m * k - 1) % p == 0 or (2 * n * k - 1) % p == 0


def test_lambda_is_struck_exactly_when_p_divides_a_shifted_value():
    # the converse of the test above, over every residue lambda mod p
    for m in range(1, 31):
        for n in range(1, 31):
            if math.gcd(m, n) != 1:
                continue
            for p in (2, 3, 5, 7, 11, 13):
                allowed = lambda_filter(m, n, [p]).allowed(p)
                for lam in range(p):
                    divides = (2 * m * lam - 1) % p == 0 or (2 * n * lam - 1) % p == 0
                    assert (lam not in allowed) == divides, (m, n, p, lam)


def test_search_worked_examples():
    r = schinzel_search(11, 13, 100)
    assert (r.k, r.p, r.q) == (9, 197, 233)
    r = schinzel_search(1, 2, 10)
    assert (r.k, r.p, r.q) == (2, 3, 7)
    r = schinzel_search(1, 1, 10)
    assert (r.k, r.p, r.q) == (2, 3, 3)


def test_search_reduces_fraction():
    r = schinzel_search(22, 26, 100)
    assert r.reduced
    assert (r.m, r.n, r.k) == (11, 13, 9)


def test_search_none_when_exhausted():
    # m/n = 1/331: 2k*331-1 and 2k-1 both prime needs a lucky k; cap at 1
    assert schinzel_search(77, 1, 1) is None


def test_prime_shifted_value_is_not_filtered_out():
    # 2mk-1 = 3 equals the window prime 3 at (m, n, k) = (1, 8, 2); the
    # multiplier must survive the filter because 3 is prime
    r = schinzel_search(1, 8, 10)
    naive = naive_schinzel_search(1, 8, 10)
    assert r.k == naive.k == 2
    assert (r.p, r.q) == (3, 31)


@given(st.integers(1, 30), st.integers(1, 30))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_filtered_equals_naive(m, n):
    if math.gcd(m, n) != 1:
        return
    a = schinzel_search(m, n, 200)
    b = naive_schinzel_search(m, n, 200)
    assert (a.k if a else None) == (b.k if b else None)


def test_search_result_always_verifies():
    for m, n in [(11, 13), (1, 2), (3, 7), (5, 9)]:
        r = schinzel_search(m, n, 500)
        assert r is not None
        assert verify_shifted_quotient(r.m, r.n, r.p, r.q)


def test_verify_shifted_quotient():
    assert verify_shifted_quotient(11, 13, 197, 233)
    assert verify_shifted_quotient(1, 2, 3, 7)
    assert not verify_shifted_quotient(1, 2, 3, 5)
    assert not verify_shifted_quotient(1, 2, 4, 9)  # right ratio, not prime


def test_window_primes_grow_with_value():
    assert window_primes(26) == (2, 3, 5)
    assert window_primes(4) == ()
    assert window_primes(50) == (2, 3, 5, 7)


def test_remainder_tables_shape():
    tables = remainder_tables(11, 13, 9)
    assert len(tables) == 2
    assert tables[0].subject == 22
    assert tables[0].remainders[:4] == (0, 1, 2, 1)
    assert tables[1].subject == 26
