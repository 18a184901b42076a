import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primelab import sieve
from primelab.sieve import (
    CacheChecksumError,
    CacheMagicError,
    CacheTruncatedError,
    SEGMENT_ODD_BITS,
    PrimeTable,
    avoiding_mask,
    avoiding_windows,
    count_congruent,
    count_primes,
    factorize,
    is_prime,
    load_cache,
    pattern_starts,
    save_cache,
    sieve_primes,
    sieving_prime_set,
    table_for,
)

FIRST_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def brute_primes(limit):
    return [n for n in range(2, limit + 1)
            if all(n % d for d in range(2, int(n**0.5) + 1))]


def test_small_primes_exact():
    table = sieve_primes(50)
    assert list(table.primes) == FIRST_PRIMES


def test_limits_zero_one_two():
    assert len(sieve_primes(0)) == 0
    assert len(sieve_primes(1)) == 0
    assert list(sieve_primes(2).primes) == [2]


def test_matches_brute_force_up_to_2000():
    table = sieve_primes(2000)
    assert list(table.primes) == brute_primes(2000)


def test_segmentation_is_invisible(monkeypatch):
    whole = sieve_primes(10_000)
    monkeypatch.setattr(sieve, "_odd_segments", partial(sieve._odd_segments, segment_odd_bits=64))
    tiny_segments = sieve_primes(10_000)
    assert np.array_equal(whole.primes, tiny_segments.primes)


def test_count_primes_matches_the_table():
    for x in range(301):
        assert count_primes(x) == len(sieve_primes(x).primes)


@pytest.mark.parametrize("x", [2 * SEGMENT_ODD_BITS + d for d in (-1, 0, 1, 2)]
                         + [4 * SEGMENT_ODD_BITS + 1])
def test_count_primes_at_segment_edges(x):
    assert count_primes(x) == len(sieve_primes(x).primes)


def test_membership_and_count():
    table = sieve_primes(1000)
    assert table.is_prime(997)
    assert not table.is_prime(999)
    assert not table.is_prime(1)
    assert not table.is_prime(-7)
    assert table.count_upto(100) == 25
    with pytest.raises(ValueError):
        table.is_prime(1001)


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 99, 100, 1000])
def test_is_prime_array_matches_is_prime(limit):
    table = sieve_primes(limit)
    values = np.arange(-3, limit + 1, dtype=np.int64)
    got = table.is_prime_array(values)
    assert got.dtype == bool
    assert got.tolist() == [table.is_prime(int(v)) for v in values]
    with pytest.raises(ValueError):
        table.is_prime_array(np.array([limit + 1], dtype=np.int64))


def test_table_is_write_protected():
    table = sieve_primes(100)
    with pytest.raises(ValueError):
        table.primes[0] = 9


def test_is_prime_certificate_beyond_table():
    assert is_prime(10**9 + 7)
    assert not is_prime(10**9 + 8)
    assert is_prime(2) and is_prime(3) and not is_prime(4)


def test_sieving_prime_set_boundaries():
    assert list(sieving_prime_set(4)) == [2]
    assert list(sieving_prime_set(8)) == [2]
    assert list(sieving_prime_set(9)) == [2, 3]
    assert list(sieving_prime_set(100)) == [2, 3, 5, 7]
    with pytest.raises(ValueError):
        sieving_prime_set(3)


def test_table_for_reuses_a_big_enough_table():
    small = sieve_primes(100)
    assert table_for(100, small) is small
    grown = table_for(101, small)
    assert grown is not small and grown.limit >= 101
    assert table_for(5) is grown  # the shared table, already big enough


CERT_TABLE = sieve_primes(math.isqrt(10**9))


@given(st.integers(1, 10**9))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_factorize_product_primality_and_order(n):
    factors = factorize(n)
    assert math.prod(p**e for p, e in factors.items()) == n
    assert all(e >= 1 and is_prime(p, CERT_TABLE) for p, e in factors.items())
    assert list(factors) == sorted(factors)


def test_factorize_edge_cases():
    assert factorize(1) == {}
    assert factorize(2) == {2: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(2**31 - 1) == {2**31 - 1: 1}
    for bad in (0, -6):
        with pytest.raises(ValueError):
            factorize(bad)


@given(st.integers(1, 500), st.integers(1, 97))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_count_congruent_matches_enumeration(x, m):
    for r in range(m):
        want = sum(1 for n in range(1, x + 1) if n % m == r)
        assert count_congruent(x, r, m) == want


def test_count_congruent_counts_from_one():
    assert count_congruent(20, 0, 2) == 10
    assert count_congruent(20, 1, 2) == 10  # includes the unit 1
    assert count_congruent(5, 7, 9) == 0


def test_cache_round_trip(tmp_path):
    table = sieve_primes(10_000)
    path = tmp_path / "primes.cache"
    save_cache(table, str(path))
    loaded = load_cache(str(path))
    assert loaded.limit == table.limit
    assert np.array_equal(loaded.primes, table.primes)
    # byte determinism
    again = tmp_path / "again.cache"
    save_cache(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_cache_bad_magic(tmp_path):
    path = tmp_path / "primes.cache"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 32)
    with pytest.raises(CacheMagicError):
        load_cache(path)


def test_cache_truncated(tmp_path):
    path = tmp_path / "primes.cache"
    save_cache(sieve_primes(10_000), path)
    path.write_bytes(path.read_bytes()[:-20])
    with pytest.raises(CacheTruncatedError):
        load_cache(path)


def test_cache_checksum(tmp_path):
    path = tmp_path / "primes.cache"
    save_cache(sieve_primes(10_000), path)
    raw = bytearray(path.read_bytes())
    raw[16] ^= 0x01  # flip one bitmap bit; trailer count now disagrees
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheChecksumError):
        load_cache(path)


def test_cache_loads_the_table_up_to_need(tmp_path):
    path = tmp_path / "primes.cache"
    save_cache(sieve_primes(10_000), path)
    for need in (0, 1, 2, 3, 15, 16, 17, 1000, 9999, 10_000, 20_000):
        loaded, want = load_cache(path, need), sieve_primes(min(need, 10_000))
        assert loaded.limit == want.limit, need
        assert np.array_equal(loaded.primes, want.primes) and np.array_equal(loaded.odd_bits, want.odd_bits)


def test_cache_checks_the_whole_file_whatever_need_is(tmp_path, monkeypatch):
    monkeypatch.setattr(sieve, "_CACHE_CHUNK", 7)  # 90 chunks of the 626-byte bitmap, the last short
    path = tmp_path / "primes.cache"
    save_cache(sieve_primes(10_000), path)
    assert load_cache(path, 100).limit == 100
    raw = path.read_bytes()
    path.write_bytes(raw[:16 + 600] + bytes([raw[16 + 600] ^ 0x01]) + raw[16 + 601:])  # clears the prime 9601
    with pytest.raises(CacheChecksumError, match="^bitmap holds 1228 primes but trailer declares 1229$"):
        load_cache(path, 100)
    path.write_bytes(raw[:-1])
    with pytest.raises(CacheTruncatedError):
        load_cache(path, 100)


def test_cache_load_memory_follows_need(tmp_path):
    path = tmp_path / "primes.cache"
    save_cache(sieve_primes(10**7), path)  # a 625 KB bitmap: unpacked whole, 5 MB
    tracemalloc.start()
    try:
        assert len(load_cache(path, 1000)) == 168
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@given(st.integers(0, 5000))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_prefix_le_matches_count(limit):
    table = sieve_primes(5000)
    assert len(table.prefix_le(limit)) == table.count_upto(limit)


@given(st.integers(0, 500), st.integers(-1, 200), st.integers(1, 40))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_avoiding_windows_tile_the_range(lo, span, width):
    entries = [(3, {0}), (7, {2, 5}), (11, {4})]
    hi = lo + span  # span -1 is the empty range
    windows = list(avoiding_windows(lo, hi, entries, width=width))
    assert [start for start, _ in windows] == list(range(lo, hi + 1, width))
    assert all(0 < len(mask) <= width for _, mask in windows)
    joined = np.concatenate([mask for _, mask in windows]) if windows else np.ones(0, bool)
    assert np.array_equal(joined, avoiding_mask(lo, hi, entries))


@given(st.integers(-20, 120), st.integers(-1, 150), st.integers(1, 6), st.integers(-10, 10),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(-30, 300)), max_size=3))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_pattern_starts_matches_a_literal_scan(lo, span, a, b, rest):
    hi = lo + span  # span -1 is the empty range
    forms = [(a, b), *rest]
    want = [n for n in range(lo, hi + 1) if all(is_prime(c * n + d) for c, d in forms)]
    got = pattern_starts(lo, hi, forms)
    assert got.tolist() == want


def test_pattern_starts_on_an_empty_range_builds_no_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a table was asked for")

    monkeypatch.setattr(sieve, "table_for", refuse)
    assert pattern_starts(10, 9, ((1, 0), (1, 2))).tolist() == []
    assert pattern_starts(0, -5, ((6, 1),)).tolist() == []


@pytest.mark.parametrize("forms", [((0, 3),), ((-1, 100), (1, 0))])
def test_pattern_starts_rejects_a_first_form_below_one(forms):
    with pytest.raises(ValueError):
        pattern_starts(2, 50, forms)
    with pytest.raises(ValueError):  # checked before the range
        pattern_starts(50, 2, forms)


def test_pattern_starts_reaches_the_table_limit(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a table was sieved")

    twins, goldbach = sieve_primes(103), sieve_primes(98)  # 103 is prime, 98 = 100 - 2
    monkeypatch.setattr(sieve, "_shared_table", None)  # no process table can answer instead
    monkeypatch.setattr(sieve, "sieve_primes", refuse)  # the given tables must suffice
    # (101, 103): the increasing form's largest value is the limit
    assert pattern_starts(2, 101, ((1, 0), (1, 2)), twins).tolist() == [
        3, 5, 11, 17, 29, 41, 59, 71, 101]
    # the decreasing form 100 - n peaks at n = lo = 2
    assert pattern_starts(2, 50, ((1, 0), (-1, 100)), goldbach).tolist() == [3, 11, 17, 29, 41, 47]
    with pytest.raises(AssertionError):  # one past the limit needs a bigger table
        pattern_starts(2, 102, ((1, 0), (1, 2)), twins)
