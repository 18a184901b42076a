import hashlib
import math
import tracemalloc

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
from primelab.residues import avoiding_row, avoiding_windows

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
    monkeypatch.setattr(sieve, "SEGMENT_ODD_BITS", 64)
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


PACKED = sieve_primes(2 * 10**5)


def test_the_packed_table_agrees_with_factorize_to_2e5():
    values = np.arange(-40, PACKED.limit + 1)  # n <= 1, the evens, the byte edges 16k +- 1, the limit
    want = [n >= 2 and factorize(n) == {n: 1} for n in values.tolist()]
    assert [PACKED.is_prime(n) for n in values.tolist()] == want
    assert PACKED.is_prime_array(values).tolist() == want
    assert [PACKED.is_prime(16 * k + d) for k in (1, 2, 6, 8) for d in (-1, 1)] == [
        False, True, True, False, False, True, True, False]  # 15 17 31 33 95 97 127 129
    assert PACKED.is_prime(PACKED.limit) is False and PACKED.is_prime(199_999) is True


def test_is_prime_array_reads_negatives_zero_one_two_and_evens():
    values = np.array([-9, -7, -2, -1, 0, 1, 2, 3, 4, 7, 8, 9, 16, 17, 2 * 10**5, -199_999], dtype=np.int64)
    assert PACKED.is_prime_array(values).tolist() == [n >= 2 and factorize(n) == {n: 1} for n in values.tolist()]
    assert PACKED.is_prime_array(np.zeros(0, dtype=np.int64)).tolist() == []


@pytest.mark.parametrize("e, hi", [(2, 9), (4, 200), (128, 130), (126, 1000), (1000, 1000 + 2 * 64 * 8 + 3),
                                   (10**6, 10**6 + 129), (10**6 + 2, 10**6 + 130), (999_998, 10**6 + 1027)])
def test_a_shifted_table_is_the_same_across_seams(monkeypatch, e, hi):
    whole = sieve._shifted_table(e, hi)
    monkeypatch.setattr(sieve, "SEGMENT_ODD_BITS", 64)  # a seam every 8 bytes of bits
    seamed = sieve._shifted_table(e, hi)
    assert seamed.limit == whole.limit == hi - e
    assert seamed.primes.tolist() == whole.primes.tolist() and seamed.bits.tobytes() == whole.bits.tobytes()
    odd = [i for i in range((hi - e + 1) // 2) if factorize(e + 2 * i + 1) == {e + 2 * i + 1: 1}]
    assert seamed.primes.tolist() == [2] * (hi - e >= 2) + [2 * i + 1 for i in odd]
    assert [int(b) for b in np.unpackbits(whole.bits, bitorder="little")] == [
        int(i in odd) for i in range(8 * len(whole.bits))]


def test_a_table_holds_one_bit_per_odd_number():
    tracemalloc.start()
    try:
        table = sieve_primes(10**7)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 664_579 and table.bits.nbytes == 625_001
    assert held <= 6 * 2**20  # 5.07 MiB of int64 primes and 0.60 MiB of bits; a byte per odd number held 9.84 MiB


def test_table_is_write_protected():
    table = sieve_primes(100)
    with pytest.raises(ValueError):
        table.primes[0] = 9


def test_is_prime_certificate_beyond_table():
    assert is_prime(10**9 + 7)
    assert not is_prime(10**9 + 8)
    assert is_prime(2) and is_prime(3) and not is_prime(4)


def test_trial_division_past_the_table_crosses_its_chunks():
    # the 303 primes of a table to 2000 are divided by 256 at a time: 1619 ends the first chunk
    small, big = sieve_primes(2000), sieve_primes(4_000_000)
    assert small.primes[255:257].tolist() == [1619, 1621]
    values = [1619 * 1619, 1619 * 1621, 1621 * 1627, 1999 * 1999, *range(3_999_000, 3_999_100)]
    assert [is_prime(n, small) for n in values] == [big.is_prime(n) for n in values]
    assert sum(big.is_prime(n) for n in values) > 1  # primes past the table as well as composites


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
    for need in (0, 1, 2, 3, 15, 16, 17, 31, 32, 33, 1000, 9999, 10_000, 20_000):
        loaded, want = load_cache(path, need), sieve_primes(min(need, 10_000))
        assert loaded.limit == want.limit, need
        assert np.array_equal(loaded.primes, want.primes) and loaded.bits.tobytes() == want.bits.tobytes(), need


@pytest.mark.parametrize("need", [-1, -5])
def test_cache_refuses_a_negative_need(tmp_path, need):
    path = tmp_path / "primes.cache"
    save_cache(sieve_primes(100), path)
    with pytest.raises(ValueError, match="^limit must be nonnegative$"):
        load_cache(path, need)


def test_cache_counts_a_stray_pad_bit(tmp_path):
    path = tmp_path / "primes.cache"
    save_cache(sieve_primes(16), path)  # odd numbers 1..15 in the first byte; the second is pad
    raw = path.read_bytes()
    path.write_bytes(raw[:17] + b"\x01" + raw[18:])
    with pytest.raises(CacheChecksumError, match="^bitmap holds 7 primes but trailer declares 6$"):
        load_cache(path)


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


def reference_cache_bytes(table):
    """The cache layout packed whole from the primes: magic, limit, the padded bitmap, the prime count."""
    bits = np.zeros((table.limit + 1 + 15) // 16 * 8, dtype=bool)
    bits[table.primes[table.primes > 2] >> 1] = True
    return (b"PRIMSET1" + table.limit.to_bytes(8, "little") + np.packbits(bits, bitorder="little").tobytes()
            + len(table.primes).to_bytes(8, "little"))


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 10**6, 2 * SEGMENT_ODD_BITS - 1, 2 * SEGMENT_ODD_BITS,
                                   2 * SEGMENT_ODD_BITS + 1, 2 * SEGMENT_ODD_BITS + 17])
@pytest.mark.parametrize("chunk", [7, sieve._CACHE_CHUNK])
def test_cache_file_is_the_layout_packed_whole(tmp_path, monkeypatch, limit, chunk):
    monkeypatch.setattr(sieve, "_CACHE_CHUNK", chunk)
    table, path = sieve_primes(limit), tmp_path / "primes.cache"
    save_cache(table, path)
    assert path.read_bytes() == reference_cache_bytes(table)


# SHA-256 of the cache files save_cache wrote before the table held the packed bitmap itself.
CACHE_SHA256 = {
    0: "f71b1caff7f14a6b70abb74cee2d6ce170eeea1b8d2485de5e7e0e73564e1e99",
    1: "a7ea3762ec76dca604adabd9141a14c716e33f1651221b9d6764227ab8ef010c",
    2: "45fc6813611cd31df2dd776ba469e09f7e81daab43338219aaf7a44e1e58c800",
    10**6: "a7eef8c09b50b99903d15799b813d08afc688de5c708b2e1e73692a52a85443a",
    2 * SEGMENT_ODD_BITS + 17: "413434bc14a88e3b04581e421bf9e2662133ef753d83a531afd31ed0fdc32a7a",
}


@pytest.mark.parametrize("limit", CACHE_SHA256)
def test_cache_files_keep_their_bytes(tmp_path, limit):
    path = tmp_path / "primes.cache"
    save_cache(sieve_primes(limit), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CACHE_SHA256[limit]


def test_a_failed_cache_write_keeps_the_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "primes.cache"
    save_cache(sieve_primes(1000), path)
    before = path.read_bytes()
    calls = []

    class FullDisk:  # takes the header, then runs out of space at the bitmap
        def __init__(self, name, mode):
            self.fh = open(name, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            calls.append(1)
            if len(calls) > 1:
                raise OSError(28, "No space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(sieve, "open", FullDisk, raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_cache(sieve_primes(10_000), path)
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["primes.cache"]


PRIMES_TO_6000 = set(brute_primes(6000))  # beyond every form value below
EDGES = [32 * k + d for k in (1, 2, 12) for d in (-1, 0, 1)]  # 32 values: a segment of 16 odd numbers
EDGE_FORMS = {"twins": ((1, 0), (1, 2)), "2,6": ((1, 0), (1, 2), (1, 6)),
              "2,6,8": ((1, 0), (1, 2), (1, 6), (1, 8)), "ap (6, 5)": ((6, 5),),
              "ap twins (4, 1)": ((4, 1), (4, 5)), "goldbach 2000": ((1, 0), (-1, 2000))}


def test_stream_at_width_16_matches_a_literal_scan(monkeypatch):
    monkeypatch.setattr(sieve, "SEGMENT_ODD_BITS", 16)
    for x in range(-1, 2100, 7):
        assert count_primes(x) == len([p for p in PRIMES_TO_6000 if p <= x]), x
    for limit in [0, 1, 2, 3, *EDGES, 2099]:
        assert sieve_primes(limit).primes.tolist() == sorted(p for p in PRIMES_TO_6000 if p <= limit)


@pytest.mark.parametrize("name", EDGE_FORMS)
def test_pattern_windows_at_width_16_match_a_literal_scan(monkeypatch, name):
    forms = EDGE_FORMS[name]
    tables = [None, sieve_primes(100), sieve_primes(1950)]  # reaching no window, the first few, most
    monkeypatch.setattr(sieve, "_shared_table", None)  # None reads the stream alone
    monkeypatch.setattr(sieve, "SEGMENT_ODD_BITS", 16)  # an n-window of 16 // |a| values
    for lo in EDGES[:6]:
        for hi in EDGES:
            want = [n for n in range(lo, hi + 1) if all(c * n + d in PRIMES_TO_6000 for c, d in forms)]
            for table in tables:
                assert pattern_starts(lo, hi, forms, table).tolist() == want, (lo, hi, table)


@given(st.integers(0, 5000))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_prefix_le_matches_count(limit):
    table = sieve_primes(5000)
    assert len(table.prefix_le(limit)) == table.count_upto(limit)


@given(st.integers(0, 500), st.integers(-1, 200), st.integers(1, 40))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_avoiding_windows_tile_the_range(lo, span, width):
    entries = [(3, {0}), (7, {2, 5}), (11, {4})]  # none keeps one residue or fewer than it strikes
    hi = lo + span  # span -1 is the empty range
    windows = list(avoiding_windows(lo, hi, avoiding_row(lo, entries), width=width))
    assert [start for start, _ in windows] == list(range(lo, hi + 1, width))
    assert all(0 < len(mask) <= width for _, mask in windows)
    joined = np.concatenate([mask for _, mask in windows]) if windows else np.ones(0, bool)
    assert joined.tolist() == [all(n % p not in s for p, s in entries) for n in range(lo, hi + 1)]


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
