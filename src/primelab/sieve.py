"""The oracle side: prime tables, primality certificates, the pattern oracle, residue-class counts.

Everything here is exact integer arithmetic.  The central object is the
immutable :class:`PrimeTable`: ascending primes up to a limit and the cache
file's bitmap, one bit per odd number, about 0.46 GB at 1e9 (0.41 GB of it the
int64 primes).  The bounded path is :func:`_odd_segments`, one odd-only sieve over
any [lo, hi] a segment (about 1 MiB) at a time: every table, :func:`count_primes` and
the pattern oracle's windows are sieved from it, and every table is listed from its
bitmap by :func:`_decode`.  :func:`table_for` grows the one process-wide table (which
:func:`use_cache` takes from a cache file); :func:`is_prime` is one lookup-or-divide path.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PrimeTable",
    "sieve_primes",
    "count_primes",
    "table_for",
    "is_prime",
    "sieving_prime_set",
    "factorize",
    "count_congruent",
    "pattern_starts",
    "save_cache",
    "load_cache",
    "use_cache",
    "CacheError",
    "CacheMagicError",
    "CacheTruncatedError",
    "CacheChecksumError",
]

CACHE_MAGIC = b"PRIMSET1"

# Odd numbers covered by one sieve segment.
SEGMENT_ODD_BITS = 1 << 20

# Bitmap bytes that load_cache counts, and _decode lists the primes of, at a time.
_CACHE_CHUNK = 1 << 15


class CacheError(ValueError):
    """Base class for prime-cache file problems."""


class CacheMagicError(CacheError):
    """The cache file does not start with the expected magic bytes."""


class CacheTruncatedError(CacheError):
    """The cache file ends before the declared payload is complete."""


class CacheChecksumError(CacheError):
    """The trailing prime count does not match the bitmap contents."""


@dataclass(frozen=True)
class PrimeTable:
    """Immutable sorted primes in [2, limit] with the cache file's bitmap over the odd numbers.

    ``bits`` is uint8, ceil((limit + 1) / 16) bytes: bit i (LSB-first) of byte i >> 3 is set iff
    2*i + 1 is prime (never bit 0, the unit 1).  Safe to share across threads after construction.
    """

    limit: int
    primes: np.ndarray
    bits: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.primes.setflags(write=False)
        self.bits.setflags(write=False)
        object.__setattr__(self, "_bytes", memoryview(self.bits))  # is_prime reads a byte without numpy

    def __len__(self) -> int:
        return len(self.primes)

    def is_prime(self, n: int) -> bool:
        """Membership test for n <= limit (raises otherwise)."""
        if n > self.limit:
            raise ValueError(f"{n} exceeds table limit {self.limit}")
        if n & 1:  # odd n > 1 reads bit n >> 1, in byte n >> 4
            return n > 1 and self._bytes[n >> 4] >> (n >> 1 & 7) & 1 == 1
        return n == 2

    def is_prime_array(self, values: np.ndarray) -> np.ndarray:
        """Elementwise membership test for an integer array with entries <= limit."""
        if len(values) and values.max() > self.limit:
            raise ValueError(f"{int(values.max())} exceeds table limit {self.limit}")
        i = np.maximum((values >> 1) * (values & 1), 0)  # bit n >> 1 for odd n > 0, else bit 0 (clear)
        return (self.bits[i >> 3] >> (i & 7).astype(np.uint8) & 1).view(bool) | (values == 2)

    def count_upto(self, x: int) -> int:
        """pi(x) for x <= limit."""
        if x > self.limit:
            raise ValueError(f"{x} exceeds table limit {self.limit}")
        return int(self.primes.searchsorted(x, "right"))

    def prefix_le(self, bound: int) -> np.ndarray:
        """Primes p <= bound, as a slice of the table."""
        return self.primes[: self.primes.searchsorted(bound, "right")]


def _odd_segments(lo: int, hi: int):
    """Sieve the odd numbers in [lo, hi] a segment of SEGMENT_ODD_BITS of them at a time.

    Yields (lo_idx, seg): seg[i] is True iff 2*(lo_idx + i) + 1 is prime.
    Every seg is a view of one reused buffer, valid until the next step.
    """
    width = SEGMENT_ODD_BITS
    lo_idx, end = max(lo, 0) >> 1, (hi + 1) >> 1  # the odd numbers 2i + 1 in [lo, hi], i < end
    base = sieve_primes(math.isqrt(hi)).primes[1:] if hi >= 9 else np.zeros(0, dtype=np.int64)
    buffer = np.empty(min(width, max(end - lo_idx, 0)), dtype=bool)
    for s in range(lo_idx, end, width):
        seg = buffer[: min(width, end - s)]
        seg[:] = True
        seg[: int(s == 0)] = False  # the unit 1, when the segment starts at it
        odd = base[: base.searchsorted(math.isqrt(2 * (s + len(seg)) - 1), "right")]
        # each prime's first odd multiple >= max(p^2, 2s + 1), all in one step: 2i + 1 = 0 mod p at i = p >> 1
        first = np.maximum(odd * odd >> 1, s + ((odd >> 1) - s) % odd) - s
        for p, i in zip(odd.tolist(), first.tolist()):
            seg[i::p] = False
        yield s, seg


def sieve_primes(limit: int) -> PrimeTable:
    """Segmented sieve of Eratosthenes up to ``limit`` (inclusive).

    Deterministic for a given limit; limit 0 or 1 yields an empty table.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    return _shifted_table(0, limit)


def _shifted_table(e: int, hi: int) -> PrimeTable:
    """The table of the numbers e..hi (e even) shifted down by e, in one pass over the stream: bit i
    stands for e + 2i + 1.  Past e > 0 it stands for e + 3..hi alone (bit 0, for e + 1, is clear and
    2 is not listed).  Each segment is packed into the bits, which _decode then lists."""
    assert SEGMENT_ODD_BITS % 8 == 0  # every segment but the last fills whole bytes
    bits = np.zeros((hi - e + 16) // 16, dtype=np.uint8)
    for s, seg in _odd_segments(e, hi):
        s -= e >> 1
        bits[s >> 3 : (s + len(seg) + 7) >> 3] = np.packbits(seg, bitorder="little")
    seg = None  # frees the segment buffer before the primes are listed
    bits[:1] &= 254  # the unit 1, or e + 1, which a window does not stand for
    return _decode(hi - e, bits, e == 0 and hi >= 2)


def _decode(limit: int, bits: np.ndarray, two: bool) -> PrimeTable:
    """The table of a packed odd-number bitmap (bit i for 2i + 1, none set past limit): 2 when two,
    then the numbers of the set bits, listed _CACHE_CHUNK bytes at a time into an array sized by
    their count.  Every table is built here."""
    k = int(two)
    primes = np.empty(k + int(np.bitwise_count(bits).sum()), dtype=np.int64)
    primes[:k] = 2
    for at in range(0, len(bits), _CACHE_CHUNK):
        found = np.flatnonzero(np.unpackbits(bits[at : at + _CACHE_CHUNK], bitorder="little").view(bool))
        np.multiply(found, 2, out=primes[k : k + len(found)])  # in place: no temporary beside found
        primes[k : k + len(found)] += 16 * at + 1
        k += len(found)
    return PrimeTable(limit, primes, bits)


def count_primes(x: int) -> int:
    """pi(x) by the segmented sieve, holding one segment and the primes <= sqrt(x).

    No PrimeTable is built or held: memory is one segment (about 1 MiB) plus
    the base primes, O(sqrt(x)), where a table to x takes O(x).
    """
    return int(x >= 2) + sum(int(np.count_nonzero(seg)) for _, seg in _odd_segments(0, x))


# Process-wide table behind table_for; grown on demand.
_shared_lock = threading.Lock()
_shared_table: PrimeTable | None = None


def table_for(n: int, table: PrimeTable | None = None) -> PrimeTable:
    """``table`` when it reaches ``n``, else the process-wide table, re-sieved when short of
    ``n`` to max(n, 2**16, twice its limit)."""
    global _shared_table
    if table is not None and table.limit >= n:
        return table
    with _shared_lock:
        if _shared_table is None or _shared_table.limit < n:
            grown = 0 if _shared_table is None else 2 * _shared_table.limit
            _shared_table = sieve_primes(max(n, 1 << 16, grown))
        return _shared_table


def is_prime(n: int, table: PrimeTable | None = None) -> bool:
    """Deterministic primality: a lookup where ``table``, else the process-wide table grown to
    sqrt(n), reaches n, trial division by its primes <= sqrt(n) past it.

    A True result is a certificate: n passed division by every prime
    <= sqrt(n).  No probabilistic testing is involved.
    """
    if table is None or n > table.limit:
        table = table_for(math.isqrt(max(n, 0)), table)
    if n <= table.limit:
        return table.is_prime(n)
    primes = table.prefix_le(math.isqrt(n))  # listed 256 at a time, so a composite stops early
    return all(n % p for i in range(0, len(primes), 256) for p in primes[i : i + 256].tolist())


def checked_primes(values) -> list[int]:
    """The values as ints, else ValueError naming the first non-prime: a shared-table lookup
    each, trial division (no table grown to n) past the table."""
    table, primes = table_for(1 << 16), [int(n) for n in values]
    for n in primes:
        if not is_prime(n, table):
            raise ValueError(f"{n} is not prime")
    return primes


def sieving_prime_set(x: int, table: PrimeTable | None = None) -> np.ndarray:
    """All primes p with p*p <= x -- the trial-division certificate set."""
    if x < 4:
        raise ValueError("x must be >= 4")
    root = math.isqrt(x)
    return table_for(root, table).prefix_le(root)


def factorize(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1 by trial division (2, then odd d); keys ascend."""
    if n < 1:
        raise ValueError("n must be >= 1")
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = 1
    return factors


def count_congruent(x: int, r: int, m: int) -> int:
    """Exact |{n in [1, x] : n = r (mod m)}|.

    Counts start at 1, not 0: the paper's worked arithmetic only
    reconciles when the unit is included and 0 is not.
    """
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if not 0 <= r < m:
        raise ValueError(f"residue {r} out of range for modulus {m}")
    if x < 1:
        return 0
    return (x - r) // m + int(r > 0)  # n = r + jm, from j = 0 for r > 0 (none where r > x), else from j = 1


def pattern_starts(lo: int, hi: int, forms, table: PrimeTable | None = None) -> np.ndarray:
    """Ascending n in [lo, hi] at which every linear form a*n + b in ``forms`` is prime.

    The one pattern oracle (twins: (n, n + 2); Goldbach pairs of 2m: (n, 2m - n)).  Where the
    given table, else the process-wide one as it stands, reaches every value, the first form
    (a >= 1) takes its primes by searchsorted and keeps those = b (mod a), and each further form
    is one is_prime_array lookup; elsewhere it goes a window of n at a time (_window_starts), so
    no table is grown and memory is a few segments, whatever the range.  An empty range sieves nothing.
    """
    (a, b), rest = forms[0], forms[1:]
    if a < 1:
        raise ValueError("the first form needs a >= 1")
    if hi < lo:
        return np.array([], dtype=np.int64)
    table = _shared_table if table is None else table
    if table is None or table.limit < max(max(c * lo + d, c * hi + d) for c, d in forms):
        width = max(1, SEGMENT_ODD_BITS // max(2 * abs(c) for c, _ in forms))  # values in half a segment
        return np.concatenate([_window_starts(n, min(n + width - 1, hi), forms) for n in range(lo, hi + 1, width)])
    starts = table.primes[np.searchsorted(table.primes, a * lo + b):
                          np.searchsorted(table.primes, a * hi + b, side="right")]
    if (a, b) != (1, 0):  # n = (p - b) / a; the form n itself reads the primes in place
        starts = (starts[(starts - b) % a == 0] - b) // a
    for c, d in rest:
        starts = starts[table.is_prime_array(c * starts + d)]
    return starts


def _window_starts(lo: int, hi: int, forms) -> np.ndarray:
    """pattern_starts over one window of n, off a _shifted_table per span of values: one where they
    overlap (twins, tuples), else one per form (Goldbach's (-1, 2m) reads a mirrored span), from an
    even e, 0 or 3 or more below the span."""
    spans = [tuple(sorted((c * lo + d, c * hi + d))) for c, d in forms]
    hull = (min(v0 for v0, _ in spans), max(v1 for _, v1 in spans))
    if hull[1] - hull[0] < sum(v1 - v0 + 1 for v0, v1 in spans):
        spans = [hull] * len(forms)
    shift = {span: max(0, (span[0] - 3) & -2) for span in spans}
    tables = {span: _shifted_table(e, span[1]) for span, e in shift.items()}
    first = [(c, d - shift[spans[0]]) for (c, d), span in zip(forms, spans) if span == spans[0]]
    starts = pattern_starts(lo, hi, first, tables[spans[0]])
    for (c, d), span in zip(forms, spans):
        if span != spans[0]:
            starts = starts[tables[span].is_prime_array(c * starts + d - shift[span])]
    return starts


def save_cache(table: PrimeTable, path) -> None:
    """Write the bit-exact cache format (byte-deterministic) to ``path``, atomically.

    Layout: 8-byte magic ``PRIMSET1``; 8-byte LE limit; bitmap of
    ceil((limit+1)/16) bytes, bit i (LSB-first) = odd 2i+1 prime;
    trailing 8-byte LE prime count (including 2).  The bitmap is the table's own bits.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CACHE_MAGIC + struct.pack("<Q", table.limit))
            fh.write(table.bits)
            fh.write(struct.pack("<Q", len(table.primes)))
        os.replace(tmp, path)
    finally:  # a failed write leaves no temporary file
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_cache(path, need: int | None = None) -> PrimeTable:
    """Read a cache file written by :func:`save_cache`: its table to min(need, limit), or to its
    limit when need is None (round-trip identity).

    The bitmap to need is read into the table's bits; the magic, the length and the trailing prime
    count are checked over the whole file, the rest of it _CACHE_CHUNK bytes at a time.
    """
    if need is not None and need < 0:
        raise ValueError("limit must be nonnegative")
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16 or head[:8] != CACHE_MAGIC:
            raise CacheMagicError("bad magic: not a prime cache file")
        limit = struct.unpack("<Q", head[8:])[0]
        n_bytes = (limit + 1 + 15) // 16
        size = os.fstat(fh.fileno()).st_size
        if size < 16 + n_bytes + 8:
            raise CacheTruncatedError(f"expected {16 + n_bytes + 8} bytes for limit {limit}, got {size}")
        top = limit if need is None else min(need, limit)
        bits = np.empty((top + 16) // 16, dtype=np.uint8)
        fh.readinto(bits)
        held = int(limit >= 2) + int(np.bitwise_count(bits).sum())  # 2 and the set bits, pad bits too
        for at in range(len(bits), n_bytes, _CACHE_CHUNK):
            held += int(np.bitwise_count(np.frombuffer(fh.read(min(_CACHE_CHUNK, n_bytes - at)), np.uint8)).sum())
        declared = struct.unpack("<Q", fh.read(8))[0]
    if held != declared:
        raise CacheChecksumError(f"bitmap holds {held} primes but trailer declares {declared}")
    last, used = divmod((top + 1) // 2, 8)  # the bits of the odd numbers <= top: whole bytes, then used bits
    bits[last:] &= (1 << used) - 1
    bits[last + 1 :] = 0
    return _decode(top, bits, top >= 2)


def use_cache(path, need: int) -> PrimeTable:
    """Make the cache file's table the process-wide table, unless that table already reaches
    further, and return the process-wide table.  The file is read to max(need, 2**16), table_for's
    least table, when it reaches need; else a table to need is sieved and written to it."""
    global _shared_table
    table = load_cache(path, max(need, 1 << 16)) if os.path.exists(path) else None
    if table is None or table.limit < need:
        table = sieve_primes(need)
        save_cache(table, path)
    with _shared_lock:
        if _shared_table is None or _shared_table.limit < table.limit:
            _shared_table = table
        return _shared_table
