"""Prime generation, primality certificates, the pattern oracle and residue-class counting.

Everything here is exact integer arithmetic.  The central object is the
immutable :class:`PrimeTable`: an ascending array of primes up to a limit
together with a membership bitset over the odd integers.  A table holds a
bit per odd number and an int64 per prime (about 0.9 GB at 1e9), so its
size grows with the limit; :func:`count_primes` is the bounded path, an
odd-only segmented sieve that holds one segment (about 1 MiB) at a time.
:func:`table_for` is the one "a table reaching n" helper, and the cache
(:func:`save_cache`, :func:`load_cache`) is a file read and written by path.
The residue core is :func:`avoiding_row`, the wheel that lays out the numbers
avoiding a spec's struck residues, and :func:`avoiding_windows`, its masks a
window at a time: every survivor count, CRT listing and EXACT Goldbach scan
reads them.
"""

from __future__ import annotations

import bisect
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
    "avoiding_windows",
    "avoiding_row",
    "save_cache",
    "load_cache",
    "CacheError",
    "CacheMagicError",
    "CacheTruncatedError",
    "CacheChecksumError",
]

CACHE_MAGIC = b"PRIMSET1"

# Odd numbers covered by one sieve segment.
SEGMENT_ODD_BITS = 1 << 20

# Bitmap bytes that load_cache unpacks at a time.
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
    """Immutable sorted primes in [2, limit] with an odd-number bitset.

    ``odd_bits[i]`` is True iff 2*i + 1 is prime (so index 0, the unit 1,
    is always False).  Safe to share across threads after construction.
    """

    limit: int
    primes: np.ndarray
    odd_bits: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.primes.setflags(write=False)
        self.odd_bits.setflags(write=False)

    def __len__(self) -> int:
        return len(self.primes)

    def is_prime(self, n: int) -> bool:
        """Membership test for n <= limit (raises otherwise)."""
        if n > self.limit:
            raise ValueError(f"{n} exceeds table limit {self.limit}")
        if n < 2:
            return False
        if n % 2 == 0:
            return n == 2
        return bool(self.odd_bits[n >> 1])

    def is_prime_array(self, values: np.ndarray) -> np.ndarray:
        """Elementwise membership test for an integer array with entries <= limit."""
        if len(values) and values.max() > self.limit:
            raise ValueError(f"{int(values.max())} exceeds table limit {self.limit}")
        odd = (values > 0) & (values % 2 == 1)
        out = values == 2
        out[odd] = self.odd_bits[values[odd] >> 1]
        return out

    def count_upto(self, x: int) -> int:
        """pi(x) for x <= limit."""
        if x > self.limit:
            raise ValueError(f"{x} exceeds table limit {self.limit}")
        return int(self.primes.searchsorted(x, "right"))

    def prefix_le(self, bound: int) -> np.ndarray:
        """Primes p <= bound, as a slice of the table."""
        return self.primes[: self.primes.searchsorted(bound, "right")]


def _odd_segments(limit: int, segment_odd_bits: int = SEGMENT_ODD_BITS):
    """Sieve the odd numbers 3..limit (limit >= 2) a segment at a time.

    Yields (lo_idx, seg): seg[i] is True iff 2*(lo_idx + i) + 1 is prime.
    Every seg is a view of one reused buffer, valid until the next step.
    """
    n_odd = (limit + 1) // 2  # odd numbers 1, 3, ..., <= limit
    odd_base = sieve_primes(math.isqrt(limit)).primes[1:]
    buffer = np.empty(min(segment_odd_bits, n_odd - 1), dtype=bool)
    lo_idx = 1  # index of odd number 3
    while lo_idx < n_odd:
        hi_idx = min(lo_idx + segment_odd_bits, n_odd)  # exclusive
        seg = buffer[: hi_idx - lo_idx]
        seg[:] = True
        lo_val = 2 * lo_idx + 1
        hi_val = 2 * hi_idx - 1  # last odd value in segment
        for p in odd_base:
            p = int(p)
            start = max(p * p, ((lo_val + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start > hi_val:
                continue
            seg[(start - lo_val) // 2 :: p] = False
        yield lo_idx, seg
        lo_idx = hi_idx


def sieve_primes(limit: int) -> PrimeTable:
    """Segmented sieve of Eratosthenes up to ``limit`` (inclusive).

    Deterministic for a given limit; limit 0 or 1 yields an empty table.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    odd_bits = np.zeros((limit + 1) // 2, dtype=bool)
    if limit >= 2:
        for lo_idx, seg in _odd_segments(limit):
            odd_bits[lo_idx : lo_idx + len(seg)] = seg
    return _table_from_odd_bits(limit, odd_bits)


def _table_from_odd_bits(limit: int, odd_bits: np.ndarray) -> PrimeTable:
    """The PrimeTable to ``limit`` with odd primes at the set bits, and 2 from limit 2 on."""
    odd_primes = 2 * np.flatnonzero(odd_bits).astype(np.int64) + 1
    primes = np.concatenate(([2], odd_primes)) if limit >= 2 else odd_primes
    return PrimeTable(limit, primes, odd_bits)


def count_primes(x: int) -> int:
    """pi(x) by the segmented sieve, holding one segment and the primes <= sqrt(x).

    No PrimeTable is built or kept: memory is one segment (about 1 MiB) plus
    the base primes, O(sqrt(x)), where a table to x takes O(x).
    """
    if x < 2:
        return 0
    return 1 + sum(int(np.count_nonzero(seg)) for _, seg in _odd_segments(x))


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
    """Deterministic primality by trial division up to sqrt(n).

    A True result is a certificate: n passed division by every prime
    <= sqrt(n).  No probabilistic testing is involved.
    """
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    if table is not None and n <= table.limit:
        return table.is_prime(n)
    root = math.isqrt(n)
    table = table_for(root, table)
    if n <= table.limit:
        return table.is_prime(n)
    for p in table.prefix_le(root):
        if n % int(p) == 0:
            return False
    return True


def checked_primes(values) -> list[int]:
    """The values as ints, else ValueError naming the first non-prime: a shared-table lookup
    each, trial division (no table grown to n) past the table."""
    table, primes = table_for(1 << 16), [int(n) for n in values]
    for n in primes:
        if not (table.is_prime(n) if n <= table.limit else is_prime(n, table)):
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
    if r == 0:
        return x // m
    if r > x:
        return 0
    return (x - r) // m + 1


def pattern_starts(lo: int, hi: int, forms, table: PrimeTable | None = None) -> np.ndarray:
    """Ascending n in [lo, hi] at which every linear form a*n + b in ``forms`` is prime.

    The one pattern oracle (twins: (n, n + 2); Goldbach pairs of 2m: (n, 2m - n)).
    It reads only the table, grown to the largest form value: the first form
    (a >= 1) takes its primes by searchsorted and keeps those = b (mod a);
    each further form is one is_prime_array lookup.  An empty range builds no table.
    """
    (a, b), rest = forms[0], forms[1:]
    if a < 1:
        raise ValueError("the first form needs a >= 1")
    if hi < lo:
        return np.array([], dtype=np.int64)
    table = table_for(max(max(c * lo + d, c * hi + d) for c, d in forms), table)
    starts = table.primes[np.searchsorted(table.primes, a * lo + b):
                          np.searchsorted(table.primes, a * hi + b, side="right")]
    if (a, b) != (1, 0):  # n = (p - b) / a; the form n itself reads the primes in place
        starts = (starts[(starts - b) % a == 0] - b) // a
    for c, d in rest:
        starts = starts[table.is_prime_array(c * starts + d)]
    return starts


def avoiding_row(lo: int, entries):
    """The wheel (Pritchard, Comm. ACM 24, 1981) on which every n >= lo avoiding the struck
    residues of every entry (p, struck), a set or a residues.Kept, lies: (step, offsets, strikes).

    Row k, class j holds n = lo + k*step + offsets[j], the offsets ascending in [0, step).  An entry
    keeping one residue folds into step.  One keeping u <= s of the s residues it strikes folds too,
    largest modulus first, where that saves slices, u * R < R + s with R the slices per class of
    the entries that strike, and at most SEGMENT_ODD_BITS classes result.  strikes holds the
    entries that strike as (p, struck, step^-1 mod p), each inverse, and each Kept's struck
    residues, computed once per call.
    """
    step, a, lead = 1, 0, 0
    for p, struck in entries:  # the leading frozensets keeping one residue each, and their class a
        if type(struck) is not frozenset or len(struck) != p - 1:
            break
        kept = p * (p - 1) // 2 - sum(struck)
        a += step * ((kept - lo - a) * pow(step, -1, p) % p)
        step, lead = step * p, lead + 1
    few = []  # (p, struck, kept) of the frozensets keeping u <= s and every other entry (a Kept)
    strikes = [(p, s, pow(step, -1, p)) for p, s in entries[lead:] if type(s) is frozenset and 2 * len(s) < p
               or few.append((p, s, getattr(s, "kept", None) or [r for r in range(p) if r not in s]))]
    if not few:
        return step, [a], strikes
    offsets, folded = [a], []
    slices = sum(len(s) for _, s, _ in strikes) + sum(p - len(k) for p, _, k in few if 2 * len(k) > p)
    for p, struck, kept in reversed(few):  # the largest moduli, the most rows saved, first
        u = len(kept)
        if 2 * u > p:  # a Kept keeping more than it strikes: it strikes, and slices counts it
            continue
        if len(offsets) * u > SEGMENT_ODD_BITS or u * slices >= slices + p - u:
            slices += p - u
            continue
        inv = pow(step, -1, p)
        offsets = sorted(o + step * ((r - lo - o) * inv % p) for o in offsets for r in kept)
        step, folded = step * p, folded + [p]
    if folded:  # the step grew: the entries that strike take its inverse
        strikes = [(p, s, pow(step, -1, p)) for p, s, _ in strikes]
    return step, offsets, strikes + [(p, s.struck(SEGMENT_ODD_BITS) if hasattr(s, "kept") else s, pow(step, -1, p))
                                     for p, s, _ in few if p not in folded]


def avoiding_windows(lo: int, hi: int, row, width: int = SEGMENT_ODD_BITS):
    """Yield (start, mask) over the wheel row = avoiding_row(lo, entries): each mask holds
    width // c rows (at least one) from the row of start = lo + k*step, c positions a row, False
    where n mod p is struck; the last one ends at the last position <= hi.

    Class j's positions are the mask's view j::c, and residue r mod p falls on its rows
    i = (r - start - offsets[j]) * step^-1 mod p, i + p, ...: one slice per class and struck
    residue, as a sieve strikes multiples.  Memory is one window, whatever the range.
    """
    step, offsets, strikes = row
    c = len(offsets)
    length, span = max(1, width // c) * c, hi - lo + 1
    total = span // step * c + bisect.bisect_left(offsets, span % step) if span > 0 else 0
    for t in range(0, total, length):
        mask, start = np.ones(min(length, total - t), dtype=bool), lo + t // c * step
        for j, o in enumerate(offsets):
            view, d = mask[j::c], start + o
            for p, struck, inv in strikes:
                for r in struck:
                    view[(r - d) * inv % p :: p] = False
        yield start, mask


def save_cache(table: PrimeTable, path) -> None:
    """Write the bit-exact cache format (byte-deterministic) to ``path``, atomically.

    Layout: 8-byte magic ``PRIMSET1``; 8-byte LE limit; bitmap of
    ceil((limit+1)/16) bytes, bit i (LSB-first) = odd 2i+1 prime;
    trailing 8-byte LE prime count (including 2).
    """
    bits = np.zeros((table.limit + 1 + 15) // 16 * 8, dtype=bool)
    bits[: len(table.odd_bits)] = table.odd_bits
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(CACHE_MAGIC + struct.pack("<Q", table.limit)
                 + np.packbits(bits, bitorder="little").tobytes()
                 + struct.pack("<Q", len(table.primes)))
    os.replace(tmp, path)


def load_cache(path, need: int | None = None) -> PrimeTable:
    """Read a cache file written by :func:`save_cache`: its table to min(need, limit), or to its
    limit when need is None (round-trip identity).

    The magic, the length and the trailing prime count are checked over the whole file, the
    bitmap _CACHE_CHUNK bytes at a time, so memory beyond the table is one chunk.
    """
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
        odd, keep = (limit + 1) // 2, (top + 1) // 2  # the bits of the odd numbers <= limit, <= top
        kept, found = [], int(limit >= 2)  # the bits up to top, and the primes: 2 and the set bits
        for at in range(0, n_bytes, _CACHE_CHUNK):
            chunk = np.frombuffer(fh.read(min(_CACHE_CHUNK, n_bytes - at)), dtype=np.uint8)
            bits = np.unpackbits(chunk, bitorder="little")[:odd - 8 * at].view(bool)
            found += int(np.count_nonzero(bits))
            kept.append(bits[:max(keep - 8 * at, 0)].copy())
        declared = struct.unpack("<Q", fh.read(8))[0]
    if found != declared:
        raise CacheChecksumError(f"bitmap holds {found} primes but trailer declares {declared}")
    return _table_from_odd_bits(top, np.concatenate(kept))
