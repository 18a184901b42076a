"""Prime generation, primality certificates, the pattern oracle and residue-class counting.

Everything here is exact integer arithmetic.  The central object is the
immutable :class:`PrimeTable`: ascending primes up to a limit and a numpy bool
(a byte, not a bit) per odd number, about 0.9 GB at 1e9; only the cache file
packs bits.  The bounded path is :func:`_odd_segments`, one odd-only sieve over
any [lo, hi] a segment (about 1 MiB) at a time: every table, :func:`count_primes`
and the pattern oracle's windows are sieved from it.  :func:`table_for` is the
one "a table reaching n" helper; the cache is a file read and written by path.
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
    """Immutable sorted primes in [2, limit] with a bool array, a byte each, over the odd numbers.

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


def _odd_segments(lo: int, hi: int, segment_odd_bits: int | None = None, out: np.ndarray | None = None):
    """Sieve the odd numbers in [lo, hi] a segment of SEGMENT_ODD_BITS of them at a time.

    Yields (lo_idx, seg): seg[i] is True iff 2*(lo_idx + i) + 1 is prime.
    Every seg is a view of one reused buffer, valid until the next step, or
    of ``out``, which then holds every segment in turn.
    """
    width = segment_odd_bits or SEGMENT_ODD_BITS
    lo_idx, end = max(lo, 0) >> 1, (hi + 1) >> 1  # the odd numbers 2i + 1 in [lo, hi], i < end
    base = sieve_primes(math.isqrt(hi)).primes[1:] if hi >= 9 else np.zeros(0, dtype=np.int64)
    buffer = np.empty(min(width, max(end - lo_idx, 0)), dtype=bool) if out is None else out
    for s in range(lo_idx, end, width):
        seg = buffer[: min(width, end - s)] if out is None else out[s - lo_idx : s - lo_idx + width]
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
    """The table of the numbers e..hi (e even) shifted down by e, sieved from the stream: odd_bits[i]
    stands for e + 2i + 1.  Where e > 0 its 1 and 2, for e + 1 and e + 2, are not to be read."""
    odd_bits = np.zeros(max(0, (hi - e + 1) // 2), dtype=bool)
    for _ in _odd_segments(e, hi, out=odd_bits):  # sieved in place
        pass
    return _table_from_odd_bits(hi - e, odd_bits)


def _table_from_odd_bits(limit: int, odd_bits: np.ndarray) -> PrimeTable:
    """The PrimeTable to ``limit``: 2 from limit 2 on, and the odd primes at the set bits a chunk at a time."""
    k = int(limit >= 2)
    primes = np.empty(k + np.count_nonzero(odd_bits), dtype=np.int64)
    primes[:k] = 2
    for s in range(0, len(odd_bits), _CACHE_CHUNK):
        found = np.flatnonzero(odd_bits[s : s + _CACHE_CHUNK])
        out = primes[k : k + len(found)]
        np.multiply(found, 2, out=out)
        out += 2 * s + 1
        k += len(found)
    return PrimeTable(limit, primes, odd_bits)


def count_primes(x: int) -> int:
    """pi(x) by the segmented sieve, holding one segment and the primes <= sqrt(x).

    No PrimeTable is built or kept: memory is one segment (about 1 MiB) plus
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
        return np.concatenate([_window_starts(n, min(n + width - 1, hi), forms, table)
                               for n in range(lo, hi + 1, width)])
    starts = table.primes[np.searchsorted(table.primes, a * lo + b):
                          np.searchsorted(table.primes, a * hi + b, side="right")]
    if (a, b) != (1, 0):  # n = (p - b) / a; the form n itself reads the primes in place
        starts = (starts[(starts - b) % a == 0] - b) // a
    for c, d in rest:
        starts = starts[table.is_prime_array(c * starts + d)]
    return starts


def _window_starts(lo: int, hi: int, forms, table: PrimeTable | None) -> np.ndarray:
    """pattern_starts over one window of n, off the table where it reaches every value, else off a
    _shifted_table per span of values: one where they overlap (twins, tuples), else one per form
    (Goldbach's (-1, 2m) reads a mirrored span), from an even e, 0 or 3 or more below the span."""
    if table is not None and table.limit >= max(max(c * lo + d, c * hi + d) for c, d in forms):
        return pattern_starts(lo, hi, forms, table)
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
    trailing 8-byte LE prime count (including 2).  Packed _CACHE_CHUNK bytes at a time.
    """
    n_bytes = (table.limit + 1 + 15) // 16
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CACHE_MAGIC + struct.pack("<Q", table.limit))
            for at in range(0, n_bytes, _CACHE_CHUNK):
                packed = np.packbits(table.odd_bits[8 * at : 8 * (at + _CACHE_CHUNK)], bitorder="little")
                fh.write(packed.tobytes().ljust(min(_CACHE_CHUNK, n_bytes - at), b"\0"))  # the last byte's pad
            fh.write(struct.pack("<Q", len(table.primes)))
        os.replace(tmp, path)
    finally:  # a failed write leaves no temporary file
        if os.path.exists(tmp):
            os.unlink(tmp)


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
        odd = (limit + 1) // 2  # the bits of the odd numbers <= limit
        kept, found = np.empty((top + 1) // 2, dtype=bool), int(limit >= 2)  # the bits <= top; 2 and the set bits
        for at in range(0, n_bytes, _CACHE_CHUNK):
            chunk = np.frombuffer(fh.read(min(_CACHE_CHUNK, n_bytes - at)), dtype=np.uint8)
            bits = np.unpackbits(chunk, bitorder="little")[:odd - 8 * at].view(bool)
            found += int(np.count_nonzero(bits))
            kept[8 * at : 8 * at + len(bits)] = bits[: max(len(kept) - 8 * at, 0)]
        declared = struct.unpack("<Q", fh.read(8))[0]
    if found != declared:
        raise CacheChecksumError(f"bitmap holds {found} primes but trailer declares {declared}")
    return _table_from_odd_bits(top, kept)
