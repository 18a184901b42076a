"""Chinese remainder solving and streaming enumeration over a struck-residue spec.

Moduli products are kept as arbitrary-precision Python integers throughout:
products of primes overflow 64 bits very quickly, and the Goldbach span
analysis references the full product directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .residues import ResidueSpec, _check_coprime
from .sieve import avoiding_mask, avoiding_row, avoiding_windows

__all__ = [
    "CongruenceSystem",
    "CrtSolution",
    "crt_solve",
    "crt_enumerate",
    "crt_windows",
    "scan_windows",
    "choice_count",
    "PRODUCT_MODE_CAP",
]

# product mode materializes every CRT class; beyond this we range-scan
PRODUCT_MODE_CAP = 1_000_000

# numpy int64 holds the classes, their sums and their shifts only while hi + modulus is below this
_NUMPY_MOD_CAP = 1 << 62

# a product window holds about this many values, and never less than one period
_BATCH_VALUES = 1 << 16


@dataclass(frozen=True)
class CongruenceSystem:
    """x = a_i (mod m_i) with pairwise-coprime moduli (checked at solve time)."""

    congruences: tuple[tuple[int, int], ...]  # (residue, modulus)

    def __post_init__(self):
        for r, m in self.congruences:
            if m < 1:
                raise ValueError("moduli must be positive")
            if not 0 <= r < m:
                raise ValueError(f"residue {r} out of range for modulus {m}")

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, int]]) -> "CongruenceSystem":
        return cls(tuple((int(r), int(m)) for r, m in pairs))


@dataclass(frozen=True)
class CrtSolution:
    value: int  # canonical representative in [0, modulus)
    modulus: int

    def satisfies(self, r: int, m: int) -> bool:
        return self.value % m == r


def crt_solve(system: CongruenceSystem) -> CrtSolution:
    """Fold the congruences; verify every one against the result before returning."""
    if not system.congruences:
        raise ValueError("empty congruence system")
    _check_coprime(m for _, m in system.congruences)
    value, modulus = 0, 1
    for r, m in system.congruences:
        delta = (r - value) * pow(modulus, -1, m) % m
        value += modulus * delta
        modulus *= m
    sol = CrtSolution(value % modulus, modulus)
    for r, m in system.congruences:
        if not sol.satisfies(r, m):  # pragma: no cover - internal consistency
            raise AssertionError(f"CRT verification failed at x = {r} (mod {m})")
    return sol


def choice_count(spec: ResidueSpec) -> int:
    """prod (m - |struck(m)|) -- the number of distinct CRT classes."""
    return math.prod(m - len(struck) for m, struck in spec.entries)


def _product_windows(spec: ResidueSpec, lo: int, hi: int) -> Iterator[np.ndarray]:
    """crt_windows' product path: ascending arrays of whole periods k*m, cut to [lo, hi].

    A batch is a column of exact period offsets k*m plus the sorted CRT classes, raveled
    (ascending: every class is below m) and shifted: about _BATCH_VALUES values, at least a period.
    From hi + m = 2**62 on (a big modulus or bound) the arrays hold exact Python ints."""
    m = spec.modulus
    dtype = np.int64 if hi + m < _NUMPY_MOD_CAP else object
    classes = np.zeros(1, dtype=dtype)
    for p, struck in spec.entries:
        rest = m // p
        basis = rest * pow(rest, -1, p) % m  # = 1 mod p, 0 mod others
        contrib = np.array([r * basis % m for r in range(p) if r not in struck], dtype=dtype)
        classes = (classes[:, None] + contrib).ravel() % m
    classes.sort()
    per = min(max(1, _BATCH_VALUES // len(classes)), hi // m - lo // m + 1)  # periods in a batch
    batch = (m * np.arange(per, dtype=dtype)[:, None] + classes).ravel()  # offsets from its base
    for base in range(lo // m * m, hi + 1, per * m):
        values = batch[:len(classes) * ((hi - base) // m + 1)] + base
        yield values[values.searchsorted(lo):values.searchsorted(hi, "right")]


def scan_windows(spec: ResidueSpec, lo: int, hi: int) -> Iterator[np.ndarray]:
    """crt_windows' scan path: one ascending int64 array (maybe empty) per avoiding_windows window.

    The values lie on sieve.avoiding_row's row, one class modulo the leading moduli that keep one
    residue each (mod 2 or mod 6 for Goldbach's eta spec), and the window width counts row entries.
    Each other modulus strikes its struck residues, or, when it keeps fewer residues than it strikes,
    the kept ones on a mask that is then inverted: at most min(u, m - u) slices per modulus
    and window, whatever the modulus: a ten-window scan keeping 999983=1,2,3,4,5 and the units
    of 7, ..., 19 took 0.32 s on two x86-64 cores, 2.55 s striking the 999 978 residues one by one.
    """
    first, step, rest = avoiding_row(lo, spec.entries)
    kept = [(m, [r for r in range(m) if r not in s]) for m, s in rest if 2 * len(s) > m]
    struck = [(m, s) for m, s in rest if 2 * len(s) <= m]
    for start, mask in avoiding_windows(first, hi, struck, step=step):
        stop = start + (len(mask) - 1) * step
        for entry in kept:
            mask &= ~avoiding_mask(start, stop, (entry,), step)
        yield np.flatnonzero(mask) * step + start


def crt_windows(spec: ResidueSpec, lo: int, hi: int) -> Iterator[np.ndarray]:
    """The n in [lo, hi] with n mod m outside struck(m) for every entry, as ascending arrays:
    product mode builds every CRT class once (a wide range over at most PRODUCT_MODE_CAP
    classes), range-scan walks the interval (a narrow range, or an exponential class count)."""
    if lo < 0 or hi < lo:
        if hi < lo:
            return iter(())
        raise ValueError("range must satisfy 0 <= lo <= hi")
    if choice_count(spec) <= min(PRODUCT_MODE_CAP, hi - lo + 1):
        return _product_windows(spec, lo, hi)
    if hi > (1 << 62):
        raise ValueError("range-scan bounds must fit in int64")
    return scan_windows(spec, lo, hi)


def crt_enumerate(spec: ResidueSpec, lo: int, hi: int) -> Iterator[int]:
    """crt_windows' values, ascending, as Python ints."""
    return chain.from_iterable(window.tolist() for window in crt_windows(spec, lo, hi))
