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
from .sieve import avoiding_mask, avoiding_windows

__all__ = [
    "CongruenceSystem",
    "CrtSolution",
    "crt_solve",
    "crt_enumerate",
    "scan_windows",
    "choice_count",
    "PRODUCT_MODE_CAP",
]

# product mode materializes every CRT class; beyond this we range-scan
PRODUCT_MODE_CAP = 1_000_000

# numpy int64 holds the classes, their sums and their shifts only while hi + modulus is below this
_NUMPY_MOD_CAP = 1 << 62


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


def _canonical_values(spec: ResidueSpec, dtype) -> np.ndarray:
    """The CRT classes in [0, modulus), ascending, as an array of dtype."""
    m = spec.modulus
    vals = np.zeros(1, dtype=dtype)
    for p, struck in spec.entries:
        rest = m // p
        basis = rest * pow(rest, -1, p) % m  # = 1 mod p, 0 mod others
        contrib = np.array([r * basis % m for r in range(p) if r not in struck], dtype=dtype)
        vals = (vals[:, None] + contrib[None, :]).ravel() % m
    vals.sort()
    return vals


def _product_windows(spec: ResidueSpec, lo: int, hi: int) -> Iterator[np.ndarray]:
    """crt_enumerate's values, one ascending array per period k*m that meets [lo, hi].

    From hi + m = 2**62 on (a big modulus or bound) the arrays hold exact Python ints.
    """
    m = spec.modulus
    canonical = _canonical_values(spec, np.int64 if hi + m < _NUMPY_MOD_CAP else object)
    for base in range(lo // m * m, hi + 1, m):
        first, last = canonical.searchsorted(lo - base), canonical.searchsorted(hi - base, "right")
        yield canonical[first:last] + base


def scan_windows(spec: ResidueSpec, lo: int, hi: int) -> Iterator[np.ndarray]:
    """crt_enumerate's values, one ascending int64 array (maybe empty) per avoiding_windows window.

    Each modulus strikes its struck residues, or, when more residues are
    struck than kept, the kept ones on a mask that is then inverted: at most
    min(u, m - u) slices per modulus and window, whatever the modulus.
    """
    kept = [(m, [r for r in range(m) if r not in s]) for m, s in spec.entries if 2 * len(s) > m]
    struck = [(m, s) for m, s in spec.entries if 2 * len(s) <= m]
    for start, mask in avoiding_windows(lo, hi, struck):
        stop = start + len(mask) - 1
        for entry in kept:
            mask &= ~avoiding_mask(start, stop, (entry,))
        yield np.flatnonzero(mask) + start


def crt_enumerate(spec: ResidueSpec, lo: int, hi: int) -> Iterator[int]:
    """Ascending stream of n in [lo, hi] with n mod m outside struck(m) for every entry.

    The path follows the class count and the range width: product builds
    every CRT class once (a wide range over at most PRODUCT_MODE_CAP
    classes); range-scan walks the interval (a narrow range, or an
    exponential class count).  Both yield ascending arrays, flattened here
    to Python ints; the streams are identical.
    """
    if lo < 0 or hi < lo:
        if hi < lo:
            return iter(())
        raise ValueError("range must satisfy 0 <= lo <= hi")
    if not spec.entries:
        return iter(range(lo, hi + 1))
    if choice_count(spec) <= min(PRODUCT_MODE_CAP, hi - lo + 1):
        windows = _product_windows(spec, lo, hi)
    elif hi > (1 << 62):
        raise ValueError("range-scan bounds must fit in int64")
    else:
        windows = scan_windows(spec, lo, hi)
    return chain.from_iterable(window.tolist() for window in windows)
