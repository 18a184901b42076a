"""Chinese remainder solving and streaming enumeration over a struck-residue spec.

Moduli products are kept as arbitrary-precision Python integers throughout:
products of primes overflow 64 bits very quickly, and the Goldbach span
analysis references the full product directly.  The enumeration is one
stream, crt_windows, read off residues.avoiding_row's wheel: every spec and range
lays out the same way, with no class count or range width choosing a path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .residues import ResidueSpec, _check_coprime, avoiding_row, avoiding_windows

__all__ = [
    "CongruenceSystem",
    "CrtSolution",
    "crt_solve",
    "crt_enumerate",
    "crt_windows",
    "choice_count",
]


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
    return math.prod(m - u for (m, _), u in zip(spec.entries, spec.cardinalities()))


def crt_windows(spec: ResidueSpec, lo: int, hi: int) -> Iterator[np.ndarray]:
    """The n in [lo, hi] with n mod m outside struck(m) for every entry, as ascending arrays, one
    (maybe empty) per avoiding_windows window of residues.avoiding_row's wheel, whatever the spec and
    the range: position t of a window from start is n = start + (t // c)*step + offsets[t % c].
    int64 while hi + step is below 2**62, else exact Python ints.  lo is checked on the call."""
    if lo < 0:
        raise ValueError("range must satisfy 0 <= lo <= hi")
    return _values(lo, hi, avoiding_row(lo, spec.entries)) if lo <= hi else iter(())


def _values(lo: int, hi: int, row) -> Iterator[np.ndarray]:
    """crt_windows' arrays, in place: position t of a window is row t // c, class t % c."""
    step, offsets, _ = row
    dtype = np.int64 if hi + step < 1 << 62 else object  # values and their sums fit int64
    classes = np.array(offsets, dtype=dtype) if len(offsets) > 1 else None
    for start, mask in avoiding_windows(lo, hi, row):
        values = mask.ravel().nonzero()[0]  # np.flatnonzero(mask) without its wrappers
        if classes is not None:
            values, j = np.divmod(values, len(offsets))
        values = values if dtype is np.int64 else values.astype(object)
        values *= step
        values += start + offsets[0] if classes is None else classes[j] + start
        yield values


def crt_enumerate(spec: ResidueSpec, lo: int, hi: int) -> Iterator[int]:
    """crt_windows' values, ascending, as Python ints."""
    return chain.from_iterable(window.tolist() for window in crt_windows(spec, lo, hi))
