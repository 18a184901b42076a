"""Struck-residue machinery.

One spec type, ResidueSpec, holds the struck (forbidden) residues per
modulus; it feeds both the survivor counts and the CRT enumeration, and
allowed residues are derived from it where they are read.  Every struck set
comes from one linear-form rule: p strikes the n at which it divides a form
a*n + b.  Also: the residue cycle of an arithmetic progression, admissibility
testing, and remainder sequences.  The operations are pure; the named
spec builders keep their last proven spec and return it again for equal
forms and primes, so a sweep over one prime set proves it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .sieve import checked_primes, is_prime

__all__ = [
    "ResidueSpec",
    "NonCoprimeModuliError",
    "AdmissibleTuple",
    "RemainderSequence",
    "APResidueCycle",
    "ap_residue_sequence",
    "twin_forbidden",
    "sophie_forbidden",
    "tuple_forbidden",
    "is_admissible",
    "tight_tuples",
    "remainder_sequence",
]


class NonCoprimeModuliError(ValueError):
    """Raised when a congruence system's moduli are not pairwise coprime."""


def _check_coprime(moduli: Iterable[int]) -> None:
    """NonCoprimeModuliError at the first modulus sharing a factor with the product of those before it."""
    before = 1
    for m in moduli:
        g = math.gcd(before, m)
        if g != 1:
            raise NonCoprimeModuliError(f"modulus {m} shares factor {g} with an earlier modulus")
        before *= m


@dataclass(frozen=True)
class ResidueSpec:
    """Struck (forbidden) residue sets per modulus; moduli pairwise coprime, strictly increasing.

    Each fact is proved once, where it can fail: the named builders prove their moduli
    prime, ``from_pairs`` proves any moduli (``crt --allow``'s composites) pairwise
    coprime; the raw constructor takes ascending primes and checks residue ranges, order
    and a survivor per modulus.  Struck sets are deduplicated ({0, 2} mod 2 is {0}).
    """

    entries: tuple[tuple[int, frozenset[int]], ...]

    def __post_init__(self):
        outside = [p for p, forb in self.entries for r in forb if not 0 <= r < p]
        if outside:
            raise ValueError(f"residue out of range mod {outside[0]}")
        last = 0
        for p, forb in self.entries:
            if p <= last:
                raise ValueError("moduli must be strictly increasing")
            if len(forb) >= p:
                raise ValueError(f"no residue survives mod {p}")
            last = p

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, Iterable[int]]]) -> "ResidueSpec":
        entries = tuple((int(p), frozenset(int(r) % int(p) for r in rs)) for p, rs in pairs)
        _check_coprime(p for p, _ in entries)
        return cls(entries)

    @classmethod
    def twins(cls, primes: Iterable[int]) -> "ResidueSpec":
        return _proven_spec(_tuple_forms((2,)), primes)

    @classmethod
    def sophie_germain(cls, primes: Iterable[int]) -> "ResidueSpec":
        return _proven_spec(((1, 0), (2, 1)), primes)  # p, 2p + 1

    @classmethod
    def primes_only(cls, primes: Iterable[int]) -> "ResidueSpec":
        """The plain sieve spec: only residue 0 forbidden at each prime."""
        return _proven_spec(((1, 0),), primes)

    @classmethod
    def for_tuple(cls, offsets: Sequence[int], primes: Iterable[int]) -> "ResidueSpec":
        return _proven_spec(_tuple_forms(offsets), primes)

    def allowed(self, p: int) -> frozenset[int]:
        for q, forb in self.entries:
            if q == p:
                return frozenset(r for r in range(p) if r not in forb)
        raise KeyError(p)

    def cardinalities(self) -> tuple[int, ...]:
        """The u_i sequence: distinct forbidden residues per prime."""
        return tuple(len(forb) for _, forb in self.entries)

    @property
    def modulus(self) -> int:
        return math.prod(p for p, _ in self.entries)


@dataclass(frozen=True)
class AdmissibleTuple:
    """Offsets b_1 < ... < b_{k-1}; tuple length k = len(offsets) + 1."""

    offsets: tuple[int, ...]

    def __post_init__(self):
        if any(b <= 0 for b in self.offsets):
            raise ValueError("offsets must be positive")
        if list(self.offsets) != sorted(set(self.offsets)):
            raise ValueError("offsets must be strictly increasing")
        if not is_admissible(self.offsets):
            raise ValueError(f"offsets {self.offsets} are not admissible")

    @property
    def k(self) -> int:
        return len(self.offsets) + 1

    @property
    def diameter(self) -> int:
        return self.offsets[-1]


@dataclass(frozen=True)
class RemainderSequence:
    subject: int
    moduli: tuple[int, ...]
    remainders: tuple[int, ...]

    def rows(self) -> list[dict]:
        """Two-row tabular form (moduli then remainders)."""
        return [
            {"row": "mod", **{str(m): m for m in self.moduli}},
            {"row": str(self.subject), **{str(m): r for m, r in zip(self.moduli, self.remainders)}},
        ]


@dataclass(frozen=True)
class APResidueCycle:
    """Residues of a + k*b modulo p: a full permutation cycle or a constant."""

    kind: str  # "PERMUTATION" | "CONSTANT"
    period: int
    values: tuple[int, ...]

    @property
    def constant(self) -> int:
        if self.kind != "CONSTANT":
            raise ValueError("not a constant cycle")
        return self.values[0]


def ap_residue_sequence(a: int, b: int, p: int) -> APResidueCycle:
    """Classify the residue sequence of the progression a, a+b, a+2b, ... mod p.

    When p does not divide b the first p terms hit every residue exactly
    once (a permutation, repeating with period p); when p | b the sequence
    is the constant a mod p.
    """
    if b < 1:
        raise ValueError("common difference b must be positive")
    checked_primes((p,))
    if b % p == 0:
        return APResidueCycle("CONSTANT", 1, (a % p,))
    cycle = tuple((a + k * b) % p for k in range(p))
    return APResidueCycle("PERMUTATION", p, cycle)


def twin_forbidden(p: int) -> frozenset[int]:
    """Residues the upper twin member must avoid: the tuple (2,), i.e. {0, 2 mod p}.

    For p = 2 the two coincide and the set collapses to {0}.
    """
    return tuple_forbidden((2,), p)


def _form_entries(forms, primes) -> tuple[tuple[int, frozenset[int]], ...]:
    """(p, {-b * a^-1 mod p over the forms (a, b) with p not dividing a}) for each prime p.

    These are the n at which p divides some form a*n + b; a form with p | a
    strikes nothing at p.  The spec builders, is_admissible, Goldbach's eta
    spec and the Schinzel lambda filter pass their forms here.  Preconditions, not checked:
    the primes are a sequence of ints (converted where they enter), and no form has p | a
    and p | b, which would make p divide it at every n.
    """
    roots = []
    for a, b in forms:
        if a in (1, -1):  # a unit is its own inverse: no pow, no p | a
            roots.append([-b * a % p for p in primes])
        else:
            roots.append([-b * pow(a, -1, p) % p if a % p else None for p in primes])
    struck = map(frozenset, zip(*roots))
    return tuple((p, s - {None} if None in s else s) for p, s in zip(primes, struck))


def _tuple_forms(offsets: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The forms n - (b_last - b), b in {0} union offsets, of the shifted variable n = p' + b_last."""
    return tuple((1, b - offsets[-1]) for b in (0, *offsets))


_proven_last = ((), None)  # ((forms, primes), spec) of the last named build, replaced whole


def _proven_spec(forms: tuple, primes: Iterable[int]) -> ResidueSpec:
    """ResidueSpec(_form_entries(forms, primes)) with the primes proved prime, the builders'
    one path.  The last build is kept and returned again for equal forms and primes, so
    a sweep over one prime set proves it once and survivor_count steps on ``is``; a
    failed proof raises and keeps nothing."""
    global _proven_last
    key = (forms, tuple(map(int, primes)))
    last_key, spec = _proven_last
    if key != last_key:
        spec = ResidueSpec(_form_entries(forms, checked_primes(key[1])))
        _proven_last = (key, spec)
    return spec


def sophie_forbidden(p: int) -> frozenset[int]:
    """Residues p must avoid for (p, 2p+1) both prime: {0, beta}, 2*beta+1 = 0 mod p."""
    return _form_entries(((1, 0), (2, 1)), checked_primes((p,)))[0][1]


def tuple_forbidden(offsets: Sequence[int], p: int) -> frozenset[int]:
    """Forbidden residues mod p for the shifted variable n = p' + b_{k-1}.

    The pattern p', p'+b_1, ..., p'+b_{k-1} is simultaneously prime only if
    n avoids (b_{k-1} - b) mod p for every b in {0} union offsets.
    """
    return _form_entries(_tuple_forms(offsets), checked_primes((p,)))[0][1]


def is_admissible(offsets: Sequence[int]) -> bool:
    """True iff the forms n + b, b in {0} union offsets, leave a residue mod q for every prime q <= k."""
    if list(offsets) != sorted(set(offsets)) or any(b <= 0 for b in offsets):
        return False
    primes = [q for q in range(2, len(offsets) + 2) if is_prime(q)]
    forms = [(1, b) for b in (0, *offsets)]
    return all(len(struck) < q for q, struck in _form_entries(forms, primes))


def tight_tuples(k: int) -> list[AdmissibleTuple]:
    """All admissible (k-1)-tuples with minimal largest offset, 2 <= k <= 5.

    Exhaustive search with offset bound 2*k*k; small k only, by design.
    """
    if not 2 <= k <= 5:
        raise ValueError("k must be in 2..5")
    bound = 2 * k * k
    for last in range(2, bound + 1):
        found = []
        for inner in combinations(range(1, last), k - 2):
            offsets = (*inner, last)
            if is_admissible(offsets):
                found.append(AdmissibleTuple(offsets))
        if found:
            return found
    raise RuntimeError("no admissible tuple within search bound")  # pragma: no cover


def remainder_sequence(x: int, primes: Sequence[int]) -> RemainderSequence:
    """The vector of x mod p over the given primes (the tabular form of the text)."""
    if not primes:
        raise ValueError("primes must be nonempty")
    checked_primes(primes)
    return RemainderSequence(x, tuple(primes), tuple(x % p for p in primes))
