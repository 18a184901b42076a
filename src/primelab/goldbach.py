"""Goldbach decomposition search via remainder splitting and CRT enumeration.

The pipeline: split the remainders of the even target 2n into nonzero parts
at every sieving prime, enumerate the resulting CRT classes, and read off
prime pairs.  A candidate p in [2, n] avoids 0 and 2n modulo every sieving
prime q <= sqrt(2n), so p and 2n - p are both prime (their trial-division
certificates are vacuous).  Striking the sieving primes' multiples over what
was read, EXACT's scan windows or GUIDED's first candidate, checks that certificate;
the same slices over the partners 2n - q of the sieving primes q find the zero parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .crt import choice_count, crt_enumerate, scan_windows
from .residues import ResidueSpec, _form_entries
from .sieve import PrimeTable, factorize, is_prime, pattern_starts, sieving_prime_set, table_for

__all__ = [
    "SplitPlan",
    "SpanReport",
    "split_remainder",
    "build_split_plan",
    "goldbach_enumerate",
    "brute_goldbach_pairs",
    "span_report",
    "fixed_prefix_candidates",
    "goldbach_refine",
    "partition_probe",
    "twin_crt_search",
    "TwinPair",
    "EXACT_SPAN_MAX_PRIME",
]

# Full-period span enumeration is capped at sieving primes up to 13
# (period 30030, at most 5760 classes); the class count grows exponentially.
EXACT_SPAN_MAX_PRIME = 13


def _check_even_target(two_n: int) -> None:
    if two_n < 6 or two_n % 2:
        raise ValueError("target must be an even integer >= 6")


def _prime_prefix(k: int) -> list[int]:
    """The first k + 1 primes, 2, 3, 5, ..., p_k and the next prime p_(k+1), off the shared
    table, doubled until it holds them: sized by the count k, never by a caller's member."""
    table = table_for(1 << 16)
    while len(table) <= k:
        table = table_for(2 * table.limit)
    return table.primes[: k + 1].tolist()


def split_remainder(beta: int, p: int) -> list[tuple[int, int]]:
    """All ordered pairs (eta, delta), both in [1, p-1], with eta + delta = beta mod p.

    There are p - 1 such pairs when beta = 0 and p - 2 otherwise (the split
    eta = beta, delta = 0 and its mirror are excluded).
    """
    if not 0 <= beta < p:
        raise ValueError(f"residue {beta} out of range for modulus {p}")
    return [
        (eta, (beta - eta) % p)
        for eta in range(1, p)
        if (beta - eta) % p != 0
    ]


@dataclass(frozen=True)
class SplitPlan:
    """Remainder splits of an even target at each of its sieving primes."""

    two_n: int
    primes: tuple[int, ...]

    @cached_property
    def beta(self) -> tuple[int, ...]:
        """2n mod p per sieving prime p."""
        return tuple(self.two_n % p for p in self.primes)

    @property
    def u(self) -> tuple[int, ...]:
        """Residues removed per prime: the sizes of the eta spec's struck sets {0, beta}."""
        return self.eta_spec().cardinalities()

    @property
    def class_count(self) -> int:
        return choice_count(self.eta_spec())

    @cached_property
    def splits(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return tuple(tuple(split_remainder(b, p)) for b, p in zip(self.beta, self.primes))

    def eta_spec(self) -> ResidueSpec:
        """First-part residues struck per prime, {0, beta}: the roots of the split parts p, 2n - p."""
        return ResidueSpec(_form_entries(((1, 0), (-1, self.two_n)), self.primes))


def build_split_plan(two_n: int, table: PrimeTable | None = None) -> SplitPlan:
    _check_even_target(two_n)
    primes = tuple(sieving_prime_set(two_n, table).tolist())
    return SplitPlan(two_n, primes)


def _unstruck(start: int, stop: int, primes) -> np.ndarray:
    """[start, stop] as a mask, False at every multiple of a sieving prime: the certificate's slices."""
    free = np.ones(stop - start + 1, dtype=bool)
    for q in primes:
        free[-start % q :: q] = False
    return free


def _certify(candidates: np.ndarray, two_n: int, primes) -> None:
    """The paper's certificate, by plain slices: every candidate p lies in [2, two_n / 2], and
    neither p nor its partner two_n - p is a multiple of a sieving prime, so both are prime."""
    lo, hi = int(candidates.min()), int(candidates.max())
    if lo < 2 or 2 * hi > two_n:
        raise AssertionError(f"candidate {lo if lo < 2 else hi} outside [2, {two_n // 2}]")
    for values in (candidates, two_n - candidates):  # spans [lo, hi] and [two_n - hi, two_n - lo]
        start = int(values.min())
        struck = ~_unstruck(start, start + hi - lo, primes)[values - start]
        if struck.any():
            i = struck.argmax()
            p, v = int(candidates[i]), int(values[i])
            q = next(q for q in primes if v % q == 0)
            name = f"candidate {p}" if v == p else f"partner {v} of candidate {p}"
            raise AssertionError(f"{name} divisible by sieving prime {q}")


def brute_goldbach_pairs(two_n: int, table: PrimeTable | None = None) -> list[tuple[int, int]]:
    """Oracle: all (p, q), p <= q prime, p + q = two_n: the pattern oracle's forms (n, two_n - n)."""
    _check_even_target(two_n)
    starts = pattern_starts(2, two_n // 2, ((1, 0), (-1, two_n)), table)
    return [(p, two_n - p) for p in starts.tolist()]


def goldbach_enumerate(
    two_n: int,
    mode: str = "EXACT",
    allow_zero_eta: bool = False,
    table: PrimeTable | None = None,
) -> list[tuple[int, int]]:
    """Prime pairs (p, q), p <= q, p + q = two_n, from the split-plan classes.

    Every CRT candidate p in [2, two_n / 2] is the smaller member of a pair: its partner
    two_n - p is a candidate too.  EXACT scans them all; GUIDED tests n past the largest
    sieving prime against the spec's struck sets and returns the first candidate's pair.
    What is read gets the certificate (no sieving-prime multiple among the candidates or their
    partners), the only check; nothing needs a prime table beyond sqrt(two_n).  allow_zero_eta
    also admits pairs whose smaller member is a sieving prime (the zero-part splits omitted).
    """
    low = _pair_lows(two_n, mode, allow_zero_eta, table)
    return list(zip(low.tolist(), (two_n - low).tolist()))


def _pair_lows(two_n: int, mode: str, allow_zero_eta: bool, table: PrimeTable | None) -> np.ndarray:
    """The smaller members p of goldbach_enumerate's pairs, ascending, as an int64 array; a zero
    part q is kept when the certificate's slices leave its partner 2n - q (> sqrt(2n)) unstruck."""
    _check_even_target(two_n)
    if mode not in ("EXACT", "GUIDED"):
        raise ValueError(f"mode must be EXACT or GUIDED, not {mode!r}")
    plan = build_split_plan(two_n, table)
    # zero parts first: every n <= p_k is a sieving prime or has a sieving-prime factor
    lows = [np.zeros(0, dtype=np.int64)]
    if allow_zero_eta:  # the partners 2n - q of the sieving primes q span [2n - p_k, 2n - 2]
        q, start = np.array(plan.primes, dtype=np.int64), two_n - plan.primes[-1]
        lows = [q[_unstruck(start, two_n - 2, plan.primes)[two_n - start - q]]]
    spec, lo, hi = plan.eta_spec(), plan.primes[-1] + 1, two_n // 2
    # GUIDED's one candidate: the first n outside every struck set, read off the spec itself
    first = (n for n in range(lo, hi + 1) if all(n % p not in s for p, s in spec.entries))
    windows = [np.fromiter(islice(first, 1), np.int64)] if mode == "GUIDED" else scan_windows(spec, lo, hi)
    for window in windows:
        if len(window):  # _certify needs a candidate
            _certify(window, two_n, plan.primes)
            lows.append(window)
    return np.concatenate(lows)


@dataclass(frozen=True)
class SpanReport:
    """Empirical spread of the CRT candidates over one full period [1, M]."""

    two_n: int
    feasible: bool
    M: int
    threshold: int  # M - 2n
    candidate_count: int = 0
    candidate_min: int | None = None
    candidate_max: int | None = None
    span: int | None = None
    exceeds_threshold: bool | None = None
    flag: bool = False
    lemma_all_u2_min: int | None = None
    lemma_all_u1_min: int | None = None
    notes: tuple[str, ...] = ()

    def row(self) -> dict:
        return {
            "two_n": self.two_n,
            "feasible": self.feasible,
            "M": self.M,
            "threshold": self.threshold,
            "candidates": self.candidate_count,
            "min": self.candidate_min,
            "max": self.candidate_max,
            "span": self.span,
            "exceeds_threshold": self.exceeds_threshold,
            "flag": self.flag,
            "all_u2_min_bound": self.lemma_all_u2_min,
            "all_u1_min_bound": self.lemma_all_u1_min,
            "notes": list(self.notes),
        }


def _theoretical_min(primes: tuple[int, ...], u_value: int) -> int:
    """M minus the telescoped lowering sum with every u_i set to u_value.

    With u = 1 the sum telescopes to p_1 * p_2 = 6 for k >= 3; with u = 2
    it leaves the alternating closed form.  For k < 3 the sum is empty.
    """
    k = len(primes)
    m = math.prod(primes)
    lowering = sum(
        math.prod(primes[: k - j - 1]) * (primes[k - j - 1] - u_value)
        for j in range(k - 2)
    )
    return m - lowering


def span_report(two_n: int, table: PrimeTable | None = None) -> SpanReport:
    plan = build_split_plan(two_n, table)
    m = math.prod(plan.primes)
    threshold = m - two_n
    if plan.primes[-1] > EXACT_SPAN_MAX_PRIME:
        return SpanReport(
            two_n, False, m, threshold,
            notes=(
                f"largest sieving prime {plan.primes[-1]} exceeds the "
                f"full-period enumeration cap {EXACT_SPAN_MAX_PRIME}",
            ),
        )
    candidates = np.concatenate(list(scan_windows(plan.eta_spec(), 1, m)))
    lo, hi = int(candidates[0]), int(candidates[-1])
    notes = []
    if lo == 1:
        notes.append("unit candidate 1 present (excluded from prime pairs)")
    span = hi - lo
    exceeds = span > threshold
    flag = exceeds
    if len(candidates) == 1:
        flag = False
        notes.append("single candidate: span degenerate (0), flag suppressed")
    return SpanReport(
        two_n, True, m, threshold,
        candidate_count=len(candidates),
        candidate_min=lo, candidate_max=hi, span=span,
        exceeds_threshold=exceeds, flag=flag,
        lemma_all_u2_min=_theoretical_min(plan.primes, 2),
        lemma_all_u1_min=_theoretical_min(plan.primes, 1),
        notes=tuple(notes),
    )


def fixed_prefix_candidates(
    two_n: int, fixed: tuple[int, ...], table: PrimeTable | None = None
) -> list[int]:
    """Candidates over one period with the first len(fixed) residues pinned.

    The remaining primes range over every nonzero residue -- including the
    forbidden split parts -- so the group shows where the member carrying a
    forbidden residue lands relative to the others.  Members of a group
    are separated by multiples of the product of the pinned primes.
    """
    plan = build_split_plan(two_n, table)
    if len(fixed) >= len(plan.primes):
        raise ValueError("fixed prefix must leave at least one free prime")
    pinned = []  # each pinned prime strikes every residue but its own
    for r, p, b in zip(fixed, plan.primes, plan.beta):
        if not 0 < r < p or r == b:
            raise ValueError(f"residue {r} not an allowed split part mod {p}")
        pinned.append((p, [s for s in range(p) if s != r]))
    spec = ResidueSpec.from_pairs(pinned + [(p, (0,)) for p in plan.primes[len(fixed):]])
    return list(crt_enumerate(spec, 1, spec.modulus))


def goldbach_refine(
    two_n: int, t: int, table: PrimeTable | None = None
) -> tuple[int, int] | None:
    """Fold an over-range candidate t > 2n back into a pair around n = 2n/2.

    With r = t - n, look for a divisor s of r with s^2 = 1 modulo every
    sieving prime; if r' = r/s < n and both n - r' and n + r' are prime,
    that pair decomposes 2n.  Returns None when no divisor works.
    """
    _check_even_target(two_n)
    if t <= two_n:
        raise ValueError("t must exceed the even target")
    plan = build_split_plan(two_n, table)
    for p, b in zip(plan.primes, plan.beta):
        if t % p == 0 or t % p == b:
            raise ValueError(f"{t} is not a suitable candidate (fails mod {p})")
    n = two_n // 2
    r = t - n
    divisors = [1]
    for q, e in factorize(r).items():
        divisors = [d * q**i for d in divisors for i in range(e + 1)]
    for s in sorted(divisors):
        if any(s * s % p != 1 % p for p in plan.primes):
            continue
        r_prime = r // s
        if r_prime < n and is_prime(n - r_prime, table) and is_prime(n + r_prime, table):
            return (n - r_prime, n + r_prime)
    return None


def partition_probe(
    part_a: set[int],
    part_b: set[int],
    exponents: dict[int, int],
    sign: int,
    table: PrimeTable | None = None,
) -> dict:
    """alpha = prod(A^mu) +/- prod(B^nu): prime by construction when 2 < |alpha| < p_{k+1}^2.

    alpha is coprime to every prime in the prefix, so if it also lies below
    the square of the next prime its trial-division certificate is empty.
    The verdict is cross-checked with is_prime either way.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if part_a & part_b or not part_a or not part_b:
        raise ValueError("A and B must be disjoint and nonempty")
    union = sorted(part_a | part_b)
    *prefix, next_prime = _prime_prefix(len(union))
    if union != prefix:
        raise ValueError(f"A union B = {union} is not the prime prefix {prefix}")
    if any(exponents.get(q, 0) < 1 for q in union):
        raise ValueError("every prefix prime needs an exponent >= 1")
    alpha = math.prod(q ** exponents[q] for q in sorted(part_a)) + sign * math.prod(
        q ** exponents[q] for q in sorted(part_b)
    )
    bound = next_prime * next_prime
    in_range = 2 < abs(alpha) < bound
    prime = is_prime(abs(alpha), table)
    if in_range and not prime:  # pragma: no cover - would contradict the certificate
        raise AssertionError(f"alpha = {alpha} in certified range yet composite")
    return {
        "alpha": alpha,
        "bound": bound,
        "verdict": "PRIME-BY-CONSTRUCTION" if in_range else "OUT-OF-RANGE",
        "is_prime": prime,
    }


@dataclass(frozen=True)
class TwinPair:
    lower: int
    upper: int
    certified: bool


def twin_crt_search(
    primes: tuple[int, ...], bound: int, table: PrimeTable | None = None
) -> list[TwinPair]:
    """Twin pairs (n-2, n) with n avoiding {0, 2} modulo each prime of the prefix 2, ..., p_k.

    Pairs with n below the square of the next prime are CERTIFIED: both
    members then carry empty trial-division certificates.  Beyond that the
    pair is kept only if both members pass is_prime, tagged uncertified.
    The certificate needs every prime up to p_k, so any other set is rejected.
    """
    *prefix, next_prime = _prime_prefix(len(primes))
    if not prefix or list(primes) != prefix:
        raise ValueError(f"primes {tuple(primes)} are not the prime prefix 2, 3, 5, ..., p_k")
    cert_bound = next_prime**2
    pairs = []
    for n in crt_enumerate(ResidueSpec.twins(primes), 5, bound):
        certified = n < cert_bound
        if is_prime(n, table) and is_prime(n - 2, table):
            pairs.append(TwinPair(n - 2, n, certified))
        elif certified:  # pragma: no cover - contradiction with the certificate
            raise AssertionError(f"certified n = {n} or n - 2 composite")
    return pairs
