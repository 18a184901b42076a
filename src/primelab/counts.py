"""Exact counting identities, each paired with a brute-force oracle.

Legendre's prime count (phi over the floor values [x/i], a bounded chunk at
a time from one period of 2*3*5*7*11*13, looping over the primes p <= cbrt(x)
and gathering the rest, whose [x/p] only q <= sqrt(x/p) < cbrt(x) rewrite),
the twin and k-tuple residue-survivor formulas (a windowed residue sieve over
residues.avoiding_row's wheel, the one class mod 6, or mod 30 for (2,6,8), that
the specs keep; the paper's literal inclusion-exclusion over
CRT classes is its test reference, in tests/test_counts.py), and the order-based
counts of the Mersenne and Fermat primes 2^q -+ 1 <= x.  phi and the survivor count step from the
previous call when it was near (_step; phi tests each n it steps over by gcd
against products of consecutive primes).  Each small-range addend is the row's
own identity at sqrt(x) and below (_pattern_count, _exponent_sieve), so no
formula reads its oracle and a bias in an oracle shows in delta.  Every
formula value here is an exact integer; approximation lives in
:mod:`primelab.densities`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .residues import AdmissibleTuple, ResidueSpec, _form_entries, _tuple_forms, avoiding_row, avoiding_windows
from .sieve import (PrimeTable, count_congruent, count_primes, factorize, is_prime, pattern_starts,
                    sieving_prime_set)

__all__ = [
    "CountReport",
    "legendre_pi",
    "survivor_count",
    "twin_count_formula",
    "tuple_count_formula",
    "multiplicative_order",
    "mersenne_exact_count",
    "fermat_exact_count",
    "mersenne_event_count",
    "fermat_event_count",
    "brute_pi",
    "brute_twin_count",
    "brute_tuple_count",
]


@dataclass(frozen=True)
class CountReport:
    x: int
    formula_value: int
    oracle_value: int
    corrections: dict = field(default_factory=dict)

    @property
    def delta(self) -> int:
        return self.formula_value - self.oracle_value

    def row(self) -> dict:
        return {
            "x": self.x,
            "formula": self.formula_value,
            "oracle": self.oracle_value,
            "delta": self.delta,
            "corrections": dict(self.corrections),
        }


# ---------------------------------------------------------------------------
# Brute-force oracles (straight enumeration; deliberately naive)


def brute_pi(x: int, table: PrimeTable | None = None) -> int:
    """pi(x) by sieving, never by the phi formula it checks.

    Two paths: ``table.count_upto(x)`` when the given table reaches x, else
    sieve.count_primes(x), a segmented count that builds no table and leaves
    the shared one as it is.
    """
    if table is not None and table.limit >= x:
        return table.count_upto(x)
    return count_primes(x)


def brute_twin_count(x: int, table: PrimeTable | None = None) -> int:
    """Twin pairs (p-2, p) with upper member p <= x: the forms (n, n + 2)."""
    return len(pattern_starts(2, x - 2, ((1, 0), (1, 2)), table))


def brute_tuple_count(x: int, offsets) -> int:
    """Count p with p, p+b_1, ..., p+b_last all prime and p + b_last <= x: the forms (n, n + b_i)."""
    return len(pattern_starts(2, x - offsets[-1], ((1, 0), *((1, b) for b in offsets))))


# ---------------------------------------------------------------------------
# Survivor counting: numbers in [1, x] avoiding per-prime forbidden residues


def _survivor_windows(x: int, entries, lo: int = 1) -> int:
    """survivor_count by a windowed residue sieve: avoiding_windows strikes the entries' classes on
    residues.avoiding_row's wheel over [lo, x] (one class mod 6 for the twin, (2,6) and Sophie Germain
    specs, mod 30 for (2,6,8)), one window of about 1 Mi positions at a time, and the survivors of
    each window are added up."""
    return sum(int(np.count_nonzero(mask)) for _, mask in avoiding_windows(lo, x, avoiding_row(lo, entries)))


_SURVIVOR_STEP = 4  # the largest |dx| stepped: at 8 a step is slower than the sieve below x = 100
_survivor_last = ((), 0, 0)  # (entries, x, survivor count) of the last survivor_count call, replaced whole


def _step(last: tuple, key, x: int, reach: int, between, full, arg) -> tuple:
    """(key, x, value) of a count: the last call's value moved by between(lo, hi, arg), the
    count over (lo, hi], when that call had an equal key (``is``, then ``==``) and an x at
    most reach away, else full(x, arg).  A caller reads its last-call tuple once and
    replaces it with the result in one assignment, so a thread never sees half of it."""
    last_key, last_x, last_value = last
    if abs(x - last_x) <= reach and (last_key is key or last_key == key):
        lo, hi = sorted((last_x, x))
        moved = between(lo, hi, arg)
        return key, x, last_value + moved if x >= last_x else last_value - moved
    return key, x, full(x, arg)


def _survivors_between(lo: int, hi: int, entries) -> int:
    """Survivors in (lo, hi], each n tested by the definition."""
    return sum(all(n % p not in s for p, s in entries) for n in range(lo + 1, hi + 1))


def survivor_count(x: int, spec: ResidueSpec) -> int:
    """Exact |{n in [1, x] : n mod p not in forbidden(p) for all p in spec}|.

    A _step by _survivors_between from the last call when it had equal
    entries and an x at most 4 away, else _survivor_windows, a windowed
    residue sieve; neither reads the oracles.  x <= 0 gives 0; otherwise an
    empty spec gives x.
    """
    global _survivor_last
    _survivor_last = last = _step(_survivor_last, spec.entries, max(x, 0), _SURVIVOR_STEP,
                                  _survivors_between, _survivor_windows, spec.entries)
    return last[2]


# ---------------------------------------------------------------------------
# Legendre's prime-counting formula


_FLOOR_CHUNK = 1 << 16  # the most entries of small or large that one numpy step of _phi_floor reads
_SEED = np.array([2, 3, 5, 7, 11, 13])  # _phi_floor starts past these, from one period of their product
_seed_phi = None  # phi(j, 6) for j < 30030, built on the first _phi_floor call that seeds


def _phi_floor(x: int, primes: np.ndarray) -> int:
    """phi(x, a) for the first a primes (ascending, none above sqrt(x)), breadth first over the floor values.

    phi(v, a) = phi(v, a-1) - phi([v/p_a], a-1) only needs the v = [x/i], so
    two arrays hold c(v) = phi(v, a) + #{first a primes <= v}: small[v] for
    v <= sqrt(x) (int32 while that fits), large[i] for v = [x/i], i <= sqrt(x).
    They start at c(v) = v, or at a = 6 once 13^3 <= x, where each whole period
    of 30030 keeps 5760 values.  Below p_a^2 the step leaves c as it is (phi
    loses 1, p_a is counted), so each prime rewrites only the v >= p_a^2:
    c(v) -= c([v/p_a]) - a, _FLOOR_CHUNK entries at a time, large in ascending
    i and small in descending v, so that every read is of a value not yet
    rewritten for p_a.  For p_a^3 > x the step of large[1] reads large[p_a],
    which only q <= sqrt(x/p_a) < cbrt(x) rewrite, so the loop stops there and
    large[1] -= sum(large[p_a] - a).
    """
    global _seed_phi
    r = math.isqrt(x)
    cut = int(np.count_nonzero(primes <= x // (primes * primes)))  # the p with p^3 <= x, in integers
    seed = len(_SEED) if cut >= len(_SEED) else 0
    if seed and _seed_phi is None:
        coprime = np.ones(30030, dtype=bool)
        for p in _SEED.tolist():
            coprime[::p] = False
        _seed_phi = np.cumsum(coprime, dtype=np.int16)  # at most 5760
    small = np.empty(r + 1, dtype=np.int32 if r < 1 << 31 else np.int64)
    large = np.empty(r + 1, dtype=np.int64)  # large[0] is unused
    for s in range(0, r + 1, _FLOOR_CHUNK):
        v = np.arange(s, min(s + _FLOOR_CHUNK, r + 1))
        for c, w in ((small, v), (large, x // v.clip(1))):
            c[s:s + len(v)] = (w // 30030 * 5760 + _seed_phi[w % 30030] + _SEED.searchsorted(w, "right")
                               if seed else w)
    for a, p in enumerate(primes[seed:cut].tolist(), seed + 1):
        top = min(r, x // (p * p))  # the i with [x/i] >= p^2
        inner = min(top, r // p)  # [x/(ip)] is large[ip] while ip <= r, else small[x // (ip)]
        for s in range(1, inner + 1, _FLOOR_CHUNK):
            e = min(s + _FLOOR_CHUNK, inner + 1)
            large[s:e] -= large[s * p:(e - 1) * p + 1:p] - a
        for s in range(inner + 1, top + 1, _FLOOR_CHUNK):
            e = min(s + _FLOOR_CHUNK, top + 1)
            large[s:e] -= small[x // (np.arange(s, e) * p)] - a
        for e in range(r + 1, p * p, -_FLOOR_CHUNK):
            s = max(p * p, e - _FLOOR_CHUNK)
            small[s:e] -= small[np.arange(s, e) // p] - a
    return int(large[1] - (large[primes[cut:]] - np.arange(cut + 1, len(primes) + 1)).sum()) - len(primes)


_phi_last = (0, 0, 0)  # (k, x, phi(x, k)) of the last _phi call, replaced whole
_PRODUCT_BITS = 2048  # the size of each product of consecutive primes that _coprime_between reads
_phi_products = (0, ())  # (k, _coprime_between's products of the first k primes), replaced whole


def _coprime_between(lo: int, hi: int, primes: np.ndarray) -> int:
    """The n in (lo, hi] coprime to every prime, the definition of phi: gcd(n, q) == 1 for each
    product q of consecutive primes (about _PRODUCT_BITS bits each, kept for the last k)."""
    global _phi_products
    k, products = _phi_products
    if k != len(primes):
        group = max(1, _PRODUCT_BITS // int(primes[-1]).bit_length())
        products = tuple(math.prod(primes[i:i + group].tolist()) for i in range(0, len(primes), group))
        _phi_products = (len(primes), products)
    return sum(all(math.gcd(n, q) == 1 for q in products) for n in range(lo + 1, hi + 1))


def _phi(x: int, primes: np.ndarray) -> int:
    """phi(x, k) for the first k = len(primes) primes (ascending, none above sqrt(x)): a _step
    by _coprime_between from the last call when it had the same k and an x at most 64 away,
    else _phi_floor."""
    global _phi_last
    _phi_last = last = _step(_phi_last, len(primes), x, 64, _coprime_between, _phi_floor, primes)
    return last[2]


def legendre_pi(x: int, table: PrimeTable | None = None) -> CountReport:
    """Legendre's prime count pi(x) = phi(x, k) + k - 1 over the k sieving primes.

    phi counts 1 and omits the k primes themselves, hence the trailing term
    (k - 1); the source's printed (p_k - 1) does not reproduce pi(20).  phi
    is _phi: a step from the previous call when it had the same k and an x
    at most 64 away (a gcd of each n between against products of consecutive
    primes), else _phi_floor over the ~2 sqrt(x) floor values [x/i] (a
    chunked loop to cbrt(x), then one gather of the [x/p], which only q <
    cbrt(x) rewrite).  Both read only the sieving primes, never the oracle's
    table or count.
    """
    primes = sieving_prime_set(x, table)
    k = len(primes)
    formula = _phi(x, primes) + k - 1
    oracle = brute_pi(x, table)
    return CountReport(x, formula, oracle, {"tail_term": k - 1, "sieving_primes": k})


# ---------------------------------------------------------------------------
# Twin and k-tuple formulas (Lemma-2.2 style bookkeeping)


def _floor_sum(x: int, primes: list[int], weights) -> int:
    """Sum over subsets S of the ascending primes of (-1)^|S| prod(w_p) [x / prod(S)], as
    F(x, a) = F(x, a-1) - w_a F([x/p_a], a-1), F(x, 0) = x, pruned once [x/p_a] = 0."""
    total = x
    for i, p in enumerate(primes):
        if x < p:
            break
        total -= weights[i] * _floor_sum(x // p, primes[:i], weights[:i])
    return total


def twin_count_formula(x: int) -> CountReport:
    """tuple_count_formula for the offsets (2,), with the twin correction terms.

    The raw identity miscounts at the boundary (the unit survivor 1; pairs
    straddling sqrt(x), whose upper member is root + 1 or root + 2, tested by factorize).
    paper_approx, every class count replaced by [x/m], reproduces the worked
    arithmetic 20 - 10 + 3 + 3 - 6 - 6 = 4; it is published only for x < 79^2.
    """
    if x < 9:
        raise ValueError("x must be >= 9")
    report = tuple_count_formula(x, AdmissibleTuple((2,)))
    small, root = report.corrections["small_range_addend"], math.isqrt(x)
    corrections = {
        "unit_survivor": 1,
        "small_range_addend": small,
        "pairs_straddling_sqrt": sum(all(factorize(q) == {q: 1} for q in (p, p + 2)) for p in (root - 1, root)),
    }
    primes = [int(p) for p in sieving_prime_set(x)]
    if len(primes) <= 21:  # an output rule (x < 79^2), not a cost limit
        weights = ResidueSpec.twins(primes).cardinalities()
        corrections["paper_approx"] = _floor_sum(x, primes, weights) + small
    return CountReport(x, report.formula_value, report.oracle_value, corrections)


def _pattern_count(x: int, offsets) -> int:
    """How many p have p, p + b_1, ..., p + b_last all prime and p + b_last <= x.  In n = p + b_last, the
    tuple forms' survivors at the primes <= sqrt(x) in (s, x], s = isqrt(x) + b_last, are the patterns
    there (every member lies in (sqrt(x), x]); add this count at s.  Below 100, or once x <= s, by factorize."""
    s = math.isqrt(x) + offsets[-1]
    if x < 100 or x <= s:
        return sum(all(factorize(p + b) == {p + b: 1} for b in (0, *offsets)) for p in range(2, x - offsets[-1] + 1))
    entries = _form_entries(_tuple_forms(offsets), sieving_prime_set(x).tolist())
    return _survivor_windows(x, entries, s + 1) + _pattern_count(s, offsets)


def tuple_count_formula(x: int, tup: AdmissibleTuple) -> CountReport:
    """Raw identity: tuple-spec survivors in [1, x] plus the patterns up to sqrt(x) (_pattern_count).

    Survivors are counted in the shifted variable n = p + b_last; the
    oracle counts pattern starts p with p + b_last <= x.
    """
    primes = sieving_prime_set(x)
    spec = ResidueSpec.for_tuple(tup.offsets, (int(p) for p in primes))
    survivors = survivor_count(x, spec)
    small = _pattern_count(math.isqrt(x), tup.offsets)
    oracle = brute_tuple_count(x, tup.offsets)
    corrections = {
        "unit_survivor": 1,
        "small_range_addend": small,
        "u_sequence": ",".join(str(u) for u in spec.cardinalities()),
    }
    return CountReport(x, survivors + small, oracle, corrections)


# ---------------------------------------------------------------------------
# Multiplicative order and the Mersenne/Fermat exponent sieves


def multiplicative_order(a: int, p: int) -> int:
    """Least d >= 1 with a^d = 1 (mod p); always divides p - 1."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if a % p == 0:
        raise ValueError(f"{p} divides {a}; order undefined")
    order = p - 1
    for q in factorize(order):
        while order % q == 0 and pow(a, order // q, p) == 1:
            order //= q
    return order


def mersenne_event_count(u: int, p: int) -> int:
    """Exponents q <= u with 2^q = 1 (mod p): multiples of ord_p(2)."""
    return u // multiplicative_order(2, p)


def fermat_event_count(u: int, p: int) -> int:
    """Exponents q <= u with 2^q = -1 (mod p).

    Nonzero only when d = ord_p(2) is even; then the solutions are the
    progression q = d/2 (mod d).
    """
    d = multiplicative_order(2, p)
    if d % 2:
        return 0
    return count_congruent(u, d // 2, d)


def _shifted_power_primes(bound: int, sign: int) -> list[int]:
    """Primes 2^q + sign <= bound over q >= 1 (sign -1: Mersenne, +1: Fermat), enumerated by value."""
    values = ((1 << q) + sign for q in range(1, bound.bit_length() + 1))
    return [v for v in values if v <= bound and is_prime(v)]


def _exponent_events(bound: int, u: int, sign: int, table: PrimeTable | None) -> list[tuple[int, int]]:
    """(residue, modulus) of the q with p | 2^q + sign, per odd prime p <= sqrt(bound), ascending p.

    One doubling walk over 2^13 primes at a time (its temporaries do not grow
    with pi(sqrt(bound))): the first q <= u with 2^q = 1 (mod p) is
    d = ord_p(2), the event q = 0 (mod d); the first with 2^q = -1 is d/2,
    the event q = d/2 (mod d).  A prime whose first q exceeds u makes no
    event in [1, u].
    """
    primes, events = sieving_prime_set(bound, table), []
    for s in range(1, len(primes), 1 << 13):
        odd = primes[s:s + (1 << 13)]
        target = 1 if sign < 0 else odd - 1
        first = np.zeros(len(odd), dtype=np.int64)
        power = np.ones(len(odd), dtype=np.int64)
        for q in range(1, u + 1):
            power = power * 2 % odd
            first[(power == target) & (first == 0)] = q
        events += [(0, q) if sign < 0 else (q, 2 * q) for q in first[first > 0].tolist()]
    return events


def _exponent_sieve(x: int, sign: int, table: PrimeTable | None) -> tuple[int, int, int]:
    """(u, survivors, lam) at x.  u = [log2(x - sign)], the largest q with 2^q + sign <= x; survivors, the
    q in [1, u] whose 2^q + sign has no odd prime factor <= sqrt(x) (2 never divides it), each checked
    against every event progression; lam, the primes 2^q + sign <= root = isqrt(x): this sieve's
    survivors at root less the unit q = 1 of the Mersenne side, plus its lam, or below 64 by factorize."""
    u, root = (x - sign).bit_length() - 1, math.isqrt(x)
    events = _exponent_events(x, u, sign, table)
    lam = (sum(_exponent_sieve(root, sign, table)[1:]) - (sign < 0) if root >= 64 else
           sum(factorize(v) == {v: 1} for v in ((1 << q) + sign for q in range(1, root.bit_length() + 1)) if v <= root))
    return u, sum(all(q % d != r for r, d in events) for q in range(1, u + 1)), lam


def _exponent_count(x: int, sign: int, table: PrimeTable | None) -> CountReport:
    """Exponent sieve for the primes 2^q + sign <= x, vs. those primes enumerated by value.

    A survivor of the sieve at x (_exponent_sieve) is the unit q = 1 of the
    Mersenne side (2^1 - 1 = 1) or a prime > sqrt(x), so adding lam, the primes
    2^q + sign <= sqrt(x) by the same sieve at isqrt(x) and below, and removing
    the unit gives the count.  The oracle, _shifted_power_primes(x, sign),
    reads nothing of the sieve.
    """
    u, sieved, lam = _exponent_sieve(x, sign, table)
    units = 1 if sign < 0 else 0
    corrections = {
        "exponent_bound": u,
        "small_range_addend": lam,
        "unit_exponents": units,
        "paper_literal_tail": lam - 1,
    }
    return CountReport(x, sieved + lam - units, len(_shifted_power_primes(x, sign)), corrections)


def mersenne_exact_count(x: int, table: PrimeTable | None = None) -> CountReport:
    """Count of the Mersenne primes 2^q - 1 <= x: the exponent sieve over q <= [log2(x + 1)],
    whose survivors are the unit q = 1 and the Mersenne primes > sqrt(x), against those
    primes enumerated by value."""
    return _exponent_count(x, -1, table)


def fermat_exact_count(x: int, table: PrimeTable | None = None) -> CountReport:
    """Count of the primes 2^q + 1 <= x: the same sieve, event 2^q = -1 (mod p), over q <= [log2(x - 1)].

    No unit exponent on this side (2^q + 1 >= 3): the small-range addend enters
    uncorrected, and the printed literal tail (lambda - 1) is reported alongside.
    The oracle enumerates the primes 2^q + 1 <= x by value.
    """
    return _exponent_count(x, 1, table)
