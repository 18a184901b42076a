"""Interval scans, the xi_T Dirichlet series, and composite-Mersenne witnesses.

The scans are exhaustive over integer ranges and report failures as data;
an empty failure list is a finding, never an assumption.  xi_T is the
Dirichlet series of 2^Omega(n); its Euler product converges quickly for
s > 1 while the raw series does not, so the product is the workhorse and
the series a cross-check on smooth integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sieve import PrimeTable, factorize, is_prime, table_for

__all__ = [
    "ScanResult",
    "bertrand_scan",
    "twin_bertrand_scan",
    "hl_inequality_scan",
    "hl_identity_row",
    "big_omega",
    "big_omega_sieve",
    "xi_partial_sum",
    "xi_divergence_probe",
    "xi_euler_product",
    "xi_smooth_series",
    "xi_sigma_probe",
    "mersenne_composite_witness",
]


@dataclass(frozen=True)
class ScanResult:
    kind: str
    params: dict
    lo: int
    hi: int
    failures: tuple = ()

    def __post_init__(self):
        for f in self.failures:
            point = f[0] if isinstance(f, tuple) else f
            if not self.lo <= point <= self.hi:
                raise ValueError(f"failure {f} outside scanned range")

    @property
    def largest_failure(self):
        return max(self.failures) if self.failures else None

    def row(self) -> dict:
        return {
            "kind": self.kind,
            **self.params,
            "lo": self.lo,
            "hi": self.hi,
            "failure_count": len(self.failures),
            "largest_failure": self.largest_failure,
        }


def _pi_table(limit: int, table: PrimeTable | None) -> np.ndarray:
    """pi(0..limit) as a cumulative array."""
    primes = table_for(limit, table).prefix_le(limit)
    return np.bincount(primes, minlength=limit + 1).cumsum()


def bertrand_scan(
    alpha: float, n_min: int, n_max: int, table: PrimeTable | None = None
) -> ScanResult:
    """Failures: n in [n_min, n_max] with no prime in (n, floor(alpha * n)]."""
    if not 1 < alpha <= 2:
        raise ValueError("alpha must lie in (1, 2]")
    if n_min < 1 or n_max < n_min:
        raise ValueError("need 1 <= n_min <= n_max")
    top = math.floor(alpha * n_max)
    pi = _pi_table(top, table)
    n = np.arange(n_min, n_max + 1, dtype=np.int64)
    upper = np.floor(alpha * n).astype(np.int64)
    fail = pi[upper] - pi[n] == 0
    return ScanResult("bertrand", {"alpha": alpha}, n_min, n_max,
                      tuple(int(v) for v in n[fail]))


def twin_bertrand_scan(
    x_min: int, x_max: int, alpha: float = 2.0, table: PrimeTable | None = None
) -> ScanResult:
    """Failures: x with no twin pair (p, p+2) lying strictly inside (x, alpha*x).

    Both members strictly inside: x < p and p + 2 < alpha * x.  The
    hypothesis x >= 7 is the smallest for which (11, 13) in (7, 14) works.
    An x fails when the first upper member past x + 2 is not below alpha * x.
    """
    if x_min < 7:
        raise ValueError("x_min must be >= 7")
    if x_max < x_min:
        raise ValueError("x_max must be >= x_min")
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    top = math.ceil(alpha * x_max) + 2
    primes = table_for(top, table).prefix_le(top)
    uppers = np.append(primes[1:][np.diff(primes) == 2], top + 1)  # the p + 2, then a sentinel
    x = np.arange(x_min, x_max + 1, dtype=np.int64)
    hi = np.ceil(alpha * x).astype(np.int64) - 1  # largest integer < alpha * x
    fail = uppers[uppers.searchsorted(x + 2, "right")] > hi
    return ScanResult("twin-bertrand", {"alpha": alpha}, x_min, x_max, tuple(x[fail].tolist()))


def hl_identity_row(x: int, y: int, table: PrimeTable | None = None) -> dict:
    """The decomposition pi(x+y) = pi(x) + (primes in (x, x+y]); one audit row, read off a table
    reaching x + y (hl-scan passes the one its scan grew)."""
    table = table_for(x + y, table)
    return {
        "x": x, "y": y,
        "pi_sum": table.count_upto(x + y),
        "pi_x": table.count_upto(x),
        "interval_count": table.count_upto(x + y) - table.count_upto(x),
        "pi_y": table.count_upto(y),
    }


def hl_inequality_scan(x_max: int, y_max: int, table: PrimeTable | None = None) -> ScanResult:
    """Failures: (x, y) with pi(x + y) > pi(x) + pi(y), 2 <= x, y."""
    if x_max < 2 or y_max < 2:
        raise ValueError("x_max, y_max must be >= 2")
    pi = _pi_table(x_max + y_max, table)
    x = np.arange(2, x_max + 1, dtype=np.int64)
    failures = []
    for y in range(2, y_max + 1):
        bad = pi[x + y] > pi[x] + pi[y]
        failures.extend((int(v), y) for v in x[bad])
    return ScanResult("hl-inequality", {}, 2, max(x_max, y_max), tuple(sorted(failures)))


def big_omega(n: int) -> int:
    """Prime factors counted with multiplicity; Omega(1) = 0."""
    return sum(factorize(n).values())


def big_omega_sieve(limit: int, table: PrimeTable | None = None) -> np.ndarray:
    """Omega(n) for n in [0, limit], by sieving (Omega of 0 and 1 set to 0).

    Each p <= sqrt(limit) adds 1 along its powers; a larger p adds 1 only at
    each m*p, so one step per m <= limit // (isqrt(limit) + 1) adds them all.
    """
    table = table_for(limit, table)
    omega = np.zeros(limit + 1, dtype=np.int64)
    primes, root = table.prefix_le(limit), math.isqrt(limit)
    split = int(np.searchsorted(primes, root, side="right"))
    for p in primes[:split].tolist():
        pk = p
        while pk <= limit:
            omega[pk::pk] += 1
            pk *= p
    for m in range(1, limit // (root + 1) + 1):  # the p > root with m*p <= limit
        omega[primes[split:np.searchsorted(primes, limit // m, side="right")] * m] += 1
    return omega


def _xi_terms(s: float, n_max: int) -> np.ndarray:
    n = np.arange(1, n_max + 1, dtype=np.float64)
    return np.exp2(big_omega_sieve(n_max)[1:].astype(np.float64)) / n**s


def xi_partial_sum(s: float, n_terms: int) -> float:
    """Sum_{n <= N} 2^Omega(n) / n^s for s > 1 (use the divergence probe otherwise)."""
    if s <= 1:
        raise ValueError("s must exceed 1; see xi_divergence_probe for s <= 1")
    if n_terms < 1:
        raise ValueError("need at least one term")
    return float(np.sum(_xi_terms(s, n_terms)))


def xi_divergence_probe(s: float, n_grid) -> list[dict]:
    """Growth table of the partial sums at s <= 1, where the series diverges."""
    if s > 1:
        raise ValueError("divergence probe is for s <= 1")
    grid = sorted(set(int(n) for n in n_grid))
    if not grid or grid[0] < 1:
        raise ValueError("grid must contain positive integers")
    sums = np.cumsum(_xi_terms(s, grid[-1]))
    return [{"N": g, "partial_sum": float(sums[g - 1])} for g in grid]


def xi_euler_product(s: float, p_max: int, table: PrimeTable | None = None) -> float:
    """prod_{p <= P} (1 - 2 / p^s)^(-1); every factor must converge (2/p^s < 1)."""
    if p_max < 2:
        raise ValueError("p_max must be >= 2")
    table = table_for(p_max, table)
    logs = []
    for p in table.prefix_le(p_max):
        ratio = 2 / float(p) ** s
        if ratio >= 1:
            raise ValueError(f"factor at p = {int(p)} diverges (2/p^s = {ratio} >= 1)")
        logs.append(-math.log1p(-ratio))
    return math.exp(math.fsum(logs))


def xi_smooth_series(s: float, p_max: int, n_max: int = 10**13) -> float:
    """Sum of 2^Omega(n)/n^s over the p_max-smooth integers n <= n_max, the primes p <= p_max
    read off a table reaching p_max.

    Smooth integers are enumerated explicitly (there are only on the order
    of (log n_max)^k of them), each term computed from its factorization,
    and the pile summed with compensated summation -- a genuinely
    series-side evaluation, independent of the Euler product's closed
    form.  At s = 2 the tail beyond n_max is below 4 / n_max.
    """
    if s <= 1:
        raise ValueError("s must exceed 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    primes = table_for(p_max).prefix_le(p_max).tolist()
    terms = []
    # stack of (value, Omega, index of next prime allowed to divide further)
    stack = [(1, 0, 0)]
    while stack:
        value, omega, start = stack.pop()
        terms.append(2.0**omega / float(value) ** s)
        for i in range(start, len(primes)):
            nxt = value * primes[i]
            if nxt <= n_max:
                stack.append((nxt, omega + 1, i))
    return math.fsum(terms)


def xi_sigma_probe(sigma_grid, rel_tol: float = 1e-8) -> list[dict]:
    """Rows (sigma, log xi_T(1+sigma), prime-sum, residual, log(1/sigma), ratio).

    log xi_T(1+sigma) = sum_{n >= 1} (2^n / n) * P(n * (1+sigma)) with P the
    prime zeta function -- the expanded Euler product, summed until the
    increment falls below rel_tol (direct products need astronomically
    many primes as sigma shrinks).  The residual subtracts 2 * P(1+sigma),
    the n = 1 term, which the series representation says stays bounded.
    """
    import mpmath  # only this probe needs it; a cold CLI process skips the import

    rows = []
    previous = None
    for sigma in sigma_grid:
        if not 0 < sigma < 1:
            raise ValueError("each sigma must lie in (0, 1)")
        if previous is not None and sigma >= previous:
            raise ValueError("sigma grid must be strictly decreasing")
        previous = sigma
        s = 1 + sigma
        with mpmath.workdps(30):
            log_xi = mpmath.mpf(0)
            n = 1
            while True:
                term = mpmath.mpf(2) ** n / n * mpmath.primezeta(n * s)
                log_xi += term
                if n > 1 and abs(term) < rel_tol * abs(log_xi):
                    break
                n += 1
            prime_sum = 2 * mpmath.primezeta(s)
        rows.append({
            "sigma": sigma,
            "log_xi": float(log_xi),
            "prime_sum": float(prime_sum),
            "residual": float(log_xi - prime_sum),
            "log_inv_sigma": math.log(1 / sigma),
            "ratio": float(log_xi) / math.log(1 / sigma),
        })
    return rows


def mersenne_composite_witness(k: int, n: int) -> dict:
    """Witness that 2q + 1 divides 2^q - 1 for q = k * 2^n - 1 of the right shape.

    Conditions: q prime, q = 3 (mod 4), 2q + 1 prime.  When all hold,
    2^q = 1 (mod 2q + 1) is asserted by modular exponentiation and
    re-verified with arbitrary-precision arithmetic, exhibiting the
    composite Mersenne number 2^q - 1.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, not {n}")
    q = k * (1 << n) - 1
    if q < 3:
        raise ValueError("q = k * 2^n - 1 must be >= 3")
    result = {"k": k, "n": n, "q": q, "divisor": 2 * q + 1}
    if not is_prime(q):
        return {**result, "verdict": "NOT-APPLICABLE", "failed": "q is not prime"}
    if q % 4 != 3:
        return {**result, "verdict": "NOT-APPLICABLE", "failed": "q != 3 (mod 4)"}
    if not is_prime(2 * q + 1):
        return {**result, "verdict": "NOT-APPLICABLE", "failed": "2q + 1 is not prime"}
    if 2 * q + 1 == 2**q - 1:  # only q = 3: the divisor is the number itself
        return {**result, "verdict": "NOT-APPLICABLE",
                "failed": "divisor equals 2^q - 1; nothing is shown composite"}
    if pow(2, q, 2 * q + 1) != 1:  # pragma: no cover - Lagrange/Lucas guarantee
        raise AssertionError(f"2^{q} != 1 (mod {2 * q + 1}) despite hypotheses")
    if (2**q - 1) % (2 * q + 1) != 0:  # pragma: no cover - big-int re-verification
        raise AssertionError("big-integer divisibility re-check failed")
    return {**result, "verdict": "WITNESS"}
