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
from numpy.lib.stride_tricks import sliding_window_view

from .sieve import SEGMENT_ODD_BITS, PrimeTable, factorize, is_prime, table_for

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
_HL_BLOCK_CELLS = 1 << 16  # cells hl_inequality_scan compares a step; 2^17 raises its peak RSS
_XI_REL_TOL = 1e-8  # xi_sigma_probe stops its series at the first term below this share of the sum


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


def _gap_failures(kind, alpha, n_min, n_max, table, members, shift, bound) -> ScanResult:
    """Failures: n in [n_min, n_max] with no member m in (n + shift, bound(n)], bound never falling,
    members(primes <= bound(n_max)) ascending.  The n whose next member is m' run from the member
    before it, less shift, up to the next run, and fail while bound(n) < m'."""
    top = int(bound(n_max))
    m = members(table_for(top, table).prefix_le(top))
    first, stop = m.searchsorted([n_min + shift, n_max + shift], "right").tolist()
    lo = np.concatenate(([n_min], m[first:stop] - shift))  # the runs meeting [n_min, n_max]
    ends = np.append(m[first:stop + 1], top + 1)[:len(lo)]  # past top: a sentinel
    end = np.ceil(ends / alpha).astype(np.int64)  # the first n with bound(n) >= m', within a step:
    end += bound(end) < ends
    end -= bound(end - 1) >= ends
    counts = np.maximum(np.minimum(end, np.append(lo[1:], n_max + 1)) - lo, 0)
    failures = np.arange(counts.sum()) + np.repeat(lo - (counts.cumsum() - counts), counts)
    return ScanResult(kind, {"alpha": alpha}, n_min, n_max, tuple(failures.tolist()))


def bertrand_scan(
    alpha: float, n_min: int, n_max: int, table: PrimeTable | None = None
) -> ScanResult:
    """Failures: n in [n_min, n_max] with no prime in (n, floor(alpha * n)]."""
    if not 1 < alpha <= 2:
        raise ValueError("alpha must lie in (1, 2]")
    if n_min < 1 or n_max < n_min:
        raise ValueError("need 1 <= n_min <= n_max")
    return _gap_failures("bertrand", alpha, n_min, n_max, table, lambda p: p, 0,
                         lambda n: np.floor(alpha * n))


def twin_bertrand_scan(
    x_min: int, x_max: int, alpha: float = 2.0, table: PrimeTable | None = None
) -> ScanResult:
    """Failures: x with no twin pair (p, p+2) lying strictly inside (x, alpha*x).

    Both members strictly inside: x < p and p + 2 < alpha * x.  The
    hypothesis x >= 7 is the smallest for which (11, 13) in (7, 14) works.
    """
    if x_min < 7:
        raise ValueError("x_min must be >= 7")
    if x_max < x_min:
        raise ValueError("x_max must be >= x_min")
    if not 1 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and exceed 1, not {alpha}")
    return _gap_failures("twin-bertrand", alpha, x_min, x_max, table,
                         lambda p: p[1:][np.diff(p) == 2], 2, lambda x: np.ceil(alpha * x) - 1)


def hl_identity_row(x: int, y: int) -> dict:
    """The decomposition pi(x+y) = pi(x) + (primes in (x, x+y]); one audit row, read off the
    process-wide table, which hl-scan's scan has already grown to x + y."""
    table = table_for(x + y)
    return {
        "x": x, "y": y,
        "pi_sum": table.count_upto(x + y),
        "pi_x": table.count_upto(x),
        "interval_count": table.count_upto(x + y) - table.count_upto(x),
        "pi_y": table.count_upto(y),
    }


def hl_inequality_scan(x_max: int, y_max: int, table: PrimeTable | None = None) -> ScanResult:
    """Failures: (x, y) with pi(x + y) > pi(x) + pi(y), 2 <= x, y; compared a block of at
    most _HL_BLOCK_CELLS cells (x rows of y_max - 1) at a time."""
    if x_max < 2 or y_max < 2:
        raise ValueError("x_max, y_max must be >= 2")
    table = table_for(x_max + y_max, table)
    pi = table.primes.searchsorted(np.arange(x_max + y_max + 1), "right").astype(np.int32)
    pi_sum = sliding_window_view(pi[4:], y_max - 1)
    rows = max(1, _HL_BLOCK_CELLS // (y_max - 1))
    failures = []
    for x in range(2, x_max + 1, rows):
        stop = min(x + rows, x_max + 1)
        bad = pi_sum[x - 2:stop - 2] > pi[x:stop, None] + pi[2:y_max + 1]
        xs, ys = np.divmod(bad.ravel().nonzero()[0], y_max - 1)  # in x-then-y order
        failures += zip((xs + x).tolist(), (ys + 2).tolist())
    return ScanResult("hl-inequality", {}, 2, max(x_max, y_max), tuple(failures))


def big_omega(n: int) -> int:
    """Prime factors counted with multiplicity; Omega(1) = 0."""
    return sum(factorize(n).values())


def big_omega_sieve(limit: int) -> np.ndarray:
    """Omega(n) for n in [0, limit], by sieving (Omega of 0 and 1 set to 0).

    Each p <= sqrt(limit) adds 1 along its powers; a larger p adds 1 only at
    each m*p, m <= limit // (isqrt(limit) + 1).  A multiplier m with more such
    primes than there are multipliers from m on takes a step of its own; the
    others share scatters of at most SEGMENT_ODD_BITS products m*p."""
    table = table_for(limit)
    omega = np.zeros(limit + 1, dtype=np.int64)
    primes, root = table.prefix_le(limit), math.isqrt(limit)
    split = int(np.searchsorted(primes, root, side="right"))
    for p in primes[:split].tolist():
        pk = p
        while pk <= limit:
            omega[pk::pk] += 1
            pk *= p
    m = np.arange(1, limit // (root + 1) + 1)
    ends = np.searchsorted(primes, limit // m, side="right")  # the p > root with m*p <= limit
    alone = ends - split > m[::-1]
    for k, end in zip(m[alone].tolist(), ends[alone].tolist()):
        np.add.at(omega, primes[split:end] * k, 1)
    m, counts = m[~alone], ends[~alone] - split  # counts never rise with m
    step = max(1, SEGMENT_ODD_BITS // int(counts.max(initial=1)))  # multipliers a scatter
    for i in range(0, len(m), step):
        c = counts[i:i + step]
        at = np.arange(c.sum()) + np.repeat(split - (c.cumsum() - c), c)
        np.add.at(omega, primes[at] * np.repeat(m[i:i + step], c), 1)
    return omega


def _xi_terms(s: float, n_max: int) -> np.ndarray:
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, not {s}")
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


def xi_euler_product(s: float, p_max: int) -> float:
    """prod_{p <= P} (1 - 2 / p^s)^(-1); every factor must converge (2/p^s < 1)."""
    if p_max < 2:
        raise ValueError("p_max must be >= 2")
    ratio = 2 / 2.0**s  # whenever a factor diverges, the one at p = 2 does
    if ratio >= 1:
        raise ValueError(f"factor at p = 2 diverges (2/p^s = {ratio} >= 1)")
    primes = table_for(p_max).prefix_le(p_max)
    return math.exp(math.fsum(-math.log1p(-2 / float(p) ** s) for p in primes))


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


def xi_sigma_probe(sigma_grid) -> list[dict]:
    """Rows (sigma, log xi_T(1+sigma), prime-sum, residual, log(1/sigma), ratio).

    log xi_T(1+sigma) = sum_{n >= 1} (2^n / n) * P(n * (1+sigma)) with P the
    prime zeta function -- the expanded Euler product, summed until the
    increment falls below _XI_REL_TOL (direct products need astronomically
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
                if n > 1 and abs(term) < _XI_REL_TOL * abs(log_xi):
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
