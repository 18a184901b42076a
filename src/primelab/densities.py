"""Closed-form density heuristics, each measured against an exact oracle.

None of these products is asserted to converge to anything; every report
carries the brute-force oracle next to the estimate so the heuristic's
accuracy is measured, never assumed.  Products are evaluated through
compensated summation of logs (math.fsum) so the relative error stays
below 1e-10 even with hundreds of thousands of factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .counts import (
    _shifted_power_primes,
    brute_pi,
    brute_tuple_count,
    brute_twin_count,
)
from .residues import AdmissibleTuple, ResidueSpec
from .sieve import PrimeTable, pattern_starts, sieving_prime_set

__all__ = [
    "EstimateReport",
    "psi_estimate",
    "omega_estimate",
    "omega_k_estimate",
    "ap_psi_estimate",
    "ap_omega_estimate",
    "mersenne_estimate",
    "fermat_estimate",
    "twin_constant_probe",
    "brute_ap_prime_count",
    "brute_ap_twin_count",
    "brute_mersenne_count",
    "brute_fermat_count",
]


@dataclass(frozen=True)
class EstimateReport:
    x: int
    estimate: float
    oracle: int | None
    params: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    @property
    def ratio(self) -> float | None:
        if not self.oracle:
            return None
        return float(f"{self.estimate / self.oracle:.6g}")

    def row(self) -> dict:
        return {
            "x": self.x,
            "estimate": self.estimate,
            "oracle": self.oracle,
            "ratio": self.ratio,
            "params": dict(self.params),
            "warnings": list(self.warnings),
        }


def _product(factors) -> float:
    logs = [math.log(f) for f in factors]
    return math.exp(math.fsum(logs)) if logs else 1.0


def psi_estimate(x: int, table: PrimeTable | None = None) -> EstimateReport:
    """x * prod_{p <= sqrt(x)} (1 - 1/p) against the brute prime count."""
    primes = sieving_prime_set(x, table)
    est = x * _product(1 - 1 / int(p) for p in primes)
    return EstimateReport(x, est, brute_pi(x, table))


def omega_estimate(x: int, table: PrimeTable | None = None) -> EstimateReport:
    """(x/2) * prod_{2 < p <= sqrt(x)} (1 - 2/p) against brute twin pairs."""
    if x < 9:
        raise ValueError("x must be >= 9")
    primes = sieving_prime_set(x, table)
    est = x / 2 * _product(1 - 2 / int(p) for p in primes if p != 2)
    return EstimateReport(x, est, brute_twin_count(x, table))


def omega_k_estimate(x: int, tup: AdmissibleTuple) -> EstimateReport:
    """x * prod (1 - u_p / p) with u_p the forbidden-residue cardinality.

    For the tuple (2,) the u sequence coincides with the twin spec and the
    value equals omega_estimate(x) exactly.
    """
    if x < 9:
        raise ValueError("x must be >= 9")
    spec = ResidueSpec.for_tuple(tup.offsets, sieving_prime_set(x))
    est = x * _product(1 - len(struck) / p for p, struck in spec.entries)
    oracle = brute_tuple_count(x, tup.offsets)
    return EstimateReport(x, est, oracle, {"offsets": tup.offsets, "u": spec.cardinalities()})


def brute_ap_prime_count(x: int, a: int, b: int) -> int:
    """Primes <= x among {a + k*b : k >= 0}: the pattern oracle's form (b*k + a)."""
    if b < 1:
        raise ValueError("b must be positive")
    return len(pattern_starts(0, (x - a) // b, ((b, a),)))


def brute_ap_twin_count(x: int, a: int, b: int) -> int:
    """Generalized twin pairs <= x in a + k*b: the pattern oracle's forms (b*k + a, b*k + a + step*b).

    Adjacent terms when every term is odd (step index 1), terms two apart
    when parity alternates (step index 2); both members prime, larger <= x.
    """
    if b < 1:
        raise ValueError("b must be positive")
    step = 1 if b % 2 == 0 else 2
    return len(pattern_starts(0, (x - a) // b - step, ((b, a), (b, a + step * b))))


def _ap_sieving_primes(x: int, a: int, b: int):
    if b < 1:
        raise ValueError("b must be positive")
    if math.gcd(a, b) != 1:
        raise ValueError(f"gcd({a}, {b}) != 1")
    if x <= a:
        raise ValueError("x must exceed a")
    primes = sieving_prime_set(x)
    warnings = tuple(f"sieving prime {int(p)} divides b = {b}" for p in primes if b % int(p) == 0)
    return primes, warnings


def ap_psi_estimate(x: int, a: int, b: int) -> EstimateReport:
    """((x-a)/b) * prod (1 - 1/p) against the brute count of primes in the progression.

    The product is evaluated exactly as stated even when a sieving prime
    divides b (where the true local factor differs); a warning flags that
    case rather than silently fixing it.
    """
    primes, warnings = _ap_sieving_primes(x, a, b)
    est = (x - a) / b * _product(1 - 1 / int(p) for p in primes)
    oracle = brute_ap_prime_count(x, a, b)
    return EstimateReport(x, est, oracle, {"a": a, "b": b}, warnings)


def ap_omega_estimate(x: int, a: int, b: int) -> EstimateReport:
    """Half the leading factor times prod_{2 < p} (1 - 2/p), vs. brute AP twins."""
    primes, warnings = _ap_sieving_primes(x, a, b)
    est = (x - a) / b / 2 * _product(1 - 2 / int(p) for p in primes if p != 2)
    oracle = brute_ap_twin_count(x, a, b)
    return EstimateReport(x, est, oracle, {"a": a, "b": b}, warnings)


def brute_mersenne_count(x: int) -> int:
    """Mersenne primes 2^q - 1 <= x (q over all exponents; primality forces q prime)."""
    return len(_shifted_power_primes(x, -1))


def brute_fermat_count(x: int) -> int:
    """Fermat-type primes 2^q + 1 <= x."""
    return len(_shifted_power_primes(x, 1))


def _mersenne_style_estimate(x: int) -> float:
    # p = 2 is excluded: its factor (1 - 1/(2-1)) would zero the product
    primes = sieving_prime_set(x)
    u = math.log(x) / math.log(2)
    return u * _product(1 - 1 / (int(p) - 1) for p in primes if p != 2)


def mersenne_estimate(x: int) -> EstimateReport:
    """(log x / log 2) * prod_{2 < p <= sqrt x} (1 - 1/(p-1)) vs. brute Mersenne primes."""
    if x < 9:
        raise ValueError("x must be >= 9")
    return EstimateReport(x, _mersenne_style_estimate(x), brute_mersenne_count(x))


def fermat_estimate(x: int) -> EstimateReport:
    """Same closed form measured against brute Fermat primes instead."""
    if x < 9:
        raise ValueError("x must be >= 9")
    return EstimateReport(x, _mersenne_style_estimate(x), brute_fermat_count(x))


def twin_constant_probe(x_grid) -> list[dict]:
    """Rows (x, U(x), implied C) with U(x) = prod_{2 < p <= sqrt x} (1 - 2/p).

    The implied constant is U(x) * (log x)^2 / 4 at each grid point; no
    convergence is asserted, the rows simply record the trend.
    """
    rows = []
    previous = None
    for x in x_grid:
        if x < 100:
            raise ValueError("grid points must be >= 100")
        if previous is not None and x <= previous:
            raise ValueError("grid must be strictly ascending")
        previous = x
        primes = sieving_prime_set(x)
        u_val = _product(1 - 2 / int(p) for p in primes if p != 2)
        rows.append({"x": x, "U": u_val, "C": u_val * math.log(x) ** 2 / 4})
    return rows

