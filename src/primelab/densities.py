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
    multiplicative_order,
)
from .residues import AdmissibleTuple, ResidueSpec
from .sieve import PrimeTable, pattern_starts, sieving_prime_set, table_for

__all__ = [
    "EstimateReport",
    "psi_estimate",
    "omega_estimate",
    "omega_k_estimate",
    "ap_psi_estimate",
    "ap_omega_estimate",
    "ap_asymptotic",
    "mersenne_estimate",
    "fermat_estimate",
    "twin_constant_probe",
    "twin_constant",
    "primitive_root_census",
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
    if x < 4:
        raise ValueError("x must be >= 4")
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


def omega_k_estimate(x: int, tup: AdmissibleTuple, table: PrimeTable | None = None) -> EstimateReport:
    """x * prod (1 - u_p / p) with u_p the forbidden-residue cardinality.

    For the tuple (2,) the u sequence coincides with the twin spec and the
    value equals omega_estimate(x) exactly.
    """
    if x < 9:
        raise ValueError("x must be >= 9")
    spec = ResidueSpec.for_tuple(tup.offsets, sieving_prime_set(x, table))
    est = x * _product(1 - len(struck) / p for p, struck in spec.entries)
    oracle = brute_tuple_count(x, tup.offsets, table)
    return EstimateReport(x, est, oracle, {"offsets": tup.offsets, "u": spec.cardinalities()})


def brute_ap_prime_count(x: int, a: int, b: int, table: PrimeTable | None = None) -> int:
    """Primes <= x among {a + k*b : k >= 0}: the pattern oracle's form (b*k + a)."""
    if b < 1:
        raise ValueError("b must be positive")
    return len(pattern_starts(0, (x - a) // b, ((b, a),), table))


def brute_ap_twin_count(x: int, a: int, b: int, table: PrimeTable | None = None) -> int:
    """Generalized twin pairs <= x in a + k*b: the pattern oracle's forms (b*k + a, b*k + a + step*b).

    Adjacent terms when every term is odd (step index 1), terms two apart
    when parity alternates (step index 2); both members prime, larger <= x.
    """
    if b < 1:
        raise ValueError("b must be positive")
    step = 1 if b % 2 == 0 else 2
    return len(pattern_starts(0, (x - a) // b - step, ((b, a), (b, a + step * b)), table))


def _ap_leading(x: int, a: int, b: int) -> float:
    return (x - a) / b


def _check_ap(x: int, a: int, b: int):
    if b < 1:
        raise ValueError("b must be positive")
    if math.gcd(a, b) != 1:
        raise ValueError(f"gcd({a}, {b}) != 1")
    if x <= a:
        raise ValueError("x must exceed a")


def _ap_sieving_primes(x: int, a: int, b: int, table: PrimeTable | None):
    _check_ap(x, a, b)
    primes = sieving_prime_set(x, table)
    warnings = tuple(f"sieving prime {int(p)} divides b = {b}" for p in primes if b % int(p) == 0)
    return primes, warnings


def ap_psi_estimate(x: int, a: int, b: int, table: PrimeTable | None = None) -> EstimateReport:
    """((x-a)/b) * prod (1 - 1/p) against the brute count of primes in the progression.

    The product is evaluated exactly as stated even when a sieving prime
    divides b (where the true local factor differs); a warning flags that
    case rather than silently fixing it.
    """
    primes, warnings = _ap_sieving_primes(x, a, b, table)
    est = _ap_leading(x, a, b) * _product(1 - 1 / int(p) for p in primes)
    oracle = brute_ap_prime_count(x, a, b, table)
    return EstimateReport(x, est, oracle, {"a": a, "b": b}, warnings)


def ap_omega_estimate(x: int, a: int, b: int, table: PrimeTable | None = None) -> EstimateReport:
    """Half the leading factor times prod_{2 < p} (1 - 2/p), vs. brute AP twins."""
    primes, warnings = _ap_sieving_primes(x, a, b, table)
    est = _ap_leading(x, a, b) / 2 * _product(1 - 2 / int(p) for p in primes if p != 2)
    oracle = brute_ap_twin_count(x, a, b, table)
    return EstimateReport(x, est, oracle, {"a": a, "b": b}, warnings)


def ap_asymptotic(
    x: int,
    a: int,
    b: int,
    kind: str,
    constant: float | None = None,
    table: PrimeTable | None = None,
) -> EstimateReport:
    """The log-form asymptotics for primes (PRIME) or twin pairs (TWIN) in an AP."""
    _check_ap(x, a, b)
    t = (x - a) / b
    if t <= 1:
        raise ValueError("log argument (x - a)/b must exceed 1")
    if kind == "PRIME":
        est = t / math.log(t)
        oracle = brute_ap_prime_count(x, a, b, table)
        params = {"a": a, "b": b, "kind": kind}
    elif kind == "TWIN":
        c = twin_constant() if constant is None else constant
        est = 2 * c * t / math.log(t) ** 2
        oracle = brute_ap_twin_count(x, a, b, table)
        params = {"a": a, "b": b, "kind": kind, "C": c}
    else:
        raise ValueError(f"kind must be PRIME or TWIN, not {kind!r}")
    return EstimateReport(x, est, oracle, params)


def brute_mersenne_count(x: int) -> int:
    """Mersenne primes 2^q - 1 <= x (q over all exponents; primality forces q prime)."""
    return len(_shifted_power_primes(x, -1))


def brute_fermat_count(x: int) -> int:
    """Fermat-type primes 2^q + 1 <= x."""
    return len(_shifted_power_primes(x, 1))


def _mersenne_style_estimate(x: int, table: PrimeTable | None) -> float:
    # p = 2 is excluded: its factor (1 - 1/(2-1)) would zero the product
    primes = sieving_prime_set(x, table)
    u = math.log(x) / math.log(2)
    return u * _product(1 - 1 / (int(p) - 1) for p in primes if p != 2)


def mersenne_estimate(x: int, table: PrimeTable | None = None) -> EstimateReport:
    """(log x / log 2) * prod_{2 < p <= sqrt x} (1 - 1/(p-1)) vs. brute Mersenne primes."""
    if x < 9:
        raise ValueError("x must be >= 9")
    return EstimateReport(x, _mersenne_style_estimate(x, table), brute_mersenne_count(x))


def fermat_estimate(x: int, table: PrimeTable | None = None) -> EstimateReport:
    """Same closed form measured against brute Fermat primes instead."""
    if x < 9:
        raise ValueError("x must be >= 9")
    return EstimateReport(x, _mersenne_style_estimate(x, table), brute_fermat_count(x))


def twin_constant_probe(x_grid, table: PrimeTable | None = None) -> list[dict]:
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
        primes = sieving_prime_set(x, table)
        u_val = _product(1 - 2 / int(p) for p in primes if p != 2)
        rows.append({"x": x, "U": u_val, "C": u_val * math.log(x) ** 2 / 4})
    return rows


def twin_constant(x: int = 10**6, table: PrimeTable | None = None) -> float:
    """The implied twin constant taken at a single (largest practical) probe point."""
    return twin_constant_probe([x], table)[-1]["C"]


def primitive_root_census(
    Q: int,
    a: int,
    b: int,
    x: int,
    table: PrimeTable | None = None,
) -> EstimateReport:
    """Census of primes p <= x, p = a (mod b), with Q a primitive root mod p.

    No truth value is asserted for the underlying conjecture; the report
    carries the census count and a fitted constant
    A(Q) = count * log((x-a)/b) / ((x-a)/b).
    """
    if Q in (0, 1, -1):
        raise ValueError("Q must differ from 0, 1, -1")
    if Q > 0 and math.isqrt(Q) ** 2 == Q:
        raise ValueError("Q must not be a perfect square")
    _check_ap(x, a, b)
    table = table_for(x, table)
    count = 0
    for p in table.prefix_le(x):
        p = int(p)
        if p % b == a % b and Q % p and multiplicative_order(Q % p, p) == p - 1:
            count += 1
    t = (x - a) / b
    fitted = count * math.log(t) / t if t > 1 else float("nan")
    return EstimateReport(
        x, fitted * t / math.log(t) if t > 1 else float("nan"), count,
        {"Q": Q, "a": a, "b": b, "fitted_A": fitted},
    )
