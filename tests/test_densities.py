import math

import pytest
from hypothesis import given, settings, strategies as st

from primelab.densities import (
    ap_asymptotic,
    ap_omega_estimate,
    ap_psi_estimate,
    brute_ap_prime_count,
    brute_ap_twin_count,
    brute_fermat_count,
    brute_mersenne_count,
    fermat_estimate,
    mersenne_estimate,
    omega_estimate,
    omega_k_estimate,
    primitive_root_census,
    psi_estimate,
    twin_constant,
    twin_constant_probe,
)
from primelab.residues import AdmissibleTuple
from primelab.sieve import sieve_primes


def test_psi_estimate_carries_exact_oracle():
    r = psi_estimate(1000)
    assert r.oracle == 168
    assert 0.8 < r.estimate / r.oracle < 1.3


def test_omega_estimate_carries_exact_oracle():
    r = omega_estimate(1000)
    assert r.oracle == 35
    assert 0.7 < r.estimate / r.oracle < 1.5


def test_omega_k_reduces_to_twin():
    tup = AdmissibleTuple((2,))
    a, b = omega_k_estimate(10_000, tup), omega_estimate(10_000)
    assert a.estimate == pytest.approx(b.estimate, rel=1e-12)


def test_omega_k_u_sequence():
    r = omega_k_estimate(10_000, AdmissibleTuple((2, 6, 8)))
    assert r.params["u"][:4] == (1, 2, 4, 4)


def test_ap_brute_counts():
    # primes = 1 mod 4 up to 100: 5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97
    assert brute_ap_prime_count(100, 1, 4) == 11
    # adjacent-term pairs in 3 + 4k: (3,7), (7,11), (19,23), (39? no) ...
    assert brute_ap_twin_count(30, 3, 4) >= 2


def literal_ap_prime_count(x, a, b, table):
    """Per-integer reference: walk a, a + b, ... <= x."""
    return sum(1 for n in range(a, x + 1, b) if n >= 2 and table.is_prime(n))


def literal_ap_twin_count(x, a, b, table):
    """Per-integer reference: n and n + step*b both prime, n + step*b <= x."""
    step = 1 if b % 2 == 0 else 2
    count = 0
    n = a
    while n + step * b <= x:
        m = n + step * b
        if n >= 2 and table.is_prime(n) and table.is_prime(m):
            count += 1
        n += b
    return count


def test_ap_oracles_match_the_literal_walks():
    table = sieve_primes(600)
    # even b (step 1), odd b (step 2), a = 0, a negative; a > x below
    progressions = [(1, 4), (3, 4), (0, 6), (5, 6), (1, 2), (1, 3), (2, 3), (0, 1), (1, 1),
                    (0, 5), (2, 5), (-3, 4), (-4, 3)]
    for x in range(601):
        for a, b in progressions + [(x + 1, 2), (x + 7, 3)]:
            assert brute_ap_prime_count(x, a, b, table) == literal_ap_prime_count(x, a, b, table)
            assert brute_ap_twin_count(x, a, b, table) == literal_ap_twin_count(x, a, b, table)


@pytest.mark.parametrize("oracle", [brute_ap_prime_count, brute_ap_twin_count])
@pytest.mark.parametrize("b", [0, -2])
def test_ap_oracles_reject_a_nonpositive_difference(oracle, b):
    with pytest.raises(ValueError, match="b must be positive"):
        oracle(30, 3, b)


def test_ap_psi_warns_when_prime_divides_difference():
    r = ap_psi_estimate(10_000, 1, 6)
    assert any("divides" in w for w in r.warnings)
    # 101 exceeds every sieving prime for x = 10^4, so no warning fires
    clean = ap_psi_estimate(10_000, 2, 101)
    assert clean.warnings == ()


def test_ap_estimate_requires_coprimality():
    with pytest.raises(ValueError):
        ap_psi_estimate(100, 2, 4)


def test_ap_asymptotic_kinds():
    r = ap_asymptotic(10_000, 1, 2, "PRIME")
    assert r.oracle == brute_ap_prime_count(10_000, 1, 2)
    t = ap_asymptotic(10_000, 1, 2, "TWIN", constant=0.66)
    assert t.params["C"] == 0.66
    with pytest.raises(ValueError):
        ap_asymptotic(10_000, 1, 2, "CUBES")
    with pytest.raises(ValueError):
        ap_asymptotic(3, 1, 2, "PRIME")  # log argument 1


def test_brute_mersenne_and_fermat():
    assert brute_mersenne_count(2**13) == 5
    assert brute_mersenne_count(8) == 2
    assert brute_fermat_count(70000) == 5
    assert brute_fermat_count(5) == 2  # 3 and 5


def test_mersenne_fermat_estimates_report_oracles():
    assert mersenne_estimate(2**13).oracle == 5
    assert fermat_estimate(70000).oracle == 5


def test_twin_constant_probe_monotone_grid():
    rows = twin_constant_probe([100, 10_000, 1_000_000])
    assert [r["x"] for r in rows] == [100, 10_000, 1_000_000]
    for r in rows:
        assert 0 < r["U"] < 1
        assert 0.4 < r["C"] < 1.1
    with pytest.raises(ValueError):
        twin_constant_probe([100, 100])


def test_twin_constant_single_point():
    assert 0.5 < twin_constant(10**6) < 0.9


def _is_primitive_by_powers(q: int, p: int) -> bool:
    """Independent primitivity reference: q^i != 1 (mod p) for 0 < i < p - 1."""
    power = 1
    for _ in range(p - 2):
        power = power * q % p
        if power == 1:
            return False
    return True


def test_primitive_root_census_two_oracles_agree():
    by_order = primitive_root_census(2, 1, 2, 2000)
    by_powers = sum(1 for p in sieve_primes(2000).primes.tolist()
                    if p % 2 == 1 and _is_primitive_by_powers(2 % p, p))
    assert by_order.oracle == by_powers > 0
    assert by_order.params["fitted_A"] > 0


def test_primitive_root_census_rejects_degenerate_q():
    for q in (0, 1, -1, 9, 25):
        with pytest.raises(ValueError):
            primitive_root_census(q, 1, 2, 100)


@given(st.integers(100, 3000))
@settings(max_examples=30, derandomize=True, deadline=None)
def test_estimates_stay_positive_and_finite(x):
    for r in (psi_estimate(x), omega_estimate(x)):
        assert r.estimate > 0
        assert math.isfinite(r.estimate)
