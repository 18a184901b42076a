import math

import pytest
from hypothesis import given, settings, strategies as st

from primelab.probes import (
    ScanResult,
    bertrand_scan,
    big_omega,
    big_omega_sieve,
    hl_identity_row,
    hl_inequality_scan,
    mersenne_composite_witness,
    twin_bertrand_scan,
    xi_divergence_probe,
    xi_euler_product,
    xi_partial_sum,
    xi_sigma_probe,
    xi_smooth_series,
)


def test_scan_result_invariants():
    r = ScanResult("k", {}, 1, 10, (3, 7))
    assert r.largest_failure == 7
    assert ScanResult("k", {}, 1, 10).largest_failure is None
    with pytest.raises(ValueError):
        ScanResult("k", {}, 1, 10, (11,))


def test_bertrand_alpha2_small_range_clean():
    assert bertrand_scan(2.0, 1, 1000).failures == ()


def test_bertrand_tight_alpha_fails_at_13():
    r = bertrand_scan(1.2, 10, 20)
    assert 13 in r.failures  # (13, 15.6] holds only 14, 15


def test_bertrand_validation():
    with pytest.raises(ValueError):
        bertrand_scan(1.0, 1, 10)
    with pytest.raises(ValueError):
        bertrand_scan(2.5, 1, 10)


def test_twin_bertrand_hypothesis_floor():
    with pytest.raises(ValueError):
        twin_bertrand_scan(6, 100)
    # x = 7: (11, 13) inside (7, 14)
    assert twin_bertrand_scan(7, 7).failures == ()


def test_twin_bertrand_small_range_clean():
    assert twin_bertrand_scan(7, 2000).failures == ()


def test_twin_bertrand_generalized_alpha_reports():
    r = twin_bertrand_scan(500, 2000, alpha=1.5)
    assert isinstance(r.failures, tuple)  # reported, not asserted clean


def test_hl_scan_boundary_equality():
    row = hl_identity_row(2, 2)
    assert row["pi_sum"] == 2 and row["pi_x"] + row["pi_y"] == 2
    assert hl_inequality_scan(50, 50).failures == ()


def test_hl_identity_decomposition():
    row = hl_identity_row(100, 50)
    assert row["pi_sum"] == row["pi_x"] + row["interval_count"]


def test_big_omega_values():
    assert big_omega(12) == 3
    assert big_omega(1) == 0
    assert big_omega(360) == 6
    assert big_omega(97) == 1


@given(st.integers(1, 2000), st.integers(1, 2000))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_big_omega_completely_additive(a, b):
    assert big_omega(a * b) == big_omega(a) + big_omega(b)


def test_big_omega_sieve_matches_direct():
    sieved = big_omega_sieve(500)
    for n in range(1, 501):
        assert sieved[n] == big_omega(n)


def test_big_omega_sieve_at_every_small_limit_and_around_prime_squares():
    # Omega(0) = Omega(1) = 0; the limits p^2 - 1, p^2, p^2 + 1 move a prime across isqrt(limit)
    direct = [0] + [big_omega(n) for n in range(1, 100**2 + 2)]
    squares = [p * p + d for p in range(2, 101) if big_omega(p) == 1 for d in (-1, 0, 1)]
    for limit in [*range(2001), *squares]:
        assert big_omega_sieve(limit).tolist() == direct[:limit + 1], limit


def test_xi_partial_sum_values():
    assert xi_partial_sum(2, 1) == 1.0
    assert xi_partial_sum(2, 4) == pytest.approx(1 + 2 / 4 + 2 / 9 + 4 / 16)
    with pytest.raises(ValueError):
        xi_partial_sum(1.0, 100)


def test_xi_divergence_probe_grows():
    rows = xi_divergence_probe(1.0, [10, 100, 1000, 10000])
    sums = [r["partial_sum"] for r in rows]
    assert sums == sorted(sums)
    assert sums[-1] > sums[0] + 5  # visible unbounded growth


def test_xi_euler_product_values():
    assert xi_euler_product(2, 2) == pytest.approx(2.0)
    assert xi_euler_product(2, 3) == pytest.approx(18 / 7)
    with pytest.raises(ValueError):
        xi_euler_product(1.0, 5)  # p = 2 factor diverges


def test_xi_product_equals_smooth_series():
    prod = xi_euler_product(2, 5)
    series = xi_smooth_series(2, 5, 10**13)
    assert abs(prod - series) < 1e-9


def test_xi_smooth_series_tiny_case_by_hand():
    # 2-smooth n up to 8: 1, 2, 4, 8 with Omega 0, 1, 2, 3
    got = xi_smooth_series(2, 2, 8)
    assert got == pytest.approx(1 + 2 / 4 + 4 / 16 + 8 / 64)


def test_xi_sigma_probe_residual_bounded():
    rows = xi_sigma_probe([0.5, 0.2, 0.1, 0.05])
    for row in rows:
        assert abs(row["residual"]) < 10
        assert row["ratio"] > 0  # reported, no asserted limit
    with pytest.raises(ValueError):
        xi_sigma_probe([0.2, 0.5])  # must decrease


def test_witness_verdicts():
    r = mersenne_composite_witness(3, 2)  # q = 11
    assert r["verdict"] == "WITNESS" and r["divisor"] == 23
    assert (2**11 - 1) % 23 == 0
    r = mersenne_composite_witness(3, 3)  # q = 23
    assert r["verdict"] == "WITNESS" and r["divisor"] == 47
    r = mersenne_composite_witness(3, 1)  # q = 5 = 1 mod 4
    assert r["verdict"] == "NOT-APPLICABLE"
    assert "mod 4" in r["failed"]
    assert (2**5 - 1) % 11 != 0


def test_witness_condition_names():
    r = mersenne_composite_witness(5, 1)  # q = 9 composite
    assert r["failed"] == "q is not prime"
    r = mersenne_composite_witness(4, 2)  # q = 15 composite
    assert r["failed"] == "q is not prime"
    r = mersenne_composite_witness(1, 2)  # q = 3: divisor 7 IS 2^3 - 1
    assert r["verdict"] == "NOT-APPLICABLE"
    assert "equals" in r["failed"]


def test_witness_refuses_a_negative_n_before_the_shift():
    with pytest.raises(ValueError, match=r"^n must be >= 0, not -1$"):
        mersenne_composite_witness(3, -1)
