import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primelab import probes
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
from primelab.sieve import SEGMENT_ODD_BITS, PrimeTable, is_prime, sieve_primes, table_for


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


def bertrand_by_n(alpha, n_min, n_max):
    """The scan's definition, n by n: no prime in (n, floor(alpha * n)]."""
    top = math.floor(alpha * n_max)
    pi = np.bincount(sieve_primes(top).primes, minlength=top + 1).cumsum()
    n = np.arange(n_min, n_max + 1)
    return tuple(n[pi[np.floor(alpha * n).astype(np.int64)] == pi[n]].tolist())


# at alpha = 17 / 14 and 29 / 25, ceil(q / alpha) - 1 misses the rounded floor(alpha * n) by one,
# down at q = 17 and up at q = 29
BERTRAND_ALPHAS = [1 + 2**-40, 1.001, 1.01, 17 / 14, 29 / 25, 1.2, 1.5, float(np.nextafter(2, 0)),
                   2.0]
# single points, n at p - 1 and at p around the gaps after 113 and 1327, and longer runs
BERTRAND_RANGES = [(1, 1), (2, 2), (1, 2), (112, 112), (113, 113), (112, 127), (126, 128),
                   (1326, 1362), (1327, 1327), (1, 3000), (9000, 10_000)]


@pytest.mark.parametrize("alpha", BERTRAND_ALPHAS)
def test_bertrand_scan_matches_its_definition(alpha):
    for n_min, n_max in BERTRAND_RANGES:
        want = bertrand_by_n(alpha, n_min, n_max)
        assert bertrand_scan(alpha, n_min, n_max).failures == want, (n_min, n_max)
        # a table reaching floor(alpha * n_max) exactly: the next prime may lie beyond it
        table = sieve_primes(math.floor(alpha * n_max))
        assert bertrand_scan(alpha, n_min, n_max, table).failures == want, (n_min, n_max)


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


def twin_by_x(alpha, x_min, x_max):
    """The twin scan's definition, x by x: no upper twin member in (x + 2, ceil(alpha * x) - 1]."""
    p = sieve_primes(max(math.ceil(alpha * x_max) - 1, x_max + 2)).primes
    uppers = p[1:][np.diff(p) == 2]
    x = np.arange(x_min, x_max + 1)
    below = uppers.searchsorted(np.ceil(alpha * x) - 1, "right")
    return tuple(x[below <= uppers.searchsorted(x + 2, "right")].tolist())


# the plain scan's alphas, and wider intervals than it allows
TWIN_ALPHAS = BERTRAND_ALPHAS + [2.5, 10.0]
# upper members 5, 7, 13, 19, ..., 661, 811, ...: single points and runs ending at x + 2 = 13, a
# run from 7 through small x, where ceil(alpha * (m' - 2)) - 1 < m' at alpha near 1 and a gap's
# run would reach past it, the gap after 661, and an x_max where ceil(alpha * x_max) - 1 is
# x_max itself at alpha = 1 + 2^-40
TWIN_RANGES = [(7, 7), (7, 12), (10, 11), (11, 11), (7, 250), (59, 72), (640, 662), (659, 830),
               (7, 3000), (9000, 10_000), (10**6 - 1000, 10**6)]


@pytest.mark.parametrize("alpha", TWIN_ALPHAS)
def test_twin_bertrand_scan_matches_its_definition_on_a_grid(alpha):
    for x_min, x_max in TWIN_RANGES:
        want = twin_by_x(alpha, x_min, x_max)
        assert twin_bertrand_scan(x_min, x_max, alpha).failures == want, (x_min, x_max)
        # a table reaching ceil(alpha * x_max) - 1 exactly: the next upper member may lie beyond it
        table = sieve_primes(math.ceil(alpha * x_max) - 1)
        assert twin_bertrand_scan(x_min, x_max, alpha, table).failures == want, (x_min, x_max)


@pytest.mark.parametrize("alpha", [1.01, 1.5, 2.0])
def test_twin_bertrand_scan_holds_no_array_per_x(alpha):
    table = sieve_primes(math.ceil(alpha * 10**6) + 2)
    tracemalloc.start()
    try:
        twin_bertrand_scan(7, 10**6, alpha, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20  # arrays over every x traced 30.6 MiB


@pytest.mark.parametrize("alpha", [1.01, 1.05, 1.1, 1.5, 2.0])
def test_twin_bertrand_matches_its_definition(alpha):
    def has_pair(x):  # a twin pair (p, p + 2) with x < p and p + 2 < alpha * x
        return any(p + 2 < alpha * x and is_prime(p) and is_prime(p + 2)
                   for p in range(x + 1, math.ceil(alpha * x)))
    want = tuple(x for x in range(7, 3001) if not has_pair(x))
    assert twin_bertrand_scan(7, 3000, alpha).failures == want
    assert bool(want) == (alpha < 2)  # the narrow intervals do fail


def test_hl_scan_boundary_equality():
    row = hl_identity_row(2, 2)
    assert row["pi_sum"] == 2 and row["pi_x"] + row["pi_y"] == 2
    assert hl_inequality_scan(50, 50).failures == ()


def hl_by_pairs(x_max, y_max, table):
    count = table.count_upto
    return tuple((x, y) for x in range(2, x_max + 1) for y in range(2, y_max + 1)
                 if count(x + y) > count(x) + count(y))


def sparse_then_dense(limit):
    """A table of 'primes' growing denser with n, so that pi(x + y) > pi(x) + pi(y) often; its
    bits, in PrimeTable's packed layout, hold the odd ones."""
    rng = np.random.default_rng(3)
    keep = rng.random(limit + 1) < np.linspace(0.1, 0.5, limit + 1)
    bits = np.zeros((limit + 16) // 16, dtype=np.uint8)
    odd = np.packbits(keep[1::2], bitorder="little")  # bit i for 2i + 1
    bits[: len(odd)] = odd
    return PrimeTable(limit, np.flatnonzero(keep), bits)


@pytest.mark.parametrize("cells", [probes._HL_BLOCK_CELLS, 300, 5])  # 300: two x-rows a block
@pytest.mark.parametrize("table, failing", [(sieve_primes(240), False),
                                            (sparse_then_dense(240), True)],
                         ids=["primes", "dense at the top"])
def test_hl_scan_matches_a_double_loop(monkeypatch, cells, table, failing):
    monkeypatch.setattr(probes, "_HL_BLOCK_CELLS", cells)
    for x_max, y_max in [(120, 120), (120, 2), (2, 120), (57, 33)]:
        want = hl_by_pairs(x_max, y_max, table)
        assert hl_inequality_scan(x_max, y_max, table).failures == want
    assert bool(hl_by_pairs(120, 120, table)) == failing


def test_hl_scan_compares_a_block_at_a_time():
    table = sieve_primes(6000)
    tracemalloc.start()
    try:
        assert hl_inequality_scan(3000, 3000, table).failures == ()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the whole 2999 x 2999 comparison would take about 45 MB


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


def test_big_omega_sieve_matches_direct_in_scatters_of_16(monkeypatch):
    monkeypatch.setattr(probes, "SEGMENT_ODD_BITS", 16)
    direct = [0] + [big_omega(n) for n in range(1, 5001)]
    for limit in (2, 3, 25, 100, 997, 5000):
        assert big_omega_sieve(limit).tolist() == direct[:limit + 1], limit


@pytest.mark.parametrize("bound, mib", [(SEGMENT_ODD_BITS, 8), (1 << 16, 2)])
def test_big_omega_sieve_temporaries_stay_bounded(monkeypatch, bound, mib):
    monkeypatch.setattr(probes, "SEGMENT_ODD_BITS", bound)
    table_for(2 * 10**6)  # the table is not the sieve's to count
    tracemalloc.start()
    try:
        omega = big_omega_sieve(2 * 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert omega.dtype == np.int64 and peak - omega.nbytes < mib * 2**20


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
    r = mersenne_composite_witness(5, 2)  # q = 19 = 3 mod 4, but 2q + 1 = 39 = 3 * 13
    assert r["failed"] == "2q + 1 is not prime"
    r = mersenne_composite_witness(1, 2)  # q = 3: divisor 7 IS 2^3 - 1
    assert r["verdict"] == "NOT-APPLICABLE"
    assert "equals" in r["failed"]


def test_witness_refuses_a_negative_n_before_the_shift():
    with pytest.raises(ValueError, match=r"^n must be >= 0, not -1$"):
        mersenne_composite_witness(3, -1)
