"""Acceptance criteria, one test per criterion, pinned values and tolerances.

Each test prints a single PASS line on success; pytest -v shows one
verdict line per criterion either way.
"""

import math
import random
import time

import numpy as np
import pytest

from primelab import counts, densities, goldbach, probes, schinzel, sieve
from primelab.cli import reproduce_paper
from primelab.residues import AdmissibleTuple, ResidueSpec


@pytest.fixture(scope="module")
def big_table():
    return sieve.table_for(10**7)


def test_criterion_01_golden_examples_reproduce():
    start = time.perf_counter()
    report = reproduce_paper()
    elapsed = time.perf_counter() - start
    assert report.params["mismatches"] == 0, [
        r for r in report.rows if not r["ok"]]
    assert elapsed < 60
    print(f"PASS criterion 1: all {len(report.rows)} golden examples "
          f"reproduced in {elapsed:.1f}s")


def test_criterion_02_legendre_exactness(big_table):
    start = time.perf_counter()
    true_pi = np.searchsorted(big_table.primes, np.arange(4, 10**5 + 1),
                              side="right")
    for i, x in enumerate(range(4, 10**5 + 1)):
        got = counts.legendre_pi(x, big_table).formula_value
        assert got == int(true_pi[i]), f"pi({x}): {got} != {true_pi[i]}"
    rng = random.Random(20260824)
    for _ in range(50):
        x = rng.randint(4, 10**7)
        got = counts.legendre_pi(x, big_table).formula_value
        assert got == big_table.count_upto(x), x
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(f"PASS criterion 2: legendre_pi exact on [4, 1e5] and 50 random "
          f"x <= 1e7 in {elapsed:.1f}s")


def _segmented_oracle_check(spec_factory, x_max, table):
    """Compare survivor_count with a cumulative direct count, segment-wise.

    The sieving-prime set is constant between consecutive prime squares,
    so one cumulative mask per segment serves every x inside it.
    """
    x = 4
    while x <= x_max:
        primes = [int(p) for p in sieve.sieving_prime_set(x, table)]
        # the segment runs until the next prime's square
        nxt = int(table.primes[table.count_upto(primes[-1])])
        seg_hi = min(x_max, nxt * nxt - 1)
        spec = spec_factory(primes)
        n = np.arange(1, seg_hi + 1, dtype=np.int64)
        mask = np.ones(seg_hi, dtype=bool)
        for p, forb in spec.entries:
            res = n % p
            for r in forb:
                mask &= res != r
        cumulative = np.cumsum(mask)
        for xi in range(x, seg_hi + 1):
            assert counts.survivor_count(xi, spec) == int(cumulative[xi - 1]), (
                spec_factory.__name__, xi)
        x = seg_hi + 1


def test_criterion_03_survivor_count_exactness(big_table):
    start = time.perf_counter()
    factories = [
        ResidueSpec.twins,
        ResidueSpec.sophie_germain,
        lambda primes: ResidueSpec.for_tuple((2, 6), primes),
        lambda primes: ResidueSpec.for_tuple((2, 6, 8), primes),
    ]
    for factory in factories:
        _segmented_oracle_check(factory, 10**4, big_table)
    print(f"PASS criterion 3: survivor_count exact for all x <= 1e4 across "
          f"twin / Sophie Germain / (2,6) / (2,6,8) specs "
          f"in {time.perf_counter() - start:.1f}s")


def test_criterion_04_goldbach_completeness(big_table):
    start = time.perf_counter()
    for two_n in range(6, 10**4 + 1, 2):
        got = goldbach.goldbach_enumerate(
            two_n, "EXACT", allow_zero_eta=True, table=big_table)
        want = goldbach.brute_goldbach_pairs(two_n, big_table)
        assert got == want, two_n
        assert got, f"no pair for {two_n}"
    print(f"PASS criterion 4: EXACT + zero-eta enumeration equals direct scan "
          f"for every even 2n in [6, 1e4] in {time.perf_counter() - start:.1f}s")


def test_criterion_05_span_scan(big_table):
    start = time.perf_counter()
    feasible = violations = 0
    for two_n in range(6, 5001, 2):
        rep = goldbach.span_report(two_n, big_table)
        if not rep.feasible:
            continue
        feasible += 1
        if not rep.span > rep.threshold:
            violations += 1
    assert violations == 0
    assert feasible > 100
    print(f"PASS criterion 5: span > M - 2n for all {feasible} feasible even "
          f"targets in [6, 5000] in {time.perf_counter() - start:.1f}s")


def test_criterion_06_estimator_bands(big_table):
    for x in (10**2, 10**3, 10**4, 10**5, 10**6):
        psi = densities.psi_estimate(x, big_table)
        assert 0.8 <= psi.estimate / psi.oracle <= 1.3, (x, psi)
        omega = densities.omega_estimate(x, big_table)
        assert 0.7 <= omega.estimate / omega.oracle <= 1.5, (x, omega)
    print("PASS criterion 6: psi/pi in [0.8, 1.3] and omega/T in [0.7, 1.5] "
          "at x = 1e2..1e6")


def test_criterion_07_bertrand_scans(big_table):
    start = time.perf_counter()
    twin = probes.twin_bertrand_scan(7, 10**4, table=big_table)
    assert twin.failures == ()
    plain = probes.bertrand_scan(2.0, 1, 10**5, table=big_table)
    assert plain.failures == ()
    print(f"PASS criterion 7: twin-Bertrand clean on [7, 1e4]; alpha=2 "
          f"Bertrand clean on [1, 1e5] in {time.perf_counter() - start:.1f}s")


def test_criterion_08_hl_inequality(big_table):
    start = time.perf_counter()
    scan = probes.hl_inequality_scan(1000, 1000, big_table)
    elapsed = time.perf_counter() - start
    assert scan.failures == ()
    assert elapsed < 30
    print(f"PASS criterion 8: pi(x+y) <= pi(x) + pi(y) exhaustively for "
          f"x, y <= 1000 in {elapsed:.1f}s")


def test_criterion_09_exponent_counts(big_table):
    start = time.perf_counter()
    for p in range(3, 1001, 2):
        if not sieve.is_prime(p, big_table):
            continue
        powers = [pow(2, q, p) for q in range(1, 65)]
        for u in (1, 13, 64):
            want_m = sum(1 for v in powers[:u] if v == 1)
            want_f = sum(1 for v in powers[:u] if v == p - 1)
            assert counts.mersenne_event_count(u, p) == want_m, (p, u)
            assert counts.fermat_event_count(u, p) == want_f, (p, u)
    m = counts.mersenne_exact_count(2**13, big_table)
    f = counts.fermat_exact_count(70000, big_table)
    assert m.oracle_value == 5 and m.formula_value == 5
    assert f.oracle_value == 5 and f.formula_value == 5
    print(f"PASS criterion 9: order-based exponent counts match direct "
          f"filtering (odd p <= 1000, u <= 64); 5 Mersenne <= 2^13 and "
          f"5 Fermat <= 70000 in {time.perf_counter() - start:.1f}s")


def test_criterion_10_xi_identity():
    product = probes.xi_euler_product(2, 5)
    series = probes.xi_smooth_series(2, 5, 10**13)
    assert abs(product - series) < 1e-9
    rows = probes.xi_sigma_probe([0.5, 0.2, 0.1, 0.05])
    for row in rows:
        assert abs(row["residual"]) < 10, row
        assert math.isfinite(row["ratio"])
    ratios = ", ".join(f"{r['ratio']:.3f}" for r in rows)
    print(f"PASS criterion 10: |product - series| = "
          f"{abs(product - series):.2e} < 1e-9; residual bounded; "
          f"ratio column: {ratios}")


def test_criterion_11_schinzel_filter_soundness():
    start = time.perf_counter()
    checked = 0
    for n in range(2, 31):
        for m in range(1, n):
            if math.gcd(m, n) != 1:
                continue
            a = schinzel.schinzel_search(m, n, 500)
            b = schinzel.naive_schinzel_search(m, n, 500)
            assert (a.k if a else None) == (b.k if b else None), (m, n)
            checked += 1
    print(f"PASS criterion 11: filtered == naive minimal k for all {checked} "
          f"coprime m < n <= 30 in {time.perf_counter() - start:.1f}s")


def test_criterion_12_witness_verdicts():
    for k, n, q, divisor in ((3, 2, 11, 23), (3, 3, 23, 47)):
        r = probes.mersenne_composite_witness(k, n)
        assert r["verdict"] == "WITNESS" and r["q"] == q
        assert (2**q - 1) % divisor == 0
    r = probes.mersenne_composite_witness(3, 1)
    assert r["q"] == 5 and r["verdict"] == "NOT-APPLICABLE"
    print("PASS criterion 12: q in {11, 23} -> WITNESS with verified "
          "divisibility; q = 5 -> NOT-APPLICABLE")
