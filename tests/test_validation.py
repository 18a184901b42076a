"""Public validation and fallback branches, one call each: the exception and message raised,
or the value returned, as each behaves today."""

import re

import pytest

from primelab import counts, crt, densities, goldbach, probes, reporting, residues, schinzel, sieve
from primelab.densities import EstimateReport

THREE_KEEPS_1 = residues.ResidueSpec.from_pairs([(3, [0, 2])])

RAISES = [
    (lambda: sieve.sieve_primes(100).count_upto(101), ValueError, "101 exceeds table limit 100"),
    (lambda: THREE_KEEPS_1.allowed(5), KeyError, "5"),
    (lambda: residues.ap_residue_sequence(1, 1, 5).constant, ValueError, "not a constant cycle"),
    (lambda: list(crt.crt_windows(THREE_KEEPS_1, -1, 5)), ValueError,
     "range must satisfy 0 <= lo <= hi"),
    pytest.param(lambda: list(crt.crt_windows(THREE_KEEPS_1, -3, -5)), ValueError,
                 "range must satisfy 0 <= lo <= hi", id="crt_windows-lo-below-0-and-hi"),
    (lambda: crt.CongruenceSystem(((0, 0),)), ValueError, "moduli must be positive"),
    (lambda: list(reporting.report_parts(reporting.Report("x"), "xml")), ValueError,
     "unknown format 'xml'"),
    (lambda: goldbach.goldbach_enumerate(100, "FAST"), ValueError,
     "mode must be EXACT or GUIDED, not 'FAST'"),
    (lambda: goldbach.split_remainder(5, 3), ValueError, "residue 5 out of range for modulus 3"),
    (lambda: goldbach.fixed_prefix_candidates(100, (1, 2, 2, 3)), ValueError,
     "fixed prefix must leave at least one free prime"),
    (lambda: goldbach.goldbach_refine(100, 90), ValueError, "t must exceed the even target"),
    (lambda: goldbach.partition_probe({2}, {3}, {2: 1, 3: 1}, 0), ValueError,
     "sign must be +1 or -1"),
    (lambda: goldbach.partition_probe({2}, {3}, {2: 1}, 1), ValueError,
     "every prefix prime needs an exponent >= 1"),
    (lambda: counts.multiplicative_order(2, 9), ValueError, "9 is not prime"),
    (lambda: probes.xi_partial_sum(2, 0), ValueError, "need at least one term"),
    pytest.param(lambda: probes.xi_partial_sum(float("nan"), 100), ValueError,
                 "s must be finite, not nan", id="xi_partial_sum-nan"),
    pytest.param(lambda: probes.xi_partial_sum(float("inf"), 100), ValueError,
                 "s must be finite, not inf", id="xi_partial_sum-inf"),
    pytest.param(lambda: probes.xi_divergence_probe(float("nan"), [10]), ValueError,
                 "s must be finite, not nan", id="xi_divergence_probe-nan"),
    pytest.param(lambda: probes.xi_divergence_probe(float("-inf"), [10]), ValueError,
                 "s must be finite, not -inf", id="xi_divergence_probe--inf"),
    pytest.param(lambda: probes.twin_bertrand_scan(7, 100, float("inf")), ValueError,
                 "alpha must be finite and exceed 1, not inf", id="twin_bertrand_scan-inf"),
    pytest.param(lambda: probes.twin_bertrand_scan(7, 100, float("nan")), ValueError,
                 "alpha must be finite and exceed 1, not nan", id="twin_bertrand_scan-nan"),
    (lambda: residues.remainder_sequence(5, []), ValueError, "primes must be nonempty"),
    pytest.param(lambda: residues.ResidueSpec.from_pairs([(0, [1])]), ValueError,
                 "modulus 0 is below 1", id="from_pairs-modulus-0-striking-1"),
    pytest.param(lambda: residues.ResidueSpec.from_pairs([(0, [])]), ValueError,
                 "modulus 0 is below 1", id="from_pairs-modulus-0"),
    pytest.param(lambda: residues.ResidueSpec.from_pairs([(-3, [])]), ValueError,
                 "modulus -3 is below 1", id="from_pairs-modulus--3"),
    pytest.param(lambda: residues.ResidueSpec.from_pairs([(3, residues.Kept(5, frozenset({1})))]),
                 ValueError, "residues kept mod 5 stand at modulus 3", id="from_pairs-kept-mod-5-at-3"),
    (lambda: schinzel.verify_shifted_quotient(1, 1, 1, 1), ValueError, "p, q must be >= 2"),
    # each formula's x = 3 refusal is sieving_prime_set's, raised before any other work
    *(pytest.param(call, ValueError, "x must be >= 4", id=f"{name}-x-3") for name, call in (
        ("legendre_pi", lambda: counts.legendre_pi(3)),
        ("tuple_count_formula", lambda: counts.tuple_count_formula(3, residues.AdmissibleTuple((2,)))),
        ("mersenne_exact_count", lambda: counts.mersenne_exact_count(3)),
        ("fermat_exact_count", lambda: counts.fermat_exact_count(3)),
        ("psi_estimate", lambda: densities.psi_estimate(3)))),
    *(pytest.param(call, ValueError, "x must be >= 9", id=f"{name}-x-8") for name, call in (
        ("omega_estimate", lambda: densities.omega_estimate(8)),
        ("omega_k_estimate", lambda: densities.omega_k_estimate(8, residues.AdmissibleTuple((2,)))),
        ("mersenne_estimate", lambda: densities.mersenne_estimate(8)),
        ("fermat_estimate", lambda: densities.fermat_estimate(8)))),
    pytest.param(lambda: sieve.count_congruent(5, 0, 0), ValueError, "modulus must be >= 1",
                 id="count_congruent-modulus-0"),
    pytest.param(lambda: sieve.count_congruent(5, 3, 3), ValueError,
                 "residue 3 out of range for modulus 3", id="count_congruent-residue-3-mod-3"),
    pytest.param(lambda: densities.ap_psi_estimate(100, 1, 0), ValueError, "b must be positive",
                 id="ap_psi_estimate-b-0"),
    pytest.param(lambda: densities.ap_psi_estimate(5, 5, 2), ValueError, "x must exceed a",
                 id="ap_psi_estimate-x-5-a-5"),
    pytest.param(lambda: densities.twin_constant_probe([99]), ValueError,
                 "grid points must be >= 100", id="twin_constant_probe-99"),
    pytest.param(lambda: probes.bertrand_scan(2, 5, 4), ValueError, "need 1 <= n_min <= n_max",
                 id="bertrand_scan-n_max-below-n_min"),
    pytest.param(lambda: probes.twin_bertrand_scan(10, 9), ValueError, "x_max must be >= x_min",
                 id="twin_bertrand_scan-x_max-below-x_min"),
    pytest.param(lambda: probes.hl_inequality_scan(1, 5), ValueError, "x_max, y_max must be >= 2",
                 id="hl_inequality_scan-x_max-1"),
    pytest.param(lambda: probes.xi_divergence_probe(1.5, [10]), ValueError,
                 "divergence probe is for s <= 1", id="xi_divergence_probe-s-1.5"),
    pytest.param(lambda: probes.xi_divergence_probe(1, [0, 10]), ValueError,
                 "grid must contain positive integers", id="xi_divergence_probe-grid-0"),
    pytest.param(lambda: probes.xi_euler_product(2, 1), ValueError, "p_max must be >= 2",
                 id="xi_euler_product-p_max-1"),
    pytest.param(lambda: probes.xi_smooth_series(1, 10), ValueError, "s must exceed 1",
                 id="xi_smooth_series-s-1"),
    pytest.param(lambda: probes.xi_smooth_series(2, 10, 0), ValueError, "n_max must be >= 1",
                 id="xi_smooth_series-n_max-0"),
    pytest.param(lambda: probes.xi_sigma_probe([1.0]), ValueError, "each sigma must lie in (0, 1)",
                 id="xi_sigma_probe-sigma-1"),
    pytest.param(lambda: probes.mersenne_composite_witness(1, 1), ValueError,
                 "q = k * 2^n - 1 must be >= 3", id="mersenne_composite_witness-q-1"),
    pytest.param(lambda: residues.ap_residue_sequence(1, 0, 5), ValueError,
                 "common difference b must be positive", id="ap_residue_sequence-b-0"),
    pytest.param(lambda: residues.AdmissibleTuple((0, 2)), ValueError, "offsets must be positive",
                 id="AdmissibleTuple-offset-0"),
    pytest.param(lambda: schinzel.schinzel_search(1, 2, 0), ValueError,
                 "m, n, k_max must be positive", id="schinzel_search-k_max-0"),
    pytest.param(lambda: schinzel.naive_schinzel_search(0, 2, 1), ValueError,
                 "m, n, k_max must be positive", id="naive_schinzel_search-m-0"),
]

VALUES = [
    (lambda: schinzel.naive_schinzel_search(1, 2, 1), None),
    (lambda: [r.moduli for r in schinzel.remainder_tables(1, 1, 1)], [(2,), (2,)]),
    (lambda: sieve.count_congruent(5, 7, 10), 0),
    (lambda: residues.is_admissible((6, 2)), False),
    (lambda: EstimateReport(10, 1.0, 0).ratio, None),
    pytest.param(lambda: sieve.count_congruent(0, 0, 1), 0, id="count_congruent-x-0"),
]


@pytest.mark.parametrize("call, error, message", RAISES)
def test_public_call_raises(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


@pytest.mark.parametrize("call, value", VALUES)
def test_public_call_returns(call, value):
    assert call() == value
