"""Public validation and fallback branches, one call each: the exception and message raised,
or the value returned, as each behaves today."""

import re

import pytest

from primelab import counts, crt, goldbach, probes, reporting, residues, schinzel, sieve
from primelab.densities import EstimateReport

THREE_KEEPS_1 = residues.ResidueSpec.from_pairs([(3, [0, 2])])

RAISES = [
    (lambda: sieve.sieve_primes(100).count_upto(101), ValueError, "101 exceeds table limit 100"),
    (lambda: THREE_KEEPS_1.allowed(5), KeyError, "5"),
    (lambda: residues.ap_residue_sequence(1, 1, 5).constant, ValueError, "not a constant cycle"),
    (lambda: list(crt.crt_windows(THREE_KEEPS_1, -1, 5)), ValueError,
     "range must satisfy 0 <= lo <= hi"),
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
    (lambda: residues.remainder_sequence(5, []), ValueError, "primes must be nonempty"),
    (lambda: schinzel.verify_shifted_quotient(1, 1, 1, 1), ValueError, "p, q must be >= 2"),
]

VALUES = [
    (lambda: schinzel.naive_schinzel_search(1, 2, 1), None),
    (lambda: [r.moduli for r in schinzel.remainder_tables(1, 1, 1)], [(2,), (2,)]),
    (lambda: sieve.count_congruent(5, 7, 10), 0),
    (lambda: residues.is_admissible((6, 2)), False),
    (lambda: EstimateReport(10, 1.0, 0).ratio, None),
]


@pytest.mark.parametrize("call, error, message", RAISES)
def test_public_call_raises(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


@pytest.mark.parametrize("call, value", VALUES)
def test_public_call_returns(call, value):
    assert call() == value
