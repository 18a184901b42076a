"""primelab: exact prime counting, CRT candidate search, and conjecture probes.

Exact machinery (sieves, inclusion-exclusion counts, CRT enumeration) is
kept strictly separate from heuristics (density products, asymptotic
probes): every heuristic result carries a brute-force oracle beside it,
and every "certified" primality claim rests on a trial-division argument.

``import primelab`` loads none of the modules below (and so not numpy).
The first use of any exported name loads them all and binds every name
here (PEP 562), so later uses are plain attribute reads.
"""

_EXPORTS = {
    "counts": ("CountReport", "brute_pi", "brute_tuple_count", "brute_twin_count",
               "fermat_exact_count", "legendre_pi", "mersenne_exact_count",
               "multiplicative_order", "survivor_count", "tuple_count_formula",
               "twin_count_formula"),
    "crt": ("CongruenceSystem", "CrtSolution", "choice_count", "crt_enumerate", "crt_solve"),
    "densities": ("EstimateReport", "ap_omega_estimate", "ap_psi_estimate", "fermat_estimate",
                  "mersenne_estimate", "omega_estimate", "omega_k_estimate",
                  "primitive_root_census", "psi_estimate", "twin_constant",
                  "twin_constant_probe"),
    "goldbach": ("SpanReport", "SplitPlan", "TwinPair", "brute_goldbach_pairs",
                 "build_split_plan", "goldbach_enumerate", "goldbach_refine", "partition_probe",
                 "span_report", "split_remainder", "twin_crt_search"),
    "probes": ("ScanResult", "bertrand_scan", "big_omega", "hl_inequality_scan",
               "mersenne_composite_witness", "twin_bertrand_scan", "xi_euler_product",
               "xi_partial_sum", "xi_sigma_probe", "xi_smooth_series"),
    "reporting": ("Report", "format_report"),
    "residues": ("AdmissibleTuple", "NonCoprimeModuliError", "ResidueSpec", "ap_residue_sequence",
                 "is_admissible", "remainder_sequence", "sophie_forbidden", "tight_tuples",
                 "tuple_forbidden", "twin_forbidden"),
    "schinzel": ("SchinzelResult", "lambda_filter", "naive_schinzel_search", "schinzel_search",
                 "verify_shifted_quotient"),
    "sieve": ("CacheChecksumError", "CacheError", "CacheMagicError", "CacheTruncatedError",
              "PrimeTable", "count_congruent", "count_primes", "is_prime", "load_cache",
              "save_cache", "sieve_primes", "sieving_prime_set"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in __all__:  # submodule names too: the import system then loads the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    for module, names in _EXPORTS.items():
        loaded = import_module(f"{__name__}.{module}")
        globals().update((n, getattr(loaded, n)) for n in names)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
