"""primelab: exact prime counting, CRT candidate search, and conjecture probes.

Exact machinery (sieves, inclusion-exclusion counts, CRT enumeration) is
kept strictly separate from heuristics (density products, asymptotic
probes): every heuristic result carries a brute-force oracle beside it,
and every "certified" primality claim rests on a trial-division argument.
"""

from .counts import (
    CountReport,
    brute_pi,
    brute_tuple_count,
    brute_twin_count,
    fermat_exact_count,
    legendre_pi,
    mersenne_exact_count,
    multiplicative_order,
    survivor_count,
    survivor_count_expanded,
    tuple_count_formula,
    twin_count_formula,
)
from .crt import (
    CongruenceSystem,
    CrtSolution,
    NonCoprimeModuliError,
    choice_count,
    crt_enumerate,
    crt_solve,
)
from .densities import (
    EstimateReport,
    ap_omega_estimate,
    ap_psi_estimate,
    fermat_estimate,
    mersenne_estimate,
    omega_estimate,
    omega_k_estimate,
    primitive_root_census,
    psi_estimate,
    twin_constant,
    twin_constant_probe,
)
from .goldbach import (
    SpanReport,
    SplitPlan,
    TwinPair,
    brute_goldbach_pairs,
    build_split_plan,
    goldbach_enumerate,
    goldbach_refine,
    partition_probe,
    span_report,
    split_remainder,
    twin_crt_search,
)
from .probes import (
    ScanResult,
    bertrand_scan,
    big_omega,
    hl_inequality_scan,
    mersenne_composite_witness,
    twin_bertrand_scan,
    xi_euler_product,
    xi_partial_sum,
    xi_sigma_probe,
    xi_smooth_series,
)
from .reporting import Report, format_report
from .residues import (
    AdmissibleTuple,
    ResidueSpec,
    ap_residue_sequence,
    is_admissible,
    remainder_sequence,
    sophie_forbidden,
    tight_tuples,
    tuple_forbidden,
    twin_forbidden,
)
from .schinzel import (
    SchinzelResult,
    lambda_filter,
    naive_schinzel_search,
    schinzel_search,
    verify_shifted_quotient,
)
from .sieve import (
    CacheChecksumError,
    CacheError,
    CacheMagicError,
    CacheTruncatedError,
    PrimeTable,
    count_congruent,
    count_primes,
    is_prime,
    load_cache,
    save_cache,
    sieve_primes,
    sieving_prime_set,
)

__version__ = "0.1.0"
