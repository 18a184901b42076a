import math
import threading
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from primelab import counts, crt, densities, goldbach, residues, schinzel, sieve
from primelab.counts import (
    brute_pi,
    brute_tuple_count,
    brute_twin_count,
    fermat_event_count,
    fermat_exact_count,
    legendre_pi,
    mersenne_event_count,
    mersenne_exact_count,
    multiplicative_order,
    survivor_count,
    tuple_count_formula,
    twin_count_formula,
)
from primelab.goldbach import brute_goldbach_pairs
from primelab.residues import AdmissibleTuple, ResidueSpec
from primelab.sieve import (SEGMENT_ODD_BITS, count_congruent, is_prime, sieve_primes,
                            sieving_prime_set)


def direct_survivors(x, spec):
    count = 0
    for n in range(1, x + 1):
        if all(n % p not in forb for p, forb in spec.entries):
            count += 1
    return count


def test_survivor_count_worked_values():
    twin = ResidueSpec.from_pairs([(2, (0,)), (3, (0, 2))])
    assert survivor_count(20, twin) == 4  # {1, 7, 13, 19}
    pi_spec = ResidueSpec.primes_only([2, 3])
    assert survivor_count(20, pi_spec) == 7  # {1,5,7,11,13,17,19}
    assert survivor_count(20, ResidueSpec(())) == 20


@given(st.integers(1, 3000))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_survivor_count_vs_direct(x):
    if x < 4:
        return
    primes = [int(p) for p in sieving_prime_set(x)]
    for spec in (
        ResidueSpec.twins(primes),
        ResidueSpec.sophie_germain(primes),
        ResidueSpec.for_tuple((2, 6), primes),
    ):
        assert survivor_count(x, spec) == direct_survivors(x, spec)


SPEC_FACTORIES = {
    "twin": ResidueSpec.twins,
    "sophie-germain": ResidueSpec.sophie_germain,
    "2-6": lambda primes: ResidueSpec.for_tuple((2, 6), primes),
    "2-6-8": lambda primes: ResidueSpec.for_tuple((2, 6, 8), primes),
}


def modulo_survivors(x, spec):
    """Running survivor counts over [1, x]: no strided marking.

    Each prime's keep pattern comes from n % p over one period, n = 1..p,
    and is tiled across the range.
    """
    keep = np.ones(x, dtype=bool)
    for p, forb in spec.entries:
        period = np.isin(np.arange(1, p + 1) % p, list(forb), invert=True)
        keep &= np.tile(period, -(-x // p))[:x]
    return np.cumsum(keep)


@pytest.mark.parametrize("name", SPEC_FACTORIES)
def test_survivor_count_across_the_leaf_cutoff(name):
    # around the window width W: one window, one full window, a 1-entry
    # second window, and a third window after two full ones
    width = SEGMENT_ODD_BITS
    factory = SPEC_FACTORIES[name]
    # each group shares one sieving-prime set, so one running count serves it
    for group in ((width - 1, width, width + 1), (2 * width + 3,)):
        spec = factory([int(p) for p in sieving_prime_set(group[-1])])
        running = modulo_survivors(group[-1], spec)
        for x in group:
            assert factory([int(p) for p in sieving_prime_set(x)]) == spec
            # the windows themselves: survivor_count would step from W - 1 to W and W + 1
            assert counts._survivor_windows(x, spec.entries) == running[x - 1], x


@pytest.mark.parametrize("name", SPEC_FACTORIES)
def test_survivor_count_splits_with_a_small_cutoff(name, monkeypatch):
    # windows of 16 entries: every x here spans several, each shorter than most sieving primes
    monkeypatch.setattr(counts, "avoiding_windows", partial(sieve.avoiding_windows, width=16))
    for x in [*range(4, 200), *range(200, 3001, 47), 2999, 3000]:
        spec = SPEC_FACTORIES[name]([int(p) for p in sieving_prime_set(x)])
        # the windows themselves: survivor_count would step over the consecutive x
        assert counts._survivor_windows(x, spec.entries) == modulo_survivors(x, spec)[-1], x


@pytest.fixture
def windows_calls(monkeypatch):
    """The x of every survivor_count call that took the windowed sieve, from a cleared last call."""
    calls = []
    windows = counts._survivor_windows

    def record(x, entries):
        calls.append(x)
        return windows(x, entries)

    monkeypatch.setattr(counts, "_survivor_windows", record)
    monkeypatch.setattr(counts, "_survivor_last", ((), 0, 0))
    return calls


def test_survivor_count_steps_within_the_bound_and_sieves_past_it(windows_calls):
    bound = counts._SURVIVOR_STEP
    spec = ResidueSpec.twins([int(p) for p in sieving_prime_set(2000)])  # six survivors in the walk below
    running = modulo_survivors(2000, spec)
    # steps of +1..+bound and -1..-bound, jumps just past the bound either way, then a far one
    block = [*range(1, bound + 1), -bound - 1, *range(-1, -bound - 1, -1), 2 * bound + 2]
    xs, sieved = [1000], [1000]
    for d in block * 40:
        xs.append(xs[-1] + d)
        if abs(d) > bound:
            sieved.append(xs[-1])
    xs += [1900, 1900 - bound]
    for x in xs:
        assert survivor_count(x, spec) == running[x - 1], x
    assert windows_calls == [*sieved, 1900]
    last = counts._survivor_last
    assert type(last) is tuple and last == (spec.entries, 1900 - bound, running[1900 - bound - 1])


def test_survivor_count_steps_only_under_equal_entries(windows_calls):
    primes = [int(p) for p in sieving_prime_set(5000)]
    twin, sophie = ResidueSpec.twins(primes), ResidueSpec.sophie_germain(primes)
    rebuilt = ResidueSpec(tuple(list(twin.entries)))  # the builders return their last spec itself
    assert rebuilt == twin and rebuilt.entries is not twin.entries
    running = {"twin": modulo_survivors(5000, twin), "sophie": modulo_survivors(5000, sophie)}
    calls = [(twin, "twin", 4000), (sophie, "sophie", 4000),  # the same x under another spec: sieve
             (twin, "twin", 4001),  # back to the first spec, whose count was replaced: sieve
             (rebuilt, "twin", 4002),  # equal entries in a new object: step
             (twin, "twin", 4000)]  # and back to the first object: step
    for spec, name, x in calls:
        assert survivor_count(x, spec) == running[name][x - 1], (name, x)
    assert windows_calls == [4000, 4000, 4001]


def test_survivor_count_is_0_at_and_below_0(windows_calls):
    spec = ResidueSpec.twins([2, 3])
    running = modulo_survivors(10, spec)
    for x in (3, -1, 2, 0, -4, 1, 4, 9, -100, -98, 2, 0):
        assert survivor_count(x, spec) == (running[x - 1] if x >= 1 else 0), x
    assert survivor_count(-(10**18), ResidueSpec(())) == 0
    # x <= 0 enters as 0, so no step counts an n < 1 and -100 is a jump from 9 but not from 4
    assert windows_calls == [3, 9, 0, 0]


@given(st.lists(st.tuples(st.sampled_from(sorted(SPEC_FACTORIES)), st.integers(-8, 8)),
                min_size=1, max_size=30),
       st.integers(-5, 600))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_survivor_steps_and_sieves_in_any_order_match_the_definition(moves, start):
    primes = [int(p) for p in sieving_prime_set(700)]
    specs = {name: factory(primes) for name, factory in SPEC_FACTORIES.items()}
    counts._survivor_last = ((), 0, 0)
    x = start
    for name, dx in moves:
        x += dx
        assert survivor_count(x, specs[name]) == (direct_survivors(x, specs[name]) if x >= 1 else 0), (name, x)


def test_survivor_count_under_two_interleaved_threads():
    # equal specs at x 2 apart: each thread steps from the other's calls as often as from its own
    primes = [int(p) for p in sieving_prime_set(10**4 + 302)]
    running = modulo_survivors(10**4 + 302, ResidueSpec.twins(primes))
    mismatches = []

    def run(start):
        spec = ResidueSpec.twins(primes)
        for x in range(start, start + 300):
            if survivor_count(x, spec) != running[x - 1]:
                mismatches.append(x)

    def yield_inside_survivor_count(frame, event, arg):  # hand the GIL over at every C call it makes
        if event == "c_call" and frame.f_code is counts.survivor_count.__code__:
            time.sleep(0)

    threading.setprofile(yield_inside_survivor_count)
    try:
        threads = [threading.Thread(target=run, args=(start,)) for start in (10**4, 10**4 + 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        threading.setprofile(None)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_survivor_counts_at_large_x():
    x = 10**7
    primes = [int(p) for p in sieving_prime_set(x)]
    assert len(primes) == 446
    pinned = {"twin": 58_898, "sophie-germain": 57_126, "2-6": 8_514, "2-6-8": 891}
    for name, value in pinned.items():
        assert survivor_count(x, SPEC_FACTORIES[name](primes)) == value, name
    # the unit and the primes above sqrt(x) survive: pi(x) - 446 + 1
    primes_only = survivor_count(x, ResidueSpec.primes_only(primes))
    assert primes_only == 664_134 == brute_pi(x) - len(primes) + 1
    # 1229 sieving primes, more than Python's default recursion limit;
    # pi(10^8) = 5 761 455 is the published value
    primes = [int(p) for p in sieving_prime_set(10**8)]
    assert survivor_count(10**8, ResidueSpec.primes_only(primes)) == 5_761_455 - 1229 + 1


def test_oracles_do_not_use_the_residue_windows(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an oracle reached the residue-window core")

    spec = ResidueSpec.twins([2, 3, 5, 7])  # built unpatched: survivor_count itself must refuse
    for module in (sieve, counts, crt, residues, densities, goldbach, schinzel):
        for name in ("avoiding_row", "avoiding_windows", "_form_entries",
                     "tuple_forbidden", "twin_forbidden", "sophie_forbidden"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    table = sieve_primes(20_000)
    assert brute_pi(10**5) == 9_592
    assert brute_pi(10**4, table) == 1_229
    assert brute_twin_count(10**4, table) == 205
    assert brute_tuple_count(10**4, (2, 6), table) == 55
    assert len(brute_goldbach_pairs(10_000, table)) == 127
    assert densities.brute_ap_prime_count(10**4, 1, 4, table) == 609
    assert densities.brute_ap_twin_count(10**4, 1, 6, table) == 200  # step 1
    assert densities.brute_ap_twin_count(10**4, 2, 3, table) == 211  # step 2
    monkeypatch.setattr(counts, "_survivor_last", ((), 0, 0))  # no step from an earlier test's call
    with pytest.raises(AssertionError, match="residue-window core"):  # the patch is live
        survivor_count(100, spec)
    with pytest.raises(AssertionError):
        residues.tuple_forbidden((2, 6), 5)
    for build in (lambda: ResidueSpec.sophie_germain([2, 3]),  # every binding of the linear-form rule
                  lambda: goldbach.build_split_plan(100, table).eta_spec(),
                  lambda: schinzel.lambda_filter(11, 13, [5])):
        with pytest.raises(AssertionError, match="residue-window core"):
            build()


def test_goldbach_oracle_and_certificate_stand_apart_from_the_stream(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("reached the CRT stream")

    def refuse_table(*args, **kwargs):
        raise AssertionError("read the prime table")

    # the candidate certificate binds neither residue-window function
    assert not hasattr(goldbach, "avoiding_row") and not hasattr(goldbach, "avoiding_windows")
    for module in (sieve, crt):
        for name in ("avoiding_row", "avoiding_windows"):
            monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(goldbach, "crt_enumerate", refuse)
    monkeypatch.setattr(goldbach, "crt_windows", refuse)
    monkeypatch.setattr(goldbach, "ResidueSpec", refuse)
    table = sieve_primes(20_000)
    assert len(brute_goldbach_pairs(10_000, table)) == 127
    # nor does the certificate read a prime table; 2n = 120's sieving primes are 2, 3, 5, 7
    monkeypatch.setattr(sieve.PrimeTable, "is_prime_array", refuse_table)
    primes = (2, 3, 5, 7)
    goldbach._certify(np.array([11, 13, 59]), 120, primes)
    with pytest.raises(AssertionError, match="^candidate 49 divisible by sieving prime 7$"):
        goldbach._certify(np.array([11, 49, 59]), 120, primes)
    with pytest.raises(AssertionError, match="^partner 77 of candidate 43 divisible by sieving prime 7$"):
        goldbach._certify(np.array([11, 43, 59]), 120, primes)
    with pytest.raises(AssertionError, match="read the prime table"):  # the patches are live
        table.is_prime_array(np.array([11]))
    with pytest.raises(AssertionError, match="reached the CRT stream"):
        goldbach.goldbach_enumerate(100, table=table)


def survivor_count_expanded(x, spec):
    """survivor_count by the paper's literal inclusion-exclusion over CRT classes: one
    count_congruent term per subset of struck residues, prod(1 + u_i) terms in all."""
    terms = [(1, 0, 1)]  # (sign, residue, modulus)
    for p, forb in spec.entries:
        new = []
        for sign, r, m in terms:
            new.append((sign, r, m))
            for f in forb:
                # CRT-combine n = r (mod m), n = f (mod p)
                delta = (f - r) * pow(m, -1, p) % p
                new.append((-sign, r + m * delta, m * p))
        terms = new
    return sum(sign * count_congruent(x, r % m, m) for sign, r, m in terms)


# capped at 1500: the flat expansion's term count grows exponentially in
# the number of sieving primes (3^11 * 2 terms for the twin spec at 1500)
@given(st.integers(4, 1500))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_expanded_agrees_with_windowed(x):
    primes = [int(p) for p in sieving_prime_set(x)]
    for spec in (ResidueSpec.twins(primes), ResidueSpec.primes_only(primes)):
        assert survivor_count_expanded(x, spec) == survivor_count(x, spec)


def test_legendre_pi_worked_values():
    assert legendre_pi(4).formula_value == 2
    assert legendre_pi(20).formula_value == 8
    assert legendre_pi(100).formula_value == 25
    with pytest.raises(ValueError):
        legendre_pi(3)


def test_legendre_pi_tail_is_k_minus_1():
    r = legendre_pi(20)
    assert r.corrections["tail_term"] == 1  # k = 2 sieving primes
    assert r.corrections["sieving_primes"] == 2


@given(st.integers(4, 50_000))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_legendre_pi_exact(x):
    assert legendre_pi(x).formula_value == brute_pi(x)


@pytest.mark.parametrize("k, pi", [(5, 9_592), (6, 78_498), (7, 664_579), (8, 5_761_455),
                                   (9, 50_847_534), (10, 455_052_511), (11, 4_118_054_813),
                                   (12, 37_607_912_018)])
def test_phi_floor_gives_the_published_pi_of_powers_of_ten(k, pi):
    primes = sieving_prime_set(10**k)
    assert counts._phi_floor(10**k, primes) + len(primes) - 1 == pi


def loop_only_phi(x, primes):
    """phi(x, k) by the floor-value recursion run over every prime, as _phi_floor was before it
    stopped at cbrt(x): the reference that checks its gather of the larger primes."""
    r = math.isqrt(x)
    small = np.arange(r + 1, dtype=np.int64)
    large = x // small.clip(1)
    for a, p in enumerate(primes.tolist(), 1):
        top = min(r, x // (p * p))
        inner = min(top, r // p)
        outer = x // (np.arange(inner + 1, top + 1, dtype=np.int64) * p)
        large[1:top + 1] -= np.concatenate((large[p:inner * p + 1:p], small[outer])) - a
        small[p * p:] -= small[np.arange(p * p, r + 1) // p] - a
    return int(large[1]) - len(primes)


def test_phi_floor_matches_the_loop_only_recursion_at_cubes_and_squares():
    cubes = [p**3 + d for p in sieve_primes(216).primes.tolist() for d in (-1, 0, 1)]
    squares = [p * p + d for p in sieve_primes(1000).primes.tolist() for d in (-1, 0, 1)]
    for x in sorted(set(cubes + squares) - {3}):
        primes = sieving_prime_set(x)
        assert counts._phi_floor(x, primes) == loop_only_phi(x, primes), x


def test_phi_floor_matches_the_loop_only_recursion_in_chunks_of_16(monkeypatch):
    # every chunk edge of both updates, below and above the seed's 13^3
    monkeypatch.setattr(counts, "_FLOOR_CHUNK", 16)
    xs = [*range(4, 3000, 7), 2196, 2197, 2198, *(p * p + d for p in (53, 257, 1009) for d in (-1, 0, 1)),
          12_582_917, 10**7]
    for x in xs:
        primes = sieving_prime_set(x)
        assert counts._phi_floor(x, primes) == loop_only_phi(x, primes), x


def test_phi_floor_matches_the_literal_legendre_sum_on_small_x():
    for x in range(4, 3001):
        primes = sieving_prime_set(x)
        assert counts._phi_floor(x, primes) == counts._floor_sum(x, primes.tolist(), (1,) * len(primes)), x


@given(st.integers(3, 24).flatmap(lambda e: st.integers(1 << (e - 1), 1 << e)))  # every octave to 2^24
@example((1 << 24) - 1)
@example(1 << 24)
@example(12_582_917)
@settings(max_examples=40, derandomize=True, deadline=None)
def test_phi_floor_gives_pi_in_every_octave(x):
    primes = sieving_prime_set(x)
    assert counts._phi_floor(x, primes) + len(primes) - 1 == brute_pi(x)


@pytest.mark.parametrize("x", [(1 << 24) - 1, 1 << 24, (1 << 24) + 1, 33_554_467, 71_234_567, 10**8])
def test_legendre_pi_exact_up_to_1e8(x):
    report = legendre_pi(x)
    assert report.formula_value == report.oracle_value


def test_phi_reads_no_oracle_on_either_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the formula reached the oracle")

    x = 10**6
    primes = sieving_prime_set(x + 65)  # 168 primes from 997^2 < x - 3 to 1009^2 > x + 65
    floor_calls = []

    def floor(*args):
        floor_calls.append(args[0])
        return phi_floor(*args)

    phi_floor = counts._phi_floor
    monkeypatch.setattr(counts, "_phi_floor", floor)
    monkeypatch.setattr(counts, "_phi_last", (0, 0, 0))
    for target in (counts, sieve):
        monkeypatch.setattr(target, "count_primes", refuse)
        monkeypatch.setattr(target, "is_prime", refuse)
    monkeypatch.setattr(counts, "brute_pi", refuse)
    for method in ("count_upto", "is_prime", "is_prime_array"):
        monkeypatch.setattr(sieve.PrimeTable, method, refuse)
    pi = {x: 78_498, x + 1: 78_498, x + 64: 78_502, x - 3: 78_498, x + 65: 78_502}
    for n, expected in pi.items():  # floor, steps of +1 and +63, then |dx| = 67 and 68
        assert counts._phi(n, primes) + len(primes) - 1 == expected, n
    assert floor_calls == [x, x - 3, x + 65]
    last = counts._phi_last
    assert type(last) is tuple and len(last) == 3 and last[:2] == (168, x + 65)


def remainder_table(lo, hi, primes):
    """The n in (lo, hi] coprime to every prime, by one remainder table, as _coprime_between was."""
    return int(np.count_nonzero((np.arange(lo + 1, hi + 1)[:, None] % primes).all(axis=1)))


@pytest.mark.parametrize("k", [1, 2, 25, 168, 1229])
def test_coprime_between_matches_the_remainder_table(k):
    primes = sieve_primes(10_000).primes[:k]
    for lo in (0, int(primes[-1]) ** 2 - 33, 10**6 + 12_345, 2**40 - 7):
        for hi in range(lo, lo + 65):
            assert counts._coprime_between(lo, hi, primes) == remainder_table(lo, hi, primes), (lo, hi)
    products = counts._phi_products
    assert products[0] == k and math.prod(products[1]) == math.prod(primes.tolist())
    counts._coprime_between(10**6, 10**6 + 64, primes)
    assert counts._phi_products is products  # built once per k


def test_phi_step_memory_is_bounded():
    x = 10**12
    primes = sieving_prime_set(x)  # 78 498 primes: a 64 x k remainder table takes 38 MiB
    tracemalloc.start()
    try:
        assert counts._coprime_between(x, x + 64, primes) == 3  # 10^12 + 39, + 61 and + 63
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


_SQUARE_PRIMES = sieve_primes(1000).primes.tolist()
_around_square = st.builds(lambda p, d: max(4, p * p + d), st.sampled_from(_SQUARE_PRIMES), st.integers(-70, 70))
_near = st.builds(lambda base, ds: [max(4, base + d) for d in ds],
                  _around_square, st.lists(st.integers(-70, 70), min_size=1, max_size=6))


@pytest.fixture(scope="module")
def table_to_1e6():
    return sieve_primes(1001**2)


@given(st.lists(st.one_of(_near, st.builds(lambda x: [x], st.integers(4, 10**6))), min_size=2, max_size=8))
@example([[10_131, 10_195, 10_131, 10_196, 10_204, 10_268, 10_203]])
@example([[961 - 64, 961, 961 + 64, 961], [10**6], [10**6 - 65, 10**6 - 1]])
@settings(max_examples=60, derandomize=True, deadline=None)
def test_phi_steps_and_floors_in_any_order_match_the_table(table_to_1e6, runs):
    # The examples step by +64 and -64, take floors at |dx| = 65 and where k
    # changes within 64 (across 101^2 and 31^2), and jump far.
    counts._phi_last = (0, 0, 0)
    for x in (x for run in runs for x in run):
        assert legendre_pi(x, table_to_1e6).formula_value == table_to_1e6.count_upto(x), x


def test_phi_under_two_interleaved_threads():
    table = sieve_primes(5 * 10**5 + 300)
    mismatches = []

    def run(start):
        for x in range(start, start + 300):
            report = legendre_pi(x, table)
            if report.formula_value != report.oracle_value:
                mismatches.append(x)

    def yield_inside_phi(frame, event, arg):  # hand the GIL over at every C call _phi makes
        if event == "c_call" and frame.f_code is counts._phi.__code__:
            time.sleep(0)

    threading.setprofile(yield_inside_phi)
    try:
        threads = [threading.Thread(target=run, args=(start,)) for start in (10**5, 5 * 10**5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        threading.setprofile(None)
    assert mismatches == []


def test_brute_pi_paths_agree_with_the_table():
    table = sieve_primes(300)
    for x in range(301):
        expected = len(sieve_primes(x).primes)
        assert brute_pi(x) == expected  # segmented count
        assert brute_pi(x, table) == expected  # the table reaches x
    assert brute_pi(-5) == 0


@pytest.mark.parametrize("x", [2 * SEGMENT_ODD_BITS + d for d in (-1, 0, 1, 2)]
                         + [4 * SEGMENT_ODD_BITS + 1])
def test_brute_pi_at_segment_edges(x):
    expected = len(sieve_primes(x).primes)
    assert brute_pi(x) == expected
    assert brute_pi(x, sieve_primes(1000)) == expected  # a table short of x is not grown


def test_brute_pi_leaves_the_shared_table_alone():
    before = sieve.table_for(1 << 16)
    assert brute_pi(before.limit + 1001) == len(sieve_primes(before.limit + 1001).primes)
    assert sieve._shared_table is before


def test_brute_pi_memory_is_bounded():
    tracemalloc.start()
    try:
        assert brute_pi(10**7) == 664_579
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # a PrimeTable to 1e7 peaks near 16 MB


def test_twin_formula_example_arithmetic():
    r = twin_count_formula(20)
    assert r.formula_value == 4
    assert r.oracle_value == 4
    # the uniform-floor variant reproduces the worked arithmetic 20-10+3+3-6-6=4
    assert r.corrections["paper_approx"] == 4


def test_twin_formula_small_values():
    assert twin_count_formula(10).oracle_value == 2
    assert twin_count_formula(100).oracle_value == 8
    with pytest.raises(ValueError):
        twin_count_formula(8)


def test_brute_twin_count_counts_upper_members():
    assert brute_twin_count(5) == 1  # (3, 5)
    assert brute_twin_count(7) == 2
    assert brute_twin_count(13) == 3


def test_brute_twin_count_memory_is_bounded_and_the_shared_table_untouched(monkeypatch):
    before = sieve_primes(1 << 16)  # the shared table as a process starts it, short of 1e7
    monkeypatch.setattr(sieve, "_shared_table", before)
    tracemalloc.start()
    try:
        assert brute_twin_count(10**7) == 58_980
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sieve._shared_table is before
    assert peak < 5.5 * 2**20  # a table to 1e7 peaked at 21.9 MB


def literal_pattern_count(x, offsets, table):
    """Per-prime reference: p <= x - b_last with every p + b prime."""
    return sum(1 for p in table.primes
               if p + offsets[-1] <= x and all(table.is_prime(int(p) + b) for b in offsets))


@pytest.mark.parametrize("limit", [2, 3, 4, 5, 100, 101, 1000, 1001])
def test_brute_pattern_oracles_match_literal_loop(limit):
    table = sieve_primes(limit)
    for x in range(limit + 1):
        assert brute_twin_count(x, table) == literal_pattern_count(x, (2,), table)
        for offsets in ((2,), (2, 6), (2, 6, 8), (1,)):
            want = literal_pattern_count(x, offsets, table)
            assert brute_tuple_count(x, offsets, table) == want


def subset_paper_approx(x):
    """The uniform-floor twin sum as a literal 2^k loop over subsets of the odd primes."""
    odd = [int(p) for p in sieving_prime_set(x) if p != 2]
    total = 0
    for mask in range(1 << len(odd)):
        m = math.prod(p for i, p in enumerate(odd) if mask >> i & 1)
        bits = bin(mask).count("1")
        total += (-2) ** bits * (x // m - x // (2 * m))
    return total


@given(st.integers(9, 2000))
@settings(max_examples=80, derandomize=True, deadline=None)
def test_paper_approx_is_the_subset_sum(x):
    r = twin_count_formula(x)
    want = subset_paper_approx(x) + r.corrections["small_range_addend"]
    assert r.corrections["paper_approx"] == want


def test_tuple_counts_worked_values():
    assert tuple_count_formula(20, AdmissibleTuple((2,))).oracle_value == 4
    assert tuple_count_formula(50, AdmissibleTuple((2, 6))).oracle_value == 4
    assert tuple_count_formula(20, AdmissibleTuple((2, 6, 8))).oracle_value == 2


def test_brute_tuple_count_matches_listing():
    # (5,7,11), (11,13,17), (17,19,23), (41,43,47)
    assert brute_tuple_count(50, (2, 6)) == 4
    # (5,7,11,13) needs x >= 13; (11,13,17,19) enters exactly at x = 19
    assert brute_tuple_count(18, (2, 6, 8)) == 1
    assert brute_tuple_count(19, (2, 6, 8)) == 2


def test_multiplicative_order_values():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(2, 3) == 2
    assert multiplicative_order(2, 11) == 10
    with pytest.raises(ValueError):
        multiplicative_order(14, 7)


@given(st.integers(3, 500), st.integers(2, 100))
@settings(max_examples=120, derandomize=True, deadline=None)
def test_order_divides_p_minus_1(p, a):
    if not is_prime(p) or a % p == 0:
        return
    d = multiplicative_order(a, p)
    assert (p - 1) % d == 0
    assert pow(a, d, p) == 1
    assert all(pow(a, e, p) != 1 for e in range(1, min(d, 40)))


def test_event_counts_worked_values():
    assert mersenne_event_count(10, 7) == 3  # ord 3: q = 3, 6, 9
    assert fermat_event_count(10, 5) == 3  # q = 2, 6, 10
    assert fermat_event_count(10, 7) == 0  # odd order: -1 never hit


def test_mersenne_exact_counts():
    assert mersenne_exact_count(8).oracle_value == 2  # 3 and 7
    r = mersenne_exact_count(2**13)
    assert r.formula_value == 5 and r.oracle_value == 5
    # each count moves at x = 2^p - 1 itself: 7 counts 3 and 7
    for x, count in ((7, 2), (31, 3), (127, 4), (8191, 5), (2**31 - 1, 8)):
        r = mersenne_exact_count(x)
        assert (r.formula_value, r.oracle_value) == (count, count), x


def test_fermat_exact_counts():
    r = fermat_exact_count(70000)
    assert r.formula_value == 5 and r.oracle_value == 5  # 3,5,17,257,65537
    # the paper's literal lambda - 1 tail would undercount by 1
    assert r.corrections["paper_literal_tail"] == r.corrections["small_range_addend"] - 1
    # x = 2^q is below the next candidate 2^q + 1: 4 counts 3 alone
    for x, count in ((4, 1), (16, 2), (256, 3), (65_536, 4)):
        r = fermat_exact_count(x)
        assert (r.formula_value, r.oracle_value) == (count, count), x


def reference_events(bound, u, sign):
    """The per-prime multiplicative_order loop that the doubling walk replaced."""
    events = []
    for p in sieving_prime_set(bound):
        if p == 2:
            continue
        d = multiplicative_order(2, int(p))
        if sign > 0 and d % 2:
            continue  # 2^q = -1 (mod p) needs an even order
        first = d if sign < 0 else d // 2  # least q with p | 2^q + sign
        if first <= u:
            events.append((first % d, d))
    return events


EXPONENT_XS = sorted(set(range(4, 5001))
                     | {10**k + d for k in range(1, 11) for d in (-1, 1)}
                     | {2**k + d for k in range(3, 37) for d in (-1, 1)})


@pytest.mark.parametrize("sign", [-1, 1])
def test_exponent_walk_matches_the_order_loop(sign):
    for x in EXPONENT_XS:
        u = (x - sign).bit_length() - 1  # the largest q with 2^q + sign <= x
        assert counts._exponent_events(x, u, sign, None) == reference_events(x, u, sign), x
        assert counts._exponent_count(x, sign, None).delta == 0, x


def test_exponent_walk_memory_does_not_grow_with_the_primes():
    table = sieve_primes(10**6)
    tracemalloc.start()
    try:
        events = counts._exponent_events(10**12, 39, -1, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert events == reference_events(10**12, 39, -1)
    assert peak < 2**20  # the walk over all 78 497 odd primes at once peaked at 2.40 MB


def test_exponent_counts_match_the_brute_counts_by_value():
    xs = sorted({*EXPONENT_XS, *(2**k + d for k in range(3, 41) for d in range(-2, 3))})
    for count, brute in ((mersenne_exact_count, densities.brute_mersenne_count),
                         (fermat_exact_count, densities.brute_fermat_count)):
        for x in xs:
            report = count(x)
            assert report.formula_value == report.oracle_value == brute(x), (count.__name__, x)


def test_fermat_addend_moves_at_the_square_of_a_fermat_prime():
    # the sieve reads the odd primes <= sqrt(x), so a Fermat prime F joins the
    # small-range addend at x = F^2 (9 = 3^2 is also 2^3 + 1)
    for x, addend in ((8, 0), (9, 1), (24, 1), (25, 2), (288, 2), (289, 3), (66_048, 3), (66_049, 4)):
        report = fermat_exact_count(x)
        assert report.corrections["small_range_addend"] == addend, x
        assert report.formula_value == report.oracle_value, x


@given(st.integers(16, 100_000))
@settings(max_examples=40, derandomize=True, deadline=None)
def test_exponent_sieves_match_oracles(x):
    m = mersenne_exact_count(x)
    assert m.formula_value == m.oracle_value
    f = fermat_exact_count(x)
    assert f.formula_value == f.oracle_value
