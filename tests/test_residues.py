import gc
import itertools
import math
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from primelab import goldbach, residues, schinzel, sieve
from primelab.residues import (
    AdmissibleTuple,
    NonCoprimeModuliError,
    ResidueSpec,
    _form_entries,
    ap_residue_sequence,
    is_admissible,
    remainder_sequence,
    sophie_forbidden,
    tight_tuples,
    tuple_forbidden,
    twin_forbidden,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]
PRIMES_TO_2000 = sieve.sieve_primes(2000).primes.tolist()
PRIMES_TO_60 = [p for p in PRIMES_TO_2000 if p <= 60]


def test_twin_forbidden_values():
    assert twin_forbidden(2) == {0}
    assert twin_forbidden(3) == {0, 2}
    assert twin_forbidden(5) == {0, 2}
    with pytest.raises(ValueError):
        twin_forbidden(9)


def test_sophie_forbidden_values():
    assert sophie_forbidden(2) == {0}
    assert sophie_forbidden(3) == {0, 1}
    assert sophie_forbidden(5) == {0, 2}
    assert sophie_forbidden(7) == {0, 3}


def test_sophie_forbidden_is_the_2b_plus_1_class():
    for p in SMALL_PRIMES[1:]:
        (beta,) = sophie_forbidden(p) - {0}
        assert (2 * beta + 1) % p == 0


def test_tuple_forbidden_for_2_6_8():
    # shifted variable n = p' + 8 must avoid (8 - b) mod p for b in {0,2,6,8}
    assert tuple_forbidden((2, 6, 8), 2) == {0}
    assert tuple_forbidden((2, 6, 8), 3) == {0, 2}
    assert tuple_forbidden((2, 6, 8), 5) == {0, 1, 2, 3}
    assert tuple_forbidden((2, 6, 8), 7) == {0, 1, 2, 6}
    # from p = 7 on the four residues stay distinct
    for p in (7, 11, 13):
        assert len(tuple_forbidden((2, 6, 8), p)) == 4


def test_tuple_forbidden_reduces_to_twin():
    primes = [p for p in range(2, 101) if all(p % d for d in range(2, p))]
    for p in primes:
        assert tuple_forbidden((2,), p) == twin_forbidden(p) == {0, 2 % p}
    assert ResidueSpec.twins(primes) == ResidueSpec.for_tuple((2,), primes)


def test_tuple_forbidden_returns_a_full_set_where_the_offsets_cover_every_class():
    # not routed through ResidueSpec, which would refuse "no residue survives mod 3"
    assert tuple_forbidden((2, 4), 3) == {0, 1, 2}
    assert is_admissible((2, 4)) is False


linear_forms = st.tuples(st.integers(-30, 30).filter(bool), st.integers(-100, 100))  # (a, b), a != 0


@given(st.lists(linear_forms, min_size=1, max_size=4))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_form_entries_strike_the_n_where_p_divides_a_form(forms):
    # the precondition: no form with p | a and p | b
    primes = [p for p in PRIMES_TO_60 if not any(a % p == 0 == b % p for a, b in forms)]
    entries = _form_entries(forms, primes)
    assert [p for p, _ in entries] == primes
    for p, struck in entries:
        assert struck == {n for n in range(p) if any((a * n + b) % p == 0 for a, b in forms)}


def test_builders_give_the_closed_form_struck_sets():
    ps = PRIMES_TO_2000
    assert ResidueSpec.twins(ps).entries == tuple((p, {0, 2 % p}) for p in ps)
    assert ResidueSpec.sophie_germain(ps).entries == (
        (2, {0}), *((p, {0, (p - 1) // 2}) for p in ps[1:]))
    for offsets in ((2,), (2, 6), (4, 6), (2, 6, 8)):
        assert ResidueSpec.for_tuple(offsets, ps).entries == tuple(
            (p, {(offsets[-1] - b) % p for b in (0, *offsets)}) for p in ps)
    assert ResidueSpec.primes_only(ps).entries == tuple((p, {0}) for p in ps)


def test_eta_spec_strikes_zero_and_the_target_mod_every_prime():
    ps = tuple(PRIMES_TO_2000)
    for two_n in range(6, 2001, 2):
        plan = goldbach.SplitPlan(two_n, ps)
        assert plan.eta_spec().entries == tuple((p, {0, two_n % p}) for p in ps)
        built = goldbach.build_split_plan(two_n)
        assert built.eta_spec().entries == tuple((p, {0, two_n % p}) for p in built.primes)


@pytest.mark.parametrize("m, n", [(11, 13), (1, 8), (3, 5), (7, 30), (1, 1)])
def test_lambda_filter_strikes_the_inverses_of_2m_and_2n(m, n):
    ps = PRIMES_TO_2000
    want = tuple((p, {pow(2 * c, -1, p) for c in (m, n) if 2 * c % p}) for p in ps)
    assert schinzel.lambda_filter(m, n, ps).entries == want


def test_ap_residue_sequence_permutation():
    cycle = ap_residue_sequence(3, 4, 5)
    assert cycle.kind == "PERMUTATION"
    assert sorted(cycle.values) == [0, 1, 2, 3, 4]


def test_ap_residue_sequence_constant():
    cycle = ap_residue_sequence(3, 10, 5)
    assert cycle.kind == "CONSTANT"
    assert cycle.constant == 3


@given(st.integers(0, 100), st.integers(1, 100))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_ap_residue_cycle_against_direct(a, b):
    for p in (2, 3, 7):
        cycle = ap_residue_sequence(a, b, p)
        direct = [(a + k * b) % p for k in range(2 * p)]
        if cycle.kind == "CONSTANT":
            assert set(direct) == {cycle.constant}
        else:
            assert direct[:p] == list(cycle.values)
            assert direct[p:] == list(cycle.values)  # period p


def test_is_admissible_known_cases():
    assert is_admissible((2,))
    assert is_admissible((2, 6))
    assert is_admissible((4, 6))
    assert is_admissible((2, 6, 8))
    assert not is_admissible((2, 4))  # covers all residues mod 3
    assert not is_admissible((2, 4, 6))
    assert not is_admissible((1,))  # 0,1 covers mod 2


def test_is_admissible_matches_the_definition():
    # {0} union offsets must miss a class mod every prime q <= k, checked here by hand
    for size in range(4):
        for offsets in itertools.combinations(range(1, 31), size):
            k = len(offsets) + 1
            want = all(len({0, *(b % q for b in offsets)}) < q for q in (2, 3, 5) if q <= k)
            assert is_admissible(offsets) is want, offsets


def test_admissible_tuple_validation():
    with pytest.raises(ValueError):
        AdmissibleTuple((2, 4))
    with pytest.raises(ValueError):
        AdmissibleTuple((6, 2))
    t = AdmissibleTuple((2, 6, 8))
    assert t.k == 4
    assert t.diameter == 8


def test_tight_tuples():
    assert [t.offsets for t in tight_tuples(2)] == [(2,)]
    assert [t.offsets for t in tight_tuples(3)] == [(2, 6), (4, 6)]
    assert [t.offsets for t in tight_tuples(4)] == [(2, 6, 8)]
    five = [t.offsets for t in tight_tuples(5)]
    assert all(t[-1] == five[0][-1] for t in five)
    with pytest.raises(ValueError):
        tight_tuples(6)


def test_residue_spec_validation_and_allowed():
    spec = ResidueSpec.twins(SMALL_PRIMES)
    assert spec.cardinalities() == (1, 2, 2, 2, 2, 2)
    assert spec.allowed(3) == {1}
    with pytest.raises(ValueError):
        ResidueSpec.from_pairs([(3, (0, 1, 2))])  # nothing survives
    with pytest.raises(ValueError):
        ResidueSpec.from_pairs([(3, (0,)), (2, (0,))])  # not increasing


@given(st.lists(st.tuples(st.integers(2, 60), st.integers(0, 59)), max_size=6))
@example([(4, 0), (3, 0), (6, 0)])  # 4 and 6 share 2, though 3 breaks the order between them
@settings(max_examples=300, derandomize=True, deadline=None)
def test_from_pairs_refuses_exactly_the_moduli_with_a_shared_factor(pairs):
    moduli = [m for m, _ in pairs]
    shared = any(math.gcd(a, b) > 1 for a, b in itertools.combinations(moduli, 2))
    try:  # one struck residue per modulus >= 2 keeps a survivor at each
        ResidueSpec.from_pairs((m, (r,)) for m, r in pairs)
    except NonCoprimeModuliError:
        assert shared
    except ValueError as err:
        assert not shared and moduli != sorted(moduli), err
    else:
        assert not shared


NAMED = {
    "twins": ResidueSpec.twins,
    "sophie_germain": ResidueSpec.sophie_germain,
    "2,6,8": lambda ps: ResidueSpec.for_tuple((2, 6, 8), ps),
    "primes_only": ResidueSpec.primes_only,
}
PER_PRIME = {  # the same specs built a prime at a time, through no memo
    "twins": lambda ps: ResidueSpec.from_pairs((p, twin_forbidden(p)) for p in ps),
    "sophie_germain": lambda ps: ResidueSpec.from_pairs((p, sophie_forbidden(p)) for p in ps),
    "2,6,8": lambda ps: ResidueSpec.from_pairs((p, tuple_forbidden((2, 6, 8), p)) for p in ps),
    "primes_only": lambda ps: ResidueSpec.from_pairs((p, (0,)) for p in ps),
}


@given(st.lists(st.sampled_from(PRIMES_TO_2000), unique=True, max_size=80).map(sorted))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_spec_builders_match_the_per_prime_build(primes):
    for name, build in NAMED.items():
        assert build(primes) == PER_PRIME[name](primes), name
    assert schinzel.lambda_filter(11, 13, primes) == ResidueSpec.from_pairs(
        (p, [pow(2 * c, -1, p) for c in (11, 13) if 2 * c % p]) for p in primes)


def lambda_filter_11_13(ps):
    return schinzel.lambda_filter(11, 13, ps)


BUILDERS = [ResidueSpec.twins, ResidueSpec.sophie_germain, lambda ps: ResidueSpec.for_tuple((2, 6, 8), ps),
            ResidueSpec.primes_only, lambda_filter_11_13]


@pytest.mark.parametrize("build", BUILDERS)
def test_spec_builders_name_the_first_composite(build, monkeypatch):
    monkeypatch.setattr(sieve, "_shared_table", sieve.sieve_primes(1 << 16))
    with pytest.raises(ValueError, match=r"^9 is not prime$"):
        build([2, 3, 9, 11])
    with pytest.raises(ValueError, match=r"^1000001 is not prime$"):  # 101 * 9901, above the table
        build([2, 3, 1_000_001, 1_000_003])
    with pytest.raises(ValueError, match=r"^9 is not prime$"):
        build([2, 9, 1_000_001])


HELPERS = [twin_forbidden, sophie_forbidden, lambda p: tuple_forbidden((2, 6, 8), p)]


@pytest.mark.parametrize("helper", HELPERS)
def test_per_prime_helpers_name_a_non_prime_and_sieve_no_table_up_to_it(helper, monkeypatch):
    monkeypatch.setattr(sieve, "_shared_table", sieve.sieve_primes(1 << 16))
    for n in (1, 9, 1_000_001):  # 1_000_001 = 101 * 9901, above the table
        with pytest.raises(ValueError, match=rf"^{n} is not prime$"):
            helper(n)
    assert 0 in helper(1_000_003)
    assert sieve._shared_table.limit < 1_000_003


@pytest.mark.parametrize("build", BUILDERS)
def test_spec_builders_sieve_no_table_up_to_a_modulus(build, monkeypatch):
    monkeypatch.setattr(sieve, "_shared_table", sieve.sieve_primes(1 << 16))
    assert build([2, 3, 5, 1_000_003]).entries[-1][0] == 1_000_003
    assert sieve._shared_table.limit < 1_000_003


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_builders_return_their_last_spec_for_equal_primes(name):
    ps = PRIMES_TO_2000[:40]
    spec = NAMED[name](ps)
    for same in (tuple(ps), np.array(ps), [np.int64(p) for p in ps], (p for p in ps),
                 sieve.sieving_prime_set(173 * 173)):
        assert NAMED[name](same) is spec
    assert spec == PER_PRIME[name](ps)
    if name == "twins":
        assert ResidueSpec.for_tuple((2,), ps) is spec  # the tuple (2,) has the twin forms


@given(st.lists(st.tuples(st.sampled_from(sorted(NAMED)), st.integers(0, 2)), min_size=1, max_size=12))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_named_builders_in_any_order_match_the_per_prime_build(calls):
    lists = (PRIMES_TO_60, PRIMES_TO_60[1:], PRIMES_TO_2000[:100])  # other primes, other length
    for name, i in calls:
        assert NAMED[name](lists[i]) == PER_PRIME[name](lists[i]), (name, i)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_builders_refuse_a_composite_on_every_call(name):
    good = [2, 3, 5, 7, 11]
    spec = NAMED[name](good)
    for bad in ([2, 3, 9, 11], [*good, 9], [*good, 1_000_001]):
        for _ in range(3):
            with pytest.raises(ValueError, match=r"is not prime$"):
                NAMED[name](bad)
            assert NAMED[name](good) is spec  # a failed proof keeps nothing


def test_named_builders_retain_at_most_one_spec():
    first = ResidueSpec.twins(PRIMES_TO_2000[:50])
    gone = weakref.ref(first)
    second = ResidueSpec.sophie_germain(PRIMES_TO_2000[:50])
    del first
    gc.collect()
    assert gone() is None
    assert ResidueSpec.sophie_germain(PRIMES_TO_2000[:50]) is second


def test_named_builders_under_two_alternating_threads():
    lists = (PRIMES_TO_2000[:60], PRIMES_TO_2000[1:61])
    want = [PER_PRIME["twins"](ps) for ps in lists]
    mismatches = []

    def run(phase):
        for i in range(400):
            which = (i + phase) % 2
            if ResidueSpec.twins(lists[which]) != want[which]:
                mismatches.append((phase, i))

    def yield_inside_the_builder(frame, event, arg):  # hand the GIL over at every C call it makes
        if event == "c_call" and frame.f_code is residues._proven_spec.__code__:
            time.sleep(0)

    threading.setprofile(yield_inside_the_builder)
    try:
        threads = [threading.Thread(target=run, args=(phase,)) for phase in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        threading.setprofile(None)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_remainder_sequence_tabular_form():
    seq = remainder_sequence(22, (2, 3, 5, 7))
    assert seq.remainders == (0, 1, 2, 1)
    rows = seq.rows()
    assert rows[0]["row"] == "mod"
    assert rows[1]["7"] == 1
    with pytest.raises(ValueError, match=r"^9 is not prime$"):
        remainder_sequence(22, (2, 3, 9, 15))
