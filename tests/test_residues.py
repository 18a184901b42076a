import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from primelab import goldbach, schinzel, sieve
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


@given(st.lists(st.sampled_from(PRIMES_TO_2000), unique=True, max_size=80).map(sorted))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_spec_builders_match_the_per_prime_build(primes):
    per_prime = ResidueSpec.from_pairs
    assert ResidueSpec.twins(primes) == per_prime((p, twin_forbidden(p)) for p in primes)
    assert ResidueSpec.sophie_germain(primes) == per_prime((p, sophie_forbidden(p)) for p in primes)
    assert ResidueSpec.for_tuple((2, 6, 8), primes) == per_prime((p, tuple_forbidden((2, 6, 8), p)) for p in primes)
    assert ResidueSpec.primes_only(primes) == per_prime((p, (0,)) for p in primes)
    assert schinzel.lambda_filter(11, 13, primes) == per_prime(
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


def test_remainder_sequence_tabular_form():
    seq = remainder_sequence(22, (2, 3, 5, 7))
    assert seq.remainders == (0, 1, 2, 1)
    rows = seq.rows()
    assert rows[0]["row"] == "mod"
    assert rows[1]["7"] == 1
    with pytest.raises(ValueError, match=r"^9 is not prime$"):
        remainder_sequence(22, (2, 3, 9, 15))
