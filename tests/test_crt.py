import itertools
import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primelab import crt, residues, sieve
from primelab.counts import survivor_count
from primelab.crt import (
    CongruenceSystem,
    choice_count,
    crt_enumerate,
    crt_solve,
)
from primelab.residues import Kept, NonCoprimeModuliError, ResidueSpec


def allow_spec(pairs):
    """The ResidueSpec keeping only the given allowed residues, held by them (as crt --allow holds them)."""
    return ResidueSpec.from_pairs((m, Kept(m, frozenset(rs))) for m, rs in pairs)


def complement_spec(pairs):
    """allow_spec's spec held by its struck side: each modulus strikes the residues it does not keep."""
    return ResidueSpec.from_pairs((m, [r for r in range(m) if r not in rs]) for m, rs in pairs)


def flat(windows):
    """A window stream of crt_windows' as the list of its values."""
    return [n for window in windows for n in window.tolist()]


def listed(spec, lo, hi, width=sieve.SEGMENT_ODD_BITS):
    """crt_windows' values over [lo, hi] in avoiding_windows windows of `width` positions."""
    with mock.patch.object(crt, "avoiding_windows", partial(residues.avoiding_windows, width=width)):
        return flat(crt.crt_windows(spec, lo, hi))


def test_classic_solution():
    sol = crt_solve(CongruenceSystem.of([(2, 3), (3, 5), (2, 7)]))
    assert sol.value == 23
    assert sol.modulus == 105


def test_solution_satisfies_all():
    sol = crt_solve(CongruenceSystem.of([(1, 2), (2, 3), (4, 5), (3, 7), (10, 11)]))
    for r, m in [(1, 2), (2, 3), (4, 5), (3, 7), (10, 11)]:
        assert sol.satisfies(r, m)


def test_non_coprime_rejected():
    # the same check and text as ResidueSpec.from_pairs
    with pytest.raises(NonCoprimeModuliError, match="^modulus 6 shares factor 2 with an earlier modulus$"):
        crt_solve(CongruenceSystem.of([(1, 4), (3, 6)]))


def test_big_moduli_stay_exact():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    system = CongruenceSystem.of([(p - 1, p) for p in primes])
    sol = crt_solve(system)
    assert sol.modulus == math.prod(primes)
    assert sol.modulus > 2**64  # must not have wrapped
    assert sol.value == sol.modulus - 1


def test_59_primorial_listing_past_int64_yields_exact_python_ints():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    allowed = [(p, [1, p - 1] if p % 4 == 1 else [p - 1]) for p in primes]
    spec = allow_spec(allowed)
    m = spec.modulus
    assert m > 1 << 62 and choice_count(spec) == 128
    classes = [crt_solve(CongruenceSystem.of(zip(rs, primes))).value
               for rs in itertools.product(*(residues for _, residues in allowed))]
    for lo, hi in ((0, m), (m // 2, m + m // 2)):  # one period, then across its end
        step, offsets = residues.avoiding_row(lo, spec.entries)[:2]
        assert (step, len(offsets)) == (m, 128)  # every entry folds: a row a period, every class
        want = sorted(v + k * m for v in classes for k in (0, 1) if lo <= v + k * m <= hi)
        got = list(crt_enumerate(spec, lo, hi))
        assert got == want
        assert all(type(v) is int for v in got)


def test_validation():
    with pytest.raises(ValueError):
        CongruenceSystem.of([(3, 3)])
    with pytest.raises(ValueError):
        crt_solve(CongruenceSystem.of([]))
    with pytest.raises(ValueError):
        allow_spec([(3, [])])
    with pytest.raises(ValueError):
        allow_spec([(3, [1]), (3, [2])])


def test_residue_spec_rejects_moduli_that_share_a_factor():
    with pytest.raises(NonCoprimeModuliError, match="modulus 6 shares factor 2"):
        allow_spec([(4, [1]), (6, [1])])
    with pytest.raises(NonCoprimeModuliError):
        allow_spec([(3, [1]), (5, [1]), (15, [1])])
    with pytest.raises(NonCoprimeModuliError, match="modulus 3 shares factor 3"):
        allow_spec([(3, [1]), (3, [2])])  # checked before "strictly increasing"


@pytest.mark.parametrize("entries", [((5, (4, 5, 1)),), ((7, (3, -1)),)])
def test_residue_spec_rejects_an_out_of_range_residue_in_an_unsorted_set(entries):
    # built directly, so the residues are neither sorted nor deduplicated
    with pytest.raises(ValueError, match=f"residue out of range mod {entries[0][0]}"):
        ResidueSpec(entries)


def test_choice_count():
    spec = allow_spec([(2, [1]), (3, [1, 2]), (5, [1, 3, 4])])
    assert choice_count(spec) == 6
    assert spec.modulus == 30


def brute_enumerate(spec, lo, hi):
    return [
        n for n in range(lo, hi + 1)
        if all(n % m not in struck for m, struck in spec.entries)
    ]


def test_worked_example_lists_twenty_values():
    spec = allow_spec([(2, [1]), (3, [2]), (5, [1, 2, 3, 4]), (7, [1, 3, 4, 5, 6])])
    want = brute_enumerate(spec, 1, 210)
    assert list(crt_enumerate(spec, 1, 210)) == want
    assert len(want) == 20 == choice_count(spec)


@st.composite
def kept_pairs(draw):
    """Small pairwise-coprime (m, kept) pairs, each m keeping one residue, all but one, or half."""
    moduli = []
    for m in draw(st.lists(st.sampled_from([2, 3, 4, 5, 7, 9, 11, 13, 25]), min_size=1, max_size=4,
                           unique=True)):
        if all(math.gcd(m, k) == 1 for k in moduli):
            moduli.append(m)
    pairs = []
    for m in sorted(moduli):
        size = {"one": 1, "all but one": max(1, m - 1), "half": max(1, m // 2)}[
            draw(st.sampled_from(["one", "all but one", "half"]))]
        pairs.append((m, draw(st.permutations(range(m)))[:size]))
    return pairs


@given(kept_pairs(), st.integers(0, 2000))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_a_kept_spec_reads_as_its_complement(pairs, lo):
    kept, struck = allow_spec(pairs), complement_spec(pairs)
    with mock.patch.object(crt, "avoiding_windows", partial(residues.avoiding_windows, width=16)):
        for hi in (lo, lo + 37, lo + 2 * kept.modulus + 5):
            got, want = list(crt.crt_windows(kept, lo, hi)), list(crt.crt_windows(struck, lo, hi))
            assert len(got) == len(want)
            assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))
    assert (choice_count(kept), kept.cardinalities(), kept.modulus) == (
        choice_count(struck), struck.cardinalities(), struck.modulus)
    assert [kept.allowed(m) for m, _ in pairs] == [struck.allowed(m) for m, _ in pairs]
    for x in (0, 1, lo, lo + 3, 3000):  # lo + 3 steps from lo's count
        assert survivor_count(x, kept) == survivor_count(x, struck), x


BIG = 10_007  # a prime longer than most windows below


@st.composite
def wheel_cases(draw):
    """(spec, lo, hi, width): composite and prime moduli keeping every residue, one, at most half
    or any subset, maybe BIG keeping 1-5 residues; hi near one of the first window ends."""
    moduli = []
    for m in draw(st.lists(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 25, 27]), max_size=4,
                           unique=True)):
        if all(math.gcd(m, k) == 1 for k in moduli):
            moduli.append(m)
    entries = []
    for m in moduli:
        kind = draw(st.sampled_from(["every", "one", "half", "any"]))
        size = {"every": m, "one": 1, "half": max(1, m // 2)}.get(kind) or draw(st.integers(1, m))
        entries.append((m, draw(st.lists(st.integers(0, m - 1), min_size=size, max_size=size,
                                         unique=True))))
    if draw(st.booleans()):
        entries.append((BIG, draw(st.lists(st.integers(0, BIG - 1), min_size=1, max_size=5,
                                           unique=True))))
    spec = allow_spec(sorted(entries))
    width = draw(st.sampled_from([1, 7, 16, sieve.SEGMENT_ODD_BITS]))
    lo = draw(st.integers(0, 3 * BIG))
    step, offsets = residues.avoiding_row(lo, spec.entries)[:2]
    edge = lo + draw(st.integers(0, 3)) * max(1, width // len(offsets)) * step
    hi = min(edge + draw(st.integers(-2, 2)), lo + 3 * BIG)
    return spec, lo, max(hi, lo - 1), width


@given(wheel_cases())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_crt_windows_match_a_brute_filter(case):
    spec, lo, hi, width = case
    got = listed(spec, lo, hi, width)
    assert got == brute_enumerate(spec, lo, hi)
    assert all(type(v) is int for v in got)


@st.composite
def scan_specs(draw):
    """Specs whose allowed sets mix full residue sets, single residues and arbitrary subsets."""
    primes = draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=1, max_size=4,
                           unique=True))
    entries = []
    for p in sorted(primes):
        kind = draw(st.sampled_from(["full", "single", "subset"]))
        if kind == "full":
            allowed = range(p)
        elif kind == "single":
            allowed = [draw(st.integers(0, p - 1))]
        else:
            allowed = draw(st.lists(st.integers(0, p - 1), min_size=1, unique=True))
        entries.append((p, allowed))
    return allow_spec(entries)


@given(scan_specs(), st.integers(0, 10**6), st.integers(0, 120), st.integers(1, 7))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_scan_matches_filter_at_chunk_edges(spec, lo, width, chunk):
    # windows of 1-7 entries are shorter than most moduli, and lo is unaligned
    hi = lo + width
    got = listed(spec, lo, hi, chunk)
    assert got == brute_enumerate(spec, lo, hi)
    assert all(type(v) is int for v in got)


def test_scan_strikes_from_unaligned_starts():
    spec = allow_spec([(7, range(7)), (11, [4]), (13, [0, 5, 12])])
    for lo, chunk in ((1001, 1), (1003, 6), (999_999, 7), (12_345, sieve.SEGMENT_ODD_BITS)):
        want = brute_enumerate(spec, lo, lo + 3000)
        assert listed(spec, lo, lo + 3000, chunk) == want


def test_values_at_and_past_2_62_are_exact():
    # 3 and 5 fold into the wheel (one class mod 3, two mod 5), 7 strikes its rows
    spec = allow_spec([(3, [1]), (5, [2, 3]), (7, [1, 2, 3, 4, 5, 6])])
    assert [m for m, _, _ in residues.avoiding_row(0, spec.entries)[2]] == [7]
    for top in (1 << 62, 1 << 63, 1 << 64):
        for width in (1, sieve.SEGMENT_ODD_BITS):
            got = listed(spec, top - 60, top + 60, width)
            assert got == brute_enumerate(spec, top - 60, top + 60) and len(got) > 3
            assert all(type(v) is int for v in got)


@pytest.mark.parametrize("top", [47, 59])  # 47#: the int64 path; 59#: past 2**62, Python ints
@pytest.mark.parametrize("width", [1, 7, 65536])
def test_product_periods_past_2_53_reach_hi_exactly(top, width):
    """The period starts k*m of the product m of the moduli are exact integers: with m past 2**53,
    a period that starts at or just below hi is listed, though (hi + 1 - base) / m rounds to a
    whole float.  Every modulus keeps one residue, so the wheel steps by m."""
    zero = allow_spec([(p, [0]) for p in sieve.sieve_primes(top).primes.tolist()])
    m = zero.modulus  # its one class is 0
    assert 2**53 < m and (2 * m < 1 << 62) == (top == 47) and choice_count(zero) == 1
    for lo, hi, want in ((1, m, [m]), (0, m + 1, [0, m]), (m, 3 * m + 2**9, [m, 2 * m, 3 * m])):
        assert residues.avoiding_row(lo, zero.entries)[:2] == (m, [-lo % m])
        got = listed(zero, lo, hi, width)
        assert got == want and all(type(v) is int for v in got)
    assert list(crt_enumerate(zero, 1, m)) == [m]


@pytest.mark.parametrize("width", [1, 3, 65536])
def test_modulus_1_spec_lists_every_n(width):
    spec = ResidueSpec(())
    assert (spec.modulus, choice_count(spec)) == (1, 1)
    assert listed(spec, 3, 17, width) == list(range(3, 18))
    assert listed(spec, 0, 0, width) == [0]
    top = 1 << 63
    got = listed(spec, top - 2, top + 2, width)
    assert got == list(range(top - 2, top + 3)) and all(type(v) is int for v in got)


def test_empty_range_and_empty_spec():
    spec = allow_spec([(3, [1])])
    assert list(crt_enumerate(spec, 10, 5)) == []
    assert list(crt_enumerate(ResidueSpec(()), 3, 6)) == [3, 4, 5, 6]


def test_stream_is_ascending_and_periodic():
    spec = allow_spec([(2, [1]), (3, [2]), (5, [2])])
    first = list(crt_enumerate(spec, 1, 30))
    second = list(crt_enumerate(spec, 31, 60))
    assert second == [v + 30 for v in first]


def test_scan_strikes_few_residues_per_window_for_a_big_modulus(monkeypatch):
    """An entry striking most of a big modulus (10 007, 5 residues kept) costs a window a few
    dozen strikes, not one slice per struck residue (about 10 000): it folds into the wheel's
    classes, and the entries left strike each class once per struck residue."""
    strikes = []  # slices per window

    def windows(lo, hi, row, **width):
        for window in residues.avoiding_windows(lo, hi, row, width=16):
            strikes.append(len(row[1]) * sum(len(struck) for _, struck, _ in row[2]))
            yield window

    monkeypatch.setattr(crt, "avoiding_windows", windows)
    spec = allow_spec([(7, range(1, 7)), (BIG, [1, 2, 3, 4, 5])])
    hi = 3 * 7 * BIG + 2  # 22 rows of 5 classes, 3 rows a window
    assert flat(crt.crt_windows(spec, 0, hi)) == brute_enumerate(spec, 0, hi)
    assert len(strikes) == 8 and max(strikes) <= 32
