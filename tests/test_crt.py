import itertools
import math
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from primelab import crt, sieve
from primelab.crt import (
    CongruenceSystem,
    choice_count,
    crt_enumerate,
    crt_solve,
)
from primelab.residues import NonCoprimeModuliError, ResidueSpec


def allow_spec(pairs):
    """The ResidueSpec keeping only the given allowed residues: each modulus strikes the rest."""
    return ResidueSpec.from_pairs((m, [r for r in range(m) if r not in rs]) for m, rs in pairs)


def flat(windows):
    """A window stream of crt_enumerate's (product or scan) as the list of its values."""
    return [n for window in windows for n in window.tolist()]


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


def test_product_mode_past_int64_yields_exact_python_ints():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    allowed = [(p, [1, p - 1] if p % 4 == 1 else [p - 1]) for p in primes]
    spec = allow_spec(allowed)
    m = spec.modulus
    assert m > crt._NUMPY_MOD_CAP and choice_count(spec) == 128
    classes = [crt_solve(CongruenceSystem.of(zip(rs, primes))).value
               for rs in itertools.product(*(residues for _, residues in allowed))]
    for lo, hi in ((0, m), (m // 2, m + m // 2)):  # one period, then across its end
        want = sorted(v + k * m for v in classes for k in (0, 1) if lo <= v + k * m <= hi)
        got = flat(crt._product_windows(spec, lo, hi))
        assert got == want
        assert all(type(v) is int for v in got)
        assert list(crt_enumerate(spec, lo, hi)) == want  # crt_enumerate picks product here too


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


def test_modes_agree_on_worked_example():
    spec = allow_spec([(2, [1]), (3, [2]), (5, [1, 2, 3, 4]), (7, [1, 3, 4, 5, 6])])
    want = brute_enumerate(spec, 1, 210)
    assert flat(crt._product_windows(spec, 1, 210)) == want
    assert flat(crt.scan_windows(spec, 1, 210)) == want
    assert len(want) == 20


def test_crt_enumerate_picks_product_while_the_range_holds_every_class(monkeypatch):
    spec = allow_spec([(2, [1]), (3, [2]), (5, [1, 2, 3, 4]), (7, [1, 3, 4, 5, 6])])  # 20 classes

    def refuse(*args):
        raise AssertionError("took the other path")

    monkeypatch.setattr(crt, "scan_windows", refuse)
    assert list(crt_enumerate(spec, 1, 20)) == brute_enumerate(spec, 1, 20)  # width 20: product
    monkeypatch.undo()
    monkeypatch.setattr(crt, "_product_windows", refuse)
    assert list(crt_enumerate(spec, 1, 19)) == brute_enumerate(spec, 1, 19)  # width 19: scan


def product_in_batches(spec, lo, hi, values):
    """The product path's stream with batches of about `values` values (at least a period)."""
    with mock.patch.object(crt, "_BATCH_VALUES", values):
        return list(crt._product_windows(spec, lo, hi))


@given(
    st.lists(
        st.sampled_from([2, 3, 5, 7, 11]), min_size=1, max_size=4, unique=True
    ),
    st.integers(0, 50),
    st.integers(0, 400),
    st.integers(0, 7),
    st.sampled_from([1, 2, 7, crt._BATCH_VALUES]),
)
@settings(max_examples=120, derandomize=True, deadline=None)
def test_modes_agree_randomized(primes, lo, width, seed, batch):
    entries = []
    for i, p in enumerate(sorted(primes)):
        allowed = [(seed + i + j) % p for j in range(1 + (seed + i) % p)]
        entries.append((p, sorted(set(allowed))))
    spec = allow_spec(entries)
    hi = lo + width
    want = brute_enumerate(spec, lo, hi)
    assert flat(product_in_batches(spec, lo, hi, batch)) == want
    assert flat(crt.scan_windows(spec, lo, hi)) == want
    assert list(crt_enumerate(spec, lo, hi)) == want


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


def scan_in_windows(spec, lo, hi, width):
    """The range-scan path's stream with residue windows of `width` entries."""
    with mock.patch.object(crt, "avoiding_windows", partial(sieve.avoiding_windows, width=width)):
        return flat(crt.scan_windows(spec, lo, hi))


@given(scan_specs(), st.integers(0, 10**6), st.integers(0, 120), st.integers(1, 7))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_scan_matches_filter_at_chunk_edges(spec, lo, width, chunk):
    # windows of 1-7 entries are shorter than most moduli, and lo is unaligned
    hi = lo + width
    got = scan_in_windows(spec, lo, hi, chunk)
    assert got == brute_enumerate(spec, lo, hi)
    assert all(type(v) is int for v in got)


def test_scan_strikes_from_unaligned_starts():
    spec = allow_spec([(7, range(7)), (11, [4]), (13, [0, 5, 12])])
    for lo, chunk in ((1001, 1), (1003, 6), (999_999, 7), (12_345, sieve.SEGMENT_ODD_BITS)):
        want = brute_enumerate(spec, lo, lo + 3000)
        assert scan_in_windows(spec, lo, lo + 3000, chunk) == want


def test_scan_refuses_bounds_past_int64():
    spec = allow_spec([(3, [1]), (5, [2, 3])])  # 2 classes: a range of width 1 takes the scan path
    top = 1 << 62
    assert [list(crt_enumerate(spec, n, n)) for n in (top - 6, top)] == [[top - 6], []]  # top scans
    with pytest.raises(ValueError, match="range-scan bounds must fit in int64"):
        crt_enumerate(spec, top + 1, top + 1)  # raised on the call, before a value is drawn


@pytest.mark.parametrize("top", [47, 59])  # 47#: the int64 path; 59#: past 2**62, Python ints
@pytest.mark.parametrize("batch", [1, 7, crt._BATCH_VALUES])
def test_product_periods_past_2_53_reach_hi_exactly(top, batch):
    """The period starts are exact integers: with a modulus past 2**53, a period that starts
    at or just below hi is listed, though (hi + 1 - base) / m rounds to a whole float."""
    zero = allow_spec([(p, [0]) for p in sieve.sieve_primes(top).primes.tolist()])
    m = zero.modulus  # its one class is 0
    assert 2**53 < m and (2 * m < crt._NUMPY_MOD_CAP) == (top == 47) and choice_count(zero) == 1
    for lo, hi, want in ((1, m, [m]), (0, m + 1, [0, m]), (m, 3 * m + 2**9, [m, 2 * m, 3 * m])):
        got = flat(product_in_batches(zero, lo, hi, batch))
        assert got == want and all(type(v) is int for v in got)
    assert list(crt_enumerate(zero, 1, m)) == [m]


def test_product_windows_hold_whole_periods_of_about_the_batch_size():
    one_class = allow_spec([(3, [1])])
    assert [w.tolist() for w in product_in_batches(one_class, 2, 29, 4)] == [
        [4, 7, 10], [13, 16, 19, 22], [25, 28]]  # periods [0, 12), [12, 24), [24, 36), cut
    twenty = allow_spec([(2, [1]), (3, [2]), (5, [1, 2, 3, 4]), (7, [1, 3, 4, 5, 6])])
    windows = product_in_batches(twenty, 0, 3 * 210 - 1, 7)  # fewer values than a period
    assert [len(w) for w in windows] == [20, 20, 20]
    assert [w.tolist() for w in windows[1:]] == [(w + k * 210).tolist()
                                                 for k, w in ((1, windows[0]), (2, windows[0]))]


@pytest.mark.parametrize("batch", [1, 3, crt._BATCH_VALUES])
def test_modulus_1_spec_takes_the_product_path(monkeypatch, batch):
    spec = ResidueSpec(())
    assert (spec.modulus, choice_count(spec)) == (1, 1)
    monkeypatch.setattr(crt, "scan_windows", None)  # product, for every range
    monkeypatch.setattr(crt, "_BATCH_VALUES", batch)
    assert list(crt_enumerate(spec, 3, 17)) == list(range(3, 18))
    assert list(crt_enumerate(spec, 0, 0)) == [0]
    top = 1 << 63
    got = list(crt_enumerate(spec, top - 2, top + 2))
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
    dozen strikes, not one slice per struck residue (about 10 000): the kept/struck split's purpose."""
    strikes = []  # residues struck per window, by avoiding_windows and by avoiding_mask

    def windows(lo, hi, entries, **row):
        for window in sieve.avoiding_windows(lo, hi, entries, width=4096, **row):
            strikes.append(sum(len(struck) for _, struck in entries))
            yield window

    def mask(lo, hi, entries, *row):
        strikes[-1] += sum(len(struck) for _, struck in entries)
        return sieve.avoiding_mask(lo, hi, entries, *row)

    monkeypatch.setattr(crt, "avoiding_windows", windows)
    monkeypatch.setattr(crt, "avoiding_mask", mask)
    spec = allow_spec([(10_007, [1, 2, 3, 4, 5])])
    hi = 3 * 10_007 + 2
    assert flat(crt.scan_windows(spec, 0, hi)) == brute_enumerate(spec, 0, hi)
    assert len(strikes) == 8 and max(strikes) <= 32
