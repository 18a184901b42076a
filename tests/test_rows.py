"""The residue rows: survivor counts and crt_windows' listings laid out on residues.avoiding_row's
wheel, checked against a literal filter of [lo, hi] at the default window width and at 16 positions.
"""

import math
from functools import cache, partial

import pytest

from primelab import cli, counts, crt, residues, sieve
from primelab.goldbach import build_split_plan
from primelab.residues import Kept, ResidueSpec

PRIMES = [2, 3, 5, 7, 11, 13]


def allow_spec(pairs):
    """The ResidueSpec keeping only the given allowed residues, held by them (as crt --allow holds them)."""
    return ResidueSpec.from_pairs((m, Kept(m, frozenset(rs))) for m, rs in pairs)


# each spec with the wheel its entries fold into: (step, classes)
SPECS = {
    "twins": (ResidueSpec.twins(PRIMES), 6, 1),
    "sophie germain": (ResidueSpec.sophie_germain(PRIMES), 6, 1),
    "primes only": (ResidueSpec.primes_only(PRIMES), 2, 1),
    "tuple 2,6": (ResidueSpec.for_tuple((2, 6), PRIMES), 6, 1),
    "tuple 2,6,8": (ResidueSpec.for_tuple((2, 6, 8), PRIMES), 30, 1),
    "eta, 3 divides 2n": (build_split_plan(60_060).eta_spec(), 2, 1),
    "eta, 3 does not divide 2n": (build_split_plan(20_020).eta_spec(), 6, 1),
    "allow, no one-residue lead": (allow_spec([(2, [0, 1]), (3, [1]), (7, [0, 2, 3])]), 21, 3),
    "allow 2=0": (allow_spec([(2, [0]), (3, [1, 2]), (7, [0, 3]), (11, [4])]), 154, 2),
    "allow 2=1": (allow_spec([(2, [1]), (3, [2]), (5, [1, 2, 3, 4]), (7, [1, 3, 4, 5, 6])]), 6, 1),
    "allow 4=1, 9=5": (allow_spec([(4, [1]), (9, [5]), (25, [3, 4, 7, 11])]), 900, 4),
    "allow 4=1, 9=5 by its struck side": (ResidueSpec.from_pairs(
        (m, [r for r in range(m) if r not in rs]) for m, rs in [(4, [1]), (9, [5]), (25, [3, 4, 7, 11])]),
        900, 4),
    "allow 4 keeping half": (allow_spec([(3, [0, 1]), (4, [1, 3])]), 4, 2),
}


@cache
def survivors(spec, top=12_000):
    """The n in [0, top] with n mod m outside struck(m) for every entry, by remainders."""
    return [n for n in range(top + 1) if all(n % m not in struck for m, struck in spec.entries)]


def literal(spec, lo, hi):
    """The filter of [lo, hi]; every range below ends by 12 000."""
    assert hi <= 12_000
    return [n for n in survivors(spec) if lo <= n <= hi]


def flat(windows):
    return [n for window in windows for n in window.tolist()]


def window_edges(lo, step, rows):
    """hi values around the first three window ends of a wheel from lo with `rows` rows a window."""
    return sorted({lo + k * rows * step + d for k in (1, 2, 3) for d in (-step - 1, -step, -1, 0, 1)})


@pytest.mark.parametrize("name", SPECS)
def test_wheel_folds_the_classes_the_rule_picks(name):
    spec, step, classes = SPECS[name]
    for lo in (0, 1, 7, 10):
        got, offsets, strikes = residues.avoiding_row(lo, spec.entries)
        assert (got, len(offsets)) == (step, classes) and offsets == sorted(set(offsets))
        struck = {m for m, _, _ in strikes}
        assert all(inv * step % m == 1 for m, _, inv in strikes)
        folded = [(m, s) for m, s in spec.entries if m not in struck and s]
        assert math.prod(m for m, _ in folded) == step and all(0 <= o < step for o in offsets)
        # the classes are the n in [lo, lo + step) that every folded entry keeps
        assert [lo + o for o in offsets] == [n for n in range(lo, lo + step)
                                             if all(n % m not in s for m, s in folded)]


def test_a_big_modulus_keeping_five_residues_folds_into_five_classes():
    spec = cli._parse_allow(["999983=1,2,3,4,5", *(f"{p}=" + ",".join(map(str, range(1, p)))
                                                    for p in (7, 11, 13, 17, 19))])
    step, offsets, strikes = residues.avoiding_row(0, spec.entries)
    assert (step, offsets) == (999_983, [1, 2, 3, 4, 5])
    assert [m for m, _, _ in strikes] == [7, 11, 13, 17, 19]


@pytest.mark.parametrize("width", [16, sieve.SEGMENT_ODD_BITS])
@pytest.mark.parametrize("name", SPECS)
def test_scan_lists_a_literal_filter_of_the_range(monkeypatch, name, width):
    monkeypatch.setattr(crt, "avoiding_windows", partial(residues.avoiding_windows, width=width))
    spec, step, classes = SPECS[name]
    for lo in (0, 1, 7, 10):
        highs = window_edges(lo, step, max(1, min(width, 16) // classes)) + [lo, lo + 1, lo + 3000]
        for hi in highs:
            assert flat(crt.crt_windows(spec, lo, hi)) == literal(spec, lo, hi), (lo, hi)


@pytest.mark.parametrize("width", [16, sieve.SEGMENT_ODD_BITS])
@pytest.mark.parametrize("name", SPECS)
def test_survivor_windows_count_a_literal_filter_of_1_to_x(monkeypatch, name, width):
    monkeypatch.setattr(counts, "avoiding_windows", partial(residues.avoiding_windows, width=width))
    spec, step, classes = SPECS[name]
    for x in [0, 1, 2, *window_edges(1, step, max(1, min(width, 16) // classes)), 2999, 3000]:
        assert counts._survivor_windows(x, spec.entries) == len(literal(spec, 1, x)), x


def test_the_wheel_stops_at_segment_odd_bits_classes():
    # nothing strikes, so folding either modulus saves slices; both would make 1 100 000 classes
    spec = allow_spec([(2003, range(1000)), (2203, range(1100))])
    step, offsets, strikes = residues.avoiding_row(0, spec.entries)
    assert (step, len(offsets)) == (2203, 1100) and [m for m, _, _ in strikes] == [2003]
    want = [n for n in range(20_001) if n % 2003 < 1000 and n % 2203 < 1100]
    assert flat(crt.crt_windows(spec, 0, 20_000)) == want


def test_a_row_stepping_past_2_62_scans_single_values():
    # 2, 3, ..., 47 keep one residue each and 53 keeps two: the wheel steps by 53# (about 3.3e19)
    spec = allow_spec([(p, [1]) for p in sieve.sieve_primes(47).primes.tolist()] + [(53, [1, 2])])
    step, offsets, strikes = residues.avoiding_row(0, spec.entries)
    assert (step, len(offsets), len(strikes)) == (spec.modulus, 2, 0)
    value = 1229779565176982821  # the class 1 mod 47# that is 2 mod 53
    assert value % 53 == 2 and all(value % p == 1 for p, _ in spec.entries[:-1])
    for n in (value - 1, value, value + 1, (1 << 62) - 1):
        assert list(crt.crt_enumerate(spec, n, n)) == ([n] if n == value else []), n
