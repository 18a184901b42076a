"""The residue rows: survivor counts and the CRT scan's listings laid out on sieve.avoiding_row's
row, checked against a literal filter of [lo, hi] at the default window width and at 16 row entries.
"""

from functools import cache, partial

import pytest

from primelab import counts, crt, sieve
from primelab.goldbach import build_split_plan
from primelab.residues import ResidueSpec

PRIMES = [2, 3, 5, 7, 11, 13]


def allow_spec(pairs):
    """The ResidueSpec keeping only the given allowed residues: each modulus strikes the rest."""
    return ResidueSpec.from_pairs((m, [r for r in range(m) if r not in rs]) for m, rs in pairs)


# each spec with the row step its leading one-residue moduli make
SPECS = {
    "twins": (ResidueSpec.twins(PRIMES), 6),
    "sophie germain": (ResidueSpec.sophie_germain(PRIMES), 6),
    "primes only": (ResidueSpec.primes_only(PRIMES), 2),
    "tuple 2,6": (ResidueSpec.for_tuple((2, 6), PRIMES), 6),
    "tuple 2,6,8": (ResidueSpec.for_tuple((2, 6, 8), PRIMES), 30),
    "eta, 3 divides 2n": (build_split_plan(60_060).eta_spec(), 2),
    "eta, 3 does not divide 2n": (build_split_plan(20_020).eta_spec(), 6),
    "allow, no one-residue lead": (allow_spec([(2, [0, 1]), (3, [1]), (7, [0, 2, 3])]), 1),
    "allow 2=0": (allow_spec([(2, [0]), (3, [1, 2]), (7, [0, 3]), (11, [4])]), 2),
    "allow 2=1": (allow_spec([(2, [1]), (3, [2]), (5, [1, 2, 3, 4]), (7, [1, 3, 4, 5, 6])]), 6),
    "allow 4=1, 9=5": (allow_spec([(4, [1]), (9, [5]), (25, [3, 4, 7, 11])]), 36),
}


@cache
def survivors(spec, top=4000):
    """The n in [0, top] with n mod m outside struck(m) for every entry, by remainders."""
    return [n for n in range(top + 1) if all(n % m not in struck for m, struck in spec.entries)]


def literal(spec, lo, hi):
    """The filter of [lo, hi]; every range below ends by 4000."""
    assert hi <= 4000
    return [n for n in survivors(spec) if lo <= n <= hi]


def flat(windows):
    return [n for window in windows for n in window.tolist()]


def window_edges(lo, step, width):
    """hi values around the first three window ends of a row of `width` entries from lo."""
    return sorted({lo + k * width * step + d for k in (1, 2, 3) for d in (-step - 1, -step, -1, 0, 1)})


@pytest.mark.parametrize("name", SPECS)
def test_row_step_is_the_product_of_the_leading_one_residue_moduli(name):
    spec, step = SPECS[name]
    for lo in (0, 1, 7, 10):
        first, got, rest = sieve.avoiding_row(lo, spec.entries)
        assert got == step and lo <= first < lo + step
        folded = spec.entries[:len(spec.entries) - len(rest)]
        assert all(len(struck) == m - 1 for m, struck in folded)
        assert all(first % m not in struck for m, struck in folded)


@pytest.mark.parametrize("width", [16, sieve.SEGMENT_ODD_BITS])
@pytest.mark.parametrize("name", SPECS)
def test_scan_lists_a_literal_filter_of_the_range(monkeypatch, name, width):
    monkeypatch.setattr(crt, "avoiding_windows", partial(sieve.avoiding_windows, width=width))
    spec, step = SPECS[name]
    for lo in (0, 1, 7, 10):
        highs = window_edges(lo, step, min(width, 16)) + [lo, lo + 1, lo + 3000]
        for hi in highs:
            assert flat(crt.scan_windows(spec, lo, hi)) == literal(spec, lo, hi), (lo, hi)


@pytest.mark.parametrize("width", [16, sieve.SEGMENT_ODD_BITS])
@pytest.mark.parametrize("name", SPECS)
def test_survivor_windows_count_a_literal_filter_of_1_to_x(monkeypatch, name, width):
    monkeypatch.setattr(counts, "avoiding_windows", partial(sieve.avoiding_windows, width=width))
    spec, step = SPECS[name]
    for x in [0, 1, 2, *window_edges(1, step, min(width, 16)), 2999, 3000]:
        assert counts._survivor_windows(x, spec.entries) == len(literal(spec, 1, x)), x


def test_a_row_stepping_past_2_62_scans_single_values():
    # 2, 3, ..., 47 keep one residue each: the row steps by 47# (about 6.1e17) and 53 keeps two
    spec = allow_spec([(p, [1]) for p in sieve.sieve_primes(47).primes.tolist()] + [(53, [1, 2])])
    first, step, rest = sieve.avoiding_row(0, spec.entries)
    assert (first, step, [m for m, _ in rest]) == (1, spec.modulus // 53, [53])
    value = 1229779565176982821  # the class 1 mod 47# that is 2 mod 53
    assert value % 53 == 2 and all(value % p == 1 for p, _ in spec.entries[:-1])
    for n in (value - 1, value, value + 1, (1 << 62) - 1):
        assert list(crt.crt_enumerate(spec, n, n)) == ([n] if n == value else []), n


def test_survivor_counts_lay_out_the_row_again_only_for_other_entries():
    twins, sophie = SPECS["twins"][0], SPECS["sophie germain"][0]
    assert sieve.avoiding_row(1, sophie.entries)[:2] == (5, 6)  # p, 2p + 1 avoid 0 and 1 mod 3
    assert sieve.avoiding_row(1, twins.entries)[:2] == (1, 6)
    counts._survivor_windows(100, twins.entries)
    row = counts._survivor_row[1]
    counts._survivor_windows(3000, twins.entries)
    assert counts._survivor_row[1] is row  # the same entries: the row is reused
    counts._survivor_windows(100, sophie.entries)
    assert counts._survivor_row == (sophie.entries, sieve.avoiding_row(1, sophie.entries))
