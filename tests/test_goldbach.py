import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primelab import crt, goldbach, sieve
from primelab.goldbach import (
    brute_goldbach_pairs,
    build_split_plan,
    fixed_prefix_candidates,
    goldbach_enumerate,
    goldbach_refine,
    partition_probe,
    span_report,
    split_remainder,
    twin_crt_search,
)
from primelab.residues import ResidueSpec
from primelab.sieve import is_prime, sieve_primes


def test_split_remainder_listings():
    assert set(split_remainder(0, 5)) == {(1, 4), (2, 3), (3, 2), (4, 1)}
    assert set(split_remainder(2, 7)) == {(1, 1), (3, 6), (4, 5), (5, 4), (6, 3)}
    assert split_remainder(1, 3) == [(2, 2)]


@given(st.integers(0, 96))
@settings(max_examples=97, derandomize=True)
def test_split_counts_all_primes_to_100(beta):
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71, 73, 79, 83, 89, 97):
        b = beta % p
        splits = split_remainder(b, p)
        assert len(splits) == (p - 1 if b == 0 else p - 2)
        for eta, delta in splits:
            assert 1 <= eta <= p - 1 and 1 <= delta <= p - 1
            assert (eta + delta) % p == b


def test_build_split_plan_worked_examples():
    plan = build_split_plan(100)
    assert plan.primes == (2, 3, 5, 7)
    assert plan.beta == (0, 1, 0, 2)
    assert plan.class_count == 20
    eta = {p: tuple(sorted(plan.eta_spec().allowed(p))) for p in plan.primes}
    assert eta[2] == (1,) and eta[3] == (2,)
    assert eta[5] == (1, 2, 3, 4) and eta[7] == (1, 3, 4, 5, 6)

    assert build_split_plan(16).class_count == 1
    assert build_split_plan(36).class_count == 6
    with pytest.raises(ValueError):
        build_split_plan(15)
    with pytest.raises(ValueError):
        build_split_plan(4)


def test_u_sequence_matches_beta_pattern():
    plan = build_split_plan(100)
    assert plan.u == (1, 2, 1, 2)  # u = 1 exactly where beta = 0


def test_enumerate_worked_examples():
    assert goldbach_enumerate(100) == [
        (11, 89), (17, 83), (29, 71), (41, 59), (47, 53)]
    assert goldbach_enumerate(100, allow_zero_eta=True)[0] == (3, 97)
    assert goldbach_enumerate(16) == [(5, 11)]
    assert goldbach_enumerate(16, allow_zero_eta=True) == [(3, 13), (5, 11)]


def test_enumerate_guided_stops_at_first():
    assert goldbach_enumerate(100, "GUIDED") == [(11, 89)]
    table = sieve_primes(math.isqrt(20_000))
    for two_n in range(6, 20_001, 2):
        exact = goldbach_enumerate(two_n, "EXACT", table=table)
        assert goldbach_enumerate(two_n, "GUIDED", table=table) == exact[:1], two_n


@given(st.integers(3, 1500))
@settings(max_examples=120, derandomize=True, deadline=None)
def test_completeness_against_direct_scan(n):
    two_n = 2 * n
    got = goldbach_enumerate(two_n, allow_zero_eta=True)
    assert got == brute_goldbach_pairs(two_n)
    assert got  # a finding: every even number in range decomposes


def test_span_report_100():
    rep = span_report(100)
    assert rep.feasible
    assert (rep.candidate_min, rep.candidate_max) == (11, 209)
    assert rep.span == 198
    assert rep.threshold == 110
    assert rep.flag and rep.exceeds_threshold
    assert rep.lemma_all_u1_min == 6  # telescoped closed form


def test_span_report_single_candidate():
    rep = span_report(16)
    assert rep.candidate_count == 1
    assert rep.span == 0
    assert not rep.flag
    assert any("single candidate" in n for n in rep.notes)


def test_span_report_infeasible_beyond_cap():
    rep = span_report(1000)  # sieving primes reach 31
    assert not rep.feasible
    assert rep.candidate_min is None


def test_fixed_prefix_group_members():
    members = fixed_prefix_candidates(100, (1, 2, 2))
    assert members == [17, 47, 107, 137, 167, 197]
    gaps = {b - a for a, b in zip(members, members[1:])}
    assert all(g % 30 == 0 for g in gaps)  # separated by the pinned product
    for bad in ((1, 1), (1, 3), (0,)):  # beta mod 3, out of range mod 3, zero mod 2
        with pytest.raises(ValueError, match="not an allowed split part"):
            fixed_prefix_candidates(100, bad)


def test_refine_worked_examples():
    assert goldbach_refine(100, 137) == (47, 53)
    assert goldbach_refine(100, 143) is None
    assert goldbach_refine(100, 101) is None
    with pytest.raises(ValueError):
        goldbach_refine(100, 105)  # 105 = 0 mod 5: not a suitable candidate


def test_partition_probe():
    r = partition_probe({2}, {3}, {2: 2, 3: 1}, +1)
    assert r["alpha"] == 7 and r["verdict"] == "PRIME-BY-CONSTRUCTION"
    r = partition_probe({2}, {3}, {2: 4, 3: 2}, +1)
    assert r["alpha"] == 25 and r["verdict"] == "OUT-OF-RANGE"
    assert not r["is_prime"]
    r = partition_probe({2}, {3}, {2: 4, 3: 2}, -1)
    assert r["alpha"] == 7 and r["verdict"] == "PRIME-BY-CONSTRUCTION"
    with pytest.raises(ValueError):
        partition_probe({2}, {5}, {2: 1, 5: 1}, +1)  # not a prefix
    with pytest.raises(ValueError):
        partition_probe({2, 3}, {3}, {2: 1, 3: 1}, +1)  # not disjoint


@pytest.mark.parametrize("reject", [
    lambda: partition_probe({2}, {10**12}, {2: 1, 10**12: 1}, +1),
    lambda: twin_crt_search((2, 3, 10**12 + 39), 100),
])
def test_prefix_check_sizes_its_table_by_the_count_not_a_member(monkeypatch, reject):
    monkeypatch.setattr(sieve, "_shared_table", None)
    with pytest.raises(ValueError, match="prime prefix"):
        reject()
    assert sieve._shared_table.limit == 1 << 16


def test_prime_prefix_grows_past_the_first_shared_table(monkeypatch):
    monkeypatch.setattr(sieve, "_shared_table", None)
    prefix = goldbach._prime_prefix(7000)  # the 2**16 table holds 6 542 primes
    assert len(prefix) == 7001 and prefix[:3] == [2, 3, 5] and prefix[-1] == 70663
    assert prefix == sieve_primes(70663).primes.tolist()


def test_twin_crt_search_worked_examples():
    uppers = [p.upper for p in twin_crt_search((2, 3, 5), 49) if p.certified]
    assert uppers == [13, 19, 31, 43]
    pairs = twin_crt_search((2, 3, 5, 7), 121)
    certified = [p for p in pairs if p.certified]
    assert len(certified) == 8
    assert (certified[-1].lower, certified[-1].upper) == (107, 109)
    small = twin_crt_search((2, 3), 25)
    assert [(p.lower, p.upper) for p in small if p.certified] == [
        (5, 7), (11, 13), (17, 19)]


@pytest.mark.parametrize("primes", [(3, 5, 7), (2, 5, 7), (2, 3, 7), ()])
def test_twin_crt_search_rejects_a_set_that_is_not_the_prime_prefix(primes):
    # the certificate (n below the next prime squared) needs every prime up to p_k
    with pytest.raises(ValueError, match="prime prefix"):
        twin_crt_search(primes, 2000)


def literal_goldbach_pairs(two_n, table):
    """Per-integer reference: every p <= two_n / 2 with p and two_n - p prime."""
    return [(p, two_n - p) for p in range(2, two_n // 2 + 1)
            if table.is_prime(p) and table.is_prime(two_n - p)]


def test_brute_goldbach_pairs_match_the_literal_scan():
    table = sieve_primes(2_000)
    for two_n in range(6, 2_001, 2):
        assert brute_goldbach_pairs(two_n, table) == literal_goldbach_pairs(two_n, table), two_n
    assert brute_goldbach_pairs(2_000, table) == brute_goldbach_pairs(2_000)  # the shared table


# 2^20 + 4 and 2^20 + 8 reach a second scan window, empty at 2^20 + 4 and holding one candidate at 2^20 + 8
@pytest.mark.parametrize("two_n", [2**20, 10**6, 2**20 + 4, 2**20 + 8])
def test_goldbach_enumerate_complete_at_large_targets(two_n):
    table = sieve_primes(two_n)
    want = brute_goldbach_pairs(two_n, table)
    assert goldbach_enumerate(two_n, "EXACT", allow_zero_eta=True, table=table) == want
    # without the zero parts, exactly the pairs whose smaller member is a sieving prime are missing
    root = math.isqrt(two_n)
    assert goldbach_enumerate(two_n, "EXACT", table=table) == [pq for pq in want if pq[0] > root]
    assert any(pq[0] <= root for pq in want)


@pytest.mark.parametrize("two_n, count, first, last", [
    (10**8, 120, (11, 99999989), (10037, 99989963)),
    (10**10, 739, (71, 9999999929), (100109, 9999899891)),
])
def test_guided_zero_parts_at_large_targets(two_n, count, first, last):
    """Every zero-part pair (smaller member a sieving prime), then GUIDED's first candidate."""
    pairs = goldbach_enumerate(two_n, "GUIDED", allow_zero_eta=True)
    assert (len(pairs), pairs[0], pairs[-1]) == (count, first, last)
    assert pairs[-1] == goldbach_enumerate(two_n, "GUIDED")[0]


def test_twin_crt_search_beyond_certification_filters():
    pairs = twin_crt_search((2, 3, 5), 200)
    for p in pairs:
        assert is_prime(p.lower) and is_prime(p.upper)
        assert p.certified == (p.upper < 49)


def injecting(position, value):
    """A scan_windows stand-in that swaps the candidate at one stream position for value."""
    def windows(spec, lo, hi):
        seen = 0
        for window in crt.scan_windows(spec, lo, hi):
            if seen <= position < seen + len(window):
                window = window.copy()
                window[position - seen] = value
            seen += len(window)
            yield window
    return windows


def window_width(monkeypatch, width):
    """Scan in sieve.avoiding_windows windows of `width` entries."""
    monkeypatch.setattr(crt, "avoiding_windows", partial(sieve.avoiding_windows, width=width))


# 1000's candidates 47, 53, 59, 71, 89, 113, ... lie above its largest sieving prime 31 and
# fill one default window; windows of 64 entries from 32 hold positions 0-4, 5-6, 7-9, ...
# GUIDED reads its one candidate off the spec, and never any position of this stream.
@pytest.mark.parametrize("mode, position", [("EXACT", 0), ("EXACT", 1), ("EXACT", 2), ("EXACT", 3),
                                            ("EXACT", 4), ("EXACT", 6), ("EXACT", 8),
                                            ("GUIDED", 0), ("GUIDED", 1), ("GUIDED", 2)])
def test_certificate_rejects_a_sieving_prime_multiple_anywhere_in_a_chunk(monkeypatch, position, mode):
    # 1000's sieving primes run 2, ..., 31: 17 * 29 has no smaller factor among them, and
    # the prime 43 passes on its own side while its partner 957 = 3 * 11 * 29 does not
    rejected = ((7 * 13, "candidate 91 divisible by sieving prime 7"),
                (17 * 29, "candidate 493 divisible by sieving prime 17"),
                (43, "partner 957 of candidate 43 divisible by sieving prime 3"))
    for width in (sieve.SEGMENT_ODD_BITS, 64):
        window_width(monkeypatch, width)
        for value, message in rejected:
            monkeypatch.setattr(goldbach, "scan_windows", injecting(position, value))
            if mode == "GUIDED":  # the stream is never read
                assert goldbach_enumerate(1000, mode) == [(47, 953)]
                continue
            with pytest.raises(AssertionError, match=f"^{message}$"):
                goldbach_enumerate(1000, mode)


@pytest.mark.parametrize("position", [0, 1, 2])
def test_certificate_rejects_a_coprime_composite(monkeypatch, position):
    # 121 = 11^2 has no factor among 2n = 100's sieving primes 2, 3, 5, 7; no such composite
    # lies below 11^2 > 2n, so the certificate's range [2, n] rules it out.  Windows of
    # 6 entries from 8 hold the candidates 11, 17 and 29 apart, an empty one before 29's
    for width in (sieve.SEGMENT_ODD_BITS, 6):
        window_width(monkeypatch, width)
        monkeypatch.setattr(goldbach, "scan_windows", injecting(position, 121))
        with pytest.raises(AssertionError, match=r"^candidate 121 outside \[2, 50\]$"):
            goldbach_enumerate(100)


@pytest.mark.parametrize("kept", [0, 1])
@pytest.mark.parametrize("mode", ["EXACT", "GUIDED"])
def test_certificate_rejects_a_spec_missing_a_struck_residue(monkeypatch, kept, mode):
    # at 2n = 40 = 1 (mod 3) the spec strikes {0, 1} mod 3 and reads from p_k + 1 = 6;
    # keeping 0 makes 9 the first survivor, keeping 1 makes it 7, whose partner is 33 = 3 * 11
    def eta_spec(plan):
        return ResidueSpec(tuple((p, frozenset((0, b)) - ({kept} if p == 3 else set()))
                                 for p, b in zip(plan.primes, plan.beta)))

    monkeypatch.setattr(goldbach.SplitPlan, "eta_spec", eta_spec)
    side = "candidate 9" if kept == 0 else "partner 33 of candidate 7"
    with pytest.raises(AssertionError, match=f"^{side} divisible by sieving prime 3$"):
        goldbach_enumerate(40, mode)


def test_goldbach_enumerate_needs_no_table_past_the_sieving_primes(monkeypatch):
    real = sieve.sieve_primes

    def bounded(limit, *args, **kwargs):
        if limit > 10**6:
            raise AssertionError(f"asked for a prime table to {limit}")
        return real(limit, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("sieved a table of its own")

    monkeypatch.setattr(sieve, "sieve_primes", bounded)
    assert goldbach_enumerate(10**10, "GUIDED") == [(100109, 9999899891)]
    assert goldbach_enumerate(10**12, "GUIDED") == [(1000409, 999998999591)]
    tables = {root: sieve_primes(root) for root in range(2, math.isqrt(3000) + 1)}
    oracle = sieve_primes(3000)
    monkeypatch.setattr(sieve, "_shared_table", None)  # no process table can answer instead
    monkeypatch.setattr(sieve, "sieve_primes", refuse)  # every call below reads its own table
    for two_n in range(6, 3001, 14):
        root = math.isqrt(two_n)
        table, want = tables[root], brute_goldbach_pairs(two_n, oracle)
        exact = goldbach_enumerate(two_n, "EXACT", table=table)
        assert exact == [pq for pq in want if pq[0] > root], two_n
        assert goldbach_enumerate(two_n, "GUIDED", table=table) == exact[:1], two_n
        assert goldbach_enumerate(two_n, "EXACT", allow_zero_eta=True, table=table) == want, two_n


@pytest.mark.parametrize("width", [1, 2, 7, sieve.SEGMENT_ODD_BITS])
def test_chunk_edges_keep_every_pair(monkeypatch, width):
    window_width(monkeypatch, width)  # width 1 leaves most windows empty
    # a narrow window costs a residue mask and a verification step of its own, so the narrow
    # widths stop below 3000 (every 2n <= 3000 at width 1 alone takes over two minutes)
    top = {1: 400, 2: 600, 7: 1000}.get(width, 3000)
    table = sieve_primes(top)
    for two_n in range(6, top + 1, 2):
        want = brute_goldbach_pairs(two_n, table)
        root = math.isqrt(two_n)
        exact = goldbach_enumerate(two_n, "EXACT", table=table)
        assert exact == [pq for pq in want if pq[0] > root], two_n
        assert goldbach_enumerate(two_n, "EXACT", allow_zero_eta=True, table=table) == want, two_n
        assert goldbach_enumerate(two_n, "GUIDED", table=table) == exact[:1], two_n


def direct_span_candidates(two_n):
    """Every c in [1, M] with c mod p outside {0, 2n mod p} at each sieving prime p, by remainders."""
    primes = [p for p in range(2, math.isqrt(two_n) + 1) if is_prime(p)]
    c = np.arange(1, math.prod(primes) + 1)
    keep = np.ones(len(c), dtype=bool)
    for p in primes:
        keep &= (c % p != 0) & (c % p != two_n % p)
    return primes, c[keep]


def test_span_report_matches_a_direct_filter_of_the_period():
    for two_n in range(6, 289, 2):  # every sieving prime set here stays within the cap 13
        primes, want = direct_span_candidates(two_n)
        rep = span_report(two_n)
        m = math.prod(primes)
        assert rep.feasible and (rep.M, rep.threshold) == (m, m - two_n), two_n
        assert rep.candidate_count == len(want), two_n
        assert (rep.candidate_min, rep.candidate_max) == (want[0], want[-1]), two_n
        assert rep.span == want[-1] - want[0], two_n
        assert rep.exceeds_threshold == (rep.span > m - two_n), two_n
        assert rep.flag == (rep.exceeds_threshold and len(want) > 1), two_n
        unit = "unit candidate 1 present (excluded from prime pairs)"
        assert (unit in rep.notes) == (want[0] == 1), two_n
        assert any("single candidate" in n for n in rep.notes) == (len(want) == 1), two_n
    assert span_report(290).feasible is False  # 17 enters the sieving primes


def test_split_plan_derives_its_splits_from_beta():
    plan = build_split_plan(3000)
    assert "splits" not in plan.__dict__ and "beta" not in plan.__dict__  # only on demand
    assert plan.beta == tuple(3000 % p for p in plan.primes)
    spec = plan.eta_spec()
    for p, b, u, s, (q, _) in zip(plan.primes, plan.beta, plan.u, plan.splits, spec.entries):
        assert s == tuple(split_remainder(b, p)) and q == p
        assert len(s) == p - u and sorted(spec.allowed(p)) == sorted(eta for eta, _ in s)
    assert plan.class_count == math.prod(len(s) for s in plan.splits)
