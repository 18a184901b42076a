"""Shifted-prime quotients, interval scans, and the 2^Omega Dirichlet series.

Run:  python3 demos/03_schinzel_and_probes.py
"""

from primelab import (
    bertrand_scan,
    hl_inequality_scan,
    lambda_filter,
    mersenne_composite_witness,
    naive_schinzel_search,
    schinzel_search,
    twin_bertrand_scan,
    xi_euler_product,
    xi_smooth_series,
)

print("=" * 70)
print("1. Every positive rational m/n as (p+1)/(q+1) with p, q prime")
print("=" * 70)
for m, n in [(11, 13), (1, 2), (3, 7)]:
    r = schinzel_search(m, n)
    print(f"{m}/{n} = ({r.p}+1)/({r.q}+1)   (multiplier k = {r.k})")
spec = lambda_filter(11, 13, [2, 3, 5, 7])  # the struck multipliers per prime
print(f"multiplier residues that survive the pre-filter: "
      f"{[(p, tuple(sorted(spec.allowed(p)))) for p, _ in spec.entries]}")
filtered = schinzel_search(11, 13)
naive = naive_schinzel_search(11, 13)
print(f"filtered search and naive search agree: k = {filtered.k} = {naive.k}")

print()
print("=" * 70)
print("2. Interval scans: primes and twin pairs in (x, alpha*x)")
print("=" * 70)
r = bertrand_scan(1.2, 4, 10_000)
print(f"n in [4, 10^4] with no prime in (n, 1.2n]: {r.failures or 'none'}")
r = twin_bertrand_scan(7, 5_000)
print(f"x in [7, 5000] with no twin pair strictly inside (x, 2x): "
      f"{r.failures or 'none'}")
r = hl_inequality_scan(2_000, 2_000)
print(f"violations of pi(x+y) <= pi(x) + pi(y) on [2, 2000]^2: "
      f"{r.failures or 'none'}")

print()
print("=" * 70)
print("3. The Dirichlet series of 2^Omega(n): product equals series")
print("=" * 70)
s = 2.0
prod = xi_euler_product(s, 5)
series = xi_smooth_series(s, 5)
print(f"Euler product over p <= 5 at s = {s}:  {prod:.15f}")
print(f"series over all 5-smooth n <= 10^13:  {series:.15f}")
print(f"|difference| = {abs(prod - series):.3e}")

print()
print("=" * 70)
print("4. Composite Mersenne numbers by congruence, not factoring")
print("=" * 70)
for k, n in [(3, 2), (3, 3), (21, 1)]:
    w = mersenne_composite_witness(k, n)
    if w["verdict"] == "WITNESS":
        print(f"q = {k}*2^{n}-1 = {w['q']}: {w['divisor']} divides 2^{w['q']}-1")
    else:
        print(f"q = {k}*2^{n}-1 = {w['q']}: not applicable ({w['failed']})")
