"""Prime-pair decompositions of an even number via residue splitting.

The idea: write 2n = eta + delta modulo each small sieving prime, keep only
splits where both sides avoid 0, and push the classes through the Chinese
remainder theorem.  Every surviving candidate below the next prime's square
is prime automatically -- no primality testing involved.

Run:  python3 demos/02_goldbach_classes.py
"""

from primelab import (
    build_split_plan,
    goldbach_enumerate,
    goldbach_refine,
    span_report,
    twin_crt_search,
)

TWO_N = 100

print("=" * 70)
print(f"1. Splitting {TWO_N} across residues of 2, 3, 5, 7")
print("=" * 70)
plan = build_split_plan(TWO_N)
print(f"remainders of {TWO_N}: {dict(zip(plan.primes, plan.beta))}")
eta = plan.eta_spec()  # struck {0, beta} per prime; print what survives
print(f"allowed eta classes per prime: "
      f"{[(p, tuple(sorted(eta.allowed(p)))) for p in plan.primes]}")
print(f"total candidate classes: {plan.class_count}")

print()
print("=" * 70)
print("2. Exact enumeration: every pair, no primality tests")
print("=" * 70)
pairs = goldbach_enumerate(TWO_N)
print(f"{TWO_N} = " + "  =  ".join(f"{a}+{b}" for a, b in pairs))
with_zero = goldbach_enumerate(TWO_N, allow_zero_eta=True)
extra = sorted(set(with_zero) - set(pairs))
print(f"allowing a sieving prime itself as a summand adds: {extra}")

print()
print("=" * 70)
print("3. The candidate span report")
print("=" * 70)
rep = span_report(TWO_N)
print(f"candidates lie in [{rep.candidate_min}, {rep.candidate_max}], "
      f"span {rep.span} vs. threshold {rep.threshold} "
      f"(exceeds: {rep.exceeds_threshold})")
print(f"telescoped all-u=1 lower bound: {rep.lemma_all_u1_min}")

print()
print("=" * 70)
print("4. Refining a candidate that is not itself a summand")
print("=" * 70)
t = 137
refined = goldbach_refine(TWO_N, t)
print(f"candidate {t} lies outside (1, {TWO_N}), but dividing its offset "
      f"by a square-root-of-unity factor lands on the pair {refined}")

print()
print("=" * 70)
print("5. The same machinery finds twin primes")
print("=" * 70)
pairs = [p for p in twin_crt_search((2, 3, 5, 7), 121) if p.certified]
print("twins below 11^2, certified by construction:")
print("  " + ", ".join(f"({p.lower},{p.upper})" for p in pairs))
