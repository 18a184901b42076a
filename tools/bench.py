"""Before/after timings of primelab: this checkout against another, one suite of cases at a time.

    python3 tools/bench.py SUITE BASE_CHECKOUT   # e.g. a clone of the parent commit

SUITE is one of the tables in ``SUITES``:

- ``render``: ``primelab --format F primes --limit L --list`` for F in json, csv,
  table and L in 1e5, 1e6, 1e7;
- ``goldbach``: ``primelab goldbach --even E --mode M`` for E in 1e6, 1e8 and M in
  exact, exact at E = 1e9, guided at E = 1e12, and guided with ``--allow-zero-eta`` at
  E = 1e10;
- ``scans``: ``primelab bertrand --twin --min 7 --max 1e6`` at alpha 2 and 1.1, and ``--max 1e7``
  at alpha 1.5, ``primelab bertrand --min 1 --max 1e6`` at alpha 2 and 1.01, ``primelab hl-scan --xmax 2000
  --ymax 2000`` and ``primelab xi --sum 1e7 --s 1``; and lib-sweep's three scan calls,
  ``hl_inequality_scan(1000, 200)``, ``xi_partial_sum(2.0, 10**5)`` and ``bertrand_scan(2.0, 1,
  10**5)``, timed per call inside the child (see ``SCANS_CHILD``);
- ``specs``: the six struck-residue spec builders (twins, Sophie Germain, the tuples
  (2,6) and (2,6,8), Goldbach's eta spec and ``lambda_filter(11, 13, .)``) over the
  first 11, 65, 1 229 and 9 592 primes, timed inside the child (see ``SPECS_CHILD``);
  the builders that take primes alternate that list with as many primes from 3 on,
  so that no call is answered by the named builders' last spec;
- ``sweep``: ``survivor_count`` over 64 consecutive x from 1e3, 1e4 and 1e5 for the
  twin and (2,6,8) specs, built once per run or rebuilt from ``sieving_prime_set(x)``
  at every x (as a sweep over the public calls does), the same x in an order that puts
  consecutive calls 27 or more apart (every call a full count, and every full count lays
  its wheel out: the counts keep no wheel between calls), ``tuple_count_formula`` over 16
  consecutive x, ``legendre_pi`` over 64 consecutive x from 1e5 and 1e7 (a table reaching x
  answers the oracle, so the stepped phi dominates), and ``mersenne_exact_count`` and
  ``fermat_exact_count`` at 1e6, 1e9 and 1e12, timed per call inside the child (see
  ``SWEEP_CHILD``);
- ``rows``: the residue rows and the Goldbach certificate, timed inside the child: full survivor
  counts (``counts._survivor_windows``, the route a call far from the last one takes, which lays
  the spec's wheel out on every call) for the twin and (2,6,8) specs at x = 1e3, 1e4 and 1e5,
  and ``goldbach_enumerate(2n, "EXACT", allow_zero_eta=True)`` at 2n = 1e3, 1e4 and 1e5, per
  call (see ``ROWS_CHILD``); the twin count at 1e8 and 1e9 and the eta spec's
  ``crt.crt_windows`` over (p_k, n] at 2n = 1e9, once per child (see ``ROWS_ONCE_CHILD``);
- ``startup``: ``import primelab``, ``import primelab.cli`` and one small operation
  per subcommand family;
- ``crt``: ``primelab crt --allow ...`` listings, each on the wheel its entries fold into
  (``residues.avoiding_row``): "product 92160 classes" lists the numbers coprime to
  255 255 = 3*5*7*11*13*17 for two periods (184 320 values; every prime keeps all but one
  residue, so each strikes a row of step 1), "example 20 classes" the paper's example over
  1..210 (2 and 3 keep one residue each: a row of step 6), "scan 9 primes" the numbers up to
  1e6 coprime to the nine primes up to 23 (the odd numbers, 2 keeping 1 alone), "product 1
  class to 3e6" the one class 1 mod 3 up to 3e6 (a row of step 3, nothing struck), and "scan one
  big modulus" (``--format csv``) [0, 1e7] keeping five residues of the one big modulus 999 983
  beside the units of 7, 11, 13, 17 and 19: 999 983 folds into five classes and the small
  primes strike their rows, and "big modulus to 10" (``--format csv``) lists [0, 10] keeping
  the same five residues of 999 983 alone, where the parse and the spec are nearly all of the
  run; the case names predate the one stream and are kept so that the keys in
  ``BENCH_crt.json`` still compare;
- ``phi``: the two routes of Legendre's phi in ``primelab.counts``, called directly:
  ``_phi_floor`` at 1e10, 1e11, 1e12 and 1e13, each in a child of its own that checks the
  published pi(x) and reports its time and the child's peak RSS (see ``PHI_FLOOR_CHILD``);
  the step ``_coprime_between`` over 64 x after 1e11 and 1e12 and over one x after
  1e7 + 12 345, with the time and tracemalloc peak of the first call (a cold one) and of a
  warm call beside the per-call times; and ``_phi_floor`` at 1e5 and 1e7 + 12 345, the
  floor calls of a lib-sweep run, per call (see ``PHI_PER_CALL_CHILD``);
- ``stream``: the prime sources that read the segment stream instead of a table to x:
  ``primelab count twin --x 1e8``, ``count tuple --x 3e7 --offsets 2,6``, ``primes --limit L``
  (no ``--list``) for L in 2e8 and 1e9, ``count pi --x 1e9``, and ``count mersenne`` and
  ``count fermat`` at 1e12.

Each case runs in a fresh interpreter with ``PYTHONPATH=<checkout>/src``, stdout
to /dev/null and a 4 GiB address-space limit (``RLIMIT_AS``), so that a case that grows a
table to x fails with an error instead of pushing the machine into swap. Wall time is taken around the child, CPU time (user + system) and peak
RSS from ``os.wait4``; a self-timing child prints its own ``{case: {metric: value}}``
JSON instead: each case's median time per call over five samples (``us``) and the
fastest of them (``us_min``), which is steadier where the machine's speed drifts
between children. There are ``RUNS`` rounds over every case, both checkouts back to back
with the base checkout first on every other round, so that a slow phase of the
machine hits every case and side alike. Children inherit this process's environment,
and the record names the variables that change what they time: with
``PYTHONDONTWRITEBYTECODE`` set, every child compiles what it imports. Each side's
[q1, median, q3] per case and metric, and change/base of the medians, go to
``BENCH_<suite>.json`` at the root of this checkout.
"""

from __future__ import annotations

import collections
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
RUNS = 10
AS_LIMIT = 4 << 30  # bytes of address space a child may map
ENV_FLAGS = ("PYTHONDONTWRITEBYTECODE", "OPENBLAS_NUM_THREADS")


def cli(*args) -> list[str]:
    return ["-m", "primelab.cli", *map(str, args)]


def coprime_to(*primes) -> list[str]:
    """``--allow`` tokens keeping every unit residue of each prime."""
    return [a for p in primes for a in ("--allow", f"{p}=" + ",".join(map(str, range(1, p))))]


# The timing core of the self-timing children: cases maps a case to (run, the number of
# calls one run makes). Per case, the median and the least time per call of five
# interleaved samples; a sample repeats run as often as the first loop count, doubling
# from 1, that took 2 ms or more. An untimed run before each sample leaves the library's
# last-call state (the survivor and phi steps, the named builders' last spec) as its own
# case leaves it, so no sample pays for freeing or leaving another case's state.
FIVE_SAMPLES = """
import json, statistics, time

def per_call_us(cases):
    loops = {}
    for case, (run, _) in cases.items():
        loops[case] = 1
        while True:
            start = time.perf_counter()
            for _ in range(loops[case]):
                run()
            if time.perf_counter() - start >= 2e-3:
                break
            loops[case] *= 2
    samples = {case: [] for case in cases}
    for _ in range(5):
        for case, (run, calls) in cases.items():
            run()
            start = time.perf_counter()
            for _ in range(loops[case]):
                run()
            samples[case].append((time.perf_counter() - start) / loops[case] / calls * 1e6)
    return {case: {"us": statistics.median(us), "us_min": min(us)} for case, us in samples.items()}
"""

# Only public names are used, so any checkout can be timed.
SPECS_CHILD = FIVE_SAMPLES + """
from primelab import ResidueSpec, build_split_plan, lambda_filter, sieve_primes

SIZES = {11: 10**3, 65: 10**5, 1229: 10**8, 9592: 10**10}  # prime count -> 2n with that many sieving primes
BUILDERS = {
    "twins": ResidueSpec.twins,
    "sophie_germain": ResidueSpec.sophie_germain,
    "tuple_2_6": lambda ps: ResidueSpec.for_tuple((2, 6), ps),
    "tuple_2_6_8": lambda ps: ResidueSpec.for_tuple((2, 6, 8), ps),
    "lambda_11_13": lambda ps: lambda_filter(11, 13, ps),
}
first = sieve_primes(2 * 10**5).primes.tolist()

def cold(build, ps, qs):  # two prime lists in turn: each build differs from the one before
    return lambda: (build(ps), build(qs)), 2

cases = {}
for k, two_n in SIZES.items():
    plan = build_split_plan(two_n)
    assert len(plan.primes) == k
    for name, build in BUILDERS.items():
        cases[f"{name} {k}"] = cold(build, first[:k], first[1:k + 1])
    cases[f"eta {k}"] = (plan.eta_spec, 1)
print(json.dumps(per_call_us(cases)))
"""

# A run builds its spec (a rebuilt run: at every x), then calls survivor_count on every x
# of the case. Its first call follows the last x of the run before, 63 or 37 away, so
# every run sieves once.
# A legendre_pi run's first call is 63 from the last one's, within phi's step reach.
SWEEP_CHILD = FIVE_SAMPLES + """
from primelab import (AdmissibleTuple, ResidueSpec, fermat_exact_count, legendre_pi,
                      mersenne_exact_count, sieve_primes, sieving_prime_set, survivor_count,
                      tuple_count_formula)

SPECS = {"twin": ResidueSpec.twins, "2,6,8": lambda ps: ResidueSpec.for_tuple((2, 6, 8), ps)}

def sweep(build, xs):
    def run():
        spec = build([int(p) for p in sieving_prime_set(max(xs))])
        for x in xs:
            survivor_count(x, spec)
    return run, len(xs)

def rebuilt(build, xs):
    def run():
        for x in xs:
            survivor_count(x, build([int(p) for p in sieving_prime_set(x)]))
    return run, len(xs)

def formula(xs):
    def run():
        for x in xs:
            tuple_count_formula(x, AdmissibleTuple((2, 6, 8)))
    return run, len(xs)

def legendre(xs, table):
    def run():
        for x in xs:
            legendre_pi(x, table)
    return run, len(xs)

cases = {}
for x0 in (10**3, 10**4, 10**5):
    shuffled = [x0 + 27 * i % 64 for i in range(64)]  # every step 27 or 37 long
    for name, build in SPECS.items():
        cases[f"consecutive {name} {x0}"] = sweep(build, range(x0, x0 + 64))
        cases[f"shuffled {name} {x0}"] = sweep(build, shuffled)
        cases[f"rebuilt {name} {x0}"] = rebuilt(build, range(x0, x0 + 64))
    cases[f"tuple_count_formula 2,6,8 {x0}"] = formula(range(x0, x0 + 16))
for x0 in (10**5, 10**7):
    cases[f"legendre_pi {x0}"] = legendre(range(x0, x0 + 64), sieve_primes(x0 + 63))
for x in (10**6, 10**9, 10**12):
    cases[f"mersenne_exact_count {x}"] = (lambda x=x: mersenne_exact_count(x), 1)
    cases[f"fermat_exact_count {x}"] = (lambda x=x: fermat_exact_count(x), 1)
print(json.dumps(per_call_us(cases)))
"""

# phi's two private routes keep their names and arguments in every checkout timed so far.
# The floor child takes k and times _phi_floor(10**k) once; its peak RSS is the process's.
PHI_FLOOR_CHILD = """
import json, resource, sys, time
import primelab.counts as counts
from primelab import sieving_prime_set

PUBLISHED_PI = {10: 455_052_511, 11: 4_118_054_813, 12: 37_607_912_018, 13: 346_065_536_839}  # OEIS A006880
k = int(sys.argv[1])
primes = sieving_prime_set(10**k)
start = time.perf_counter()
phi = counts._phi_floor(10**k, primes)
ms = (time.perf_counter() - start) * 1e3
assert phi + len(primes) - 1 == PUBLISHED_PI[k]
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux: KiB
print(json.dumps({f"floor 1e{k}": {"ms": ms, "peak_rss_mb": rss}}))
"""

PHI_PER_CALL_CHILD = FIVE_SAMPLES + """
import time, tracemalloc
import primelab.counts as counts
from primelab import sieving_prime_set

def step(x, dx):
    primes = sieving_prime_set(x)
    return lambda: counts._coprime_between(x, x + dx, primes), 1

def floor(x):
    primes = sieving_prime_set(x)
    return lambda: counts._phi_floor(x, primes), 1

cases = {"step 64 at 1e11": step(10**11, 64), "step 64 at 1e12": step(10**12, 64),
         "step 1 at 1e7": step(10**7 + 12_345, 1),
         "floor 1e5": floor(10**5), "floor 1e7": floor(10**7 + 12_345)}
first = {}
for case, (run, _) in cases.items():  # each step case has a k of its own: its first call is cold
    start = time.perf_counter()
    run()
    first[case] = {"cold_ms": (time.perf_counter() - start) * 1e3}
    tracemalloc.start()
    run()  # a warm call, traced
    first[case]["warm_traced_kib"] = tracemalloc.get_traced_memory()[1] / 1024
    tracemalloc.stop()
times = per_call_us(cases)
print(json.dumps({case: {**times[case], **first[case]} for case in cases}))
"""

# Full survivor counts call the sieve route directly: survivor_count would step between near x.
ROWS_CHILD = FIVE_SAMPLES + """
import primelab.counts as counts
from primelab import ResidueSpec, goldbach_enumerate, sieving_prime_set

SPECS = {"twin": ResidueSpec.twins, "2,6,8": lambda ps: ResidueSpec.for_tuple((2, 6, 8), ps)}
cases = {}
for x in (10**3, 10**4, 10**5):
    for name, build in SPECS.items():
        entries = build([int(p) for p in sieving_prime_set(x)]).entries
        cases[f"survivors {name} {x}"] = (lambda x=x, e=entries: counts._survivor_windows(x, e), 1)
for two_n in (10**3, 10**4, 10**5):
    cases[f"exact zero-eta {two_n}"] = (
        lambda t=two_n: goldbach_enumerate(t, "EXACT", allow_zero_eta=True), 1)
print(json.dumps(per_call_us(cases)))
"""

# One timed call per child: CASE is "twin X" (the full twin survivor count at X) or "eta 2N" (the
# eta spec's crt_windows over (p_k, N], every window drawn, as EXACT Goldbach reads it).
ROWS_ONCE_CHILD = """
import json, sys, time
import primelab.counts as counts
import primelab.crt as crt
from primelab import ResidueSpec, build_split_plan, sieving_prime_set

kind, x = sys.argv[1], int(float(sys.argv[2]))
if kind == "twin":
    entries = ResidueSpec.twins([int(p) for p in sieving_prime_set(x)]).entries
    run = lambda: counts._survivor_windows(x, entries)
else:
    plan = build_split_plan(x)
    spec = plan.eta_spec()
    run = lambda: sum(len(w) for w in crt.crt_windows(spec, plan.primes[-1] + 1, x // 2))
start = time.perf_counter()
run()
print(json.dumps({f"{kind} {sys.argv[2]}": {"ms": (time.perf_counter() - start) * 1e3}}))
"""

# The child builds lib-sweep's table and passes it to bertrand_scan and hl_inequality_scan, as
# lib-sweep does; xi_partial_sum reads the process-wide table. Sieving that table also frees
# arrays of several MB, after which glibc's malloc serves the 800 KB arrays of an xi call from
# its heap instead of fresh mappings, as in a lib-sweep session: without it, page faults take
# about half of each xi call.
SCANS_CHILD = FIVE_SAMPLES + """
from primelab import bertrand_scan, hl_inequality_scan, sieve_primes, xi_partial_sum

table = sieve_primes(10_100_000)
print(json.dumps(per_call_us({
    "hl_inequality_scan 1000 200": (lambda: hl_inequality_scan(1000, 200, table), 1),
    "xi_partial_sum 2 1e5": (lambda: xi_partial_sum(2.0, 10**5), 1),
    "bertrand_scan 2 1e5": (lambda: bertrand_scan(2.0, 1, 10**5, table), 1),
})))
"""

# The programs that print their own JSON; every other case is timed from outside.
SELF_TIMING = {SPECS_CHILD, SWEEP_CHILD, PHI_FLOOR_CHILD, PHI_PER_CALL_CHILD, ROWS_CHILD,
               ROWS_ONCE_CHILD, SCANS_CHILD}

SUITES = {
    "render": {f"{fmt} {limit}": cli("--format", fmt, "primes", "--limit", limit, "--list")
               for fmt in ("json", "csv", "table") for limit in (10**5, 10**6, 10**7)},
    "goldbach": {**{f"{even} {mode}": cli("goldbach", "--even", even, "--mode", mode)
                    for even in (10**6, 10**8) for mode in ("exact", "guided")},
                 "1e9 exact": cli("goldbach", "--even", 10**9, "--mode", "exact"),
                 "1e12 guided": cli("goldbach", "--even", 10**12, "--mode", "guided"),
                 "1e10 guided zero-eta": cli("goldbach", "--even", 10**10, "--mode", "guided",
                                             "--allow-zero-eta")},
    "scans": {**{f"twin 1e6 alpha {alpha}": cli("bertrand", "--twin", "--alpha", alpha, "--min", 7,
                                                "--max", 10**6) for alpha in (2, 1.1)},
              "twin 1e7 alpha 1.5": cli("bertrand", "--twin", "--alpha", 1.5, "--min", 7, "--max", 10**7),
              "bertrand 1e6": cli("bertrand", "--min", 1, "--max", 10**6),
              "bertrand 1e6 alpha 1.01": cli("bertrand", "--alpha", 1.01, "--min", 1,
                                             "--max", 10**6),
              "hl-scan 2000 2000": cli("hl-scan", "--xmax", 2000, "--ymax", 2000),
              "xi sum 1e7 s 1": cli("xi", "--sum", 10**7, "--s", 1),
              "lib-sweep calls": ["-c", SCANS_CHILD]},
    "specs": {"builders": ["-c", SPECS_CHILD]},
    "sweep": {"sweeps": ["-c", SWEEP_CHILD]},
    "rows": {"per call": ["-c", ROWS_CHILD],
             **{f"{kind} {x}": ["-c", ROWS_ONCE_CHILD, kind, x]
                for kind, x in (("twin", "1e8"), ("twin", "1e9"), ("eta", "1e9"))}},
    "startup": {
        "import primelab": ["-c", "import primelab"],
        "import primelab.cli": ["-c", "import primelab.cli"],
        "count": cli("count", "twin", "--x", 1000),
        "primes": cli("primes", "--limit", 1000),
        "goldbach": cli("goldbach", "--even", 1000),
        "crt": cli("crt", "--allow", "5=1,2", "--allow", "7=3", "--hi", 100),
        "schinzel": cli("schinzel", "--num", 11, "--den", 13),
        "estimate": cli("estimate", "psi", "--x", 1000),
        "bertrand": cli("bertrand", "--min", 2, "--max", 1000),
    },
    "crt": {
        "product 92160 classes": cli("crt", *coprime_to(3, 5, 7, 11, 13, 17), "--lo", 1,
                                     "--hi", 2 * 255_255),
        "example 20 classes": cli("crt", "--allow", "2=1", "--allow", "3=2", "--allow", "5=1,2,3,4",
                                  "--allow", "7=1,3,4,5,6", "--lo", 1, "--hi", 210),
        "scan 9 primes": cli("crt", *coprime_to(2, 3, 5, 7, 11, 13, 17, 19, 23), "--lo", 1,
                             "--hi", 10**6),
        "product 1 class to 3e6": cli("crt", "--allow", "3=1", "--hi", 3_000_000),
        "scan one big modulus": cli("--format", "csv", "crt", "--allow", "999983=1,2,3,4,5",
                                    *coprime_to(7, 11, 13, 17, 19), "--lo", 0,
                                    "--hi", 10**7),
        "big modulus to 10": cli("--format", "csv", "crt", "--allow", "999983=1,2,3,4,5",
                                 "--hi", 10),
    },
    "phi": {**{f"floor 1e{k}": ["-c", PHI_FLOOR_CHILD, str(k)] for k in (10, 11, 12, 13)},
            "per call": ["-c", PHI_PER_CALL_CHILD]},
    "stream": {"count twin 1e8": cli("count", "twin", "--x", 10**8),
               "count tuple 3e7 2,6": cli("count", "tuple", "--x", 3 * 10**7, "--offsets", "2,6"),
               **{f"primes {name}": cli("primes", "--limit", limit)
                  for name, limit in (("2e8", 2 * 10**8), ("1e9", 10**9))},
               "count pi 1e9": cli("count", "pi", "--x", 10**9),
               **{f"count {kind} 1e12": cli("count", kind, "--x", 10**12) for kind in ("mersenne", "fermat")}},
}


def run(case: str, args: list[str], root: pathlib.Path, self_timing: bool) -> dict:
    """{case: {metric: value}} of ``python args`` in a fresh interpreter importing root/src."""
    argv = [sys.executable, *args]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    start = time.perf_counter()
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE if self_timing else subprocess.DEVNULL,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))
                          ) as child:
        out = child.stdout.read() if self_timing else b""
        _, status, usage = os.wait4(child.pid, 0)
        wall_ms = (time.perf_counter() - start) * 1e3
        child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise SystemExit(f"{' '.join(args)} exited with {child.returncode} in {root}")
    if self_timing:
        return json.loads(out)
    return {case: {"wall_ms": wall_ms, "cpu_ms": (usage.ru_utime + usage.ru_stime) * 1e3,
                   "peak_rss_mb": usage.ru_maxrss / 1024}}  # Linux reports ru_maxrss in KiB


def describe(root: pathlib.Path) -> str:
    """The checkout's ``git describe``, or its directory name marked "(no git)" where git finds no
    commit there (a base made with ``git archive``)."""
    out = subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else f"{root.name} (no git)"


def main() -> None:
    if len(sys.argv) != 3 or sys.argv[1] not in SUITES:
        raise SystemExit(__doc__)
    suite = sys.argv[1]
    sides = {"base": pathlib.Path(sys.argv[2]).resolve(), "change": ROOT}
    commits = {side: describe(root) for side, root in sides.items()}
    samples = collections.defaultdict(list)  # (case, metric, side) -> values
    for i in range(RUNS):
        for case, args in SUITES[suite].items():
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                for name, metrics in run(case, args, sides[side], args[1] in SELF_TIMING).items():
                    for metric, value in metrics.items():
                        samples[name, metric, side].append(value)
    results = []
    for name, metric in dict.fromkeys(key[:2] for key in samples):
        q = {side: [round(v, 1) for v in statistics.quantiles(samples[name, metric, side], n=4)]
             for side in sides}
        ratio = round(statistics.median(samples[name, metric, "change"])
                      / statistics.median(samples[name, metric, "base"]), 3)
        results.append({"case": name, "metric": metric, **q, "change_over_base": ratio})
        print(f"{name:32} {metric:11}  base {q['base']}  change {q['change']}  x{ratio:.2f}")
    doc = {
        "suite": suite, "runs": RUNS,
        "what": "[q1, median, q3] over each side's runs; change_over_base: ratio of the medians",
        "sides": commits, "env": {name: os.environ.get(name) for name in ENV_FLAGS},
        "python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count(),
        "results": results,
    }
    (ROOT / f"BENCH_{suite}.json").write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
