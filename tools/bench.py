"""Before/after timings of primelab: this checkout against another, one suite of cases at a time.

    python3 tools/bench.py SUITE BASE_CHECKOUT   # e.g. a clone of the parent commit

SUITE is one of the tables in ``SUITES``:

- ``render``: ``primelab --format F primes --limit L --list`` for F in json, csv,
  table and L in 1e5, 1e6, 1e7;
- ``goldbach``: ``primelab goldbach --even E --mode M`` for E in 1e6, 1e8 and M in
  exact, guided, guided at E = 1e12, and guided with ``--allow-zero-eta`` at E = 1e10;
- ``scans``: ``primelab bertrand --twin --min 7 --max 1e6`` at alpha 2 and 1.1, and
  ``primelab bertrand --min 1 --max 1e6``;
- ``specs``: the six struck-residue spec builders (twins, Sophie Germain, the tuples
  (2,6) and (2,6,8), Goldbach's eta spec and ``lambda_filter(11, 13, .)``) over the
  first 11, 65, 1 229 and 9 592 primes, timed inside the child (see ``SPECS_CHILD``);
  the builders that take primes alternate that list with as many primes from 3 on,
  so that no call is answered by the named builders' last spec;
- ``sweep``: ``survivor_count`` over 64 consecutive x from 1e3, 1e4 and 1e5 for the
  twin and (2,6,8) specs, built once per run or rebuilt from ``sieving_prime_set(x)``
  at every x (as a sweep over the public calls does), the same x in an order that puts
  consecutive calls 27 or more apart, ``tuple_count_formula`` over 16 consecutive x,
  ``legendre_pi`` over 64 consecutive x from 1e5 and 1e7 (a table reaching x answers
  the oracle, so the stepped phi dominates), and ``mersenne_exact_count`` and
  ``fermat_exact_count`` at 1e6, 1e9 and 1e12, timed per call inside the child (see
  ``SWEEP_CHILD``);
- ``startup``: ``import primelab``, ``import primelab.cli`` and one small operation
  per subcommand family;
- ``crt``: ``primelab crt --allow ...`` listings on both enumeration paths: product
  mode over the 92 160 classes coprime to 255 255 = 3*5*7*11*13*17 for two periods
  (184 320 values), the paper's 20-class example over 1..210, a range scan of the
  numbers up to 1e6 coprime to the nine primes up to 23, product mode over one
  class mod 3 up to 3e6 (a million periods of one value each), and a range scan
  (``--format csv``, ten windows) of [0, 1e7] keeping five residues of the one big
  modulus 999 983, which times the scan's kept/struck split; the units of 7, 11, 13,
  17 and 19 beside it lift the class count to 1 036 800, past ``PRODUCT_MODE_CAP``,
  so that it range-scans;
- ``phi``: the two routes of Legendre's phi in ``primelab.counts``, called directly:
  ``_phi_floor`` at 1e10, 1e11, 1e12 and 1e13, each in a child of its own that checks the
  published pi(x) and reports its time and the child's peak RSS (see ``PHI_FLOOR_CHILD``);
  the step ``_coprime_between`` over 64 x after 1e11 and 1e12 and over one x after
  1e7 + 12 345, with the time and tracemalloc peak of the first call (a cold one) and of a
  warm call beside the per-call times; and ``_phi_floor`` at 1e5 and 1e7 + 12 345, the
  floor calls of a lib-sweep run, per call (see ``PHI_PER_CALL_CHILD``).

Each case runs in a fresh interpreter with ``PYTHONPATH=<checkout>/src`` and stdout
to /dev/null. Wall time is taken around the child, CPU time (user + system) and peak
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
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
RUNS = 10
ENV_FLAGS = ("PYTHONDONTWRITEBYTECODE", "OPENBLAS_NUM_THREADS")
SELF_TIMING = {"specs", "sweep", "phi"}  # suites whose children print their own JSON


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

SUITES = {
    "render": {f"{fmt} {limit}": cli("--format", fmt, "primes", "--limit", limit, "--list")
               for fmt in ("json", "csv", "table") for limit in (10**5, 10**6, 10**7)},
    "goldbach": {**{f"{even} {mode}": cli("goldbach", "--even", even, "--mode", mode)
                    for even in (10**6, 10**8) for mode in ("exact", "guided")},
                 "1e12 guided": cli("goldbach", "--even", 10**12, "--mode", "guided"),
                 "1e10 guided zero-eta": cli("goldbach", "--even", 10**10, "--mode", "guided",
                                             "--allow-zero-eta")},
    "scans": {**{f"twin 1e6 alpha {alpha}": cli("bertrand", "--twin", "--alpha", alpha, "--min", 7,
                                                "--max", 10**6) for alpha in (2, 1.1)},
              "bertrand 1e6": cli("bertrand", "--min", 1, "--max", 10**6)},
    "specs": {"builders": ["-c", SPECS_CHILD]},
    "sweep": {"sweeps": ["-c", SWEEP_CHILD]},
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
    },
    "phi": {**{f"floor 1e{k}": ["-c", PHI_FLOOR_CHILD, str(k)] for k in (10, 11, 12, 13)},
            "per call": ["-c", PHI_PER_CALL_CHILD]},
}


def run(case: str, args: list[str], root: pathlib.Path, self_timing: bool) -> dict:
    """{case: {metric: value}} of ``python args`` in a fresh interpreter importing root/src."""
    argv = [sys.executable, *args]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    start = time.perf_counter()
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE if self_timing
                          else subprocess.DEVNULL) as child:
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
    return subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty"],
                          capture_output=True, text=True, check=True).stdout.strip()


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
                for name, metrics in run(case, args, sides[side], suite in SELF_TIMING).items():
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
