"""One lib-sweep session: a fresh interpreter running an operation list on the library.

Usage: python perfbench/lib_session.py OPS_JSON RESULT_JSON TRACE DEADLINE TABLE_LIMIT

Imports primelab, optionally installs the tracer (TRACE = 1), builds one
``sieve_primes(TABLE_LIMIT)`` table, then calls the public library once
per operation, timing each call.  No operation starts after DEADLINE (a
``time.time()`` value).  Results are written compactly to RESULT_JSON for
the benchmark to check; the process-global caches are left alone.
"""

import json
import resource
import sys
import time
import traceback
from time import perf_counter

start = perf_counter()
import primelab  # noqa: E402

import_ms = 1000 * (perf_counter() - start)

import tracer  # noqa: E402

SPECS = {
    "twin": lambda ps: primelab.ResidueSpec.twins(ps),
    "sophie": lambda ps: primelab.ResidueSpec.sophie_germain(ps),
    "2,6": lambda ps: primelab.ResidueSpec.for_tuple((2, 6), ps),
    "2,6,8": lambda ps: primelab.ResidueSpec.for_tuple((2, 6, 8), ps),
}


def call(op: dict, table):
    f = op["f"]
    if f == "legendre":
        return primelab.legendre_pi(op["x"], table)
    if f == "survivor":
        primes = [int(p) for p in primelab.sieving_prime_set(op["x"], table)]
        return primelab.survivor_count(op["x"], SPECS[op["spec"]](primes))
    if f == "goldbach":
        return primelab.goldbach_enumerate(op["two_n"], "EXACT", allow_zero_eta=True, table=table)
    if f == "brute_goldbach":
        return primelab.brute_goldbach_pairs(op["two_n"], table)
    if f == "span":
        return primelab.span_report(op["two_n"], table)
    if f == "schinzel":
        return primelab.schinzel_search(op["m"], op["n"], op["k_max"], table)
    if f == "naive_schinzel":
        return primelab.naive_schinzel_search(op["m"], op["n"], op["k_max"], table)
    if f == "psi":
        return primelab.psi_estimate(op["x"], table)
    if f == "omega":
        return primelab.omega_estimate(op["x"], table)
    if f == "bertrand":
        return primelab.bertrand_scan(2.0, 1, op["x"], table)
    if f == "hl":
        return primelab.hl_inequality_scan(op["x"], op["y"], table)
    if f == "xi":
        return primelab.xi_partial_sum(2.0, op["n"])
    raise ValueError(f"unknown operation {f!r}")


def compact(op: dict, result):
    """A JSON-sized form of the result, comparable with the benchmark's expected value."""
    f = op["f"]
    if f == "legendre":
        return [result.formula_value, result.oracle_value]
    if f in ("goldbach", "brute_goldbach"):
        pairs = tuple((int(p), int(q)) for p, q in result)
        return [len(pairs), hash(pairs)]
    if f == "span":
        return {"two_n": result.two_n, "M": result.M, "threshold": result.threshold,
                "feasible": result.feasible, "candidates": result.candidate_count,
                "min": result.candidate_min, "max": result.candidate_max, "span": result.span,
                "exceeds_threshold": result.exceeds_threshold}
    if f in ("schinzel", "naive_schinzel"):
        return [result.k, result.p, result.q] if result else None
    if f in ("psi", "omega"):
        return [result.estimate, result.oracle]
    if f in ("bertrand", "hl"):
        return [list(v) if isinstance(v, tuple) else v for v in result.failures]
    return result


def main() -> int:
    ops_path, out_path, trace, deadline, limit = sys.argv[1:6]
    deadline = float(deadline)
    with open(ops_path) as fh:
        ops = json.load(fh)
    tr = tracer.install() if trace == "1" else None
    table = primelab.sieve_primes(int(limit))
    latencies, results = [], []
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = perf_counter()
    for op in ops:
        if time.time() > deadline:
            break
        begin = perf_counter()
        try:
            result = call(op, table)
        except Exception:  # recorded as a failed operation; the sweep goes on
            latencies.append(perf_counter() - begin)
            results.append({"error": traceback.format_exc()})
            continue
        latencies.append(perf_counter() - begin)
        results.append(compact(op, result))
    wall = perf_counter() - t0
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
    data = {"import_ms": import_ms, "module": primelab.__file__, "latencies": latencies,
            "results": results, "wall": wall, "cpu": cpu}
    if tr is not None:
        data.update(tr.totals())
    with open(out_path, "w") as fh:
        json.dump(data, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
