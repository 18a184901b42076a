"""Spans around primelab's public functions, installed from outside the package.

``install()`` replaces every binding of each named function across the
loaded ``primelab.*`` namespaces (``from .sieve import is_prime`` leaves a
copy in six modules, and ``cli`` binds five functions again), so every
call goes through a wrapper that records a span.  A named function that
is missing raises at once: a later rename must not report zero.

A span's self time is its duration minus its direct child spans.  Lazy
iterators (``crt_enumerate``) are timed inside each ``next``.  Spans stay
in memory; ``Tracer.totals`` is written out when the traced process ends,
and ``layer_metrics`` turns the totals of a run into per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

TARGETS = {
    "sieve": ("sieve_primes", "is_prime", "load_cache", "save_cache"),
    "residues": ("twin_forbidden", "sophie_forbidden", "tuple_forbidden", "is_admissible",
                 "tight_tuples", "remainder_sequence", "ap_residue_sequence",
                 "ResidueSpec.from_pairs", "ResidueSpec.twins", "ResidueSpec.sophie_germain",
                 "ResidueSpec.primes_only", "ResidueSpec.for_tuple"),
    "counts": ("legendre_pi", "twin_count_formula", "tuple_count_formula",
               "mersenne_exact_count", "fermat_exact_count", "survivor_count",
               "multiplicative_order", "brute_pi", "brute_twin_count", "brute_tuple_count"),
    "crt": ("crt_enumerate",),
    "goldbach": ("goldbach_enumerate", "brute_goldbach_pairs", "span_report"),
    "schinzel": ("schinzel_search", "naive_schinzel_search"),
    "densities": ("psi_estimate", "omega_estimate", "omega_k_estimate", "ap_psi_estimate",
                  "ap_omega_estimate", "mersenne_estimate", "fermat_estimate",
                  "brute_ap_prime_count", "brute_ap_twin_count", "brute_mersenne_count",
                  "brute_fermat_count"),
    "probes": ("bertrand_scan", "twin_bertrand_scan", "hl_inequality_scan", "hl_identity_row",
               "xi_partial_sum", "xi_euler_product", "xi_smooth_series", "xi_sigma_probe",
               "xi_divergence_probe"),
    "reporting": ("format_report",),
}

COUNT_ORACLES = ("counts.brute_pi", "counts.brute_twin_count", "counts.brute_tuple_count")
COUNT_FORMULAS = ("counts.legendre_pi", "counts.twin_count_formula", "counts.tuple_count_formula",
                  "counts.mersenne_exact_count", "counts.fermat_exact_count",
                  "counts.survivor_count", "counts.multiplicative_order")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, child seconds]
        self.fn = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, seconds, self seconds
        self.by_caller = defaultdict(float)  # "name<-layer" -> seconds, oracles only
        self.counters = defaultdict(float)

    def call(self, name: str, fn, args, kwargs, count: bool = True):
        frame = [name, 0.0]
        parent = self.stack[-1] if self.stack else None
        self.stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self.stack.pop()
            if parent is not None:
                parent[1] += elapsed
            stats = self.fn[name]
            stats[0] += count
            stats[1] += elapsed
            stats[2] += elapsed - frame[1]
            if name in COUNT_ORACLES:
                caller = parent[0].split(".")[0] if parent else "top"
                self.by_caller[f"{name}<-{caller}"] += elapsed

    def parent_name(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def totals(self) -> dict:
        return {"fn": self.fn, "by_caller": self.by_caller, "counters": self.counters}


class _TracedIter:
    """Times each ``next`` of a lazy iterator as a span of the function that made it."""

    def __init__(self, tracer: Tracer, name: str, it):
        self.tracer, self.name, self.it = tracer, name, iter(it)

    def __iter__(self):
        return self

    def __next__(self):
        parent = self.tracer.parent_name()
        value = self.tracer.call(self.name, next, (self.it,), {}, count=False)
        self.tracer.counters["crt.values"] += 1
        if parent == "goldbach.goldbach_enumerate":
            self.tracer.counters["goldbach.candidates"] += 1
        return value


def _file_size(target) -> int:
    return os.path.getsize(target) if isinstance(target, (str, os.PathLike)) else 0


def _after(tracer: Tracer, name: str, sig, args, kwargs, result):
    """Work counters read off a call's arguments and result."""
    c = tracer.counters
    if name == "sieve.sieve_primes":
        c["sieve.max_limit"] = max(c["sieve.max_limit"], args[0])
    elif name == "sieve.load_cache":
        c["sieve.cache_bytes"] += _file_size(args[0])
    elif name == "sieve.save_cache":
        c["sieve.cache_bytes"] += _file_size(args[1])
    elif name == "goldbach.goldbach_enumerate":
        c["goldbach.pairs"] += len(result)
    elif name == "schinzel.schinzel_search":
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        c["schinzel.k_tested"] += result.k if result else bound.arguments["k_max"]
    elif name == "reporting.format_report":
        c["reporting.rows"] += len(args[0].rows)
        c["reporting.bytes"] += len(result.encode())


_COUNTED = {"sieve.sieve_primes", "sieve.load_cache", "sieve.save_cache",
            "goldbach.goldbach_enumerate", "schinzel.schinzel_search", "reporting.format_report"}


def _wrap(tracer: Tracer, name: str, fn):
    if name == "crt.crt_enumerate":
        def traced(*args, **kwargs):
            return _TracedIter(tracer, name, tracer.call(name, fn, args, kwargs))
    elif name in _COUNTED:
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            _after(tracer, name, sig, args, kwargs, result)
            return result
    else:
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    return traced


def install() -> Tracer:
    """Wrap every target function in every loaded primelab namespace."""
    tracer = Tracer()
    for layer, names in TARGETS.items():
        module = importlib.import_module(f"primelab.{layer}")
        for qualname in names:
            name = f"{layer}.{qualname}"
            if "." in qualname:  # a classmethod: one binding, on the class
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name, None)
                method = cls.__dict__.get(attr) if cls is not None else None
                if not isinstance(method, classmethod):
                    raise SystemExit(f"trace: {name} is not a classmethod of primelab.{layer}")
                setattr(cls, attr, classmethod(_wrap(tracer, name, method.__func__)))
                continue
            fn = getattr(module, qualname, None)
            if not callable(fn) or getattr(fn, "__module__", None) != module.__name__:
                raise SystemExit(f"trace: primelab.{layer}.{qualname} not found")
            traced = _wrap(tracer, name, fn)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "primelab" or mod_name.startswith("primelab."):
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, traced)
    return tracer


# ---------------------------------------------------------------------------
# per-layer metrics of one traced run

PER_LAYER = {
    # name: (unit, better)
    "cli.import_ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "sieve.sieve_primes.ms": ("ms", "lower"),
    "sieve.sieve_primes.calls": ("count", "lower"),
    "sieve.sieve_primes.max_limit": ("count", "lower"),
    "sieve.load_cache.ms": ("ms", "lower"),
    "sieve.save_cache.ms": ("ms", "lower"),
    "sieve.cache_bytes": ("B", "lower"),
    "sieve.is_prime.calls": ("count", "lower"),
    "sieve.is_prime.ms": ("ms", "lower"),
    "counts.formula_ms": ("ms", "lower"),
    "counts.oracle_ms": ("ms", "lower"),
    "counts.legendre_pi.self_ms": ("ms", "lower"),
    "counts.twin_count_formula.self_ms": ("ms", "lower"),
    "counts.survivor_count.ms": ("ms", "lower"),
    "counts.survivor_count.calls": ("count", "lower"),
    "counts.multiplicative_order.ms": ("ms", "lower"),
    "counts.multiplicative_order.calls": ("count", "lower"),
    "residues.ms": ("ms", "lower"),
    "crt.crt_enumerate.ms": ("ms", "lower"),
    "crt.crt_enumerate.values": ("count", "lower"),
    "crt.crt_enumerate.calls": ("count", "lower"),
    "goldbach.goldbach_enumerate.self_ms": ("ms", "lower"),
    "goldbach.candidates": ("count", "lower"),
    "goldbach.pairs": ("count", "higher"),
    "goldbach.yield": ("ratio", "higher"),
    "goldbach.brute_goldbach_pairs.ms": ("ms", "lower"),
    "goldbach.span_report.ms": ("ms", "lower"),
    "schinzel.schinzel_search.ms": ("ms", "lower"),
    "schinzel.k_tested": ("count", "lower"),
    "schinzel.naive_schinzel_search.ms": ("ms", "lower"),
    "densities.formula_ms": ("ms", "lower"),
    "densities.oracle_ms": ("ms", "lower"),
    "probes.scan_ms": ("ms", "lower"),
    "probes.xi_ms": ("ms", "lower"),
    "reporting.format_report.ms": ("ms", "lower"),
    "reporting.rows": ("count", "lower"),
    "reporting.bytes": ("B", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _names(layer: str, prefix: str = "") -> list[str]:
    return [f"{layer}.{n}" for n in TARGETS[layer] if n.startswith(prefix)]


def layer_metrics(dumps: list[dict], n_ops: int, import_ms: float, overhead: float) -> dict:
    """Per-operation means of the traced totals (ms, calls, bytes, counts).

    ``max_limit`` is the run's largest sieve, ``goldbach.yield`` a ratio of
    totals, ``cli.import_ms`` the mean import time of one traced process.
    """
    fn = defaultdict(lambda: [0, 0.0, 0.0])
    by_caller, counters = defaultdict(float), defaultdict(float)
    for d in dumps:
        for name, stats in d["fn"].items():
            for i in range(3):
                fn[name][i] += stats[i]
        for key, value in d["by_caller"].items():
            by_caller[key] += value
        for key, value in d["counters"].items():
            counters[key] = max(counters[key], value) if key == "sieve.max_limit" else counters[key] + value
    per_op = 1.0 / max(n_ops, 1)

    def ms(names, column=1):
        return 1000 * per_op * sum(fn[n][column] for n in names)

    def calls(name):
        return per_op * fn[name][0]

    density_fns = [n for n in _names("densities") if not n.startswith("densities.brute_")]
    density_oracles = [n for n in _names("densities") if n.startswith("densities.brute_")]
    densities_oracle_ms = ms(density_oracles) + 1000 * per_op * sum(
        by_caller[f"{n}<-densities"] for n in COUNT_ORACLES)
    count_oracle_ms = 1000 * per_op * sum(
        v for k, v in by_caller.items() if not k.endswith("<-densities"))
    candidates = counters["goldbach.candidates"]
    return {
        "cli.import_ms": import_ms,
        "cli.self_ms": ms(["cli.run_command"], 2),
        "sieve.sieve_primes.ms": ms(["sieve.sieve_primes"]),
        "sieve.sieve_primes.calls": calls("sieve.sieve_primes"),
        "sieve.sieve_primes.max_limit": counters["sieve.max_limit"],
        "sieve.load_cache.ms": ms(["sieve.load_cache"]),
        "sieve.save_cache.ms": ms(["sieve.save_cache"]),
        "sieve.cache_bytes": per_op * counters["sieve.cache_bytes"],
        "sieve.is_prime.calls": calls("sieve.is_prime"),
        "sieve.is_prime.ms": ms(["sieve.is_prime"]),
        "counts.formula_ms": ms(COUNT_FORMULAS, 2),
        "counts.oracle_ms": count_oracle_ms,
        "counts.legendre_pi.self_ms": ms(["counts.legendre_pi"], 2),
        "counts.twin_count_formula.self_ms": ms(["counts.twin_count_formula"], 2),
        "counts.survivor_count.ms": ms(["counts.survivor_count"]),
        "counts.survivor_count.calls": calls("counts.survivor_count"),
        "counts.multiplicative_order.ms": ms(["counts.multiplicative_order"]),
        "counts.multiplicative_order.calls": calls("counts.multiplicative_order"),
        "residues.ms": ms(_names("residues"), 2),
        "crt.crt_enumerate.ms": ms(["crt.crt_enumerate"]),
        "crt.crt_enumerate.values": per_op * counters["crt.values"],
        "crt.crt_enumerate.calls": calls("crt.crt_enumerate"),
        "goldbach.goldbach_enumerate.self_ms": ms(["goldbach.goldbach_enumerate"], 2),
        "goldbach.candidates": per_op * candidates,
        "goldbach.pairs": per_op * counters["goldbach.pairs"],
        "goldbach.yield": counters["goldbach.pairs"] / candidates if candidates else 0.0,
        "goldbach.brute_goldbach_pairs.ms": ms(["goldbach.brute_goldbach_pairs"]),
        "goldbach.span_report.ms": ms(["goldbach.span_report"]),
        "schinzel.schinzel_search.ms": ms(["schinzel.schinzel_search"]),
        "schinzel.k_tested": per_op * counters["schinzel.k_tested"],
        "schinzel.naive_schinzel_search.ms": ms(["schinzel.naive_schinzel_search"]),
        "densities.formula_ms": ms(density_fns, 2),
        "densities.oracle_ms": densities_oracle_ms,
        "probes.scan_ms": ms(_names("probes", "bertrand") + _names("probes", "twin_bertrand")
                             + _names("probes", "hl_")),
        "probes.xi_ms": ms(_names("probes", "xi_")),
        "reporting.format_report.ms": ms(["reporting.format_report"]),
        "reporting.rows": per_op * counters["reporting.rows"],
        "reporting.bytes": per_op * counters["reporting.bytes"],
        "trace.overhead_frac": overhead,
    }
