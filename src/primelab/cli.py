"""Command-line surface: one binary, subcommand per capability.

Exit codes: 0 success (including "nothing found" scan outcomes, which are
findings), 2 usage error, 1 internal error or reproduction mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
from importlib import import_module
from typing import TYPE_CHECKING

from .reporting import FORMATS, Block, Report, report_parts

if TYPE_CHECKING:  # the handlers import what they run; see run_command
    from .residues import ResidueSpec

__all__ = ["main", "run_command", "reproduce_paper"]


# ---------------------------------------------------------------------------
# subcommand handlers: each fills the rows/warnings of a Report


def _cmd_primes(args, report: Report) -> int:
    from .sieve import count_primes, is_prime, table_for, use_cache

    if args.limit < 0:  # as sieve_primes refuses it, before a cache is read or written
        raise ValueError("limit must be nonnegative")
    report.params = {"limit": args.limit}
    if args.cache:
        use_cache(args.cache, args.limit)
    table = table_for(args.limit) if args.list or args.cache else None  # else counted a segment at a time
    count = count_primes(args.limit) if table is None else table.count_upto(args.limit)
    largest = next((n for n in range(args.limit, 1, -1) if is_prime(n)), None)  # down, off the table if any
    report.rows.append({"limit": args.limit, "count": count, "largest": largest})
    if args.list:
        report.rows.append(Block(p=table.prefix_le(args.limit)))
    return 0


# each kind's library function by name, looked up when it runs (so a rebinding is what runs)
_COUNT_KINDS = {"pi": "legendre_pi", "twin": "twin_count_formula", "tuple": "tuple_count_formula",
                "mersenne": "mersenne_exact_count", "fermat": "fermat_exact_count"}
_ESTIMATE_KINDS = {"psi": "psi_estimate", "omega": "omega_estimate", "ap-psi": "ap_psi_estimate",
                   "ap-omega": "ap_omega_estimate", "mersenne": "mersenne_estimate",
                   "fermat": "fermat_estimate", "twin-constant": "twin_constant_probe"}


def _cmd_count(args, report: Report) -> int:
    from . import counts, sieve
    from .residues import AdmissibleTuple

    if args.cache:  # the formulas read the sieving primes <= sqrt(x); an oracle reads past them uncached
        sieve.use_cache(args.cache, math.isqrt(max(args.x, 0)))
    report.params = {"kind": args.kind, "x": args.x}
    pattern = ()
    if args.kind == "tuple":
        try:
            offsets = tuple(int(t) for t in args.offsets.split(","))
        except ValueError:
            raise ValueError(f"malformed --offsets token {args.offsets!r}: want d,d,...") from None
        report.params["offsets"] = list(offsets)
        pattern = (AdmissibleTuple(offsets),)
    cr = getattr(counts, _COUNT_KINDS[args.kind])(args.x, *pattern)
    report.rows.append(cr.row())
    if cr.delta:
        report.warn(f"formula deviates from oracle by {cr.delta}")
    return 0


def _cmd_estimate(args, report: Report) -> int:
    from . import densities, sieve

    if args.cache:  # as in _cmd_count
        sieve.use_cache(args.cache, math.isqrt(max(args.x, 0)))
    report.params = {"kind": args.kind, "x": args.x}
    estimate = getattr(densities, _ESTIMATE_KINDS[args.kind])
    if args.kind == "twin-constant":  # rows over an x grid, not one report
        report.rows.extend(estimate([args.x]))
        return 0
    progression = (args.a, args.b) if args.kind.startswith("ap-") else ()
    er = estimate(args.x, *progression)
    report.rows.append(er.row())
    report.warnings.extend(er.warnings)
    return 0


def _parse_allow(tokens) -> ResidueSpec:
    """--allow m=r,r,... tokens as a spec holding each modulus by the residues it keeps (residues.Kept),
    so memory follows the residues given, whatever the modulus; the moduli are checked coprime in
    the order given, so an error names the later token."""
    from .residues import Kept, ResidueSpec, _check_coprime

    entries = []
    for token in tokens:
        head, _, tail = token.partition("=")
        try:
            m, allowed = int(head), frozenset(int(r) for r in tail.split(","))
        except ValueError:
            raise ValueError(f"malformed --allow token {token!r}: want m=r,r,...") from None
        if m < 1:
            raise ValueError(f"--allow modulus {m} is below 1")
        entries.append((m, allowed))
    _check_coprime(m for m, _ in entries)
    return ResidueSpec.from_pairs((m, Kept(m, allowed)) for m, allowed in sorted(entries))


def _cmd_crt(args, report: Report) -> int:
    from .crt import CongruenceSystem, crt_solve, crt_windows

    if args.congruence:
        pairs = []
        for token in args.congruence:
            try:
                r, m = map(int, token.split(":"))
            except ValueError:
                raise ValueError(f"malformed congruence token {token!r}: want r:m") from None
            pairs.append((r, m))
        sol = crt_solve(CongruenceSystem.of(pairs))
        report.params = {"congruences": list(args.congruence)}
        report.rows.append({"value": sol.value, "modulus": sol.modulus})
    if args.allow:
        spec = _parse_allow(args.allow)
        lo, hi = args.lo, args.hi if args.hi is not None else spec.modulus
        report.params.update({"allow": list(args.allow), "lo": lo, "hi": hi})
        blocks = [Block(n=window) for window in crt_windows(spec, lo, hi) if len(window)]
        report.rows.extend(blocks)
        if not blocks:
            report.warn("no values in range satisfy the residue choices")
    if not args.congruence and not args.allow:
        report.warn("nothing to do: give r:m congruences and/or --allow entries")
    return 0


def _cmd_goldbach(args, report: Report) -> int:
    from . import goldbach, sieve

    if args.cache:  # the command reads the sieving primes <= sqrt(2n)
        sieve.use_cache(args.cache, math.isqrt(max(args.even, 0)))
    report.params = {"even": args.even, "mode": args.mode,
                     "allow_zero_eta": args.allow_zero_eta}
    low = goldbach._pair_lows(args.even, args.mode.upper(), args.allow_zero_eta)
    report.rows.append(Block(p=low, q=args.even - low))
    if not len(low):
        report.warn("no prime pair found (a finding, not an error)")
    if args.span:
        report.rows.append(goldbach.span_report(args.even).row())
    if args.refine is not None:
        pair = goldbach.goldbach_refine(args.even, args.refine)
        row = {"refine_t": args.refine}
        if pair:
            row.update({"p": pair[0], "q": pair[1]})
        else:
            report.warn(f"refine({args.refine}) found no divisor-folded pair")
        report.rows.append(row)
    return 0


def _cmd_schinzel(args, report: Report) -> int:
    from . import schinzel

    report.params = {"num": args.num, "den": args.den, "max_k": args.max_k}
    result = schinzel.schinzel_search(args.num, args.den, args.max_k)
    if result is None:
        report.warn(f"no multiplier k <= {args.max_k} found (reported, not an error)")
    else:
        if result.reduced:
            report.warn(f"fraction reduced to {result.m}/{result.n} before the search")
        report.rows.append(dataclasses.asdict(result))
        for seq in schinzel.remainder_tables(result.m, result.n, result.k):
            report.rows.extend(seq.rows())
    return 0


def _cmd_bertrand(args, report: Report) -> int:
    from . import probes

    report.params = {"alpha": args.alpha, "min": args.min, "max": args.max,
                     "twin": args.twin}
    if args.twin:
        scan = probes.twin_bertrand_scan(args.min, args.max, args.alpha)
    else:
        scan = probes.bertrand_scan(args.alpha, args.min, args.max)
    report.rows.append(scan.row())
    report.rows.extend({"failure": f} for f in scan.failures)
    return 0


def _cmd_hl_scan(args, report: Report) -> int:
    from . import probes

    report.params = {"xmax": args.xmax, "ymax": args.ymax}
    scan = probes.hl_inequality_scan(args.xmax, args.ymax)
    report.rows.append(scan.row())
    report.rows.append(probes.hl_identity_row(args.xmax, args.ymax))
    report.rows.extend({"x": x, "y": y} for x, y in scan.failures)
    return 0


def _cmd_xi(args, report: Report) -> int:
    from . import probes

    if args.sigma:
        report.params = {"sigma": list(args.sigma)}
        report.rows.extend(probes.xi_sigma_probe(args.sigma))
    elif args.sum is not None:
        report.params = {"N": args.sum, "s": args.s}
        if args.s > 1:
            report.rows.append({"N": args.sum, "partial_sum":
                                probes.xi_partial_sum(args.s, args.sum)})
        else:
            report.warn("s <= 1: series diverges; emitting growth table")
            grid = [10 ** e for e in range(1, 8) if 10 ** e < args.sum] + [args.sum]
            report.rows.extend(probes.xi_divergence_probe(args.s, grid))
    else:
        report.warn("nothing to do: give --sigma values or --sum N --s S")
    return 0


def _cmd_mersenne_witness(args, report: Report) -> int:
    from . import probes

    report.params = {"k": args.k, "n": args.n}
    report.rows.append(probes.mersenne_composite_witness(args.k, args.n))
    return 0


# ---------------------------------------------------------------------------
# reproduction driver


def _golden_checks() -> list[tuple[str, object, object]]:
    """(name, got, want) triples for every worked example reproduced."""
    from . import counts, goldbach, schinzel
    from .crt import crt_enumerate
    from .residues import tight_tuples

    checks: list[tuple[str, object, object]] = []

    tw = counts.twin_count_formula(20)
    checks.append(("twin-count T(20) formula", tw.formula_value, 4))
    checks.append(("twin-count T(20) oracle", tw.oracle_value, 4))

    plan = goldbach.build_split_plan(100)
    checks.append(("even-100 class count", plan.class_count, 20))
    candidates = list(crt_enumerate(plan.eta_spec(), 1, 210))
    checks.append(("even-100 candidate set", candidates, [
        11, 17, 29, 41, 47, 53, 59, 71, 83, 89, 101, 113,
        131, 137, 143, 167, 173, 179, 197, 209,
    ]))
    checks.append(("even-100 exact pairs",
                   goldbach.goldbach_enumerate(100, "EXACT"),
                   [(11, 89), (17, 83), (29, 71), (41, 59), (47, 53)]))
    checks.append(("even-100 zero-part extension",
                   goldbach.goldbach_enumerate(100, "EXACT", allow_zero_eta=True),
                   [(3, 97), (11, 89), (17, 83), (29, 71), (41, 59), (47, 53)]))
    checks.append(("even-100 fixed-prefix group",
                   goldbach.fixed_prefix_candidates(100, (1, 2, 2)),
                   [17, 47, 107, 137, 167, 197]))
    checks.append(("even-100 refine 137", goldbach.goldbach_refine(100, 137), (47, 53)))

    pairs_49 = goldbach.twin_crt_search((2, 3, 5), 49)
    checks.append(("twin search {2,3,5} certified count",
                   sum(p.certified for p in pairs_49), 4))
    checks.append(("twin search {2,3,5} uppers",
                   [p.upper for p in pairs_49 if p.certified], [13, 19, 31, 43]))
    pairs_121 = goldbach.twin_crt_search((2, 3, 5, 7), 121)
    checks.append(("twin search {2,3,5,7} certified count",
                   sum(p.certified for p in pairs_121), 8))
    checks.append(("twin search {2,3,5,7} last pair",
                   (pairs_121[-1].lower, pairs_121[-1].upper), (107, 109)))
    for mu, want in (({2: 2, 3: 1}, (7, "PRIME-BY-CONSTRUCTION", True)),
                     ({2: 4, 3: 2}, (25, "OUT-OF-RANGE", False))):
        probe = goldbach.partition_probe({2}, {3}, mu, +1)
        checks.append((f"partition probe 2^{mu[2]} + 3^{mu[3]}",
                       (probe["alpha"], probe["verdict"], probe["is_prime"]), want))

    filt5 = sorted(schinzel.lambda_filter(11, 13, [5]).allowed(5))
    checks.append(("shifted-quotient allowed residues mod 5", filt5, [0, 2, 4]))
    filt7 = sorted(schinzel.lambda_filter(11, 13, [7]).allowed(7))
    checks.append(("shifted-quotient allowed residues mod 7", filt7, [0, 2, 4, 5, 6]))
    result = schinzel.schinzel_search(11, 13, 100)
    checks.append(("shifted-quotient 11/13 multiplier", result.k if result else None, 9))
    checks.append(("shifted-quotient 11/13 primes",
                   (result.p, result.q) if result else None, (197, 233)))

    checks.append(("tight tuple k=2", [t.offsets for t in tight_tuples(2)], [(2,)]))
    checks.append(("tight tuples k=3", [t.offsets for t in tight_tuples(3)],
                   [(2, 6), (4, 6)]))
    checks.append(("tight tuple k=4", [t.offsets for t in tight_tuples(4)], [(2, 6, 8)]))
    return checks


def reproduce_paper(force_mismatch: bool = False) -> Report:
    """Recompute every worked example and compare against its pinned value.

    force_mismatch corrupts one pinned value, proving the harness can
    actually fail; it must yield exactly one mismatch row.
    """
    report = Report("reproduce", {"force_mismatch": force_mismatch})
    checks = _golden_checks()
    if force_mismatch:
        name, got, _ = checks[0]
        checks[0] = (name, got, object())
    mismatches = 0
    for name, got, want in checks:
        ok = got == want
        mismatches += not ok
        report.rows.append({"check": name, "ok": ok,
                            "got": repr(got) if not ok else None})
    report.params["mismatches"] = mismatches
    if mismatches:
        report.warn(f"{mismatches} golden value(s) failed to reproduce")
    return report


def _cmd_reproduce(args, report: Report) -> int:
    result = reproduce_paper(force_mismatch=args.force_mismatch)
    report.params.update(result.params)
    report.rows = result.rows
    report.warnings.extend(result.warnings)
    return 1 if result.params["mismatches"] else 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default=argparse.SUPPRESS)
    common.add_argument("--cache", metavar="FILE", default=argparse.SUPPRESS,
                        help="prime cache file (created when missing)")
    parser = argparse.ArgumentParser(
        prog="primelab",
        description="Prime sieving, counting, CRT search, and conjecture probes.",
    )
    parser.add_argument("--format", choices=FORMATS, default="table")
    parser.add_argument("--cache", metavar="FILE", default=None,
                        help="prime cache file (created when missing)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_sub(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_sub("primes", help="sieve primes up to a limit")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--list", action="store_true", help="emit one row per prime")
    p.set_defaults(handler=_cmd_primes, modules=("sieve",))

    p = add_sub("count", help="exact inclusion-exclusion counts vs. oracles")
    p.add_argument("kind", choices=list(_COUNT_KINDS))
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--offsets", default="2,6", help="tuple offsets, comma separated")
    p.set_defaults(handler=_cmd_count, modules=("counts", "residues", "sieve"))

    p = add_sub("estimate", help="density heuristics vs. brute oracles")
    p.add_argument("kind", choices=list(_ESTIMATE_KINDS))
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--a", type=int, default=1, help="progression first term")
    p.add_argument("--b", type=int, default=2, help="progression difference")
    p.set_defaults(handler=_cmd_estimate, modules=("densities", "sieve"))

    p = add_sub("crt", help="solve and/or enumerate residue systems")
    p.add_argument("congruence", nargs="*", metavar="r:m",
                   help="congruence x = r (mod m)")
    p.add_argument("--allow", action="append", metavar="p=r1,r2,...",
                   help="allowed residues for enumeration; repeatable")
    p.add_argument("--lo", type=int, default=1)
    p.add_argument("--hi", type=int, default=None)
    p.set_defaults(handler=_cmd_crt, modules=("crt", "residues"))

    p = add_sub("goldbach", help="prime-pair search for an even target")
    p.add_argument("--even", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "guided"], default="exact")
    p.add_argument("--allow-zero-eta", action="store_true")
    p.add_argument("--span", action="store_true")
    p.add_argument("--refine", type=int, default=None, metavar="T")
    p.set_defaults(handler=_cmd_goldbach, modules=("goldbach", "sieve"))

    p = add_sub("schinzel", help="m/n as a quotient of shifted primes")
    p.add_argument("--num", type=int, required=True)
    p.add_argument("--den", type=int, required=True)
    p.add_argument("--max-k", type=int, default=1000)
    p.set_defaults(handler=_cmd_schinzel, modules=("schinzel",))

    p = add_sub("bertrand", help="prime / twin-pair interval scans")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--twin", action="store_true")
    p.set_defaults(handler=_cmd_bertrand, modules=("probes",))

    p = add_sub("hl-scan", help="subadditivity scan of the prime count")
    p.add_argument("--xmax", type=int, required=True)
    p.add_argument("--ymax", type=int, required=True)
    p.set_defaults(handler=_cmd_hl_scan, modules=("probes",))

    p = add_sub("xi", help="the 2^Omega Dirichlet series")
    p.add_argument("--sigma", type=float, nargs="+", default=None)
    p.add_argument("--sum", type=int, default=None, metavar="N")
    p.add_argument("--s", type=float, default=2.0)
    p.set_defaults(handler=_cmd_xi, modules=("probes",))

    p = add_sub("mersenne-witness", help="composite Mersenne witness q = k*2^n - 1")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_mersenne_witness, modules=("probes",))

    p = add_sub("reproduce", help="recompute all worked examples")
    p.add_argument("--force-mismatch", action="store_true",
                   help="self-test: corrupt one pinned value")
    p.set_defaults(handler=_cmd_reproduce,
                   modules=("counts", "crt", "goldbach", "residues", "schinzel"))

    return parser


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    for module in args.modules:  # loaded here, so that runtime_ms times the handler's work alone
        import_module(f"{__package__}.{module}")
    if getattr(args, "sigma", None):  # xi --sigma's probe, the one user of mpmath
        import_module("mpmath")
    report = Report(args.subcommand, {})
    start = time.perf_counter()
    try:
        code = args.handler(args, report)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)  # a bare MemoryError says nothing
        return 1
    report.runtime_ms = int((time.perf_counter() - start) * 1000)
    sys.stdout.writelines(report_parts(report, args.format))  # written as it is rendered
    print()
    return code


def main() -> None:
    # primelab calls no BLAS routine: keep numpy's OpenBLAS from starting a thread pool
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # reader gone (`| head`): silence stdout so the exit-time flush cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
