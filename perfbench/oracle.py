"""Checks every output of a run against values computed with the benchmark's own sieve.

Usage: python perfbench/oracle.py RUN_DIR

Run as its own process once the timed passes are over: it reads
RUN_DIR/check-in.json (workload, operations, and the operations each pass
attempted) plus each pass's outputs, and writes RUN_DIR/check-out.json
with one verdict per attempted operation (None when correct).  Keeping the
sieve and the parsed outputs out of run.py keeps that parent process small, and
a child's peak RSS (read through wait4) starts from its parent's.

Nothing here imports primelab: every value is recomputed from its
definition (prime counts, pair counts, residue filters over a range,
direct primality scans), once per operation.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np


class Primes:
    """Odd-only sieve of Eratosthenes: ``odd[i]`` is True iff 2i + 1 is prime."""

    def __init__(self, limit: int):
        self.limit = limit
        odd = np.ones((limit + 1) // 2, dtype=bool)
        odd[0] = False
        for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
            if odd[i]:
                p = 2 * i + 1
                odd[p * p // 2 :: p] = False
        self.odd = odd

    def is_prime(self, n: int) -> bool:
        if n > self.limit:
            raise ValueError(f"{n} exceeds sieve limit {self.limit}")
        if n < 3:
            return n == 2
        return n % 2 == 1 and bool(self.odd[n // 2])

    def pi(self, x: int) -> int:
        if x < 2:
            return 0
        return 1 + int(np.count_nonzero(self.odd[1 : (x - 1) // 2 + 1]))

    def upto(self, x: int) -> np.ndarray:
        """Ascending primes <= x."""
        if x < 2:
            return np.array([], dtype=np.int64)
        odd = 2 * np.flatnonzero(self.odd[: (x - 1) // 2 + 1]) + 1
        return np.concatenate(([2], odd)).astype(np.int64)

    def is_prime_array(self, n: np.ndarray) -> np.ndarray:
        return (n == 2) | ((n % 2 == 1) & self.odd[n // 2])

    def flags(self, hi: int) -> np.ndarray:
        """is_prime for 0..hi as one bool array."""
        out = np.zeros(hi + 1, dtype=bool)
        out[self.upto(hi)] = True
        return out

    def pattern_count(self, x: int, offsets: tuple[int, ...]) -> int:
        """Odd p with p, p + b for every b in offsets all prime and p + offsets[-1] <= x.

        Offsets are even, so p = 2 never qualifies.  (2,) counts twin pairs
        by their upper member p + 2 <= x.
        """
        top = (x - offsets[-1] - 1) // 2  # largest i with 2i + 1 + last <= x
        if top < 1:
            return 0
        mask = self.odd[1 : top + 1].copy()
        for b in offsets:
            mask &= self.odd[1 + b // 2 : top + 1 + b // 2]
        return int(np.count_nonzero(mask))


# ---------------------------------------------------------------------------
# survivor counts: n in [1, x] avoiding forbidden residues mod each p <= sqrt(x)


@functools.lru_cache(maxsize=None)
def forbidden(pattern: str, p: int) -> list[int]:
    """Residues r mod p that put a prime factor p into the pattern's members.

    ``twin``: n and n - 2; ``sophie``: n and 2n + 1; an offset list
    ``b1,...,bk``: the last member n and n - (bk - b) for each b.
    """
    if pattern == "twin":
        members = lambda r: (r, r - 2)
    elif pattern == "sophie":
        members = lambda r: (r, 2 * r + 1)
    else:
        offsets = [0, *map(int, pattern.split(","))]
        members = lambda r: tuple(r - (offsets[-1] - b) for b in offsets)
    return [r for r in range(p) if any(v % p == 0 for v in members(r))]


def survivors(primes: Primes, x: int, pattern: str) -> int:
    mask = np.ones(x + 1, dtype=bool)
    mask[0] = False
    for p in primes.upto(math.isqrt(x)).tolist():
        for r in forbidden(pattern, p):
            mask[r if r else p :: p] = False
    return int(np.count_nonzero(mask))


# ---------------------------------------------------------------------------
# Goldbach, span, CRT, Schinzel, densities, probes


def goldbach_pairs(primes: Primes, two_n: int) -> list[tuple[int, int]]:
    """Every (p, q) with p <= q both prime and p + q = two_n."""
    small = primes.upto(two_n // 2)
    other = two_n - small
    keep = primes.is_prime_array(other)
    return [(int(p), int(q)) for p, q in zip(small[keep], other[keep])]


def goldbach_expected(primes: Primes, two_n: int, mode: str, zero_eta: bool) -> list[tuple[int, int]]:
    """The CLI's pair list: pairs whose smaller member exceeds isqrt(2n), the
    first of them only in guided mode, plus with zero-eta every pair whose
    smaller member is at most isqrt(2n)."""
    root = math.isqrt(two_n)
    pairs = goldbach_pairs(primes, two_n)
    large = [pq for pq in pairs if pq[0] > root]
    if mode == "guided":
        large = large[:1]
    if zero_eta:
        return sorted(large + [pq for pq in pairs if pq[0] <= root])
    return large


def span_expected(primes: Primes, two_n: int) -> dict:
    """CRT candidates over one period [1, M]: n avoiding 0 and 2n mod every p <= sqrt(2n)."""
    ps = primes.upto(math.isqrt(two_n)).tolist()
    m = math.prod(ps)
    out = {"two_n": two_n, "M": m, "threshold": m - two_n, "feasible": ps[-1] <= 13}
    if out["feasible"]:
        n = np.arange(1, m + 1, dtype=np.int64)
        mask = np.ones(m, dtype=bool)
        for p in ps:
            res = n % p
            mask &= (res != 0) & (res != two_n % p)
        cands = n[mask]
        lo, hi = int(cands[0]), int(cands[-1])
        out.update(candidates=len(cands), min=lo, max=hi, span=hi - lo,
                   exceeds_threshold=hi - lo > m - two_n)
    return out


def crt_values(allow, lo: int, hi: int) -> list[int]:
    n = np.arange(lo, hi + 1, dtype=np.int64)
    mask = np.ones(len(n), dtype=bool)
    for p, residues in allow:
        mask &= np.isin(n % p, residues)
    return n[mask].tolist()


def schinzel_k(primes: Primes, m: int, n: int, k_max: int):
    """(k, p, q) for the least k <= k_max with 2mk - 1 and 2nk - 1 both prime."""
    g = math.gcd(m, n)
    m, n = m // g, n // g
    for k in range(1, k_max + 1):
        p, q = 2 * m * k - 1, 2 * n * k - 1
        if primes.is_prime(p) and primes.is_prime(q):
            return [k, p, q]
    return None


def _log_product(factors) -> float:
    return math.exp(math.fsum(math.log(f) for f in factors))


def psi_expected(primes: Primes, x: int) -> list:
    ps = primes.upto(math.isqrt(x)).tolist()
    return [x * _log_product(1 - 1 / p for p in ps), primes.pi(x)]


def omega_expected(primes: Primes, x: int) -> list:
    ps = primes.upto(math.isqrt(x)).tolist()
    return [x / 2 * _log_product(1 - 2 / p for p in ps if p != 2), primes.pattern_count(x, (2,))]


def bertrand_failures(primes: Primes, x: int) -> list[int]:
    pi = np.cumsum(primes.flags(2 * x))
    n = np.arange(1, x + 1)
    return n[pi[2 * n] == pi[n]].tolist()


def hl_failures(primes: Primes, x_max: int, y_max: int) -> list[list[int]]:
    pi = np.cumsum(primes.flags(x_max + y_max))
    x = np.arange(2, x_max + 1)[:, None]
    y = np.arange(2, y_max + 1)[None, :]
    bad = np.argwhere(pi[x + y] > pi[x] + pi[y])
    return sorted([int(a) + 2, int(b) + 2] for a, b in bad)


def xi_sum(primes: Primes, n_terms: int) -> float:
    """Sum over n <= N of 2^Omega(n) / n^2; Omega(n) counts the prime powers dividing n."""
    omega = np.zeros(n_terms + 1, dtype=np.int64)
    for p in primes.upto(n_terms).tolist():
        pk = p
        while pk <= n_terms:
            omega[pk::pk] += 1
            pk *= p
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    return math.fsum((np.exp2(omega[1:].astype(np.float64)) / n**2).tolist())


# ---------------------------------------------------------------------------
# expected values per operation


def sieve_limit(workload: str, ops: list[dict]) -> int:
    if workload == "cli-count":  # pi's x, and trial division of 2^q +- 1 for q < 40
        return max([op["params"]["x"] for op in ops if op["params"]["kind"] == "pi"] + [2 * 10**6])
    if workload == "cli-enumerate":  # goldbach and primes <= 1e6; schinzel 2 * 200 * 1000
        return 12 * 10**5
    return max(op.get("x", 0) for op in ops) + 10**5  # legendre's x; the rest is smaller


def expected_cli(primes: Primes, op: dict):
    p = op["params"]
    family = op["family"]
    if family.startswith("count-"):
        x, kind = p["x"], p["kind"]
        root = math.isqrt(x)
        if kind == "pi":
            truth = primes.pi(x)
            return {"formula": truth, "oracle": truth}
        if kind in ("twin", "tuple"):
            offsets, pattern = ((2,), "twin") if kind == "twin" else ((2, 6), "2,6")
            return {"formula": survivors(primes, x, pattern) + primes.pattern_count(root, offsets),
                    "oracle": primes.pattern_count(x, offsets)}
        sign = -1 if kind == "mersenne" else 1
        u = x.bit_length() - 1
        truth = sum(1 for q in range(1, u + 1) if _trial_prime(primes, (1 << q) + sign))
        return {"formula": truth, "oracle": truth}
    if family.startswith("goldbach"):
        out = {"pairs": goldbach_expected(primes, p["even"], p["mode"], p["zero_eta"])}
        if p.get("span"):
            out["span"] = span_expected(primes, p["even"])
        return out
    if family.startswith("crt"):
        return {"values": crt_values(p["allow"], p["lo"], p["hi"])}
    if family == "primes-list":
        return {"primes": primes.upto(p["limit"]).tolist()}
    if family == "schinzel":
        return {"kpq": schinzel_k(primes, p["m"], p["n"], p["k_max"])}
    raise ValueError(family)


def _trial_prime(primes: Primes, n: int) -> bool:
    if n < 2:
        return False
    divisors = primes.upto(math.isqrt(n))
    return not np.any(n % divisors == 0)


def expected_lib(primes: Primes, op: dict):
    f = op["f"]
    if f == "legendre":
        truth = primes.pi(op["x"])
        return [truth, truth]
    if f == "survivor":
        return survivors(primes, op["x"], op["spec"])
    if f in ("goldbach", "brute_goldbach"):
        return pair_digest(goldbach_pairs(primes, op["two_n"]))
    if f == "span":
        return span_expected(primes, op["two_n"])
    if f in ("schinzel", "naive_schinzel"):
        return schinzel_k(primes, op["m"], op["n"], op["k_max"])
    if f == "psi":
        return psi_expected(primes, op["x"])
    if f == "omega":
        return omega_expected(primes, op["x"])
    if f == "bertrand":
        return bertrand_failures(primes, op["x"])
    if f == "hl":
        return hl_failures(primes, op["x"], op["y"])
    if f == "xi":
        return xi_sum(primes, op["n"])
    raise ValueError(f)


def pair_digest(pairs) -> list[int]:
    """Count and hash of a pair list; the session reports the same for its result."""
    pairs = tuple((int(p), int(q)) for p, q in pairs)
    return [len(pairs), hash(pairs)]


def check_lib(op: dict, got, want) -> str | None:
    """None when the session's compact result matches the expected value."""
    f = op["f"]
    if f in ("psi", "omega"):
        ok = got[1] == want[1] and math.isclose(got[0], want[0], rel_tol=1e-9)
    elif f == "xi":
        ok = math.isclose(got, want, rel_tol=1e-9)
    elif f == "span":
        ok = all(got.get(k) == v for k, v in want.items())
    else:
        ok = got == want
    return None if ok else f"{f}{ {k: v for k, v in op.items() if k != 'f'} }: got {got!r}, want {want!r}"


# ---------------------------------------------------------------------------
# reading the CLI's output back


def parse_rows(stdout: str, fmt: str) -> list[dict]:
    """Rows as {field: text}; empty cells are ''."""
    if fmt == "json":
        return [{k: _text(v) for k, v in row.items()} for row in json.loads(stdout)["rows"]]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(stdout)))
    lines = stdout.rstrip("\n").split("\n")
    i = 1
    if i < len(lines) and lines[i].startswith("  "):
        i += 1  # params line
    if i >= len(lines) or lines[i].startswith(("! ", "(")):
        return []
    header = [(m.start(), m.group()) for m in re.finditer(r"\S+", lines[i])]
    rows = []
    for line in lines[i + 1 :]:
        if line.startswith(("! ", "(")):
            break
        bounds = [s for s, _ in header[1:]] + [None]
        rows.append({name: line[start:end].strip() for (start, name), end in zip(header, bounds)})
    return rows


def _text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (dict, list)):
        return json.dumps(value)
    return str(value)


def check_cli(op: dict, rows: list[dict], want: dict) -> str | None:
    """None when the parsed rows hold exactly the expected values."""
    family = op["family"]
    try:
        if family.startswith("count-"):
            got = {k: int(rows[0][k]) for k in ("formula", "oracle")}
            return None if got == want else f"count: got {got}, want {want}"
        if family.startswith("goldbach"):
            pairs = [(int(r["p"]), int(r["q"])) for r in rows if r.get("p") and not r.get("two_n")]
            if pairs != want["pairs"]:
                return f"goldbach: {len(pairs)} pairs differ from the {len(want['pairs'])} expected"
            if "span" in want:
                row = next(r for r in rows if r.get("two_n"))
                got = {k: row[k] for k in want["span"]}
                if got != {k: _text(v) for k, v in want["span"].items()}:
                    return f"span: got {got}, want {want['span']}"
            return None
        if family.startswith("crt"):
            got = [int(r["n"]) for r in rows]
            return None if got == want["values"] else f"crt: {len(got)} values differ from the {len(want['values'])} expected"
        if family == "primes-list":
            head, rest = rows[0], [int(r["p"]) for r in rows[1:]]
            primes = want["primes"]
            summary = (int(head["count"]), int(head["largest"]))
            if summary != (len(primes), primes[-1]) or rest != primes:
                return f"primes: summary {summary} or list differs from {len(primes)} expected"
            return None
        if family == "schinzel":
            got = [int(rows[0][k]) for k in ("k", "p", "q")] if rows and rows[0].get("k") else None
            return None if got == want["kpq"] else f"schinzel: got {got}, want {want['kpq']}"
    except (KeyError, IndexError, ValueError, StopIteration, json.JSONDecodeError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"
    raise ValueError(family)


# ---------------------------------------------------------------------------


def main(run_dir: Path) -> int:
    spec = json.loads((run_dir / "check-in.json").read_text())
    workload, ops = spec["workload"], spec["ops"]
    primes = Primes(sieve_limit(workload, ops))
    cold = workload != "lib-sweep"
    expected: dict[int, object] = {}
    verdicts = []
    for pass_no, attempted in enumerate(spec["attempted"]):
        if not cold:
            results = json.loads((run_dir / f"session-{pass_no}.json").read_text())["results"]
        errors = []
        for i in attempted:
            op = ops[i]
            if i not in expected:
                expected[i] = (expected_cli if cold else expected_lib)(primes, op)
            if cold:
                text = (run_dir / f"op{i:04d}-{pass_no}.out").read_text()
                errors.append(check_cli(op, parse_rows(text, op["params"].get("format", "json")), expected[i]))
            elif isinstance(results[i], dict) and "error" in results[i]:
                errors.append(results[i]["error"].strip().splitlines()[-1])
            else:
                errors.append(check_lib(op, results[i], expected[i]))
        verdicts.append(errors)
    (run_dir / "check-out.json").write_text(json.dumps({"errors": verdicts, "numpy": np.__version__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
