"""Benchmark of primelab: three workloads, checked outputs, traced layers.

Run from the root of a checkout (nothing needs installing; every child
process imports the checkout's own ``src/`` through PYTHONPATH):

    python3 perfbench/run.py --workload cli-count --seed 1 --seconds 35 --trace 0

Workloads (see perfbench/README.md for why each exists):
  cli-count      one fresh ``python -m primelab.cli --format json count ...`` per operation
  cli-enumerate  goldbach / crt / primes / schinzel, one fresh interpreter each, shared --cache
  lib-sweep      one warm interpreter calling the library on consecutive inputs

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` the run makes the same operations twice -- plain, then
through the tracer -- and reports the per-layer metrics and the tracing
overhead.  Every run writes a record (operations, per-operation results,
metrics, versions) under perfbench/runs/.  Closed loop, one client: at
most one child process is alive at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

import gen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

SETUP_SAMPLES = 6  # lib-sweep: half before its session, half after
OP_TIMEOUT = 60.0  # seconds one operation may take before it is killed and failed
START_BY = 130.0  # no operation starts later than this after the run began
END_BY = 150.0  # nor runs past this
CHECK_BY = 170.0  # the output checks end by then

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "cpu_per_op_ms": "ms",
    "setup_s": "s",
}


class SetupError(Exception):
    """The checkout cannot be measured (no primelab sources, import fails)."""


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def spawn(argv: list[str], out_path: Path, timeout: float) -> dict:
    """Run one child to completion; wall time, CPU and peak RSS via wait4."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        begin = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killed = threading.Event()
        killer = threading.Timer(timeout, lambda: (killed.set(), proc.kill()))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - begin
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024, "code": proc.returncode,
            "timed_out": killed.is_set()}


def child_failure(res: dict, out_path: Path) -> str | None:
    stderr = out_path.with_suffix(".err").read_text(errors="replace")
    if res["timed_out"]:
        return "timed out"
    if "Traceback" in stderr:
        return "traceback: " + stderr.strip().splitlines()[-1]
    if res["code"] != 0:
        return f"exit code {res['code']}: {stderr.strip()[:200]}"
    return None


def setup_probe(workload: str, run_dir: Path) -> float:
    """Wall time of one fresh interpreter doing the workload's set-up."""
    if workload == "lib-sweep":
        code = (f"import primelab; primelab.sieve_primes({gen.LIB_TABLE_LIMIT}); "
                "print(primelab.__file__)")
    else:
        code = "import primelab.cli; print(primelab.cli.__file__)"
    out = run_dir / "setup.out"
    res = spawn([sys.executable, "-c", code], out, OP_TIMEOUT)
    failure = child_failure(res, out)
    if failure:
        raise SetupError(f"set-up probe failed: {failure}")
    loaded = Path(out.read_text().strip()).resolve()
    if SRC.resolve() not in loaded.parents:
        raise SetupError(f"primelab imported from {loaded}, not from {SRC}")
    return res["wall"]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten samples beyond it, at most p90."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    rank = (9 * n + 9) // 10 if n >= 100 else n - 10  # nearest rank
    return 100.0 * rank / n, ordered[rank - 1]


def summarise(result: dict) -> tuple[dict, dict]:
    """End-to-end metrics of one pass, and the tail's percentile and sample count."""
    latencies = result["latencies"]
    n = len(latencies)
    pct, tail_value = tail(latencies)
    metrics = {
        "ops_per_s": n / result["wall"],
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail_value,
        "peak_rss_mb": result["rss_mb"],
        "cpu_per_op_ms": 1000 * result["cpu"] / n,
    }
    if result["setup"]:  # a traced run makes no set-up probes
        metrics["setup_s"] = statistics.median(result["setup"])
    return metrics, {"samples": n, "tail_percentile": pct}


# ---------------------------------------------------------------------------
# cold workloads: one child per operation


def run_cold(ops: list[dict], run_dir: Path, traced: bool, deadline: float, hard_end: float,
             probe=None) -> dict:
    """One child per operation; with ``probe``, one set-up probe before each round."""
    records, dumps, import_ms, latencies, setup = [], [], [], [], []
    cpu = rss = 0.0
    cache = ["--cache", str(run_dir / "primes.cache")]
    begin = perf_counter()
    for i, op in enumerate(ops):
        if time.time() > deadline:
            break
        if probe and (i == 0 or op["round"] != ops[i - 1]["round"]):
            setup.append(probe())
        out = run_dir / f"op{i:04d}-{int(traced)}.out"
        argv = op["argv"] if op["family"].startswith("count-") else cache + op["argv"]
        if traced:
            argv = [sys.executable, str(HERE / "cli_child.py"), str(out.with_suffix(".trace")), *argv]
        else:
            argv = [sys.executable, "-m", "primelab.cli", *argv]
        res = spawn(argv, out, max(1.0, min(OP_TIMEOUT, hard_end - time.time())))
        latencies.append(res["wall"])
        cpu += res["cpu"]
        rss = max(rss, res["rss_mb"])
        records.append({"i": i, "family": op["family"], "wall_ms": 1000 * res["wall"],
                        "cpu_ms": 1000 * res["cpu"], "rss_mb": res["rss_mb"],
                        "error": child_failure(res, out)})
    wall = perf_counter() - begin - sum(setup)
    for rec in records:
        trace_path = run_dir / f"op{rec['i']:04d}-{int(traced)}.trace"
        if trace_path.exists():
            dump = json.loads(trace_path.read_text())
            import_ms.append(dump.pop("import_ms"))
            dumps.append(dump)
            trace_path.unlink()
    return {"records": records, "latencies": latencies, "wall": wall, "cpu": cpu,
            "rss_mb": rss, "dumps": dumps, "import_ms": import_ms, "setup": setup}


# ---------------------------------------------------------------------------
# lib-sweep: one warm session per pass


def run_lib(ops: list[dict], run_dir: Path, traced: bool, deadline: float, hard_end: float,
            probe=None) -> dict:
    """One session for all operations; with ``probe``, set-up probes before and after it."""
    setup = [probe() for _ in range(SETUP_SAMPLES // 2)] if probe else []
    ops_path = run_dir / "ops.json"
    ops_path.write_text(json.dumps(ops))
    result_path = run_dir / f"session-{int(traced)}.json"
    argv = [sys.executable, str(HERE / "lib_session.py"), str(ops_path), str(result_path),
            str(int(traced)), repr(deadline), str(gen.LIB_TABLE_LIMIT)]
    out = run_dir / f"session-{int(traced)}.out"
    res = spawn(argv, out, max(1.0, hard_end - time.time()))
    failure = child_failure(res, out)
    if failure:
        raise SetupError(f"lib-sweep session failed: {failure}")
    data = json.loads(result_path.read_text())
    loaded = Path(data["module"]).resolve()
    if SRC.resolve() not in loaded.parents:
        raise SetupError(f"primelab imported from {loaded}, not from {SRC}")
    records = [{"i": i, "family": op["f"], "wall_ms": 1000 * lat, "error": None}
               for i, (op, lat) in enumerate(zip(ops, data["latencies"]))]
    dumps = [{k: data[k] for k in ("fn", "by_caller", "counters")}] if traced else []
    setup += [probe() for _ in range(SETUP_SAMPLES - len(setup))] if probe else []
    return {"records": records, "latencies": data["latencies"], "wall": data["wall"],
            "cpu": data["cpu"], "rss_mb": res["rss_mb"], "dumps": dumps,
            "import_ms": [data["import_ms"]], "setup": setup}


# ---------------------------------------------------------------------------


def check(workload: str, ops: list[dict], results: list[dict], run_dir: Path, hard_end: float) -> str:
    """Have the checker process judge every attempted operation; returns numpy's version."""
    attempted = [[rec["i"] for rec in r["records"]] for r in results]
    (run_dir / "check-in.json").write_text(json.dumps({"workload": workload, "ops": ops, "attempted": attempted}))
    out = run_dir / "check.out"
    res = spawn([sys.executable, str(HERE / "oracle.py"), str(run_dir)], out, max(5.0, hard_end - time.time()))
    failure = child_failure(res, out)
    if failure:
        raise SetupError(f"output checker failed: {failure}")
    verdicts = json.loads((run_dir / "check-out.json").read_text())
    for r, errors in zip(results, verdicts["errors"]):
        for rec, error in zip(r["records"], errors):
            rec["error"] = rec["error"] or error
    return verdicts["numpy"]


def run_record(args, ops: list[dict]) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": sha, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "ops": ops,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.time()
    if not (SRC / "primelab" / "cli.py").is_file():
        print(f"error: no primelab sources under {SRC}", file=sys.stderr)
        return 2

    cold = args.workload != "lib-sweep"
    # A traced run makes the operations twice, so each pass holds half the work.
    ops = gen.generate(args.workload, args.seed, args.seconds / 2 if args.trace else args.seconds)
    record = run_record(args, ops)
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        def probe() -> float:
            return setup_probe(args.workload, run_dir)

        probe()  # checks where primelab comes from, and leaves its bytecode compiled
        runner = run_cold if cold else run_lib
        results = []
        for traced in ([False, True] if args.trace else [False]):
            (run_dir / "primes.cache").unlink(missing_ok=True)  # each pass starts without it
            results.append(runner(ops, run_dir, traced, started + START_BY, started + END_BY,
                                  None if args.trace else probe))
        record["numpy"] = check(args.workload, ops, results, run_dir, started + CHECK_BY)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in run_dir.iterdir():
            path.unlink()
        run_dir.rmdir()

    attempted = sum(len(r["records"]) for r in results)
    failed = sum(1 for r in results for rec in r["records"] if rec["error"])
    plain = results[0]
    record["setup_samples"] = plain["setup"]
    metrics, extra = summarise(plain)
    if args.trace:
        traced = results[1]
        per_op = [r["wall"] / len(r["latencies"]) for r in (plain, traced)]
        overhead = per_op[1] / per_op[0] - 1
        report = tracer.layer_metrics(traced["dumps"], len(traced["latencies"]),
                                      statistics.mean(traced["import_ms"]), overhead)
        units = {name: unit for name, (unit, _) in tracer.PER_LAYER.items()}
    else:
        report, units = metrics, END_TO_END_UNITS
    record.update(
        end_to_end=metrics, **extra, per_layer=report if args.trace else None,
        attempted=attempted, failed=failed, elapsed_s=time.time() - started,
        operations=[r["records"] for r in results],
    )
    RUNS.mkdir(exist_ok=True)
    record_path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    record_path.write_text(json.dumps(record, indent=1))
    for r in results:
        for rec in r["records"]:
            if rec["error"]:
                print(f"FAILED op {rec['i']} ({rec['family']}): {rec['error']}", file=sys.stderr)
    print(f"record: {record_path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
