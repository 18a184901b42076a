import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import primelab
from primelab import cli, crt, reporting
from primelab.cli import reproduce_paper, run_command
from primelab.reporting import FORMATS, Block, Report, format_report, report_parts
from primelab.sieve import load_cache

SRC_DIR = pathlib.Path(primelab.__file__).resolve().parents[1]


def spawn(*argv):
    """The CLI in a fresh interpreter, importing primelab from this tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    return subprocess.Popen([sys.executable, "-m", "primelab.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_count_twin_example(capsys):
    code, doc = run_json(capsys, "count", "twin", "--x", "20")
    assert code == 0
    assert doc["rows"][0]["formula"] == 4
    assert doc["rows"][0]["oracle"] == 4


def test_goldbach_five_pairs(capsys):
    code, doc = run_json(capsys, "goldbach", "--even", "100", "--mode", "exact")
    assert code == 0
    pairs = [(r["p"], r["q"]) for r in doc["rows"]]
    assert pairs == [(11, 89), (17, 83), (29, 71), (41, 59), (47, 53)]


def test_schinzel_example(capsys):
    code, doc = run_json(capsys, "schinzel", "--num", "11", "--den", "13")
    assert code == 0
    assert doc["rows"][0]["k"] == 9
    assert (doc["rows"][0]["p"], doc["rows"][0]["q"]) == (197, 233)
    # remainder tables in two-row form follow
    assert any(r.get("row") == "mod" for r in doc["rows"][1:])


def test_crt_solve_tokens(capsys):
    code, doc = run_json(capsys, "crt", "2:3", "3:5", "2:7")
    assert code == 0
    assert doc["rows"][0] == {"value": 23, "modulus": 105}


def test_crt_enumerate_allow(capsys):
    code, doc = run_json(capsys, "crt", "--allow", "3=1,2", "--allow", "5=1",
                         "--lo", "1", "--hi", "30")
    assert code == 0
    assert [r["n"] for r in doc["rows"]] == [1, 11, 16, 26]


def test_bertrand_scan_cli(capsys):
    code, doc = run_json(capsys, "bertrand", "--alpha", "2", "--min", "1",
                         "--max", "1000")
    assert code == 0
    assert doc["rows"][0]["failure_count"] == 0


def test_mersenne_witness_cli(capsys):
    code, doc = run_json(capsys, "mersenne-witness", "--k", "3", "--n", "2")
    assert code == 0
    assert doc["rows"][0]["verdict"] == "WITNESS"


def test_xi_sum_cli(capsys):
    code, doc = run_json(capsys, "xi", "--sum", "4", "--s", "2")
    assert code == 0
    assert doc["rows"][0]["partial_sum"] == pytest.approx(1.972222222222)


def test_usage_errors_exit_2(capsys):
    assert run_command(["no-such-command"]) == 2
    assert run_command([]) == 2
    assert run_command(["goldbach"]) == 2  # missing --even


def test_internal_errors_exit_1(capsys):
    assert run_command(["goldbach", "--even", "7"]) == 1  # odd target
    err = capsys.readouterr().err
    assert "error" in err


def test_global_flags_after_subcommand(capsys):
    code, out = run(capsys, "count", "pi", "--x", "50", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("x,")


def test_cache_file_round_trip(tmp_path, capsys):
    cache = tmp_path / "primes.cache"
    code, _ = run(capsys, "primes", "--limit", "1000", "--cache", str(cache))
    assert code == 0 and cache.exists()
    code, doc = run_json(capsys, "primes", "--limit", "1000", "--cache", str(cache))
    assert doc["rows"][0]["count"] == 168


def test_goldbach_caches_only_the_sieving_primes(tmp_path, capsys):
    cache = tmp_path / "primes.cache"
    code, doc = run_json(capsys, "goldbach", "--even", "1000000", "--cache", str(cache))
    assert code == 0 and len(doc["rows"]) == 5382
    assert load_cache(cache).limit == 1000  # isqrt(2n): no table to 2n is written


def test_corrupt_cache_exits_1_with_message(tmp_path):
    cache = tmp_path / "primes.cache"
    cache.write_bytes(b"NOTMAGIC" + b"\0" * 32)
    proc = spawn("primes", "--limit", "100", "--cache", str(cache))
    out, err = proc.communicate()
    assert proc.returncode == 1
    assert err.decode() == "error: bad magic: not a prime cache file\n"  # no traceback
    assert out == b""


def test_non_coprime_crt_moduli_exit_1_with_message():
    proc = spawn("crt", "--allow", "4=1", "--allow", "6=1", "--hi", "30")
    out, err = proc.communicate()
    assert proc.returncode == 1
    assert err.decode() == "error: modulus 6 shares factor 2 with an earlier modulus\n"
    assert out == b""


def run_error(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


@pytest.mark.parametrize("argv, message", [
    (("primes", "--limit", "-1"), "limit must be nonnegative"),
    (("mersenne-witness", "--k", "3", "--n", "-1"), "n must be >= 0, not -1"),
])
def test_negative_sizes_exit_1_with_one_line(argv, message):
    proc = spawn(*argv)
    out, err = proc.communicate()
    assert (proc.returncode, out, err.decode()) == (1, b"", f"error: {message}\n")  # no traceback


def test_primes_limits_0_and_1_count_0(capsys):
    for limit in ("0", "1"):
        code, doc = run_json(capsys, "primes", "--limit", limit)
        assert code == 0 and doc["rows"] == [{"limit": int(limit), "count": 0, "largest": None}]


def test_allow_residue_out_of_range_is_checked_before_the_complement(capsys):
    # the struck-residue spec would reduce 5 mod 3 silently; the parser must not
    assert run_error(capsys, "crt", "--allow", "3=5") == (1, "error: residue out of range mod 3\n")


@pytest.mark.parametrize("token", ["3", "3=", "x=1", "3=1,,2"])
def test_malformed_allow_token_exits_1_naming_it(capsys, token):
    code, err = run_error(capsys, "crt", "--allow", token)
    assert code == 1
    assert err == f"error: malformed --allow token {token!r}: want m=r,r,...\n"


def test_allow_modulus_beyond_the_complement_bound_exits_1(capsys):
    code, err = run_error(capsys, "crt", "--allow", "1000003=1", "--hi", "10")
    assert (code, err) == (1, "error: --allow modulus 1000003 exceeds 1000000\n")


CRT_PATHS = {"product": crt._enumerate_product, "scan": crt._enumerate_scan}  # crt_enumerate's two paths


@pytest.mark.parametrize("mode", ["product", "scan"])
@pytest.mark.parametrize("order", [("9=1,2", "4=3"), ("4=3", "9=1,2")])
def test_allow_composite_unordered_moduli_match_a_brute_filter(capsys, monkeypatch, mode, order):
    monkeypatch.setattr(crt, "crt_enumerate", CRT_PATHS[mode])
    argv = [a for token in order for a in ("--allow", token)]
    code, doc = run_json(capsys, "crt", *argv, "--lo", "0", "--hi", "200")
    assert code == 0
    want = [n for n in range(201) if n % 9 in (1, 2) and n % 4 == 3]
    assert [r["n"] for r in doc["rows"]] == want


# A child's peak RSS starts at its parent's, and this test process can be
# large, so a small launcher starts the measured children and reads wait4.
PEAK_RSS_LAUNCHER = """
import os, subprocess, sys

def peak_kb(*argv):
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, argv
    return usage.ru_maxrss

print(peak_kb("-c", "import primelab.cli"),
      peak_kb("-m", "primelab.cli", "--format", "json", "count", "pi", "--x", "30000000"))
"""


def test_count_pi_oracle_memory_stays_bounded():
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    out = subprocess.run([sys.executable, "-c", PEAK_RSS_LAUNCHER], env=env, check=True,
                         capture_output=True, text=True).stdout
    import_kb, count_kb = map(int, out.split())
    assert count_kb - import_kb < 25 * 1024  # sieving to x into a table costs about 53 MB


def test_cold_cli_import_skips_mpmath():
    """mpmath is imported by xi --sigma alone; the xi golden file pins that path."""
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    out = subprocess.run([sys.executable, "-c", "import primelab.cli, sys; print('mpmath' in sys.modules)"],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert out == "False\n"


XI_SIGMA_LAUNCHER = """
import contextlib, io, sys
from primelab import cli, probes
assert "mpmath" not in sys.modules
probe, seen = probes.xi_sigma_probe, []
def spy(grid):
    seen.append("mpmath" in sys.modules)
    return probe(grid)
probes.xi_sigma_probe = spy
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run_command(["xi", "--sigma", "0.5"]) == 0
print(seen)
"""


def test_xi_sigma_loads_mpmath_before_its_timer():
    """run_command preloads mpmath for --sigma, so runtime_ms leaves its import out."""
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    out = subprocess.run([sys.executable, "-c", XI_SIGMA_LAUNCHER], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[True]\n"


def test_closed_pipe_exits_quietly():
    """The reader leaves mid-stream: run_command is still writing the rows when the pipe breaks."""
    for argv in (("primes", "--limit", "1000000", "--list"), ("goldbach", "--even", "1000000")):
        for fmt in FORMATS:
            proc = spawn("--format", fmt, *argv)
            first = proc.stdout.readline()
            heads = (b"{", b"limit,count,largest,p", b"p,q", b"# " + argv[0].encode())
            assert first.rstrip() in heads, first
            proc.stdout.close()  # like `| head -1`
            err = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait() == 1, (argv, fmt)
            assert b"Traceback" not in err and b"BrokenPipe" not in err, (argv, fmt)


class _WriteSizes(io.StringIO):
    """A stdout that keeps only the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return len(text)


@pytest.mark.parametrize("fmt", FORMATS)
def test_listing_is_written_a_chunk_at_a_time(monkeypatch, fmt):
    out = _WriteSizes()
    monkeypatch.setattr(sys, "stdout", out)
    assert run_command(["--format", fmt, "primes", "--limit", "1000000", "--list"]) == 0
    # 78 498 rows: 0.77 MB of csv, 2.4-2.5 MB of json or table, one chunk 40-130 kB
    assert sum(out.sizes) > 700_000
    assert max(out.sizes) < 2**18  # a couple of chunks; the whole report in one write fails


def test_json_and_csv_carry_identical_numbers(capsys):
    _, doc = run_json(capsys, "estimate", "psi", "--x", "1000")
    _, out = run(capsys, "estimate", "psi", "--x", "1000", "--format", "csv")
    row = next(csv.DictReader(io.StringIO(out)))
    assert float(row["estimate"]) == doc["rows"][0]["estimate"]
    assert int(row["oracle"]) == doc["rows"][0]["oracle"]


def test_report_float_formatting():
    rep = Report("demo", rows=[{"v": 1 / 3, "n": 7}])
    doc = json.loads(format_report(rep, "json"))
    assert doc["rows"][0]["v"] == 0.333333333333
    assert doc["rows"][0]["n"] == 7
    table = format_report(rep, "table")
    assert "0.333333333333" in table


def test_csv_matches_a_dict_writer_reference():
    rows = [
        {"n": 1, "name": 'say "hi", then\nstop', "none": None},
        {"n": 2.5, "extra": {"a": [1, 2], "b": "x,y"}, "name": None},
        {"list": [1, (2, 1 / 3)], "n": 2**64 + 1},
        {},
    ]
    names = reporting._fieldnames(rows)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=names, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: reporting._cell(row.get(k)) for k in names})
    assert format_report(Report("demo", rows=rows), "csv") == buffer.getvalue().rstrip("\n")


def _whole_report_json(report: Report) -> str:
    """The whole report in one json.dumps(..., indent=2) call: the reference that the
    chunk-by-chunk JSON encoding must equal byte for byte."""
    return json.dumps(
        {
            "command": report.command,
            "params": reporting._round_floats(report.params),
            "rows": reporting._round_floats(report.rows),
            "warnings": list(report.warnings),
            "runtime_ms": report.runtime_ms,
        },
        indent=2,
    )


@pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 6, 7])
def test_json_chunks_join_to_the_whole_report(monkeypatch, count):
    monkeypatch.setattr(reporting, "_CHUNK_ROWS", 3)
    kinds = [
        {"big": 2**64 + 1, "third": 1 / 3, "tiny": 1e-20, "neg_zero": -0.0},
        {"nested": {"a": [1, (2, 3.5)], "b": {"c": None}}, "ok": True},
        {"name": "π(x) ≤ x — 素数", "flag": False, "none": None},
        {"t": (1, [2, {"d": 1 / 7}]), "empty_list": [], "empty_dict": {}},
    ]
    rows = [{"i": i, **kinds[i % len(kinds)]} for i in range(count)]
    rep = Report("demo", params={"allow": [(5, [1, 2]), {"7": (3,)}], "x": 2 / 3}, rows=rows,
                 warnings=["plain", {"detail": [1, (2, None)]}], runtime_ms=12)
    assert format_report(rep, "json") == _whole_report_json(rep)


def test_json_report_memory_is_bounded():
    rep = Report("primes", rows=[{"p": n} for n in range(100_000)])
    tracemalloc.start()
    try:
        text = format_report(rep, "json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 2_900_000
    assert peak < 8 * 2**20  # 5.8 MiB chunked; one whole-report json.dumps peaks near 48 MiB


def test_reproduce_clean_and_forced_mismatch():
    rep = reproduce_paper()
    assert rep.params["mismatches"] == 0
    forced = reproduce_paper(force_mismatch=True)
    assert forced.params["mismatches"] == 1


def test_reproduce_cli_exit_codes(capsys):
    assert run_command(["reproduce"]) == 0
    capsys.readouterr()
    assert run_command(["reproduce", "--force-mismatch"]) == 1


def _as_dict_rows(rows: list) -> list:
    """The rows with each Block expanded into the dict rows it stands for."""
    out = []
    for row in rows:
        if isinstance(row, Block):
            keys = list(row)
            out.extend(dict(zip(keys, values)) for values in zip(*(row[k].tolist() for k in keys)))
        else:
            out.append(row)
    return out


def _handler_report(*argv) -> Report:
    args = cli._build_parser().parse_args(argv)
    report = Report(args.subcommand, {}, runtime_ms=3)
    assert args.handler(args, report) == 0
    return report


BLOCK_REPORTS = {
    "summary row, then a block": lambda: _handler_report("primes", "--limit", "100", "--list"),
    "block, then dict rows": lambda: _handler_report(
        "goldbach", "--even", "100", "--span", "--refine", "137"),
    "empty block": lambda: Report(
        "goldbach", {"even": 6}, [Block(p=np.zeros(0, np.int64), q=np.zeros(0, np.int64))],
        ["no prime pair found (a finding, not an error)"]),
    "two columns": lambda: _handler_report("goldbach", "--even", "1000"),
    "widest value is the minimum": lambda: Report("demo", rows=[
        {"n": 7, "note": "x"}, Block(n=np.array([3, -123456, 99, -5]), m=np.array([1, 2, 3, -4])),
        Block(m=np.array([10**15]))]),
}


@pytest.mark.parametrize("chunk", [1, 2, 3, reporting._CHUNK_ROWS])
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", BLOCK_REPORTS)
def test_blocks_render_as_their_dict_rows(monkeypatch, case, fmt, chunk):
    monkeypatch.setattr(reporting, "_CHUNK_ROWS", chunk)
    report = BLOCK_REPORTS[case]()
    assert any(isinstance(row, Block) for row in report.rows)
    as_dicts = Report(report.command, report.params, _as_dict_rows(report.rows), report.warnings,
                      report.runtime_ms)
    assert format_report(report, fmt) == format_report(as_dicts, fmt)
    if fmt == "json":
        assert format_report(report, fmt) == _whole_report_json(as_dicts)


@pytest.mark.parametrize("fmt", FORMATS)
def test_block_report_memory_is_bounded(fmt):
    rep = Report("primes", rows=[{"limit": 10**6}, Block(p=np.arange(10**6, dtype=np.int64))])
    tracemalloc.start()
    try:
        size = sum(map(len, report_parts(rep, fmt)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size > 6_000_000
    assert peak < 2 * 2**20  # one slice's ints and text; the whole block's tolist() is 36 MiB
