import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest

import primelab
from primelab import cli, crt, reporting, residues, sieve
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


SHOWN_X = 1000


def _plus_one(f):
    return lambda *args: f(*args) + 1


def _drop_last_above_root(f):
    """f with its last value dropped where that value lies above sqrt(SHOWN_X): the oracle's count
    to x loses it."""
    def dropped(*args):
        values = f(*args)
        return values[:-1] if len(values) and values[-1] > math.isqrt(SHOWN_X) else values
    return dropped


# One off-by-one on each side of each count: the check must see it.
FAULTS = {
    "formula": {"pi": ("_phi", _plus_one), "twin": ("survivor_count", _plus_one),
                "tuple": ("survivor_count", _plus_one),
                "mersenne": ("_exponent_events", lambda f: lambda *args: f(*args)[1:]),  # one event lost
                "fermat": ("_exponent_events", lambda f: lambda *args: f(*args)[1:])},
    "oracle": {"pi": ("count_primes", lambda f: lambda x: f(x) - 1),  # the largest prime <= x lost
               "twin": ("pattern_starts", _drop_last_above_root),
               "tuple": ("pattern_starts", _drop_last_above_root),
               "mersenne": ("_shifted_power_primes", _drop_last_above_root),
               "fermat": ("_shifted_power_primes", _drop_last_above_root)},
}

# A constant bias in an oracle, its fault below sqrt(x): it shows because no formula reads its
# small-range addend from its oracle, where the bias would cancel in delta.
BIASES = {"twin": ("brute_tuple_count", lambda f: lambda *args: f(*args) - 1),
          "tuple": ("brute_tuple_count", lambda f: lambda *args: f(*args) - 1),
          "mersenne": ("_shifted_power_primes", lambda f: lambda *args: f(*args)[1:]),  # 3 lost
          "fermat": ("_shifted_power_primes", lambda f: lambda *args: f(*args)[1:])}


def assert_count_shows(capsys, monkeypatch, kind, name, fault):
    from primelab import counts

    argv = ["count", kind, "--x", str(SHOWN_X), *(["--offsets", "2,6"] if kind == "tuple" else [])]
    sound = run_json(capsys, *argv)[1]["rows"][0]["delta"]  # 1 for twins: the unit survivor
    monkeypatch.setattr(counts, name, fault(getattr(counts, name)))
    code, doc = run_json(capsys, *argv)
    delta = doc["rows"][0]["delta"]
    assert code == 0 and delta > sound
    assert doc["warnings"] == [f"formula deviates from oracle by {delta}"]


@pytest.mark.parametrize("side", list(FAULTS))
@pytest.mark.parametrize("kind", list(FAULTS["formula"]))
def test_count_shows_an_off_by_one_on_either_side(capsys, monkeypatch, side, kind):
    assert_count_shows(capsys, monkeypatch, kind, *FAULTS[side][kind])


@pytest.mark.parametrize("kind", list(BIASES))
def test_count_shows_a_constant_oracle_bias(capsys, monkeypatch, kind):
    assert_count_shows(capsys, monkeypatch, kind, *BIASES[kind])


def test_every_kind_names_a_function_of_its_module(capsys, monkeypatch):
    from primelab import counts, densities

    tables = {"count": (cli._COUNT_KINDS, counts, "pi,twin,tuple,mersenne,fermat"),
              "estimate": (cli._ESTIMATE_KINDS, densities,
                           "psi,omega,ap-psi,ap-omega,mersenne,fermat,twin-constant")}
    for command, (kinds, module, choices) in tables.items():
        assert all(callable(getattr(module, name)) for name in kinds.values()), command
        code, out = run(capsys, command, "--help")  # the parser's choices, in the table's order
        assert code == 0 and "{" + choices + "}" in out, command
    monkeypatch.setattr(counts, "legendre_pi", lambda x: counts.twin_count_formula(x))
    assert run_json(capsys, "count", "pi", "--x", "20")[1]["rows"][0]["formula"] == 4  # the rebinding runs


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


def test_primes_list_with_a_cache_reads_largest_off_its_table(tmp_path, capsys, monkeypatch):
    cache = str(tmp_path / "primes.cache")
    monkeypatch.setattr(sieve, "_shared_table", None)  # as a process starts
    docs = [run_json(capsys, "primes", "--limit", "100000", "--list", "--cache", cache)[1]
            for _ in range(2)]  # the cache written, then read
    assert sieve._shared_table.limit == 100000  # the cache's table is the one table: none grown beside it
    head = {"limit": 100000, "count": 9592, "largest": 99991}
    assert docs[0]["rows"][0] == docs[1]["rows"][0] == head
    assert run_json(capsys, "primes", "--limit", "100000")[1]["rows"] == [head]  # the table-free path


def test_goldbach_caches_only_the_sieving_primes(tmp_path, capsys):
    cache = tmp_path / "primes.cache"
    code, doc = run_json(capsys, "goldbach", "--even", "1000000", "--cache", str(cache))
    assert code == 0 and len(doc["rows"]) == 5382
    assert load_cache(cache).limit == 1000  # isqrt(2n): no table to 2n is written


# The CLI in a child whose address space is capped at 3 GiB: a table to 1e10 cannot fit.
UNDER_3_GIB = """
import resource, runpy, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
sys.argv[0] = "primelab"
runpy.run_module("primelab.cli", run_name="__main__")
"""


def test_count_caches_only_the_sieving_primes(tmp_path):
    cache = tmp_path / "primes.cache"
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    argv = [sys.executable, "-c", UNDER_3_GIB, "--format", "json", "count", "mersenne",
            "--x", str(10**10)]
    docs = [json.loads(subprocess.run(argv + extra, env=env, check=True, capture_output=True,
                                      text=True).stdout) for extra in ([], ["--cache", str(cache)])]
    for doc in docs:
        del doc["runtime_ms"]
    assert docs[1] == docs[0]
    assert load_cache(cache).limit == 10**5  # isqrt(x): no table to x is written


def test_a_cache_loads_into_the_one_process_wide_table(tmp_path, capsys, monkeypatch):
    cache, argv = str(tmp_path / "primes.cache"), ["--format", "json", "count", "twin", "--x", "50000"]
    assert run(capsys, "primes", "--limit", str(1 << 16), "--cache", cache)[0] == 0  # the cache, to 2**16
    loaded, windows = [], []
    load, window_starts = sieve.load_cache, sieve._window_starts
    monkeypatch.setattr(sieve, "load_cache", lambda *args: loaded.append(load(*args)) or loaded[-1])
    monkeypatch.setattr(sieve, "_window_starts", lambda *args: windows.append(args) or window_starts(*args))
    outputs = []
    for extra in (["--cache", cache], []):
        monkeypatch.setattr(sieve, "_shared_table", None)  # as a process starts; restored after the test
        code, out = run(capsys, *argv, *extra)
        assert code == 0
        outputs.append(without_runtime(out))
        if extra:
            assert len(loaded) == 1 and sieve._shared_table is loaded[0] and loaded[0].limit == 1 << 16
    assert windows == []  # the twin oracle reads the one table, with the cache and without it
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", [["count", "pi", "--x", "1000003"], ["count", "twin", "--x", "200000"],
                                  ["count", "tuple", "--x", "30000", "--offsets", "2,6,8"],
                                  ["count", "mersenne", "--x", "10000000"], ["estimate", "ap-omega", "--x", "99999"],
                                  ["estimate", "twin-constant", "--x", "123456"],
                                  ["goldbach", "--even", "20000", "--span", "--refine", "20149"],
                                  ["goldbach", "--even", "100", "--mode", "guided", "--refine", "137"],
                                  ["primes", "--limit", "70001", "--list"]],
                         ids=" ".join)
def test_a_cache_changes_no_output(tmp_path, capsys, fmt, argv):
    cache = str(tmp_path / "primes.cache")
    runs = [run(capsys, "--format", fmt, *argv, *extra)
            for extra in ([], ["--cache", cache], ["--cache", cache])]  # no cache, the cache written, read
    assert [code for code, _ in runs] == [0, 0, 0]
    assert len({without_runtime(out) for _, out in runs}) == 1


def test_crt_product_mode_past_int64_lists_exact_values(capsys):
    code, out = run(capsys, "--format", "csv", "crt", "--allow", "3=1",
                    "--lo", "9223372036854775800", "--hi", "9223372036854775830")
    assert code == 0
    assert out == "n\n" + "".join(f"{n}\n" for n in range(9223372036854775801, 9223372036854775831, 3))


@pytest.mark.parametrize("lo, hi", [(-5, -10), (-1, 10)])
def test_crt_negative_lo_exits_1_with_message(capsys, lo, hi):
    code, err = run_error(capsys, "crt", "--allow", "3=1", "--lo", str(lo), "--hi", str(hi))
    assert (code, err) == (1, "error: range must satisfy 0 <= lo <= hi\n")


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


@pytest.mark.parametrize("first, later, shared", [("4=1", "2=1", 2), ("2=1", "4=1", 2),
                                                   ("9=1", "3=2", 3), ("3=2", "9=1", 3)])
def test_non_coprime_allow_moduli_name_the_later_token(capsys, first, later, shared):
    # the moduli are checked in the order given, not sorted first
    code, err = run_error(capsys, "crt", "--allow", first, "--allow", later, "--hi", "9")
    m = later.split("=")[0]
    assert (code, err) == (1, f"error: modulus {m} shares factor {shared} with an earlier modulus\n")


@pytest.mark.parametrize("argv, message", [
    (("primes", "--limit", "-1"), "limit must be nonnegative"),
    (("mersenne-witness", "--k", "3", "--n", "-1"), "n must be >= 0, not -1"),
])
def test_negative_sizes_exit_1_with_one_line(argv, message):
    proc = spawn(*argv)
    out, err = proc.communicate()
    assert (proc.returncode, out, err.decode()) == (1, b"", f"error: {message}\n")  # no traceback


@pytest.mark.parametrize("argv, message", [
    (("bertrand", "--twin", "--alpha", "inf", "--min", "7", "--max", "100"),
     "alpha must be finite and exceed 1, not inf"),
    (("bertrand", "--twin", "--alpha", "nan", "--min", "7", "--max", "100"),
     "alpha must be finite and exceed 1, not nan"),
    (("--format", "json", "xi", "--sum", "100", "--s", "nan"), "s must be finite, not nan"),
    (("--format", "json", "xi", "--sum", "100", "--s", "inf"), "s must be finite, not inf"),
])
def test_non_finite_alpha_and_s_exit_1_with_one_line(capsys, argv, message):
    assert run_error(capsys, *argv) == (1, f"error: {message}\n")


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 7.45 GiB for an array"), "Unable to allocate 7.45 GiB for an array"),
    (MemoryError(), "MemoryError"),
])
def test_memory_error_exits_1_with_one_line(capsys, monkeypatch, exc, message):
    from primelab import probes

    def exhausted(*args):
        raise exc
    monkeypatch.setattr(probes, "bertrand_scan", exhausted)
    assert run_error(capsys, "bertrand", "--alpha", "1.5", "--min", "1", "--max", "100") == \
        (1, f"error: {message}\n")


def test_primes_limits_0_and_1_count_0(capsys):
    for limit in ("0", "1"):
        code, doc = run_json(capsys, "primes", "--limit", limit)
        assert code == 0 and doc["rows"] == [{"limit": int(limit), "count": 0, "largest": None}]


def test_allow_residue_out_of_range_is_checked_before_the_complement(capsys):
    # a struck set would reduce 5 mod 3 silently; the residues kept are checked as given
    assert run_error(capsys, "crt", "--allow", "3=5") == (1, "error: residue out of range mod 3\n")


@pytest.mark.parametrize("token", ["3", "3=", "x=1", "3=1,,2"])
def test_malformed_allow_token_exits_1_naming_it(capsys, token):
    code, err = run_error(capsys, "crt", "--allow", token)
    assert code == 1
    assert err == f"error: malformed --allow token {token!r}: want m=r,r,...\n"


@pytest.mark.parametrize("token, m", [("0=0", 0), ("-3=1", -3)])
def test_allow_modulus_below_1_exits_1_naming_it(capsys, token, m):
    # checked before the residues, which no modulus below 1 can have in range
    code, err = run_error(capsys, "crt", f"--allow={token}")
    assert (code, err) == (1, f"error: --allow modulus {m} is below 1\n")


def test_allow_modulus_above_10_6_lists_its_kept_residue(capsys):
    code, doc = run_json(capsys, "crt", "--allow", "1000003=1", "--hi", "10")
    assert code == 0 and [r["n"] for r in doc["rows"]] == [1]


def test_allow_modulus_past_2_64_lists_exact_python_ints(capsys):
    m = 2**64 + 13
    code, doc = run_json(capsys, "crt", "--allow", f"{m}=1,5", "--lo", "0", "--hi", str(2 * m + 10))
    got = [r["n"] for r in doc["rows"]]
    assert code == 0 and got == [1, 5, m + 1, m + 5, 2 * m + 1, 2 * m + 5]
    assert all(type(n) is int for n in got)


def test_allow_modulus_past_2_63_counts_its_classes_off_the_kept_side():
    spec = cli._parse_allow(["18446744073709551629=1,5"])  # len refuses a struck count this large
    assert spec.cardinalities() == (18446744073709551627,)
    assert crt.choice_count(spec) == 2


def test_allow_big_modulus_memory_follows_the_residues_given():
    cli._parse_allow(["3=1"])  # the first call's imports are not the parse's
    tracemalloc.start()
    try:
        spec = cli._parse_allow(["999983=1,2,3,4,5"])
        values = [n for window in crt.crt_windows(spec, 0, 10**7) for n in window.tolist()]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values == [k * 999_983 + r for k in range(11) for r in range(1, 6)
                      if k * 999_983 + r <= 10**7]
    assert peak < 2**20  # the complement of the five residues traced 105.8 MiB


def test_allow_kept_side_striking_past_the_bound_exits_1_with_one_line(capsys, monkeypatch):
    # 37 keeps 19 of its residues, more than it strikes, so it strikes its 18 others
    monkeypatch.setattr(residues, "SEGMENT_ODD_BITS", 16)
    kept = ",".join(map(str, range(19)))
    code, err = run_error(capsys, "crt", "--allow", f"37={kept}", "--hi", "100")
    assert (code, err) == (1, "error: modulus 37 would strike 18 residues, more than 16\n")


@pytest.mark.parametrize("token", ["3", "1:2:3", "x:5", "2:", ":7", "1.5:4"])
def test_malformed_congruence_token_exits_1_naming_it(capsys, token):
    code, err = run_error(capsys, "crt", "2:3", token)
    assert (code, err) == (1, f"error: malformed congruence token {token!r}: want r:m\n")


@pytest.mark.parametrize("offsets", ["2,x", ",", "2,,6"])
def test_malformed_offsets_exit_1_naming_them(capsys, offsets):
    code, err = run_error(capsys, "count", "tuple", "--x", "100", "--offsets", offsets)
    assert (code, err) == (1, f"error: malformed --offsets token {offsets!r}: want d,d,...\n")


@pytest.mark.parametrize("width", [1, sieve.SEGMENT_ODD_BITS])
@pytest.mark.parametrize("order", [("9=1,2", "4=3"), ("4=3", "9=1,2")])
def test_allow_composite_unordered_moduli_match_a_brute_filter(capsys, monkeypatch, width, order):
    monkeypatch.setattr(crt, "avoiding_windows", partial(residues.avoiding_windows, width=width))
    argv = [a for token in order for a in ("--allow", token)]
    code, doc = run_json(capsys, "crt", *argv, "--lo", "0", "--hi", "200")
    assert code == 0
    want = [n for n in range(201) if n % 9 in (1, 2) and n % 4 == 3]
    assert [r["n"] for r in doc["rows"]] == want


def without_runtime(text):
    return re.sub(r'"runtime_ms": \d+|\(\d+ ms\)', "", text)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("allow, lo, hi", [
    (["3=1", "5=2,4"], 0, 1500),  # both fold: 2 classes mod 15, 4 rows a window
    (["7=1,2,3,4,5,6", "11=1,2,3,4,5,6,7,8,9,10"], 950, 1008),  # both strike rows of step 1
])
def test_crt_listing_in_several_windows_renders_as_one_block(capsys, monkeypatch, fmt, allow,
                                                             lo, hi):
    monkeypatch.setattr(crt, "avoiding_windows", partial(residues.avoiding_windows, width=8))
    windows = [w for w in crt.crt_windows(cli._parse_allow(allow), lo, hi) if len(w)]
    # several windows, and a later one sets the table's column width
    assert len(windows) > 3 and len(str(windows[0][0])) < len(str(windows[-1][-1]))
    argv = ["--format", fmt, "crt", "2:3", *(a for t in allow for a in ("--allow", t)),
            "--lo", str(lo), "--hi", str(hi)]
    code, several = run(capsys, *argv)
    monkeypatch.setattr(crt, "crt_windows", lambda *args: iter([np.concatenate(windows)]))
    assert (code, without_runtime(several)) == (0, without_runtime(run(capsys, *argv)[1]))


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
