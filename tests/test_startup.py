"""A cold process loads only what it runs, and starts no BLAS threads.

``import primelab`` loads no submodule; the first use of an exported name
loads them all.  The CLI imports only ``reporting`` at module level; each
subcommand names the modules its handler runs, and ``run_command`` loads
them before it starts the timer, so ``runtime_ms`` times the handler's
work alone.  Every check runs in a fresh interpreter, since this test
process has long since loaded the whole package.
"""

import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# every exported name by its defining module, pinned here so that the lazy
# table can neither drop one nor bind it to another object
EXPORTS = {
    "counts": ["CountReport", "brute_pi", "brute_tuple_count", "brute_twin_count",
               "fermat_exact_count", "legendre_pi", "mersenne_exact_count",
               "multiplicative_order", "survivor_count", "tuple_count_formula",
               "twin_count_formula"],
    "crt": ["CongruenceSystem", "CrtSolution", "choice_count", "crt_enumerate", "crt_solve"],
    "densities": ["EstimateReport", "ap_omega_estimate", "ap_psi_estimate", "fermat_estimate",
                  "mersenne_estimate", "omega_estimate", "omega_k_estimate", "psi_estimate",
                  "twin_constant_probe"],
    "goldbach": ["SpanReport", "SplitPlan", "TwinPair", "brute_goldbach_pairs",
                 "build_split_plan", "goldbach_enumerate", "goldbach_refine", "partition_probe",
                 "span_report", "split_remainder", "twin_crt_search"],
    "probes": ["ScanResult", "bertrand_scan", "big_omega", "hl_inequality_scan",
               "mersenne_composite_witness", "twin_bertrand_scan", "xi_euler_product",
               "xi_partial_sum", "xi_sigma_probe", "xi_smooth_series"],
    "reporting": ["Report", "format_report"],
    "residues": ["AdmissibleTuple", "NonCoprimeModuliError", "ResidueSpec", "ap_residue_sequence",
                 "is_admissible", "remainder_sequence", "sophie_forbidden", "tight_tuples",
                 "tuple_forbidden", "twin_forbidden"],
    "schinzel": ["SchinzelResult", "lambda_filter", "naive_schinzel_search", "schinzel_search",
                 "verify_shifted_quotient"],
    "sieve": ["CacheChecksumError", "CacheError", "CacheMagicError", "CacheTruncatedError",
              "PrimeTable", "count_congruent", "count_primes", "is_prime", "load_cache",
              "save_cache", "sieve_primes", "sieving_prime_set"],
}


def fresh(code: str, env: dict | None = None) -> str:
    """stdout of ``python -c code`` in a fresh interpreter importing primelab from this tree."""
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = "sorted(m for m in sys.modules if m == 'numpy' or m.startswith('primelab'))"


@pytest.mark.parametrize("stmt", ["import primelab", "import primelab.cli"])
def test_import_loads_no_numpy(stmt):
    loaded = json.loads(fresh(f"import sys; {stmt}; print(__import__('json').dumps({LOADED}))"))
    assert "numpy" not in loaded
    assert set(loaded) <= {"primelab", "primelab.cli", "primelab.reporting"}


def test_every_export_is_the_submodules_object():
    code = f"""
import importlib, primelab
exports = {EXPORTS!r}
for module, names in exports.items():
    loaded = importlib.import_module("primelab." + module)
    for name in names:
        assert getattr(primelab, name) is getattr(loaded, name), (module, name)
"""
    fresh(code)


def test_all_lists_the_exports_and_star_import_binds_them():
    code = """
import json, sys, primelab
namespace = {}
exec("from primelab import *", namespace)
print(json.dumps([primelab.__all__, sorted(set(namespace) - {"__builtins__"})]))
"""
    all_, star = json.loads(fresh(code))
    names = [name for names in EXPORTS.values() for name in names]
    assert all_ == names
    assert star == sorted(names)


def test_an_unknown_name_raises_attribute_error_and_loads_nothing():
    code = f"""
import json, sys, primelab
try:
    primelab.no_such_name
except AttributeError as exc:
    print(json.dumps([str(exc), {LOADED}]))
"""
    message, loaded = json.loads(fresh(code))
    assert message == "module 'primelab' has no attribute 'no_such_name'"
    assert loaded == ["primelab"]


def test_dir_lists_the_exports_before_the_first_use():
    names = json.loads(fresh("import json, primelab; print(json.dumps(dir(primelab)))"))
    assert {"legendre_pi", "ResidueSpec", "__version__"} <= set(names)


MAIN = """
import json, os, sys
from primelab import cli
sys.argv = ["primelab", "count", "pi", "--x", "1000"]
try:
    cli.main()
except SystemExit:
    pass
tasks = os.listdir("/proc/self/task") if os.path.isdir("/proc/self/task") else None
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), tasks and len(tasks)]))
"""


def test_main_starts_no_blas_threads_unless_told_to():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", MAIN], env={**env, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    value, tasks = json.loads(proc.stdout.splitlines()[-1])
    assert value == "1"
    assert tasks in (None, 1)  # one OS thread where /proc lists them: no BLAS pool


def test_main_keeps_a_thread_count_the_user_set():
    value, _ = json.loads(fresh(MAIN, {"OPENBLAS_NUM_THREADS": "2"}).splitlines()[-1])
    assert value == "2"


# Records every module the import system looks up, and the first time
# run_command reads the clock; prints what loaded, and what loaded after it.
TRACE = """
import contextlib, io, json, sys, time

events = []

class Recorder:
    def find_spec(self, name, path=None, target=None):
        events.append(name)
        return None

sys.meta_path.insert(0, Recorder())
clock = time.perf_counter

def perf_counter():
    if sys._getframe(1).f_code.co_name == "run_command" and "<timer>" not in events:
        events.append("<timer>")
    return clock()

time.perf_counter = perf_counter
from primelab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run_command(sys.argv[1:])
ours = [m for m in events if m == "numpy" or m.startswith("primelab")]
after = events[events.index("<timer>") + 1:]
print(json.dumps([code, sorted(set(ours)), [m for m in ours if m in after]]))
"""


@functools.lru_cache(maxsize=None)
def trace_command(*argv):
    """(exit code, primelab modules and numpy loaded, those loaded once the timer ran)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", TRACE, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


BASE = ["primelab", "primelab.cli", "primelab.reporting"]
COMMANDS = {
    "count": (["count", "twin", "--x", "1000"], ["counts", "residues", "sieve"]),
    "primes": (["primes", "--limit", "100"], ["sieve"]),
    "goldbach": (["goldbach", "--even", "100", "--span"], ["crt", "goldbach", "residues", "sieve"]),
    "crt": (["crt", "1:3", "--allow", "5=1,2", "--hi", "30"], ["crt", "residues", "sieve"]),
    "schinzel": (["schinzel", "--num", "11", "--den", "13"], ["residues", "schinzel", "sieve"]),
    "estimate": (["estimate", "psi", "--x", "1000"], ["counts", "densities", "residues", "sieve"]),
    "bertrand": (["bertrand", "--min", "2", "--max", "100"], ["probes", "sieve"]),
    "reproduce": (["reproduce"], ["counts", "crt", "goldbach", "residues", "schinzel", "sieve"]),
}


@pytest.mark.parametrize("name", COMMANDS)
def test_a_subcommand_loads_its_own_modules_only(name):
    argv, modules = COMMANDS[name]
    code, loaded, _ = trace_command(*argv)
    assert code == 0
    assert loaded == sorted(["numpy", *BASE, *(f"primelab.{m}" for m in modules)])


@pytest.mark.parametrize("name", COMMANDS)
def test_a_subcommand_loads_its_modules_before_the_timer_starts(name):
    _, _, after = trace_command(*COMMANDS[name][0])
    assert after == []
