"""Every case of the before/after harness must still run on this tree.

tools/bench.py keeps its cases as data: CLI argument lists and ``-c``
programs. Checking them here, without starting a child, keeps a CLI or API
rename or deletion from surfacing only at the next bench run. The table
suite's child is also run, at 1e3.
"""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import primelab
from primelab import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


CASES = [(suite, case, args) for suite, cases in _load_bench().SUITES.items()
         for case, args in cases.items()]


def test_every_case_is_a_cli_call_or_a_program():
    for suite, case, args in CASES:
        assert args[:2] == ["-m", "primelab.cli"] or args[0] == "-c", (suite, case)


def test_every_cli_case_parses():
    parser = cli._build_parser()
    for suite, case, args in CASES:
        if args[0] == "-m":
            parser.parse_args(args[2:])  # argparse exits on an unknown subcommand or option


def test_every_program_case_compiles_and_imports_only_exported_names():
    for suite, case, args in CASES:
        if args[0] != "-c":
            continue
        compile(args[1], f"{suite}/{case}", "exec")
        for node in ast.walk(ast.parse(args[1])):
            if isinstance(node, ast.ImportFrom) and node.module == "primelab":
                missing = {a.name for a in node.names} - set(primelab.__all__)
                assert not missing, (suite, case, missing)
            if isinstance(node, ast.Import):
                for alias in node.names:
                    assert importlib.util.find_spec(alias.name), (suite, case, alias.name)


def test_every_program_case_reads_attributes_its_primelab_modules_have():
    for suite, case, args in CASES:
        if args[0] != "-c":
            continue
        tree = ast.parse(args[1])
        modules = {alias.asname or alias.name: importlib.import_module(alias.name)
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names if alias.name.startswith("primelab.")}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                assert hasattr(modules[node.value.id], node.attr), (suite, case, node.attr)


@pytest.mark.parametrize("kind", ["sieve", "load"])
def test_the_table_child_times_its_one_call(kind):
    bench = _load_bench()
    assert bench.SUITES["table"][f"{kind} 1e7"] == ["-c", bench.TABLE_CHILD, kind, "7"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", bench.TABLE_CHILD, kind, "3"], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    metrics = json.loads(out)[f"{kind} 1e3"]
    assert sorted(metrics) == ["ms", "peak_rss_mb"] and metrics["ms"] > 0 and metrics["peak_rss_mb"] > 0


def test_a_base_checkout_without_git_is_described_by_a_plain_label(tmp_path):
    base = tmp_path / "base"
    base.mkdir()  # as a git archive of a commit unpacks: the files, no .git
    assert _load_bench().describe(base) == "base (no git)"
