"""Every case of the before/after harness must still run on this tree.

tools/bench.py keeps its cases as data: CLI argument lists and ``-c``
programs. Checking them here, without starting a child, keeps a CLI or API
rename or deletion from surfacing only at the next bench run.
"""

import ast
import importlib
import importlib.util
import pathlib

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


def test_a_base_checkout_without_git_is_described_by_a_plain_label(tmp_path):
    base = tmp_path / "base"
    base.mkdir()  # as a git archive of a commit unpacks: the files, no .git
    assert _load_bench().describe(base) == "base (no git)"
