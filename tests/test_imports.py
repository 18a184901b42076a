"""Every name a primelab module imports is used in that module, no private code is orphaned, and
every exported function is reached.

No linter ships with the project, so this walks each module's syntax
tree instead.  ``__init__.py`` is skipped for imports (they are
re-exports), and so are ``__future__`` imports.  A module-level
``_private`` function or class must be named somewhere in the package
besides its own definition; references from tests do not count.  An
exported function must be named by code outside its own definition and
the export lists: the package, a demo, a tool or the benchmark.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "primelab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_detects_an_unused_name():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == ["math", "path"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def orphans(sources: dict[str, str]) -> list[str]:
    """module.name of each module-level _private def or class no other code names."""
    defined, named = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = node.name if isinstance(node, DEFINITIONS) else None
            if own and own.startswith("_") and not own.startswith("__"):
                defined.append((module, own))
            for sub in ast.walk(node):  # names inside a definition's own body do not count for it
                name = getattr(sub, "id", None) or getattr(sub, "attr", None)
                if isinstance(sub, ast.alias):
                    name = sub.name
                if name and name != own:
                    named.add(name)
    return [f"{module}.{name}" for module, name in defined if name not in named]


def test_orphans_detects_an_unreferenced_private_definition():
    sources = {
        "a": "def _used():\n    pass\n\ndef _recursive(n):\n    return _recursive(n - 1)\n"
             "class _Dead:\n    pass\n",
        "b": "from a import _used\n\ndef public():\n    return _used()\n",
    }
    assert orphans(sources) == ["a._recursive", "a._Dead"]


def test_every_private_definition_is_referenced():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert orphans(sources) == []


EXPORT_LISTS = {"__all__", "_EXPORTS"}
# the oracles that tests use to check big_omega_sieve and schinzel_search's results
ORACLES = {"big_omega", "verify_shifted_quotient"}


def reached(sources: dict[str, str]) -> set[str]:
    """Every name the sources' code uses outside a definition of that name and the export lists:
    names, attributes, imports, and strings that spell a dotted name ("counts.survivor_count",
    as the CLI's kind tables and the benchmark's tracer name a function)."""
    named = set()
    for source in sources.values():
        for node in ast.parse(source).body:
            if isinstance(node, ast.Assign) and {getattr(t, "id", None) for t in node.targets} & EXPORT_LISTS:
                continue
            own = node.name if isinstance(node, DEFINITIONS) else None
            for sub in ast.walk(node):
                name = getattr(sub, "id", None) or getattr(sub, "attr", None)
                if isinstance(sub, ast.alias):
                    name = sub.name
                elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and all(
                        part.isidentifier() for part in sub.value.split(".")):
                    name = sub.value.rpartition(".")[2]
                if name and name != own:
                    named.add(name)
    return named


def test_reached_reads_code_and_dotted_strings_only():
    sources = {
        "a": '__all__ = ["listed"]\n_EXPORTS = {"a": ("listed",)}\n'
             'def recursive(n):\n    return recursive(n - 1)\n'
             'KINDS = {"x": "a.by_string", "y": "not a name"}\nprint(called())\n',
    }
    names = {"listed", "recursive", "by_string", "not a name", "called"}
    assert reached(sources) & names == {"by_string", "called"}


def test_every_exported_function_is_reached():
    import primelab

    sources = {str(p): p.read_text(encoding="utf-8")
               for root in (SRC, ROOT / "demos", ROOT / "tools", ROOT / "perfbench")
               for p in sorted(root.glob("*.py"))}
    named = reached(sources)
    functions = [name for name in primelab.__all__ if not isinstance(getattr(primelab, name), type)]
    assert [name for name in functions if name not in named and name not in ORACLES] == []
