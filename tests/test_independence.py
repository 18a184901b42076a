"""The independence rule as a standing check: no exact formula shares code with its oracle.

The call graph is read from the source with ``ast``, by name: a function or class reaches every
function or class whose name its body mentions, called or passed as a value (``_step`` takes
its routes as arguments), and a class reaches what its methods mention.  A name defined twice
stands for both definitions.  Each formula/oracle pair's two closures may overlap only in the
pair's allowance: the one shared base, the prime table and its stream, and the table's prefix
of primes for Mersenne and Fermat.
"""

import ast
import pathlib

import pytest

import primelab

SRC = pathlib.Path(primelab.__file__).parent

# The prime table and the segment stream it is sieved from: every formula reads its sieving
# primes from a table, and every oracle reads primes from a table or the stream.
TABLE = {"PrimeTable", "sieve_primes", "_odd_segments", "_shifted_table", "table_for", "sieving_prime_set"}

# kind: (formula roots, oracle roots, what the two may share beyond the table)
PAIRS = {
    "pi": (("_phi",), ("brute_pi",), set()),
    "twin": (("survivor_count", "_pattern_count"), ("brute_tuple_count",), set()),
    "tuple": (("survivor_count", "_pattern_count"), ("brute_tuple_count",), set()),
    # both sides read the prefix of the table's primes: the sieve its odd primes <= sqrt(x), the
    # oracle its trial divisors
    "mersenne": (("_exponent_sieve",), ("_shifted_power_primes",), {"prefix_le"}),
    "fermat": (("_exponent_sieve",), ("_shifted_power_primes",), {"prefix_le"}),
    "exact goldbach": (("crt_windows", "eta_spec"), ("_certify",), set()),
}


def call_graph() -> dict[str, set[str]]:
    """Each module-level function or class and each method in src/primelab, by bare name -> the
    names of those its body mentions: a bare name reaches a module-level one, an attribute
    either kind (so a local variable never reaches a method of its name)."""
    bodies, tops, methods = {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                tops.add(node.name)
                bodies.setdefault(node.name, []).append(node)
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef):
                        methods.add(item.name)
                        bodies.setdefault(item.name, []).append(item)
    graph = {}
    for name, nodes in bodies.items():
        walked = [sub for node in nodes for sub in ast.walk(node)]
        graph[name] = ({sub.id for sub in walked if isinstance(sub, ast.Name)} & tops
                       | {sub.attr for sub in walked if isinstance(sub, ast.Attribute)} & (tops | methods))
    return graph


def closure(roots, graph) -> set[str]:
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in graph and name not in seen:
            seen.add(name)
            todo.extend(graph[name])
    return seen


@pytest.fixture(scope="module")
def graph():
    return call_graph()


@pytest.mark.parametrize("kind", PAIRS)
def test_formula_and_oracle_share_only_the_allowance(graph, kind):
    formula, oracle, allowed = PAIRS[kind]
    assert all(root in graph for root in formula + oracle)
    shared = closure(formula, graph) & closure(oracle, graph)
    assert shared <= TABLE | allowed, sorted(shared - TABLE - allowed)
