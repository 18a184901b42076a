"""Traced stand-in for ``python -m primelab.cli``: one CLI operation, with spans.

Usage: python perfbench/cli_child.py TRACE_OUT [primelab arguments...]

Imports the CLI (timed), installs the tracer's wrappers, runs
``primelab.cli.run_command`` on the arguments and writes the span totals
to TRACE_OUT.  The exit code is the command's.
"""

import json
import sys
from time import perf_counter

start = perf_counter()
import primelab.cli  # noqa: E402

import_ms = 1000 * (perf_counter() - start)

import tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.install()
    try:
        return tr.call("cli.run_command", primelab.cli.run_command, (argv,), {})
    finally:
        sys.stdout.flush()
        with open(out, "w") as fh:
            json.dump({**tr.totals(), "import_ms": import_ms}, fh)


if __name__ == "__main__":
    sys.exit(main())
