"""Run one coxkit CLI invocation in this process under the span tracer.

Usage: python3 perfbench/cli_traced.py <coxkit arguments>

Prints one JSON line: the exit code, the CLI's stdout, the spans (the CLI's
system-file parser and command handlers as ``cli.parse_system_file`` and
``cli.handler``, plus every function in spans.TRACED) and the number of memo
entries the parsed system holds at the end.
"""

import contextlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import coxkit.cli as cli  # noqa: E402
from spans import Tracer  # noqa: E402


def main(argv):
    tracer = Tracer()
    handlers = [("cli.handler", fn) for name, fn in vars(cli).items() if name.startswith("cmd_")]
    tracer.install([("cli.parse_system_file", cli.parse_system_file), *handlers])
    parsed = []
    traced_parse = cli.parse_system_file

    def parse_and_keep(path):
        parsed.append(traced_parse(path))
        return parsed[-1]

    cli.parse_system_file = parse_and_keep
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    tracer.remove()
    memo = sum(len(cache) for m in parsed for cache in m._scratch.values())
    print(json.dumps({"code": code, "stdout": out.getvalue(),
                      "spans": tracer.snapshot(), "memo_entries": memo}))


if __name__ == "__main__":
    main(sys.argv[1:])
