"""Run the supercalc command line with the benchmark's tracer installed.

    python perfbench/traced_cli.py TRACE_OUT ARGS...

is ``python -m supercalc ARGS...`` with every public function wrapped; the
spans go to TRACE_OUT and stdout is the command's own.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from supercalc import cli

    code = cli.main(argv)
    sys.stdout.flush()
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
