"""Worker process of the benchmark.

Imports supercalc, builds the inputs of one workload, then runs operations
0, 1, 2, ... and prints one JSON line with when each operation started and
ended, the identity cases checked, the failed operations and the output
digests of the leading operations.

    python perfbench/worker.py --workload W --seed S --ops N [--seconds T]
                               [--calibrate] [--trace-out FILE]

With ``--seconds T`` it runs at least N operations, and more while one
more still ends within T seconds; without, exactly N operations.  Times are on the
``perf_counter`` clock, which the parent process shares; ``ready`` is the
end of set-up.  ``--calibrate`` logs the machine's speed from the start
(see ``calibrate.py``) and reports the samples.  ``--trace-out`` runs the
operations under the tracer and writes the spans to FILE.
"""

from __future__ import annotations

import argparse
import json
from array import array
import resource
import sys
import time
import traceback

from calibrate import SpeedLog
from workloads import DIGESTED_OPS, WORKLOADS, Operations, digest, start_next


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    speed = None
    if args.calibrate:
        speed = SpeedLog()
        speed.start()
    ops = Operations(args.workload, args.seed)
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.perf_counter()

    spans = array("d")
    digests = []
    failed = []
    errors = []
    cases = 0
    clock = time.perf_counter
    begin = clock()
    i = 0
    while start_next(i, args.ops, clock() - begin, args.seconds):
        op_input = ops.prepare(i)
        t0 = clock()
        try:
            op_cases, ok, text = ops.run(op_input)
        except Exception:
            # a failing operation is reported, and the run goes on
            op_cases, ok, text = 0, False, ""
            if len(errors) < 5:
                errors.append(f"op {i}: {traceback.format_exc()}")
        spans.extend((t0, clock()))
        cases += op_cases
        if not ok:
            failed.append(i)
        if i < DIGESTED_OPS:
            digests.append(digest(text))
        i += 1
    if speed is not None:
        speed.stop()

    out = {
        "spans": list(spans),
        "ready": ready,
        "calibration": list(speed.samples) if speed is not None else [],
        "cases": cases,
        "failed": failed,
        "digests": digests,
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
