"""The supercalc benchmark.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a source checkout.  Every workload runs in fresh
processes: in-process workloads in ``perfbench/worker.py``, ``check_all``
as ``python -m supercalc check all`` subprocesses.

``--trace 0`` measures the end-to-end metrics for T seconds, in reference
seconds: wall time corrected for the host's drifting speed by a calibration
loop that runs next to the work (see ``calibrate.py``).  ``--trace 1``
runs a fixed set of operations three times, once plain and twice under the
tracer, and reports the per-layer metrics; the exact counts of the two
traced runs must agree.  Every operation's output is hashed: at the default
seed the hashes must equal ``perfbench/reference.json``, and on any seed the
operations that a second process repeats must hash the same.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric with its unit and the run's metadata.  Details go to
``perfbench/out/``.

``--record-reference`` rewrites ``perfbench/reference.json`` from the
current source.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import Scale  # noqa: E402
from workloads import (  # noqa: E402
    CLI,
    DEFAULT_SEED,
    MIN_OPS,
    REPEAT_OPS,
    TRACED_OPS,
    WORKLOADS,
    check_all_args,
    digest,
    input_digest,
    op_seed,
    start_next,
)

ROOT = os.getcwd()
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_PROBES = 7
IMPORT_PROBES = 3
OP_TIMEOUT_S = 150
REFERENCE_OPS = {"complexes": 4, "clifford": 4, "eval_stream": 2000, "check_all": 2}
INPUT_DIGEST_REQUESTS = 200
SUITE_COUNT = 7
_CASES = re.compile(r"^\s+(PASS|FAIL) .* \[(\d+) cases\]$", re.M)

SELF_TIME_LAYERS = (
    "scalars",
    "graded_poly",
    "grassmann",
    "polynomials",
    "forms",
    "forms.operator",
    "forms.commutator_table",
    "exactmat",
    "clifford",
    "clifford.matrix_of",
    "analytic",
    "berezin",
    "exprlang",
    "fock",
    "metric",
    "matrices",
    "randomgen",
)
SUITES = ("grassmann", "berezin", "linalg", "complexes", "metric", "fock", "clifford")
COUNTS = (
    "scalars.crat_ops",
    "graded_poly.mul_calls",
    "graded_poly.term_pairs",
    "grassmann.mul_calls",
    "grassmann.term_pairs",
    "forms.operator_calls",
    "forms.operator_builds",
    "exactmat.matmul_calls",
    "exactmat.scalar_mults",
)


# -- processes ------------------------------------------------------------------


class Proc(NamedTuple):
    """Outcome of one child process; `started` and `ended` are on the
    ``perf_counter`` clock, which child processes share."""

    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int
    started: float
    ended: float


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str], timeout: float = OP_TIMEOUT_S) -> Proc:
    """Run `cmd` to completion."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    err: list[str] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        ended = time.perf_counter()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Proc(proc.returncode, out, "".join(err), usage.ru_maxrss, started, ended)


def worker(
    workload: str, seed: int, ops: int, seconds: float = 0.0, calibrate: bool = False, trace_out: str = ""
) -> tuple[Proc, dict]:
    """Run operations in a fresh worker process; returns the process and
    its result: latencies, cases, failed op indices, digests, errors and,
    with `calibrate`, the set-up time.  With `calibrate` the times are in
    reference seconds (see ``calibrate.py``), otherwise in wall seconds."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--ops", str(ops), "--seconds", str(seconds)]
    if calibrate:
        cmd.append("--calibrate")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = spawn(cmd, timeout=seconds + OP_TIMEOUT_S)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        # the worker died: every requested operation counts as failed
        result = {"spans": [], "cases": 0, "failed": list(range(max(ops, 1))), "digests": [], "errors": []}
    spans = result.pop("spans")
    pairs = zip(spans[0::2], spans[1::2])
    if calibrate and result.get("calibration"):
        scale = Scale(result.pop("calibration"))
        result["latencies"] = [scale.seconds(t0, t1) for t0, t1 in pairs]
        result["setup_s"] = scale.seconds(proc.started, result["ready"])
    else:
        result["latencies"] = [t1 - t0 for t0, t1 in pairs]
    if proc.returncode != 0:
        result["errors"].append(proc.stderr[-2000:])
    return proc, result


def calibrated_cli(args: list[str]) -> tuple[Proc, float]:
    """Run the command line as `python -m supercalc ARGS` would, with the
    speed log running; returns the process and its duration, from launch
    to exit, in reference seconds."""
    samples_out = os.path.join(OUT_DIR, "calibration-cli.json")
    if os.path.exists(samples_out):
        os.remove(samples_out)
    proc = spawn([sys.executable, os.path.join(HERE, "calibrated_cli.py"), samples_out] + args)
    try:
        with open(samples_out, encoding="utf-8") as fh:
            scale = Scale(json.load(fh))
    except (OSError, ValueError):
        # no samples: the process failed, and its result gate says so
        return proc, proc.ended - proc.started
    return proc, scale.seconds(proc.started, proc.ended)


def cli_ops(
    seed: int, count: int, seconds: float = 0.0, calibrate: bool = False, trace_out: str = ""
) -> tuple[list[Proc], dict]:
    """`check all` invocations for operations 0, 1, 2, ..., in the worker's
    result shape: exactly `count`, or with `seconds` at least `count` and
    more while one more still ends within `seconds`."""
    procs: list[Proc] = []
    result = {"latencies": [], "cases": 0, "failed": [], "digests": [], "errors": []}
    begin = time.perf_counter()
    i = 0
    while start_next(i, count, time.perf_counter() - begin, seconds):
        args = check_all_args(op_seed(seed, i))
        if trace_out:
            proc = spawn([sys.executable, os.path.join(HERE, "traced_cli.py"), trace_out] + args)
            latency = proc.ended - proc.started
        elif calibrate:
            proc, latency = calibrated_cli(args)
        else:
            proc = spawn(CLI + args)
            latency = proc.ended - proc.started
        cases = _CASES.findall(proc.stdout)
        ok = (
            proc.returncode == 0
            and bool(cases)
            and all(status == "PASS" for status, _ in cases)
            and proc.stdout.count("=> OK") == SUITE_COUNT
        )
        result["latencies"].append(latency)
        result["cases"] += sum(int(n) for _, n in cases)
        result["digests"].append(digest(proc.stdout))
        if not ok:
            result["failed"].append(i)
            result["errors"].append(proc.stderr[-2000:])
        procs.append(proc)
        i += 1
    return procs, result


def run_ops(workload: str, seed: int, count: int, trace_out: str = "") -> dict:
    """Exactly `count` operations from op 0, in fresh processes."""
    if workload == "check_all":
        return cli_ops(seed, count, trace_out=trace_out)[1]
    return worker(workload, seed, count, trace_out=trace_out)[1]


# -- correctness gates --------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def gate(workload: str, seed: int, result: dict, repeats: list[dict]) -> tuple[set[int], list[str]]:
    """Failed operation indices of `result`, and why.

    An operation fails when it raised or a suite check failed, when at the
    default seed its digest differs from the reference, or when a result in
    `repeats` (other processes running a prefix of the same operations)
    hashed it differently.
    """
    failed = set(result["failed"])
    problems = [f"op {i} raised or failed a check" for i in sorted(failed)]
    digests = result["digests"]
    if seed == DEFAULT_SEED:
        for i, (got, want) in enumerate(zip(digests, load_reference()["digests"][workload])):
            if got != want:
                failed.add(i)
                problems.append(f"op {i} output digest {got} differs from the reference {want}")
    for other in repeats:
        for i, (got, again) in enumerate(zip(digests, other["digests"])):
            if got != again:
                failed.add(i)
                problems.append(f"op {i} output digest differs between processes")
    return failed, problems


def input_self_check(workload: str, seed: int) -> list[str]:
    """The same seed must give the same eval_stream inputs, another seed
    different ones."""
    if workload != "eval_stream":
        return []
    first = input_digest(seed, INPUT_DIGEST_REQUESTS)
    failures = []
    if input_digest(seed, INPUT_DIGEST_REQUESTS) != first:
        failures.append("the same seed generated different inputs")
    if input_digest(seed + 1, INPUT_DIGEST_REQUESTS) == first:
        failures.append("a different seed generated the same inputs")
    if seed == DEFAULT_SEED and load_reference()["input_digest"] != first:
        failures.append("default-seed inputs differ from the reference")
    return failures


# -- metadata -----------------------------------------------------------------------


def metadata(seed: int) -> dict:
    files = sorted(glob.glob(os.path.join(ROOT, "src", "supercalc", "*.py")))
    lines = 0
    h = hashlib.sha256()
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        lines += data.count(b"\n")
        h.update(os.path.basename(path).encode() + b"\0" + data)
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        rev = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        rev = None
    return {
        "git_revision": rev,
        "src_sha256": h.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


# -- runs ---------------------------------------------------------------------------


def p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics: set-up probes, then `seconds` of operations."""
    setups = []
    repeats = []
    if workload == "check_all":
        for _ in range(SETUP_PROBES):
            # the command line from interpreter start to parsed arguments
            setups.append(calibrated_cli(["check", "--help"])[1])
        procs, result = cli_ops(seed, MIN_OPS[workload], seconds, calibrate=True)
        peak_kb = max(p.maxrss_kb for p in procs)
    else:
        for k in range(SETUP_PROBES):
            # the first probe also repeats the leading operations
            _, probe = worker(workload, seed, REPEAT_OPS[workload] if k == 0 else 0, calibrate=True)
            setups.append(probe.get("setup_s"))
            if k == 0:
                repeats.append(probe)
        proc, result = worker(workload, seed, MIN_OPS[workload], seconds, calibrate=True)
        setups.append(result.get("setup_s"))
        peak_kb = proc.maxrss_kb

    failed, problems = gate(workload, seed, result, repeats)
    # a run whose processes all died still prints a (failed) result
    latencies_ms = [t * 1000 for t in result["latencies"]] or [0.0]
    busy = sum(result["latencies"]) or float("inf")
    metrics = {
        "cases_per_s": result["cases"] / busy,
        "req_per_s": len(result["latencies"]) / busy,
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p99_ms": p99(latencies_ms),
        "setup_s": statistics.median([s for s in setups if s is not None] or [0.0]),
        "peak_rss_mb": peak_kb / 1024,
    }
    return {
        "attempted": len(result["latencies"]),
        "failed": sorted(failed),
        "failures": input_self_check(workload, seed),
        "problems": problems,
        "errors": result["errors"],
        "metrics": metrics,
        "setups": setups,
    }


def import_seconds() -> float:
    code = "import time; t = time.perf_counter(); import supercalc.cli; print(time.perf_counter() - t)"
    return statistics.median(
        float(spawn([sys.executable, "-c", code]).stdout) for _ in range(IMPORT_PROBES)
    )


def load_trace(path: str) -> dict | None:
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    del trace["spans"], trace["span_names"]
    return trace


def traced_run(workload: str, seed: int) -> dict:
    """Per-layer metrics: the fixed operation set once plain and twice traced,
    each in fresh processes."""
    count = TRACED_OPS[workload]
    runs = []
    for k in range(3):
        trace_out = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}-{k}.json") if k else ""
        if trace_out and os.path.exists(trace_out):
            os.remove(trace_out)
        runs.append(run_ops(workload, seed, count, trace_out))
        if trace_out:
            runs[-1]["trace"] = load_trace(trace_out)
    plain, traced, again = runs

    failed, problems = gate(workload, seed, traced, [plain, again])
    for other in (plain, again):
        other_failed, other_problems = gate(workload, seed, other, [])
        failed |= other_failed
        problems += other_problems
    failures = []
    summary = traced["trace"]
    if summary is None or again["trace"] is None:
        failures.append("a traced process wrote no trace")
        summary = {"self_s": {}, "suite_wall_s": {}, "counts": {}, "gc_pause_s": 0.0, "gc_collections": 0}
    elif summary["counts"] != again["trace"]["counts"]:
        failures.append(f"exact counts differ between traced runs: {summary['counts']} vs {again['trace']['counts']}")
    plain_s = sum(plain["latencies"])
    overhead = sum(traced["latencies"]) / plain_s if plain_s else 0.0
    return {
        "attempted": count,
        "failed": sorted(failed),
        "failures": failures,
        "problems": problems,
        "errors": plain["errors"] + traced["errors"] + again["errors"],
        "metrics": layer_metrics(summary, overhead, import_seconds()),
        "trace": summary,
    }


def layer_metrics(summary: dict, overhead: float, import_s: float) -> dict:
    counts = summary["counts"]
    out = {f"{layer}.self_s": summary["self_s"].get(layer, 0.0) for layer in SELF_TIME_LAYERS}
    out.update({f"suites.{s}.wall_s": summary["suite_wall_s"].get(s, 0.0) for s in SUITES})
    out.update({name: counts.get(name, 0) for name in COUNTS})
    pairs = counts.get("graded_poly.term_pairs", 0)
    out["graded_poly.fill_ratio"] = counts.get("graded_poly.result_terms", 0) / pairs if pairs else 0.0
    mults = counts.get("exactmat.scalar_mults", 0)
    out["exactmat.useful_ratio"] = counts.get("exactmat.useful_mults", 0) / mults if mults else 0.0
    out["gc.pause_s"] = summary["gc_pause_s"]
    out["gc.collections"] = summary["gc_collections"]
    out["cli.import_s"] = import_s
    out["trace.overhead_ratio"] = overhead
    return out


def record_reference() -> int:
    """Write the default seed's output digests and eval_stream input digest."""
    digests = {}
    for workload in WORKLOADS:
        result = run_ops(workload, DEFAULT_SEED, REFERENCE_OPS[workload])
        if result["failed"] or len(result["digests"]) != REFERENCE_OPS[workload]:
            print(f"error: {workload} failed at the default seed; reference not written", file=sys.stderr)
            return 1
        digests[workload] = result["digests"]
    reference = {
        "seed": DEFAULT_SEED,
        "input_digest": input_digest(DEFAULT_SEED, INPUT_DIGEST_REQUESTS),
        "digests": digests,
    }
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "supercalc", "__init__.py")):
        print("error: run from the root of a supercalc checkout (src/supercalc not found)", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.trace:
        run = traced_run(args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        run = timed_run(args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]

    # a failure not tied to one operation (inputs, counts) counts as one more
    failed = len(run["failed"]) + len(run["failures"])
    attempted = max(run["attempted"], failed, 1)
    meta = metadata(args.seed)
    metrics = {m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}

    details = dict(run, workload=args.workload, traced=bool(args.trace), meta=meta, metrics=metrics)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)

    for problem in (run["failures"] + run["problems"])[:20]:
        print(f"problem: {problem}")
    for error in run["errors"][:3]:
        print(f"error: {error.strip()}")
    print(f"workload {args.workload}: {run['attempted']} operations, {failed} failed")
    for key, m in metrics.items():
        print(f"  {key:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':32s} {failed / attempted:.6g} ({failed}/{attempted})")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
