"""Workload definitions: inputs made from the seed, and one operation each.

A run of a workload executes its operations 0, 1, 2, ... in order.
Operation i of a suite workload runs a suite with library seed
``op_seed(seed, i)``, so operation 0 of the default seed is exactly the
suite call (or, for ``check_all``, the command line) that the ROADMAP
names.  Operation i of ``eval_stream`` is the i-th request of a seeded
stream.
"""

from __future__ import annotations

import hashlib
import random
import sys

DEFAULT_SEED = 7

WORKLOADS = ("complexes", "clifford", "eval_stream", "check_all")

# A suite call's cost varies with the sizes of its random elements, mostly
# with the commutator table's trial sets (a table round's cost varies by
# about 30% between seeds).  The dd, bb and wedge trials cost about the
# same on every seed, so many of them and two table rounds per patch make
# a complexes call (about 11 s here) vary by 6%, and a run averages two.
COMPLEXES_PARAMS = {"trials": 400, "table_cases": 6}
CLIFFORD_PARAMS = {"trials": 3, "dims": (1, 2, 3, 4)}

# Fewest operations in a timed run.  eval_stream needs 1000 requests so
# that at least ten latency samples lie beyond the 99th percentile.
MIN_OPS = {"complexes": 2, "clifford": 3, "eval_stream": 1000, "check_all": 1}

# Operations of the fixed set that a traced run executes, so that its
# counts depend on the seed alone.
TRACED_OPS = {"complexes": 1, "clifford": 1, "eval_stream": 600, "check_all": 1}

# Operations that a second process repeats to check byte-determinism.
REPEAT_OPS = {"complexes": 1, "clifford": 1, "eval_stream": 200, "check_all": 0}

# Leading operations whose output digests a run reports, for the gates;
# the rest are only timed, so a run's memory does not grow with its length.
DIGESTED_OPS = 2000


def start_next(done: int, minimum: int, elapsed: float, seconds: float) -> bool:
    """Whether a run starts another operation after `done` of them took
    `elapsed` seconds: until `minimum` are done, then while one more of
    the mean length so far still ends within `seconds`."""
    if done < minimum:
        return True
    if not seconds:
        return False
    return elapsed + elapsed / max(done, 1) <= seconds


def op_seed(seed: int, i: int) -> int:
    return seed + 1000 * i


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


CLI = [sys.executable, "-m", "supercalc"]


def check_all_args(seed: int) -> list[str]:
    return ["check", "all", "--seed", str(seed)]


# -- eval_stream requests -----------------------------------------------------

_KINDS = (
    ("product", 3),
    ("commutator", 2),
    ("inverse", 2),
    ("lift_exp", 1),
    ("lift_exp_neg", 1),
    ("lift_reciprocal", 1),
    ("berezin", 1),
    ("conj", 1),
    ("conj_dewitt", 1),
)


def _coefficient(rng: random.Random, nonzero: bool = False) -> str:
    while True:
        re = f"{rng.randint(-5, 5)}/{rng.randint(1, 4)}"
        if rng.random() < 0.4:
            return f"({re} + {rng.randint(1, 5)}/{rng.randint(1, 4)}i)"
        if not nonzero or not re.startswith("0/"):
            return re


def _supernumber_text(rng: random.Random, nu: int, body: bool) -> str:
    chunks = [_coefficient(rng, nonzero=True)] if body else []
    for _ in range(rng.randint(3, 8)):
        mask = rng.randrange(1, 1 << nu)
        gens = "*".join(f"x{k + 1}" for k in range(nu) if mask >> k & 1)
        chunks.append(f"{_coefficient(rng)}*{gens}")
    return " + ".join(chunks)


def eval_request(rng: random.Random) -> tuple[int, str]:
    """One request: the generator count and the expression text."""
    nu = rng.randint(2, 8)
    kind = rng.choices([k for k, _ in _KINDS], weights=[w for _, w in _KINDS])[0]
    a = _supernumber_text(rng, nu, body=True)
    b = _supernumber_text(rng, nu, body=rng.random() < 0.5)
    # exp and exp_neg are exact only on a soul (zero body)
    s = _supernumber_text(rng, nu, body=False)
    text = {
        "product": f"({a})*({b})",
        "commutator": f"({a})*({b}) - ({b})*({a})",
        "inverse": f"inverse({a})",
        "lift_exp": f"lift[exp]({s})",
        "lift_exp_neg": f"lift[exp_neg]({s})",
        "lift_reciprocal": f"lift[reciprocal]({a})",
        "berezin": f"berezin(({a})*({b}))",
        "conj": f"conj({a})",
        "conj_dewitt": f"conj[dewitt](({a})*({b}))",
    }[kind]
    return nu, text


class EvalStream:
    """The seeded request stream, read forward once."""

    def __init__(self, seed: int):
        self._rng = random.Random(f"eval_stream:{seed}")

    def next(self) -> tuple[int, str]:
        return eval_request(self._rng)


def input_digest(seed: int, count: int) -> str:
    stream = EvalStream(seed)
    return digest("\n".join("%d:%s" % stream.next() for _ in range(count)))


# -- in-process operations ----------------------------------------------------


class Operations:
    """Operations of one in-process workload, after `supercalc` is imported.

    ``run(prepare(i))`` executes operation i and returns (identity cases
    checked, whether every check passed, canonical output text).
    """

    def __init__(self, workload: str, seed: int):
        from supercalc import exprlang, grassmann, suites

        self.workload = workload
        self.seed = seed
        self._suites = suites
        self._exprlang = exprlang
        self._grassmann = grassmann
        self.stream = EvalStream(seed) if workload == "eval_stream" else None

    def prepare(self, i: int):
        """Inputs of operation i, built outside the timed region; called
        for i = 0, 1, 2, ... in order."""
        if self.stream is not None:
            return self.stream.next()
        return op_seed(self.seed, i)

    def run(self, op_input) -> tuple[int, bool, str]:
        if self.workload == "complexes":
            report = self._suites.run_complexes(seed=op_input, **COMPLEXES_PARAMS)
        elif self.workload == "clifford":
            report = self._suites.run_clifford(seed=op_input, **CLIFFORD_PARAMS)
        else:
            nu, text = op_input
            # the path of `supercalc eval EXPR --nu NU`
            value = self._exprlang.evaluate(text, self._exprlang.Context(0, nu))
            return 1, True, self._grassmann.format_supernumber(value)
        return sum(c.cases for c in report.checks), report.ok, report.to_text()
