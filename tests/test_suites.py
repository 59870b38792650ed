"""The suites' one counting path: the sampled suites over their one driver,
`suites.evaluate_checks`, and the rows of the identity table; and
`run_all`, which runs the complexes suite in a worker process."""

import itertools
import multiprocessing
import random
from types import SimpleNamespace

import pytest

from supercalc import suites
from supercalc.suites import (
    Block,
    Check,
    SuiteReport,
    evaluate_checks,
    run_all,
    run_berezin,
    run_clifford,
    run_complexes,
    run_fock,
    run_grassmann,
    run_linalg,
    run_metric,
)

# (name, cases) of each check at seed 0 and 8 trials
SAMPLED_CASES = {
    run_grassmann: [
        ("ring axioms: associativity, distributivity", 16),
        ("graded commutativity on homogeneous pairs", 8),
        ("soul nilpotency soul(z)^(N+1) = 0", 8),
        ("mul(z, inverse(z)) = 1 on invertible z", 8),
        ("conjugation: additivity, product rules, involution", 40),
        ("lifting: exp multiplicativity, reciprocal, composition", 12),
    ],
    run_berezin: [
        ("left derivatives anticommute", 6),
        ("DI = 0 and ID = 0", 16),
        ("derivation property: integral of d(fg) vanishes", 4),
        ("linear change of variables: derivative product vs det", 8),
        ("Fubini on factorized integrands", 4),
        ("density pairing equals multiply-then-integrate (n=1, nu=3)", 8),
        ("gaussian quadrature example reproduces sqrt(pi)", 1),
    ],
    run_linalg: [
        ("ordinary transpose of homogeneous-entry products", 8),
        ("supertranspose product rule", 8),
        ("entrywise conjugation is multiplicative (Koszul)", 8),
        ("superhermitian product rule", 16),
        ("double supertranspose matches the sign-rule oracle", 8),
        ("block form of the supertranspose", 2),
        ("even matrices preserve, odd matrices flip, vector parity", 8),
        ("matrix product parity adds", 8),
    ],
}


@pytest.mark.parametrize("run", SAMPLED_CASES, ids=lambda run: run.__name__)
def test_sampled_case_counts_are_pinned(run):
    report = run(seed=0, trials=8)
    assert [(check.name, check.cases) for check in report.checks] == SAMPLED_CASES[run]
    assert all(check.ok for check in report.checks)


def test_driver_scopes_checks_and_formats_only_failures():
    """Each clause counts one case per draw in its check's scope; only a
    failing clause formats its message, so a passing one may name a field
    that the draw does not have."""
    block = Block(3, lambda rng, k: {"k": k, "x": rng.randint(0, 9)})
    report = evaluate_checks(SuiteReport("demo", 5, 3), [
        Check("even k", block, [(lambda t: t.k % 2 == 0, "#{k} x={x}"), (lambda t: True, "{missing}")]),
        Check("k > 0", Block(2, lambda rng, k: {"k": k}), [(lambda t: False, "#{k}")], scope=lambda t: t.k > 0),
    ])
    rng = random.Random(5)
    xs = [rng.randint(0, 9) for _ in range(3)]
    assert [(c.name, c.cases, c.failures) for c in report.checks] == [
        ("even k", 6, [f"#1 x={xs[1]}"]),
        ("k > 0", 1, ["#1"]),
    ]


def test_vector_parity_check_meets_both_parities(monkeypatch):
    """The draws of "even matrices preserve, odd matrices flip, vector
    parity" pair each matrix parity with both vector parities, so the
    wanted image parity is 0 on some draws and 1 on others."""
    captured = []
    monkeypatch.setattr(suites, "evaluate_checks", lambda report, checks: captured.extend(checks) or report)
    run_linalg(seed=0, trials=8)
    (check,) = [c for c in captured if c.name == "even matrices preserve, odd matrices flip, vector parity"]
    rng = random.Random(0)
    draws = [check.block.draw(rng, k) for k in range(check.block.count)]
    assert {(t["pk"], t["want"]) for t in draws} == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_a_deviating_table_row_lists_its_failing_cases(monkeypatch):
    """A table row that deviates on every other case fails alone, with
    the case count of the passing run; it lists its first five failing
    cases by running index over all trial sets, then how many more, and
    the report's last line counts the failing cases.  Each trial set adds
    to the one check that `SuiteReport.check` returns for the row's name."""
    kwargs = dict(trials=2, seed=5, mixes=((2, 2),), table_cases=6)
    passing = run_complexes(**kwargs)
    assert passing.ok
    name = "forms: [i(X), i(Y)] = 0"
    calls = itertools.count()

    def deviation(*elements):
        """Zero on the even calls, nonzero on the odd ones."""
        k = next(calls)
        return SimpleNamespace(is_zero=lambda: k % 2 == 0)

    rows = tuple(row._replace(deviation=deviation) if row.name == name else row for row in suites.IDENTITIES)
    monkeypatch.setattr(suites, "IDENTITIES", rows)
    report = run_complexes(**kwargs)
    assert [(c.name, c.cases) for c in report.checks] == [(c.name, c.cases) for c in passing.checks]
    (failing,) = [c for c in report.checks if not c.ok]
    assert failing.name == f"(2,2) {name}"
    assert failing.cases > 10
    assert failing.failures == [f"case #{k}" for k in range(1, failing.cases, 2)]
    checks = list(report.checks)
    assert report.check(failing.name) is failing and report.checks == checks
    text = report.to_text().splitlines()
    at = text.index(f"  FAIL (2,2) {name} [{failing.cases} cases]")
    assert text[at + 1 : at + 7] == [f"    ! case #{k}" for k in (1, 3, 5, 7, 9)] + [
        f"    ! ... {len(failing.failures) - 5} more"
    ]
    assert text[-1] == f"  => FAILURES ({len(report.checks)} checks, {failing.cases // 2} failures)"


def serial_reports(trials: int, seed: int) -> list[SuiteReport]:
    """The seven suites of `run_all`, called one after another here."""
    return [
        run_grassmann(trials=max(trials, 50), seed=seed),
        run_berezin(trials=max(trials, 40), seed=seed + 1),
        run_linalg(trials=max(trials, 40), seed=seed + 2),
        run_complexes(trials=max(10, trials // 4), seed=seed + 3, table_cases=12),
        run_metric(trials=max(2, trials // 15), seed=seed + 4),
        run_fock(trials=max(10, trials // 4), seed=seed + 5, max_occupation=3),
        run_clifford(trials=max(3, trials // 10), seed=seed + 6),
    ]


@pytest.mark.parametrize("trials, seed", [(1, 3), (44, 20)])
def test_run_all_returns_the_serial_reports(trials, seed):
    """The complexes report comes back from the worker process at its
    registry place, equal to the one this process computes."""
    reports, serial = run_all(trials=trials, seed=seed), serial_reports(trials, seed)
    assert [r.suite for r in reports] == ["grassmann", "berezin", "linalg", "complexes", "metric", "fock", "clifford"]
    assert [r.to_text() for r in reports] == [r.to_text() for r in serial]
    assert [r.to_json_dict() for r in reports] == [r.to_json_dict() for r in serial]


def test_run_all_leaves_no_child_process(monkeypatch):
    """The worker is reaped when `run_all` returns, and when a suite of
    this process raises while the worker still runs."""
    run_all(trials=1, seed=0)
    assert multiprocessing.active_children() == []

    def refuse(**kwargs):
        raise ValueError("refused")

    monkeypatch.setattr(suites, "run_grassmann", refuse)
    with pytest.raises(ValueError, match="^refused$"):
        run_all(trials=1, seed=0)
    assert multiprocessing.active_children() == []
