import json
import os
import subprocess
import sys
import time

import pytest

PY = [sys.executable, "-m", "supercalc"]

# The environment of every CLI process here: bytecode is written, to a
# cache directory of the test session, so that the processes compile the
# package once between them and the source tree stays clean.
CLI_ENV: dict[str, str] = {}


@pytest.fixture(scope="session", autouse=True)
def _cli_env(tmp_path_factory):
    CLI_ENV.update((k, v) for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE")
    CLI_ENV["PYTHONPYCACHEPREFIX"] = str(tmp_path_factory.mktemp("pycache"))


def run_cli(*args, expect: int = 0):
    proc = subprocess.run(
        PY + list(args), capture_output=True, text=True, timeout=600, env=CLI_ENV
    )
    assert proc.returncode == expect, proc.stderr
    return proc


def test_eval_antisymmetry():
    proc = run_cli("eval", "x1^x2 + x2^x1", "--nu", "2")
    assert proc.stdout.strip() == "0"


def test_eval_berezin():
    proc = run_cli("eval", "berezin(x1*x2)", "--nu", "2")
    assert proc.stdout.strip() == "1"


def test_eval_lift_from_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"1,2": "1"}))
    proc = run_cli("eval", "lift[exp](s)", "--nu", "2", "--let", f"s={path}")
    assert proc.stdout.strip() == "1 + x1^x2"


def test_eval_form_mode():
    proc = run_cli("eval", "d(x1*dx2)", "--n", "2")
    assert proc.stdout.strip() == "(1)*dx1*dx2"
    proc = run_cli("eval", "i[x1](dx1^dx2)", "--n", "2")
    assert proc.stdout.strip() == "(1)*dx2"


def test_eval_parse_error_exit_code():
    proc = subprocess.run(
        PY + ["eval", "x1 +* x2", "--nu", "2"], capture_output=True, text=True, env=CLI_ENV
    )
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_eval_json_mode():
    proc = run_cli("eval", "inverse(2 + x1^x2)", "--nu", "2", "--json")
    data = json.loads(proc.stdout)
    assert data == {"result": "1/2 - 1/4*x1^x2"}


def test_berezin_command(tmp_path):
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"": "5", "1": "7"}))
    proc = run_cli("berezin", "--nu", "1", "--expr", str(path))
    assert proc.stdout.strip() == "7"
    proc = run_cli(
        "berezin", "--nu", "1", "--expr", str(path), "--normalization", "sqrt2pii"
    )
    assert proc.stdout.strip() == "7 * (2*pi*i)^(1/2)"


def test_mixed_command(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"terms": {"1,2": {"1": "1"}}}))
    proc = run_cli("mixed", "--n", "1", "--nu", "2", "--expr", str(path), "--domain", "0,1")
    assert proc.stdout.strip() == "1/2"


def test_mixed_gaussian(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"terms": {"1,2": "gaussian"}}))
    proc = run_cli(
        "mixed", "--n", "1", "--nu", "2", "--expr", str(path), "--domain=-8,8",
        "--quad", "1e-12",
    )
    value = float(proc.stdout.strip())
    assert abs(value - 1.7724538509055159) < 1e-10


def test_check_subcommands_exit_zero():
    run_cli("check", "grassmann", "--trials", "20", "--seed", "3")
    run_cli("fock", "check", "--nb", "1", "--nf", "1", "--max-occ", "2", "--trials", "5")
    run_cli("clifford", "check", "--dim", "2", "--metric", "identity", "--trials", "2")
    run_cli("complexes", "check", "--n", "1", "--nu", "1", "--trials", "6")


def test_check_json_output():
    proc = run_cli("check", "linalg", "--trials", "10", "--seed", "5", "--json")
    data = json.loads(proc.stdout)
    assert data[0]["suite"] == "linalg"
    assert data[0]["failures"] == 0


def test_unknown_suite_usage_error():
    proc = subprocess.run(
        PY + ["check", "nonsense"], capture_output=True, text=True, env=CLI_ENV
    )
    assert proc.returncode == 2


def test_metric_file_for_clifford(tmp_path):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps([["2", "1"], ["1", "3"]]))
    run_cli("clifford", "check", "--dim", "2", "--metric", str(path), "--trials", "1")


def test_division_by_zero_is_an_input_error():
    for args in (("eval", "inverse(x1)", "--nu", "2"), ("eval", "1/0", "--nu", "1")):
        proc = run_cli(*args, expect=2)
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert len(proc.stderr.strip().splitlines()) == 1


def test_zero_denominator_names_the_column(tmp_path):
    proc = run_cli("eval", "1 + 1/0", "--nu", "1", expect=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "zero denominator" in proc.stderr
    assert "column 5" in proc.stderr
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"1": "1/0"}))
    for args in (
        ("eval", "s", "--nu", "1", "--let", f"s={path}"),
        ("berezin", "--nu", "1", "--expr", str(path)),
    ):
        proc = run_cli(*args, expect=2)
        assert proc.stderr.startswith("error:")
        assert "zero denominator" in proc.stderr


@pytest.mark.parametrize(
    "args, flag",
    [
        (("check", "grassmann", "--trials", "0"), "--trials"),
        (("clifford", "check", "--dim", "0"), "--dim"),
        (("check", "clifford", "--dim", "-2"), "--dim"),
        (("fock", "check", "--nb", "0", "--nf", "0"), "--nb"),
        (("check", "fock", "--nf", "0"), "--nf"),
        (("fock", "check", "--max-occ", "-1"), "--max-occ"),
        (("eval", "x1", "--nu", "-1"), "--nu"),
        (("complexes", "check", "--n", "-1"), "--n"),
        (("eval", "x1", "--nu", "1000000000"), "--nu"),
        (("eval", "dx1", "--n", "501"), "--n"),
        (("berezin", "--nu", "501", "--expr", "missing.json"), "--nu"),
        (("mixed", "--n", "1", "--nu", "1000000000", "--expr", "missing.json", "--domain", "0,1"), "--nu"),
    ],
    ids=["trials", "dim-zero", "dim-negative", "nb-nf", "nf", "max-occ", "nu", "n",
         "eval-nu-cap", "eval-n-cap", "berezin-nu-cap", "mixed-nu-cap"],
)
def test_integer_flag_out_of_range(args, flag):
    proc = run_cli(*args, expect=2)
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert f"argument {flag}:" in errors[0]


@pytest.mark.parametrize(
    "args",
    [("clifford", "check", "--dim", "7"), ("check", "clifford", "--dim", "7")],
    ids=["clifford-check", "check-clifford"],
)
def test_clifford_dim_above_the_cap(args):
    proc = run_cli(*args, expect=2)
    assert proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "argument --dim: must be at most 6" in errors[0]


# an integer literal longer than Python converts from text by default
HUGE_INTEGER = "1" * 5000


def write_json(path, content) -> None:
    """Write content as JSON; a str is written as the JSON text itself,
    and bytes as the file's bytes."""
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))


def one_error_line(proc) -> str:
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.strip().splitlines()) == 1
    return proc.stderr


@pytest.mark.parametrize(
    "content, message",
    [
        ([[1 if i == j else 0 for j in range(7)] for i in range(7)], "7 rows, at most 6"),
        ({"terms": {"1": "1"}}, "expected a JSON list of rows"),
        ([["1", "0"], ["0"]], "expected 2 rows of 2 entries"),
        ([["1", "1/0"], ["1/0", "1"]], "row 1 entry 2: zero denominator"),
        ([["1", "x"], ["x", "1"]], "row 1 entry 2: 'x' is not a number"),
        ([["1e10000000"]], "row 1 entry 1: the exponent of '1e10000000' is more than "),
        (f"[[{HUGE_INTEGER}]]", f"an integer has more than {sys.get_int_max_str_digits()} digits"),
        (b"\xff[[1]]", "'utf-8' codec can't decode byte 0xff"),
    ],
    ids=[
        "too-large",
        "object",
        "ragged",
        "zero-denominator",
        "not-a-number",
        "huge-exponent",
        "huge-integer",
        "not-utf-8",
    ],
)
def test_metric_file_shape(tmp_path, content, message):
    path = tmp_path / "metric.json"
    write_json(path, content)
    proc = run_cli("clifford", "check", "--metric", str(path), expect=2)
    line = one_error_line(proc)
    assert f"--metric {path}: {message}" in line
    assert "set_int_max_str_digits" not in line


def test_metric_file_sets_the_dimension(tmp_path):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps([["2", "1"], ["1", "3"]]))
    run_cli("clifford", "check", "--metric", str(path), "--trials", "1")
    run_cli("check", "clifford", "--metric", str(path), "--trials", "1")
    proc = run_cli("clifford", "check", "--dim", "3", "--metric", str(path), expect=2)
    assert "--dim 3 does not match" in one_error_line(proc)


@pytest.mark.parametrize(
    "domain, message",
    [
        ("0", "interval 1 '0' is not lo,hi"),
        ("0,1,2", "interval 1 '0,1,2' is not lo,hi"),
        ("0,1/0", "interval 1: zero denominator in '1/0'"),
        ("0,x", "interval 1: 'x' is not a number"),
        ("0,1;0,1", "2 intervals, expected 1"),
        ("0,1e10000000", "interval 1: the exponent of '1e10000000' is more than "),
    ],
    ids=["one-bound", "three-bounds", "zero-denominator", "not-a-number", "interval-count", "huge-exponent"],
)
def test_mixed_domain_shape(tmp_path, domain, message):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"terms": {"1,2": {"1": "1"}}}))
    proc = run_cli(
        "mixed", "--n", "1", "--nu", "2", "--expr", str(path), f"--domain={domain}", expect=2
    )
    assert f"--domain: {message}" in one_error_line(proc)


def test_deep_nesting_is_an_input_error():
    depth = 3000
    nested = (("(" * depth + "1" + ")" * depth, 101), ("body(" * depth + "1" + ")" * depth, 501))
    for text, column in nested:
        proc = run_cli("eval", text, "--nu", "1", expect=2)
        assert f"nesting deeper than 100 levels (at column {column})" in one_error_line(proc)
    proc = run_cli("eval", "(" * 100 + "1" + ")" * 100, "--nu", "1")
    assert proc.stdout.strip() == "1"
    proc = run_cli("eval", "x1 + " + "-" * depth + "x1", "--nu", "1")
    assert proc.stdout.strip() == "2*x1"


@pytest.mark.parametrize(
    "args, flags",
    [
        (("check", "grassmann", "--dim", "3", "--trials", "1"), "--dim 3"),
        (("check", "all", "--n", "2"), "--n 2"),
        (("check", "complexes", "--nb", "1", "--trials", "1"), "--nb 1"),
        (("eval", "x1", "--nu", "1", "--seed", "3"), "--seed 3"),
    ],
    ids=["grassmann-dim", "all-n", "complexes-nb", "eval-seed"],
)
def test_flag_foreign_to_the_command_is_a_usage_error(args, flags):
    proc = run_cli(*args, expect=2)
    assert proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert errors == [f"supercalc: error: unrecognized arguments: {flags}"]


def test_check_flags_follow_the_suite_name():
    proc = run_cli("check", "--seed", "3", "grassmann", expect=2)
    assert proc.stdout == ""
    assert len([line for line in proc.stderr.splitlines() if "error:" in line]) == 1


@pytest.mark.parametrize(
    "content, message",
    [
        ([1, 2], "expected a JSON object"),
        ({"1": 5}, "scalar literal 5 is not a string"),
        ({"terms": [1]}, '"terms" is not a JSON object'),
        (f'{{"1": {HUGE_INTEGER}}}', f"an integer has more than {sys.get_int_max_str_digits()} digits"),
    ],
    ids=["list", "number", "terms-list", "huge-integer"],
)
@pytest.mark.parametrize("command", ["let", "berezin"])
def test_term_map_file_shape(tmp_path, content, message, command):
    path = tmp_path / "z.json"
    write_json(path, content)
    if command == "let":
        proc, flag = run_cli("eval", "s", "--nu", "1", "--let", f"s={path}", expect=2), "--let"
    else:
        proc, flag = run_cli("berezin", "--nu", "1", "--expr", str(path), expect=2), "--expr"
    line = one_error_line(proc)
    assert f"{flag} {path}: " in line and message in line
    assert "set_int_max_str_digits" not in line


@pytest.mark.parametrize(
    "content, message",
    [
        ([1, 2], "expected a JSON object"),
        ({"terms": {"1,2": {"1": 1}}}, "scalar literal 1 is not a string"),
        ({"n": 1}, '"terms" is missing'),
        ({"terms": {"1,2": [1]}}, "term '1,2': [1] is neither"),
        ({"terms": {"1,2": "sine"}}, "unknown integrand 'sine'"),
        ({"n": 2, "nu": 2, "terms": {"1,2": "gaussian"}}, '"n" is 2, --n is 1'),
        ({"nu": 1, "terms": {"1": {"1": "1"}}}, '"nu" is 1, --nu is 2'),
    ],
    ids=["list", "number", "no-terms", "term-list", "unknown-integrand", "n", "nu"],
)
def test_mixed_file_shape(tmp_path, content, message):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(content))
    proc = run_cli(
        "mixed", "--n", "1", "--nu", "2", "--expr", str(path), "--domain", "0,1", expect=2
    )
    assert message in one_error_line(proc)


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1e-300", "1e-15"])
def test_quad_tolerance_out_of_range(tmp_path, value):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"terms": {"1,2": "gaussian"}}))
    proc = run_cli(
        "mixed", "--n", "1", "--nu", "2", "--expr", str(path), "--domain=-8,8",
        f"--quad={value}", expect=2,
    )
    assert proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "argument --quad: must be at " in errors[0]


def test_check_complexes_with_one_patch_flag():
    proc = run_cli("check", "complexes", "--n", "1", "--trials", "2")
    checks = [line for line in proc.stdout.splitlines() if line.startswith(("  PASS", "  FAIL"))]
    assert checks and all(line.startswith("  PASS (1,2) ") for line in checks)


def test_library_reader_errors_name_the_flag_and_file(tmp_path):
    bad = tmp_path / "f.json"
    bad.write_text(json.dumps({"terms": {"1,2": "nope"}}))
    proc = run_cli("mixed", "--n", "1", "--nu", "2", "--expr", str(bad), "--domain", "0,1", expect=2)
    assert one_error_line(proc).startswith(f"error: --expr {bad}: unknown integrand 'nope'")
    number = tmp_path / "z.json"
    number.write_text(json.dumps({"1": 5}))
    proc = run_cli("eval", "s", "--nu", "1", "--let", f"s={number}", expect=2)
    assert one_error_line(proc).startswith(f"error: --let {number}: scalar literal 5 is not a string")


def test_let_is_refused_in_form_mode(tmp_path):
    """A binding is a supernumber, so form mode refuses `--let` before it
    reads the file: a missing path gives the same one line."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"1": "1"}))
    for target in (str(path), str(tmp_path / "missing.json")):
        for expression in ("s", "s + dx1"):
            proc = run_cli("eval", expression, "--n", "1", "--nu", "2", "--let", f"s={target}", expect=2)
            assert one_error_line(proc) == "error: --let works only in supernumber mode (--n 0), got --n 1\n"
    proc = run_cli("eval", "s + x1", "--n", "0", "--nu", "2", "--let", f"s={path}")
    assert proc.stdout.strip() == "2*x1"


@pytest.mark.parametrize("name", ["9", "", "x-1", " s", "s t"])
def test_let_name_must_be_one_name_token(tmp_path, name):
    """A binding the reader could never read is refused before any file is
    read, also the file of an earlier, well-named binding."""
    missing = tmp_path / "missing.json"
    start = time.monotonic()
    proc = run_cli("eval", "3", "--nu", "1", "--let", f"s={missing}", "--let", f"{name}={missing}", expect=2)
    assert time.monotonic() - start < 1
    assert one_error_line(proc) == (
        f"error: --let {name}={missing}: {name!r} is not a name (a letter or _, then letters, digits or _)\n"
    )


def test_quadrature_budget_is_an_input_error(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"terms": {"1,2": "gaussian"}}))
    start = time.monotonic()
    proc = run_cli(
        "mixed", "--n", "1", "--nu", "2", "--expr", str(path), "--domain=-1000,1000",
        "--quad", "1e-13", expect=2,
    )
    assert time.monotonic() - start < 5
    line = one_error_line(proc)
    assert "--quad 1e-13" in line and "--domain -1000,1000" in line and "did not converge" in line


@pytest.mark.parametrize(
    "args, named",
    [
        (("fock", "check", "--nb", "4", "--nf", "4"), "--nb 4 --nf 4 --max-occ 3"),
        (("check", "fock", "--nb", "1", "--nf", "8", "--max-occ", "1"), "--nb 1 --nf 8 --max-occ 1"),
        (("fock", "check", "--nb", "100000000000000000000"), "--nb 100000000000000000000 --nf 2 --max-occ 3"),
        (("fock", "check", "--nb", "300", "--max-occ", "0"), "--nb 300 --nf 2 --max-occ 0"),
        (("check", "complexes", "--n", "20", "--nu", "0"), "--n 20 --nu 0"),
        (("complexes", "check", "--n", "9"), "--n 9 --nu 2"),
    ],
    ids=["fock-4-4-3", "fock-1-8-1", "fock-huge-nb", "fock-many-modes", "complexes-20-0", "complexes-9-2"],
)
def test_oversize_suite_requests_are_refused_up_front(args, named):
    start = time.monotonic()
    proc = run_cli(*args, expect=2)
    assert time.monotonic() - start < 5
    line = one_error_line(proc)
    assert line.startswith(f"error: {named}: ")


@pytest.mark.parametrize(
    "expr, flags, message",
    [
        ("e[](x1)", ("--n", "1"), "empty [...] parameter (at column 2)"),
        ("lift[](x1)", ("--nu", "1"), "empty [...] parameter (at column 5)"),
        ("lift[exp(x1)", ("--nu", "1"), "'[' is never closed (at column 5)"),
        ("i[x3](dx1)", ("--n", "1"), "x3: index outside 1..1 (at column 3)"),
        ("L[xi1](dx1)", ("--n", "1"), "xi1: index outside 1..0 (at column 3)"),
        ("L[ x5 ](x1)", ("--n", "1", "--nu", "1"), "x5: index outside 1..1 (at column 4)"),
    ],
    ids=["empty-e", "empty-lift", "unclosed", "field-index", "odd-field-index", "spaced-field-index"],
)
def test_bracket_faults_are_input_errors(expr, flags, message):
    # the first three used to loop without bound, so the timeout is short
    proc = subprocess.run(
        PY + ["eval", expr, *flags], capture_output=True, text=True, timeout=60, env=CLI_ENV
    )
    assert proc.returncode == 2, proc.stderr
    assert one_error_line(proc) == f"error: {message}\n"


def test_polynomial_seed_in_brackets():
    proc = run_cli("eval", "lift[polynomial:1,2](1+x1)", "--nu", "1")
    assert proc.stdout.strip() == "3 + 2*x1"
    proc = run_cli("eval", "lift[ polynomial: 0, 2i ](x1)", "--nu", "1")
    assert proc.stdout.strip() == "2i*x1"


@pytest.mark.parametrize(
    "expr, message",
    [
        ("lift[polynomial:1,q](x1)", "lift[polynomial:1,q]: bad scalar literal: 'q' (at column 1)"),
        ("2*lift[bogus](x1)", "unknown seed 'bogus'; known: ['cos', 'exp', 'exp_neg', 'identity', "
         "'reciprocal', 'sin'] or polynomial:c0,c1,... (at column 3)"),
        ("lift[ex p](x1)", "unknown seed 'ex p'; known: ['cos', 'exp', 'exp_neg', 'identity', "
         "'reciprocal', 'sin'] or polynomial:c0,c1,... (at column 1)"),
        ("conj[bogus](x1)", "conj takes [dewitt] or no parameter, not [bogus] (at column 1)"),
        ("inverse[x1](1+x1)", "inverse takes no [...] parameter (at column 1)"),
        ("x1:2", "trailing input ':' (at column 3)"),
    ],
    ids=["bad-coefficient", "unknown-seed", "spaced-seed", "conj-convention", "stray-parameter", "stray-colon"],
)
def test_bad_bracket_parameters_are_input_errors(expr, message):
    proc = run_cli("eval", expr, "--nu", "2", expect=2)
    assert one_error_line(proc) == f"error: {message}\n"


@pytest.mark.parametrize(
    "expr, flags, message",
    [
        ("e[x1 +* x2](dx1)", ("--n", "2"), "unexpected token '*' (at column 7)"),
        ("e[ x1 + x3 ](dx1)", ("--n", "2"), "x3: index outside 1..2 (at column 9)"),
        ("e[x1 +](dx1)", ("--n", "2"), "unexpected end of input (at column 7)"),
        ("(x1", ("--nu", "1"), "expected ')', found end of input (at column 4)"),
        ("x1 +", ("--nu", "1"), "unexpected end of input (at column 5)"),
        ("2 $", ("--nu", "1"), "unexpected character '$' (at column 3)"),
        ("2\t$", ("--nu", "1"), "unexpected character '$' (at column 3)"),
        ("x1 +  \t$x2", ("--nu", "1"), "unexpected character '$' (at column 8)"),
    ],
    ids=["inside-e", "spaced-e", "end-of-e", "open-paren", "dangling-plus",
         "space-before-bad-character", "tab-before-bad-character", "blanks-before-bad-character"],
)
def test_error_columns_count_in_the_whole_expression(expr, flags, message):
    proc = run_cli("eval", expr, *flags, expect=2)
    assert one_error_line(proc) == f"error: {message}\n"


@pytest.mark.parametrize(
    "expr, message",
    [
        ("e[dx1](x1)", "e[dx1]: parameter is not a superfunction (at column 3)"),
        ("x1 + e[ x1*dxi1 ](dx1)", "e[x1*dxi1]: parameter is not a superfunction (at column 9)"),
    ],
    ids=["differential", "spaced-product"],
)
def test_form_parameter_of_e_names_its_column(expr, message):
    proc = run_cli("eval", expr, "--n", "1", "--nu", "1", expect=2)
    assert one_error_line(proc) == f"error: {message}\n"


def test_trailing_blanks_end_the_input():
    proc = run_cli("eval", "x1 + 1 \t ", "--nu", "1")
    assert proc.stdout == "1 + x1\n"


def test_huge_exact_power_is_refused_up_front(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"terms": {"1": {"200000000": "1"}}}))
    start = time.monotonic()
    proc = run_cli("mixed", "--n", "1", "--nu", "1", "--expr", str(path), "--domain", "0,1/2", expect=2)
    assert time.monotonic() - start < 1
    line = one_error_line(proc)
    assert line.startswith(f"error: --expr {path} --domain 0,1/2: x1^200000000 ")
    assert "--quad" not in line and "digits, more than" in line


def test_named_integrand_needs_one_real_variable(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"terms": {"1": "gaussian"}}))
    start = time.monotonic()
    proc = run_cli("mixed", "--n", "2", "--nu", "1", "--expr", str(path), "--domain", "0,1;0,1", expect=2)
    assert time.monotonic() - start < 1
    assert one_error_line(proc) == f"error: --expr {path} --n 2: the quadrature path supports one real variable\n"


def test_exact_result_too_large_to_print_names_the_input(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"terms": {"1": {"14000,14000": "1"}}}))
    start = time.monotonic()
    proc = run_cli("mixed", "--n", "2", "--nu", "1", "--expr", str(path), "--domain", "0,1/2;0,1/2", expect=2)
    assert time.monotonic() - start < 1
    line = one_error_line(proc)
    assert line.startswith(f"error: --expr {path} --domain 0,1/2;0,1/2: ") and "digits" in line


def test_exponent_past_the_field_width_is_refused(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"terms": {"1": {"2147483648": "1"}}}))
    start = time.monotonic()
    proc = run_cli("mixed", "--n", "1", "--nu", "1", "--expr", str(path), "--domain", "0,1/2", expect=2)
    assert time.monotonic() - start < 1
    assert one_error_line(proc) == f"error: --expr {path}: exponent 2147483648 exceeds 2147483647\n"
