"""Grammar fuzzing of the `eval` reader.

Seeded hypothesis strategies draw expressions from the `eval` grammar in
supernumber mode and in form mode: literals, generator names in and out
of range, unknown names, signs, sums and products, parentheses, every
call with and without a bracket parameter.  A third strategy draws token
soup, strings of grammar tokens and stray characters in any order.  The
reader runs in process under a per-case `SIGALRM`.  Every case must
return a value or raise an input error, a `ValueError` or a
`ZeroDivisionError`, the exceptions `supercalc eval` reports as one
`error:` line with exit 2; any other exception, and a case that takes
longer than its alarm, fails.

Two more strategies draw JSON documents for the `berezin --expr` and
`mixed --expr` files: term maps nested or not under "terms", with
generator and exponent keys in and out of range or malformed, scalar
values of every JSON type, huge numbers and zero denominators, and now
and then a wrong shape anywhere.  Each document goes through `cli.main`
in process, under the same alarm, and must exit 0 with its result on
stdout or exit 2 with one `error:` line on stderr; a traceback, exit 1
or a timeout fails.

A last strategy draws the generator counts of `eval`, `berezin` and
`mixed`, from 0 up to 10^9, with cheap expressions and files.  Each
command goes through `cli.main` under the same alarm and must exit 0, or
exit 2 with one `error:` line; a count over `cli.MAX_GENERATORS` must be
refused by the flag's own check within 0.5 s, before any carrier is
built.
"""

import contextlib
import io
import itertools
import json
import signal
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from supercalc import cli
from supercalc.exprlang import Context, evaluate
from supercalc.grassmann import Supernumber

ALARM_S = 2
INPUT_ERRORS = (ValueError, ZeroDivisionError)
FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class Timeout(BaseException):
    """Raised by the alarm; a BaseException so that no handler in the
    library can swallow it."""


def _alarm(signum, frame):
    raise Timeout


@contextlib.contextmanager
def alarm(what: str):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(ALARM_S)
    try:
        yield
    except Timeout:
        pytest.fail(f"no result within {ALARM_S} s: {what}")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def read(text: str, ctx: Context) -> None:
    with alarm(repr(text)):
        try:
            evaluate(text, ctx)
        except INPUT_ERRORS:
            pass


LITERALS = ["0", "1", "3", "1/2", "7/3", "2i", "1/2i", "12345678901234567890"]
SPACE = st.sampled_from(["", "", " ", "  ", "\t"])


def grammar(names: list[str], faults: list[str], calls: list[str], params: list[str]):
    """Expressions of the `eval` grammar over the given names and calls;
    a leaf is a literal or a name, and now and then one of `faults`; a
    call's bracket parameter is a parameter word or a leaf."""
    leaf = st.sampled_from(4 * (LITERALS + names) + faults)

    def extend(inner):
        param = st.one_of(st.sampled_from(params), leaf)
        return st.one_of(
            st.tuples(inner, SPACE, st.sampled_from("+-*^"), SPACE, inner).map("".join),
            st.tuples(st.sampled_from(["-", "+", "--", "-+-"]), inner).map("".join),
            inner.map(lambda e: f"({e})"),
            st.tuples(st.sampled_from(calls), inner).map(lambda c: f"{c[0]}({c[1]})"),
            st.tuples(st.sampled_from(calls), param, inner).map(lambda c: f"{c[0]}[{c[1]}]({c[2]})"),
            st.tuples(st.sampled_from(calls), inner, inner).map(lambda c: f"{c[0]}({c[1]}, {c[2]})"),
        )

    return st.recursive(leaf, extend, max_leaves=12)


SUPER_NAMES = ["x1", "x2", "x3", "i", "s", "x01"]
SUPER_FAULTS = ["x0", "x4", "y", "xi1", "1/0", "0/0i"]
SUPER_CALLS = ["berezin", "lift", "inverse", "body", "soul", "even", "odd", "conj", "d", "e"]
SUPER_PARAMS = ["exp", "exp_neg", "reciprocal", "sin", "cos", "identity", "dewitt", "bogus",
                "polynomial:1,2i", "polynomial:", "polynomial:1,q", " ", "x1"]

FORM_NAMES = ["x1", "x2", "xi1", "xi2", "dx1", "dx2", "dxi1", "dxi2", "i"]
FORM_FAULTS = ["x3", "xi", "q", "s", "1/0"]
FORM_CALLS = ["d", "e", "i", "L", "inverse", "lift", "conj"]
FORM_PARAMS = ["x1", "x2", "xi1", "xi3", "dx1", "x1*dx1", "x1 + xi1", "s", "(", "", "1/0"]


@FUZZ
@given(grammar(SUPER_NAMES, SUPER_FAULTS, SUPER_CALLS, SUPER_PARAMS))
def test_supernumber_grammar(text):
    s = Supernumber.from_indices(3, {(): 2, (1, 3): Fraction(1, 2)})
    read(text, Context(0, 3, {"s": s}))


@FUZZ
@given(grammar(FORM_NAMES, FORM_FAULTS, FORM_CALLS, FORM_PARAMS))
def test_form_grammar(text):
    # a --let binding is a supernumber, which lives on another carrier than the forms
    read(text, Context(2, 2, {"s": Supernumber.generator(2, 1)}))


TOKENS = ["(", ")", "[", "]", ",", ":", "+", "-", "*", "^", " ", "x1", "xi1", "dx1", "dxi2", "i",
          "e", "d", "L", "lift", "inverse", "conj", "exp", "dewitt", "3", "1/2", "2i", "1/0", "$", "٠", "/"]


@FUZZ
@given(st.lists(st.sampled_from(TOKENS), max_size=20).map("".join), st.sampled_from([(0, 2), (2, 1)]))
def test_token_soup(text, mode):
    read(text, Context(*mode))


# -- the JSON file readers through the CLI ------------------------------------

SCALAR_TEXT = ["1", "-3/7", "2i", "1/2-3/4i", "0", "0/5", "12345678901234567890123/1",
               "1/98765432109876543210"]
SCALAR_FAULTS = ["1/0", "0/0i", "", " ", "x", "1e5", "nan", "gaussian", "nope"]
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(),
    st.sampled_from(SCALAR_TEXT + SCALAR_FAULTS),
)
KEY_FAULTS = ["2,1", "1,1", "0", "-1", "a", "1,", ",", "99999999999999999999", " 1", "1_0", "x1",
              "1\n2", "2147483648", "1,2,3,4"]
JUNK = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEY_FAULTS), inner, max_size=3),
    max_leaves=6,
)


def mostly(good, bad):
    """`good` about nine times in ten, else `bad`."""
    return st.sampled_from(9 * [good] + [bad]).flatmap(lambda chosen: chosen)


def wrong(values):
    """`values`, or now and then a JSON value of any other shape."""
    return mostly(values, JUNK)


def keys(good: list[str]):
    """Keys of a term map: mostly `good` ones, now and then a faulty one."""
    return mostly(st.sampled_from(good), st.sampled_from(KEY_FAULTS))


SCALARS = mostly(st.sampled_from(SCALAR_TEXT), st.sampled_from(SCALAR_FAULTS) | JSON_SCALARS)


def generator_keys(nu: int) -> list[str]:
    """Every increasing generator index set on nu generators, comma-joined."""
    return [",".join(map(str, ix)) for r in range(nu + 1) for ix in itertools.combinations(range(1, nu + 1), r)]


def exponent_keys(n: int) -> list[str]:
    return [""] + [",".join(map(str, e)) for e in itertools.product((0, 1, 3, 40, 3000), repeat=n)]


@st.composite
def berezin_case(draw):
    nu = draw(st.integers(0, 3))
    terms = st.dictionaries(keys(generator_keys(nu)), SCALARS, max_size=4)
    document = draw(wrong(terms | st.fixed_dictionaries({"terms": terms})))
    return document, str(nu)


def counts(value: int):
    return mostly(st.just(value), st.sampled_from([0, 1, 2, "1", -1, None]))


@st.composite
def mixed_case(draw):
    n, nu = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    polynomial = st.dictionaries(keys(exponent_keys(n)), SCALARS, max_size=3)
    coefficient = mostly(polynomial, st.sampled_from(["gaussian", "nope"]))
    terms = st.dictionaries(keys(generator_keys(nu)), wrong(coefficient), max_size=3)
    document = draw(wrong(st.fixed_dictionaries(
        {"terms": terms}, optional={"n": counts(n), "nu": counts(nu)}
    )))
    intervals = ["0,1", "0,1/2", "-1,1", "1/3,2", "-8,8"]
    good = ";".join(draw(st.lists(st.sampled_from(intervals), min_size=n, max_size=n)))
    domain = draw(mostly(st.just(good), st.sampled_from(["1,0", "0,0", "0,1/0", "0", "0,1;0,1/3", "a,b"])))
    return document, str(n), str(nu), domain


JSON_FUZZ = settings(FUZZ, max_examples=150)


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def run_main(argv: list[str], document) -> None:
    """`cli.main(argv)` on a file holding `document`: exit 0 with output,
    or exit 2 with one `error:` line."""
    out, err = io.StringIO(), io.StringIO()
    what = f"{argv} on {document!r}"
    with alarm(what), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            pytest.fail(f"usage exit {exc.code}: {what}")
    if code == 0:
        assert out.getvalue().count("\n") == 1 and not err.getvalue(), what
    else:
        assert code == 2, f"exit {code}: {what}"
        lines = err.getvalue().splitlines()
        assert not out.getvalue() and len(lines) == 1 and lines[0].startswith("error: "), (what, lines)


@JSON_FUZZ
@given(berezin_case(), st.sampled_from(["one", "sqrt2pii", "invsqrt2pii"]))
def test_berezin_files(json_path, case, norm):
    document, nu = case
    json_path.write_text(json.dumps(document))
    run_main(["berezin", "--nu", nu, "--expr", str(json_path), "--normalization", norm], document)


@JSON_FUZZ
@given(mixed_case())
def test_mixed_files(json_path, case):
    document, n, nu, domain = case
    json_path.write_text(json.dumps(document))
    run_main(["mixed", "--n", n, "--nu", nu, "--expr", str(json_path), f"--domain={domain}"], document)


# -- generator counts ------------------------------------------------------------

COUNTS = st.one_of(
    st.integers(0, 3),
    st.integers(0, cli.MAX_GENERATORS),
    st.integers(cli.MAX_GENERATORS + 1, 10**9),
    st.sampled_from([cli.MAX_GENERATORS, cli.MAX_GENERATORS + 1, 10**9]),
)


@st.composite
def count_case(draw):
    """argv of one command whose counts are drawn, and those counts."""
    command = draw(st.sampled_from(["eval", "eval-forms", "berezin", "mixed"]))
    if command == "eval":
        nu = draw(COUNTS)
        return ["eval", draw(st.sampled_from(["x1", "x1*x2 - 3", "inverse(1 + x1)"])), "--nu", str(nu)], (nu,)
    if command == "eval-forms":
        n, nu = draw(COUNTS), draw(COUNTS)
        expr = draw(st.sampled_from(["x1", "dx1*xi1", "d(x1*xi1)"]))
        return ["eval", expr, "--n", str(n), "--nu", str(nu)], (n, nu)
    if command == "berezin":
        nu = draw(COUNTS)
        return ["berezin", "--nu", str(nu), "--expr", "{terms}"], (nu,)
    n, nu = draw(COUNTS), draw(COUNTS)
    domain = ";".join(["0,1"] * n) if n <= cli.MAX_GENERATORS else "0,1"
    return ["mixed", "--n", str(n), "--nu", str(nu), "--expr", "{mixed}", f"--domain={domain}"], (n, nu)


@JSON_FUZZ
@given(count_case())
def test_generator_counts(tmp_path_factory, case):
    argv, counts = case
    files = tmp_path_factory.getbasetemp() / "counts"
    files.mkdir(exist_ok=True)
    (files / "terms.json").write_text('{"1": "1/2", "1,2": "3"}')
    (files / "mixed.json").write_text('{"terms": {"": {"": "2"}, "1": {"": "1"}}}')
    argv = [a.format(terms=files / "terms.json", mixed=files / "mixed.json") for a in argv]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with alarm(str(argv)), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses a flag out of range
            code = exc.code
    elapsed = time.perf_counter() - start
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    if max(counts) > cli.MAX_GENERATORS:
        assert code == 2 and not out.getvalue() and len(errors) == 1, (argv, err.getvalue())
        assert f"must be at most {cli.MAX_GENERATORS}" in errors[0], (argv, errors)
        assert elapsed < 0.5, (argv, elapsed)
    elif code == 0:
        assert out.getvalue().count("\n") == 1 and not err.getvalue(), argv
    else:
        assert code == 2 and not out.getvalue() and len(errors) == 1, (argv, code, err.getvalue())
