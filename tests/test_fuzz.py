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

The `mixed` and `berezin` JSON readers are not fuzzed here.
"""

import signal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def read(text: str, ctx: Context) -> None:
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(ALARM_S)
    try:
        evaluate(text, ctx)
    except INPUT_ERRORS:
        pass
    except Timeout:
        pytest.fail(f"no result within {ALARM_S} s: {text!r}")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
