"""Command-line entry point: expression evaluation, integration commands
and the invariant-suite runner, whose one registry is the table `_SUITES`.

Exit codes: 0 all checks pass, 1 check failures, 2 usage or input error.
Reports are byte-reproducible for a fixed seed; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, NamedTuple

from . import suites
from .berezin import BlackBox, Domain, Normalization, berezin_integral, from_json_mixed, mixed_integral
from .exprlang import _TOKEN, Context, evaluate
from .grassmann import from_json_terms, format_supernumber, Supernumber
from .scalars import CRat


# Clifford operators are 2^D x 2^D numerator matrices, so the cost grows
# two- to fourfold per dimension: the `clifford check` suite call takes
# about 0.12 s at D = 5, 0.4 s at D = 6 and 1.4 s at D = 7 on a 2-core
# host.  From D = 6 on, the integer products of the relation brackets and
# of the 2^D current components take the largest share, and the dense
# `matrix_of` route the next.  Larger sizes are refused up front.
MAX_CLIFFORD_DIM = 6

# `check fock` applies every pair of ladder operators to each spanning
# state, so its cost grows as the (max_occ + 1)^nb * 2^nf states times the
# squared mode count (nb + nf)^2.  On a 2-core host (median of three runs,
# process start included) that size is 1024 at the default (nb, nf,
# max_occ) = (2, 2, 3), 0.4 s; 18432 at (3, 3, 3), 3.3 s; 20000 at
# (1, 1, 2499), 4.9 s, as high occupations cost more per state; 41472 at
# (1, 8, 1), 7.0 s.  Larger sizes are refused up front.
MAX_FOCK_SIZE = 20_000

# The complexes suite samples forms, fields and coordinate pairs of one
# patch, and its cost grows with the coordinate count n + nu, fastest in
# n: `check complexes` takes about 0.35 s at (2, 2), 1.0-1.6 s at (8, 0)
# and 1.4-2.0 s at (10, 0) on a 2-core host.  Larger patches are refused
# up front.
MAX_PATCH_COORDS = 10

# A generator count sets the width of every monomial key, n + nu bits
# plus a FIELD-bit exponent field per even generator and auxiliary, so
# every key operation costs time linear in it.  `eval "L[x1](x1*xi1*dx1)"`
# takes 0.18 s at --n 1000 --nu 1000 on a 2-core host, and `eval x1 --nu
# N`, `berezin --nu N` and `mixed --n 1 --nu N` stay under 0.3 s up to
# N = 30 000; the cap stays until a dearer command is measured at large
# counts.  Larger counts are refused up front.
MAX_GENERATORS = 500

# The adaptive quadrature bisects until its tolerance is met; at or below
# roundoff it never is and bisects to full depth.  1e-14 is the smallest
# tolerance measured to converge: the gaussian takes about 0.5 s on -8,8
# and 1 s on -100,100 on a 2-core host.  The upper bound refuses inf.
MIN_QUAD_TOL = 1e-14


def _in_range(kind: type, low, high=None):
    """argparse type for an int or float flag with a lower and an optional
    upper bound; a float NaN is in no range."""

    def parse(text: str):
        value = kind(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and not value <= high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


_COUNT = _in_range(int, 0)
_POSITIVE = _in_range(int, 1)
_CLIFFORD_DIM = _in_range(int, 1, MAX_CLIFFORD_DIM)
_GENERATORS = _in_range(int, 0, MAX_GENERATORS)
_QUAD_TOL = _in_range(float, MIN_QUAD_TOL, sys.float_info.max)


class _Suite(NamedTuple):
    """What `check SUITE` and, where it exists, `SUITE check` run."""

    run: Callable  # the suite's run function; `all` returns a list of reports
    trials: int  # default --trials
    flags: tuple = ()  # the suite's own flags: (flag, add_argument keywords)
    kwargs: dict = {}  # keyword arguments of the run on both spellings
    command: str | None = None  # help line of the `SUITE check` spelling
    standalone: dict = {}  # `SUITE check` keyword arguments over `kwargs`


_SUITES = {
    "all": _Suite(suites.run_all, 50),
    "grassmann": _Suite(suites.run_grassmann, 200),
    "berezin": _Suite(suites.run_berezin, 200),
    "linalg": _Suite(suites.run_linalg, 100),
    "complexes": _Suite(
        suites.run_complexes,
        50,
        (
            ("--n", dict(type=_COUNT, help="bosonic coordinates of the one patch to check")),
            ("--nu", dict(type=_COUNT, help="its Grassmann coordinates (either defaults to 2)")),
        ),
        kwargs={"table_cases": 12},
        command="exterior-calculus checks",
        standalone={"mixes": ((2, 2),)},
    ),
    "metric": _Suite(suites.run_metric, 5),
    "fock": _Suite(
        suites.run_fock,
        30,
        (
            ("--nb", dict(type=_POSITIVE, default=2)),
            ("--nf", dict(type=_POSITIVE, default=2)),
            ("--max-occ", dict(type=_COUNT, default=3)),
        ),
        command="Fock-space checks",
    ),
    "clifford": _Suite(
        suites.run_clifford,
        5,
        (
            ("--dim", dict(type=_CLIFFORD_DIM, help="one dimension, else the metric file size")),
            ("--metric", dict(help="identity|minkowski|FILE")),
        ),
        command="Clifford-representation checks",
        standalone={"dims": (4,)},
    ),
}


def _command(subparsers, name: str, help_text: str | None = None) -> argparse.ArgumentParser:
    parser = subparsers.add_parser(name, help=help_text)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def _suite_parser(subparsers, name: str, suite: str, standalone: bool) -> None:
    """Add the parser of one suite's run under `name`: the suite itself
    below `check`, or `check` below the suite when `standalone`."""
    row = _SUITES[suite]
    parser = _command(subparsers, name)
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--trials", type=_POSITIVE, default=row.trials, help="trial count (default %(default)s)"
    )
    for flag, options in row.flags:
        parser.add_argument(flag, **options)
    defaults = {**row.kwargs, **row.standalone} if standalone else row.kwargs
    parser.set_defaults(suite=suite, run_defaults=defaults)


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="supercalc",
        description="Exact Z2-graded calculus: Grassmann arithmetic, Berezin "
        "integration, graded exterior calculus, Fock spaces and Clifford "
        "representations.",
    )
    sub = root.add_subparsers(dest="command", required=True)

    p_eval = _command(sub, "eval", "evaluate an expression")
    p_eval.add_argument("expression")
    p_eval.add_argument("--nu", type=_GENERATORS, default=0, help="Grassmann generator count")
    p_eval.add_argument("--n", type=_GENERATORS, default=0, help="bosonic coordinate count (form mode)")
    p_eval.add_argument(
        "--let",
        action="append",
        default=[],
        metavar="NAME=FILE",
        help="bind NAME to the supernumber in FILE (JSON term map); supernumber mode only",
    )

    p_ber = _command(sub, "berezin", "Berezin-integrate a supernumber file")
    p_ber.add_argument("--nu", type=_GENERATORS, required=True)
    p_ber.add_argument("--expr", required=True, help="JSON term map file")
    p_ber.add_argument("--normalization", choices=_NORMALIZATIONS, default="one")

    p_mixed = _command(sub, "mixed", "integrate a mixed function over a box")
    p_mixed.add_argument("--n", type=_GENERATORS, required=True)
    p_mixed.add_argument("--nu", type=_GENERATORS, required=True)
    p_mixed.add_argument("--expr", required=True, help="JSON mixed-function file")
    p_mixed.add_argument("--domain", required=True, help="bounds like '0,1' or '0,1;-1,1'")
    p_mixed.add_argument("--quad", type=_QUAD_TOL, default=1e-10, help="quadrature tolerance")

    checks = sub.add_parser("check", help="run invariant suites")
    checks = checks.add_subparsers(dest="suite", required=True)
    for suite, row in _SUITES.items():
        _suite_parser(checks, suite, suite, standalone=False)
        if row.command:
            actions = sub.add_parser(suite, help=row.command)
            actions = actions.add_subparsers(dest="action", required=True)
            _suite_parser(actions, "check", suite, standalone=True)
    return root


def _load_json(flag: str, path: str, rows: bool = False):
    """The JSON value in the file that `flag` names: an object, or with
    `rows` a nonempty list of lists."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, a UnicodeDecodeError, or (plain) too many digits
            why = f"an integer has more than {sys.get_int_max_str_digits()} digits" if type(exc) is ValueError else exc
            raise ValueError(f"{flag} {path}: {why}") from None
    if rows:
        ok = isinstance(data, list) and data and all(isinstance(row, list) for row in data)
    else:
        ok = isinstance(data, dict)
    if not ok:
        raise ValueError(f"{flag} {path}: expected a JSON {'list of rows' if rows else 'object'}")
    return data


@contextmanager
def _blame(place: str):
    """Prefix `place` to the message of a ValueError raised inside."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{place}: {exc}") from None


def _load_terms(flag: str, path: str, nu: int) -> Supernumber:
    """A supernumber file: a JSON term map, bare or under "terms"."""
    data = _load_json(flag, path)
    terms = data.get("terms", data)
    if not isinstance(terms, dict):
        raise ValueError(f'{flag} {path}: "terms" is not a JSON object')
    with _blame(f"{flag} {path}"):
        return from_json_terms(terms, nu)


def _rational(value, where: str) -> Fraction:
    """One exact number from a flag or a JSON file; `where` names its place
    in the error message.  `Fraction` forms 10^e for an exponent e, so an e
    above the digits Python converts to text (`sys.get_int_max_str_digits`,
    as `integrate_box` bounds its powers) is refused before it is formed."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        text = str(value).strip()
        exponent = text.lower().partition("e")[2].lstrip("+-").lstrip("0")
        limit = sys.get_int_max_str_digits()
        if limit and exponent.isdecimal() and (len(exponent) > limit or int(exponent) > limit):
            raise ValueError(f"{where}: the exponent of {value!r} is more than {limit} in magnitude")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"{where}: zero denominator in {value!r}") from None
        except ValueError:
            pass
    raise ValueError(f"{where}: {value!r} is not a number")


def _parse_domain(text: str, n: int, tol: float) -> Domain:
    chunks = [c for c in text.split(";") if c.strip()]
    if len(chunks) != n:
        raise ValueError(f"--domain: {len(chunks)} intervals, expected {n}")
    bounds = []
    for k, chunk in enumerate(chunks, start=1):
        ends = chunk.split(",")
        if len(ends) != 2:
            raise ValueError(f"--domain: interval {k} {chunk.strip()!r} is not lo,hi")
        bounds.append(tuple(_rational(end, f"--domain: interval {k}") for end in ends))
    return Domain(tuple(bounds), tol=tol)


def _print_result(args, text: str) -> int:
    print(json.dumps({"result": text}, sort_keys=True) if args.json else text)
    return 0


def cmd_eval(args) -> int:
    if args.let and args.n:
        # a binding is a supernumber, whose x<k> form mode calls xi<k>
        raise ValueError(f"--let works only in supernumber mode (--n 0), got --n {args.n}")
    lets = [item.partition("=")[::2] for item in args.let]
    for item, (name, path) in zip(args.let, lets):
        if not path:
            raise ValueError(f"--let needs NAME=FILE, got {item!r}")
        token = _TOKEN.fullmatch(name)
        if not (token and token["name"] == name):
            raise ValueError(f"--let {item}: {name!r} is not a name (a letter or _, then letters, digits or _)")
    bindings = {name: _load_terms("--let", path, args.nu) for name, path in lets}
    value = evaluate(args.expression, Context(args.n, args.nu, bindings))
    text = format_supernumber(value) if isinstance(value, Supernumber) else repr(value)
    return _print_result(args, text)


_NORMALIZATIONS = {
    "one": Normalization.ONE,
    "sqrt2pii": Normalization.SQRT_2PI_I,
    "invsqrt2pii": Normalization.INV_SQRT_2PI_I,
}


def cmd_berezin(args) -> int:
    norm = _NORMALIZATIONS[args.normalization]
    value = berezin_integral(_load_terms("--expr", args.expr, args.nu), norm)
    if norm is Normalization.ONE:
        return _print_result(args, str(value))
    power = {1: "1/2", -1: "-1/2"}[value.half_power]
    return _print_result(args, f"{value.coeff} * (2*pi*i)^({power})")


_INTEGRANDS = {"gaussian": lambda x: math.exp(-x * x)}


def cmd_mixed(args) -> int:
    data = _load_json("--expr", args.expr)
    for key in ("n", "nu"):
        flag = getattr(args, key)
        if data.get(key, flag) != flag:
            raise ValueError(f'--expr {args.expr}: "{key}" is {data[key]!r}, --{key} is {flag}')
    with _blame(f"--expr {args.expr}"):
        f = from_json_mixed({**data, "n": args.n, "nu": args.nu}, _INTEGRANDS)
    domain = _parse_domain(args.domain, args.n, args.quad)
    quad = isinstance(f, BlackBox) and callable(f.top())
    if quad and args.n != 1:
        raise ValueError(f"--expr {args.expr} --n {args.n}: the quadrature path supports one real variable")
    place = f"--quad {args.quad:g}" if quad else f"--expr {args.expr}"
    with _blame(f"{place} --domain {args.domain}"):
        value = mixed_integral(f, domain)
        text = str(value) if isinstance(value, CRat) else repr(value)
    return _print_result(args, text)


def _metric_rows(spec: str | None):
    if spec in (None, "identity", "minkowski"):
        return spec
    data = _load_json("--metric", spec, rows=True)
    if len(data) > MAX_CLIFFORD_DIM:
        raise ValueError(f"--metric {spec}: {len(data)} rows, at most {MAX_CLIFFORD_DIM} allowed")
    if any(len(row) != len(data) for row in data):
        raise ValueError(f"--metric {spec}: expected {len(data)} rows of {len(data)} entries")
    return [
        [_rational(v, f"--metric {spec}: row {i} entry {j}") for j, v in enumerate(row, start=1)]
        for i, row in enumerate(data, start=1)
    ]


def _suite_kwargs(args) -> dict:
    """Keyword arguments of the chosen suite's run: the defaults of its
    table row for this spelling, overridden by the suite's own flags."""
    kwargs = dict(args.run_defaults)
    if args.suite == "fock":
        # a base of 2 or more to a power above the cap's bit length is over
        # the cap already, so clipping the exponents keeps huge flags cheap
        bits = MAX_FOCK_SIZE.bit_length()
        size = (args.max_occ + 1) ** min(args.nb, bits) * 2 ** min(args.nf, bits) * (args.nb + args.nf) ** 2
        if size > MAX_FOCK_SIZE:
            raise ValueError(
                f"--nb {args.nb} --nf {args.nf} --max-occ {args.max_occ}: "
                f"(max_occ + 1)^nb * 2^nf * (nb + nf)^2 is over {MAX_FOCK_SIZE}"
            )
        kwargs.update(n_bose=args.nb, n_fermi=args.nf, max_occupation=args.max_occ)
    elif args.suite == "complexes" and (args.n, args.nu) != (None, None):
        n, nu = 2 if args.n is None else args.n, 2 if args.nu is None else args.nu
        if n + nu > MAX_PATCH_COORDS:
            raise ValueError(f"--n {n} --nu {nu}: {n + nu} coordinates, at most {MAX_PATCH_COORDS} allowed")
        kwargs["mixes"] = ((n, nu),)
    elif args.suite == "clifford":
        metric = _metric_rows(args.metric)
        if isinstance(metric, list):
            if args.dim not in (None, len(metric)):
                raise ValueError(
                    f"--dim {args.dim} does not match the {len(metric)}-row --metric {args.metric}"
                )
            kwargs["dims"] = (len(metric),)
        elif args.dim is not None:
            kwargs["dims"] = (args.dim,)
        kwargs["metric_spec"] = metric
    return kwargs


def cmd_check(args) -> int:
    kwargs = _suite_kwargs(args)
    start = time.monotonic()
    reports = _SUITES[args.suite].run(trials=args.trials, seed=args.seed, **kwargs)
    reports = reports if isinstance(reports, list) else [reports]
    elapsed = time.monotonic() - start
    if args.json:
        print(json.dumps([r.to_json_dict() for r in reports], sort_keys=True))
    else:
        for r in reports:
            print(r.to_text())
    print(f"[elapsed {elapsed:.2f}s]", file=sys.stderr)
    return 0 if all(r.ok for r in reports) else 1


_COMMANDS = {"eval": cmd_eval, "berezin": cmd_berezin, "mixed": cmd_mixed, "check": cmd_check}
_COMMANDS.update((suite, cmd_check) for suite, row in _SUITES.items() if row.command)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
