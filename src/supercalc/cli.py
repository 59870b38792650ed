"""Command-line entry point: expression evaluation, integration commands
and the invariant-suite runner.

Exit codes: 0 all checks pass, 1 check failures, 2 usage or input error.
Reports are byte-reproducible for a fixed seed; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import suites
from .berezin import Domain, MixedFunction, Normalization, berezin_integral, mixed_integral
from .exprlang import Context, evaluate
from .grassmann import from_json_terms, format_supernumber, mask_of, Supernumber
from .polynomials import from_json_poly
from .scalars import CRat


# Clifford operators are dense 2^D x 2^D matrices, so the cost grows about
# fourfold per dimension: `clifford check` takes about 3 s at D = 5 and
# 10 s at D = 6 on a 2-core host.  Larger sizes are refused up front.
MAX_CLIFFORD_DIM = 6


def _int_in_range(low: int, high: int | None = None):
    """argparse type for an integer flag with a lower and an optional
    upper bound."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_COUNT = _int_in_range(0)
_POSITIVE = _int_in_range(1)
_CLIFFORD_DIM = _int_in_range(1, MAX_CLIFFORD_DIM)


def _common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--seed", type=int, default=0, help="random seed for suites")
    parser.add_argument("--trials", type=_POSITIVE, default=None, help="trial count override")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="supercalc",
        description="Exact Z2-graded calculus: Grassmann arithmetic, Berezin "
        "integration, graded exterior calculus, Fock spaces and Clifford "
        "representations.",
    )
    sub = root.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("expression")
    p_eval.add_argument("--nu", type=_COUNT, default=0, help="Grassmann generator count")
    p_eval.add_argument("--n", type=_COUNT, default=0, help="bosonic coordinate count (form mode)")
    p_eval.add_argument(
        "--let",
        action="append",
        default=[],
        metavar="NAME=FILE",
        help="bind NAME to the supernumber in FILE (JSON term map)",
    )
    _common_flags(p_eval)

    p_ber = sub.add_parser("berezin", help="Berezin-integrate a supernumber file")
    p_ber.add_argument("--nu", type=_COUNT, required=True)
    p_ber.add_argument("--expr", required=True, help="JSON term map file")
    p_ber.add_argument(
        "--normalization",
        choices=["one", "sqrt2pii", "invsqrt2pii"],
        default="one",
    )
    _common_flags(p_ber)

    p_mixed = sub.add_parser("mixed", help="integrate a mixed function over a box")
    p_mixed.add_argument("--n", type=_COUNT, required=True)
    p_mixed.add_argument("--nu", type=_COUNT, required=True)
    p_mixed.add_argument("--expr", required=True, help="JSON mixed-function file")
    p_mixed.add_argument("--domain", required=True, help="bounds like '0,1' or '0,1;-1,1'")
    p_mixed.add_argument("--quad", type=float, default=1e-10, help="quadrature tolerance")
    _common_flags(p_mixed)

    p_check = sub.add_parser("check", help="run invariant suites")
    p_check.add_argument(
        "suite",
        choices=sorted(suites.SUITES) + ["all"],
    )
    p_check.add_argument("--n", type=_COUNT, default=None)
    p_check.add_argument("--nu", type=_COUNT, default=None)
    p_check.add_argument("--dim", type=_CLIFFORD_DIM, default=None)
    p_check.add_argument("--metric", default=None, help="identity|minkowski|FILE")
    p_check.add_argument("--nb", type=_POSITIVE, default=2)
    p_check.add_argument("--nf", type=_POSITIVE, default=2)
    p_check.add_argument("--max-occ", type=_COUNT, default=3)
    _common_flags(p_check)

    for name, help_text in (
        ("fock", "Fock-space checks"),
        ("clifford", "Clifford-representation checks"),
        ("complexes", "exterior-calculus checks"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("action", choices=["check"])
        if name == "fock":
            p.add_argument("--nb", type=_POSITIVE, default=2)
            p.add_argument("--nf", type=_POSITIVE, default=2)
            p.add_argument("--max-occ", type=_COUNT, default=3)
        elif name == "clifford":
            p.add_argument(
                "--dim", type=_CLIFFORD_DIM, default=None, help="default 4, or the metric file size"
            )
            p.add_argument("--metric", default=None, help="identity|minkowski|FILE")
        else:
            p.add_argument("--n", type=_COUNT, default=2)
            p.add_argument("--nu", type=_COUNT, default=2)
        _common_flags(p)

    return root


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _rational(value, where: str) -> Fraction:
    """One exact number from a flag or a JSON file; `where` names its place
    in the error message."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return Fraction(str(value).strip())
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


_BUILTIN_INTEGRANDS = {
    "gaussian": lambda x: math.exp(-x * x),
}


def _load_mixed(data: dict, n: int, nu: int) -> MixedFunction:
    n = int(data.get("n", n))
    nu = int(data.get("nu", nu))
    terms = {}
    for key, value in data["terms"].items():
        indices = tuple(int(tok) for tok in key.split(",")) if key else ()
        mask = mask_of(indices, nu)
        if isinstance(value, str):
            if value not in _BUILTIN_INTEGRANDS:
                raise ValueError(
                    f"unknown builtin integrand {value!r}; known: {sorted(_BUILTIN_INTEGRANDS)}"
                )
            terms[mask] = _BUILTIN_INTEGRANDS[value]
        else:
            terms[mask] = from_json_poly(value, n)
    return MixedFunction(n, nu, terms)


def cmd_eval(args) -> int:
    bindings = {}
    for item in args.let:
        name, _, path = item.partition("=")
        if not path:
            raise ValueError(f"--let needs NAME=FILE, got {item!r}")
        data = _load_json(path)
        terms = data["terms"] if isinstance(data, dict) and "terms" in data else data
        bindings[name] = from_json_terms(terms, args.nu)
    ctx = Context(args.n, args.nu, bindings)
    value = evaluate(args.expression, ctx)
    if isinstance(value, Supernumber):
        text = format_supernumber(value)
    else:
        text = repr(value)
    if args.json:
        print(json.dumps({"result": text}, sort_keys=True))
    else:
        print(text)
    return 0


def cmd_berezin(args) -> int:
    data = _load_json(args.expr)
    terms = data["terms"] if isinstance(data, dict) and "terms" in data else data
    z = from_json_terms(terms, args.nu)
    norm = {
        "one": Normalization.ONE,
        "sqrt2pii": Normalization.SQRT_2PI_I,
        "invsqrt2pii": Normalization.INV_SQRT_2PI_I,
    }[args.normalization]
    value = berezin_integral(z, norm)
    if norm is Normalization.ONE:
        text = str(value)
    else:
        power = {1: "1/2", -1: "-1/2"}[value.half_power]
        text = f"{value.coeff} * (2*pi*i)^({power})"
    print(json.dumps({"result": text}, sort_keys=True) if args.json else text)
    return 0


def cmd_mixed(args) -> int:
    f = _load_mixed(_load_json(args.expr), args.n, args.nu)
    domain = _parse_domain(args.domain, f.n, args.quad)
    value = mixed_integral(f, domain)
    text = str(value) if isinstance(value, CRat) else repr(value)
    print(json.dumps({"result": text}, sort_keys=True) if args.json else text)
    return 0


def _metric_rows(spec: str | None):
    if spec in (None, "identity", "minkowski"):
        return spec
    data = _load_json(spec)
    if not isinstance(data, list) or not data or not all(isinstance(row, list) for row in data):
        raise ValueError(f"--metric {spec}: expected a JSON list of rows")
    if len(data) > MAX_CLIFFORD_DIM:
        raise ValueError(f"--metric {spec}: {len(data)} rows, at most {MAX_CLIFFORD_DIM} allowed")
    if any(len(row) != len(data) for row in data):
        raise ValueError(f"--metric {spec}: expected {len(data)} rows of {len(data)} entries")
    return [
        [_rational(v, f"--metric {spec}: row {i} entry {j}") for j, v in enumerate(row, start=1)]
        for i, row in enumerate(data, start=1)
    ]


_DEFAULT_TRIALS = {
    "all": 50,
    "grassmann": 200,
    "berezin": 200,
    "linalg": 100,
    "complexes": 50,
    "metric": 5,
    "fock": 30,
    "clifford": 5,
}


def cmd_check(args, suite: str) -> int:
    trials = _DEFAULT_TRIALS[suite] if args.trials is None else args.trials
    if suite == "all":
        reports = suites.run_all(trials=trials, seed=args.seed)
    elif suite == "grassmann":
        reports = [suites.run_grassmann(trials=trials, seed=args.seed)]
    elif suite == "berezin":
        reports = [suites.run_berezin(trials=trials, seed=args.seed)]
    elif suite == "linalg":
        reports = [suites.run_linalg(trials=trials, seed=args.seed)]
    elif suite == "complexes":
        mixes = None
        n = getattr(args, "n", None)
        nu = getattr(args, "nu", None)
        if n is not None and nu is not None:
            mixes = ((n, nu),)
        kwargs = {"mixes": mixes} if mixes else {}
        reports = [
            suites.run_complexes(trials=trials, seed=args.seed, table_cases=12, **kwargs)
        ]
    elif suite == "metric":
        reports = [suites.run_metric(trials=trials, seed=args.seed)]
    elif suite == "fock":
        reports = [
            suites.run_fock(
                trials=trials,
                seed=args.seed,
                n_bose=getattr(args, "nb", 2),
                n_fermi=getattr(args, "nf", 2),
                max_occupation=getattr(args, "max_occ", 3),
            )
        ]
    elif suite == "clifford":
        metric = _metric_rows(args.metric)
        if isinstance(metric, list):
            if args.dim not in (None, len(metric)):
                raise ValueError(
                    f"--dim {args.dim} does not match the {len(metric)}-row --metric {args.metric}"
                )
            dims = (len(metric),)
        elif args.dim is not None:
            dims = (args.dim,)
        else:
            dims = (4,) if args.command == "clifford" else (1, 2, 3, 4)
        reports = [
            suites.run_clifford(trials=trials, seed=args.seed, dims=dims, metric_spec=metric)
        ]

    if args.json:
        print(json.dumps([r.to_json_dict() for r in reports], sort_keys=True))
    else:
        for r in reports:
            print(r.to_text())
    elapsed = sum(r.elapsed for r in reports)
    print(f"[elapsed {elapsed:.2f}s]", file=sys.stderr)
    return 0 if all(r.ok for r in reports) else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "berezin":
            return cmd_berezin(args)
        if args.command == "mixed":
            return cmd_mixed(args)
        if args.command == "check":
            return cmd_check(args, args.suite)
        if args.command in ("fock", "clifford", "complexes"):
            return cmd_check(args, args.command)
    except (ValueError, OSError, KeyError, TypeError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
