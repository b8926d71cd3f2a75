"""Batch command line interface.

Subcommands:

* ``eval``    one point through the closed form, the twelve-addend
              decomposition, or the angle-coordinate form
* ``series``  one point through the shell-ordered series engine
* ``verify``  run registered verification cases, nonzero exit on failure
* ``sweep``   evaluate a parameter grid from a config file
* ``list``    show registered case ids

Complex arguments use the no-space literal form ``1.5-0.25i``.  Only
``verify`` and ``list`` import the verification harness, when they run.
"""

from __future__ import annotations

import argparse
import sys

from ._flags import collect
from .closedform import TWELVE_TERMS, closed_form, closed_form_cos, contour_term
from .errors import ConfigError, KernelDomainError, NonConvergenceError, SingularParameterError
from .series import SeriesParams, TruncationPolicy, series_sum
from .sweep import parse_complex_literal, parse_sweep_config, run_sweep

__all__ = ["main"]


def _complex_arg(token: str) -> complex:
    try:
        return parse_complex_literal(token)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _fmt(value: complex) -> str:
    return f"{value.real:.17g}{value.imag:+.17g}i"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebgamma",
        description="Evaluate and cross-verify the shell series and its closed form.")
    sub = parser.add_subparsers(dest="command", required=True)

    def point_args(p, angle_note=""):
        p.add_argument("--a", type=_complex_arg, required=True,
                       help="scale parameter; the series variable is a*pi")
        p.add_argument("--k", type=_complex_arg, required=True,
                       help="order parameter")
        p.add_argument("--alpha", type=_complex_arg, required=True,
                       help="first argument" + angle_note)
        p.add_argument("--beta", type=_complex_arg, required=True,
                       help="second argument" + angle_note)

    p_eval = sub.add_parser("eval", help="closed-form value at one point")
    point_args(p_eval, angle_note=" (angle coordinate when --path cos)")
    p_eval.add_argument("--path", choices=("closed", "terms", "cos"),
                        default="closed",
                        help="closed: assembled bracket; terms: sum of the "
                             "twelve addends; cos: angle-coordinate form")

    # A policy option left out is not passed: TruncationPolicy applies its
    # own defaults and checks the values given.
    p_series = sub.add_parser("series", help="series value at one point",
                              argument_default=argparse.SUPPRESS)
    point_args(p_series)
    p_series.add_argument("--mode",
                          help="optimal (default): integer k summed exactly, any other "
                               "k to the smallest term; fixed: tolerance stop for every k")
    p_series.add_argument("--max-shell", type=int)
    p_series.add_argument("--rel-tol", type=float)

    p_verify = sub.add_parser("verify", help="run registered verification cases")
    p_verify.add_argument("--case", default=None, help="run a single case id")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="seed of the randomized cases "
                               "(default: the harness's DEFAULT_SEED)")
    p_verify.add_argument("--json", default=None, metavar="PATH",
                          help="also write the report as JSON")

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter grid")
    p_sweep.add_argument("--config", required=True, metavar="PATH")

    sub.add_parser("list", help="show registered case ids")
    return parser


def _cmd_eval(args) -> int:
    with collect() as seen:
        if args.path == "cos":
            value = closed_form_cos(args.a, args.k, args.alpha, args.beta)
        else:
            params = SeriesParams(a=args.a, k=args.k, alpha=args.alpha, beta=args.beta)
            if args.path == "closed":
                value = closed_form(params)
            else:
                value = 0j
                for index, spec in enumerate(TWELVE_TERMS, 1):
                    term = contour_term(spec, params)
                    value += term
                    print(f"term {index:2d} ({spec.variable}, root {spec.root_sign}, "
                          f"shift {spec.order_shift:+d}) = {_fmt(term)}")
    print(f"value = {_fmt(value)}")
    print(f"warnings = {','.join(sorted(seen)) if seen else '-'}")
    return 0


def _cmd_series(args) -> int:
    policy = TruncationPolicy(**{name: value for name, value in vars(args).items()
                                 if name in TruncationPolicy._fields})
    result = series_sum(SeriesParams(a=args.a, k=args.k,
                                     alpha=args.alpha, beta=args.beta), policy)
    print(f"value = {_fmt(result.value)}")
    print(f"error_estimate = {result.error_estimate:.3e}")
    print(f"shells_used = {result.shells_used}")
    print(f"termination = {result.termination}")
    print(f"warnings = {','.join(sorted(result.warnings)) if result.warnings else '-'}")
    return 0


def _cmd_verify(args) -> int:
    from .harness import DEFAULT_SEED, render_report_json, render_report_text, run_all

    seed = DEFAULT_SEED if args.seed is None else args.seed
    reports = run_all(seed=seed, only=args.case)
    sys.stdout.write(render_report_text(reports, seed))
    if args.json is not None:
        with open(args.json, "w") as fh:
            fh.write(render_report_json(reports, seed))
    return 1 if any(r.status == "fail" for r in reports) else 0


def _cmd_sweep(args) -> int:
    with open(args.config) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {args.config!r} is not valid text: {exc}") from None
    config = parse_sweep_config(text)
    summary = run_sweep(config)
    print(f"points = {summary.points_evaluated}")
    print(f"failures = {summary.failures}")
    print(f"output = {config.output_path}")
    return 0


def _cmd_list(args) -> int:
    from .harness import registered_cases

    for case in registered_cases():
        print(f"{case.case_id:<18} [{case.kind}] tol={case.tolerance:.0e}  "
              f"{case.description}")
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "series": _cmd_series,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "list": _cmd_list,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, SingularParameterError, KernelDomainError,
            NonConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
