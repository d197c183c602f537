"""Command line: validate farm files, assess crops, compare the pair,
sweep the marginal share.

Exit codes: 0 on success, otherwise the class of the error decides: 1 for
a ``CropgateError`` (invalid farm, unknown crop, missing factor record ...),
2 for its subclass ``InputError`` (bad flags, grammar) and unreadable files.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import (MAX_HORIZON_YEARS, CropgateError, InputError, __version__,
               horizon_problem)

__all__ = ["main"]

EXIT_OK = 0
EXIT_DOMAIN = CropgateError.exit_code
EXIT_INPUT = InputError.exit_code

# a sweep this long is a typo in --range, not a question about the farm
MAX_SWEEP_POINTS = 10_000


def _parse_share(text: str) -> float:
    try:
        if "/" in text:
            numerator, denominator = text.split("/", 1)
            share = float(numerator) / float(denominator)
        else:
            share = float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad share {text!r}") from exc
    if not math.isfinite(share):
        raise InputError(f"bad share {text!r}")
    return share


def _sweep_points(args) -> list[float]:
    if args.shares is not None:
        shares = [_parse_share(part) for part in args.shares.split(",") if part]
        if not shares:
            raise InputError("--shares produced no shares")
        return shares
    start_stop_step = args.range.split(":")
    if len(start_stop_step) != 3:
        raise InputError("--range takes start:stop:step")
    start, stop, step = (_parse_share(part) for part in start_stop_step)
    if step <= 0:
        raise InputError("--range step must be positive")
    # count the points before building any: stop is inclusive up to 1e-12
    span = (stop + 1e-12 - start) / step
    count = math.floor(span) + 1 if math.isfinite(span) else span
    if count < 1:
        raise InputError("--range produced no shares")
    if count == math.inf:  # the span overflowed: no count to print
        raise InputError(f"--range gives more than {MAX_SWEEP_POINTS} shares")
    if count > MAX_SWEEP_POINTS:
        raise InputError(f"--range gives {count} shares, more than "
                         f"{MAX_SWEEP_POINTS}")
    return [round(start + i * step, 12) for i in range(count)]


# ---------------------------------------------------------------------- #
#  subcommands
# ---------------------------------------------------------------------- #

def _cmd_validate(args) -> int:
    from .farmspec import build_farm_model
    from .sections import parse_document, read_text
    doc = parse_document(read_text(args.farm))  # SectionSyntaxError -> exit 2
    model, report = build_farm_model(doc)
    for diagnostic in report.diagnostics:
        print(diagnostic.render())
    if model is None or not report.ok:
        print(f"invalid: {len(report.errors)} error(s)")
        return EXIT_DOMAIN
    print(f"ok: {len(model.crops)} crops on {model.total_area_ha:g} ha")
    return EXIT_OK


def _load(args):
    """Flags checked first, then the farm model, factor path and database."""
    if args.horizon is not None and (problem := horizon_problem(args.horizon)):
        raise InputError(f"--horizon {problem}")
    from .assess import load_factors, load_farm, resolve_factors_path
    model = load_farm(args.farm, args.inputs)
    if args.horizon is not None:
        model = model._replace(amortization_horizon_years=args.horizon)
    factors_path = resolve_factors_path(args.farm, model, args.factors)
    return model, factors_path, load_factors(factors_path, args.inputs)


def _flags(args, **extra) -> dict:
    flags = {"command": args.command, "format": args.format,
             "cutoff_missing": getattr(args, "cutoff_missing", False)}
    if getattr(args, "horizon", None) is not None:
        flags["horizon"] = args.horizon
    flags.update(extra)
    return flags


def _write(args, factors_path, flags: dict, write, *subject) -> int:
    """Hash the run, write the reports on ``subject`` and list their paths."""
    from .reports import build_manifest
    manifest = build_manifest(args.farm, factors_path, flags, args.inputs)
    try:
        paths = write(*subject, manifest, args.out, args.format)
    except OSError as exc:
        raise InputError(f"cannot write {exc.filename}: {exc.strerror}") \
            from exc
    for path in paths:
        print(path)
    return EXIT_OK


def _cmd_assess(args) -> int:
    model, factors_path, db = _load(args)
    from .assess import assess_crop
    from .reports import write_assessment
    crops = args.crop or []
    if len(crops) != 1:
        raise InputError("assess needs exactly one --crop")
    result = assess_crop(model, db, crops[0],
                         cutoff_missing=args.cutoff_missing)
    code = _write(args, factors_path, _flags(args, crop=crops[0]),
                  write_assessment, result)
    for note in result.notes:
        print(f"note: {note}", file=sys.stderr)
    return code


def _cmd_compare(args) -> int:
    model, factors_path, db = _load(args)
    from .assess import compare_pair
    from .reports import write_comparison
    crops = args.crop or []
    if len(crops) not in (0, 2):
        raise InputError("compare takes no --crop (the farm's pair) or two")
    comparison = compare_pair(model, db, *crops,
                              cutoff_missing=args.cutoff_missing)
    pair = f"{comparison.first.crop_name},{comparison.second.crop_name}"
    return _write(args, factors_path, _flags(args, crops=pair),
                  write_comparison, comparison)


def _cmd_sweep(args) -> int:
    from .economics import marginal_share_sweep
    from .farmspec import parse_farm_document
    from .reports import write_sweep
    from .sections import read_text
    model = parse_farm_document(read_text(args.farm, args.inputs))
    shares = _sweep_points(args)
    points = marginal_share_sweep(model, shares)
    flags = _flags(args, shares=",".join(f"{share:.6f}" for share in shares))
    return _write(args, None, flags, write_sweep, points, model.marginal_pair)


# ---------------------------------------------------------------------- #
#  argument parsing and dispatch
# ---------------------------------------------------------------------- #

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cropgate",
        description="Cradle-to-farm-gate economics, carbon footprint and "
                    "primary energy accounting for crop alternatives.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(cmd, factors=True):
        cmd.add_argument("--farm", required=True, help="farm description file")
        if factors:
            cmd.add_argument("--factors",
                             help="characterization factor file (default: the "
                                  "farm's own 'factors' reference)")
            cmd.add_argument("--crop", action="append",
                             help="crop name (repeatable where two are valid)")
            cmd.add_argument("--cutoff-missing", action="store_true",
                             dest="cutoff_missing",
                             help="missing factor records count zero instead "
                                  "of failing")
            cmd.add_argument("--horizon", type=int,
                             help="amortization horizon in whole years, at "
                                  f"most {MAX_HORIZON_YEARS}")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="csv writes tables plus JSON; json only JSON")

    validate = sub.add_parser("validate", help="parse and validate a farm file")
    validate.add_argument("--farm", required=True)

    assess = sub.add_parser("assess", help="full report for one crop")
    common(assess)

    compare = sub.add_parser("compare",
                             help="side-by-side report for two crops")
    common(compare)

    sweep = sub.add_parser("sweep",
                           help="farm income difference vs marginal share")
    sweep_shares_group = sweep.add_mutually_exclusive_group(required=True)
    sweep_shares_group.add_argument("--shares",
                                    help="comma-separated marginal shares "
                                         "(plain numbers or a/b fractions)")
    sweep_shares_group.add_argument("--range",
                                    help="start:stop:step share range")
    common(sweep, factors=False)

    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "assess": _cmd_assess,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    args.inputs = {}  # bytes by path, each input read once to parse and to hash
    try:
        return _HANDLERS[args.command](args)
    except CropgateError as exc:
        print(f"{exc.prefix}{exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        # _write turns failures to write into InputError: this is a read
        message = (f"cannot read {exc.filename}: {exc.strerror}"
                   if exc.filename else exc)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
