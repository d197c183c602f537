"""Command line: validate farm files, assess crops, compare the pair,
sweep the marginal share.

``cropgate [--version] COMMAND FLAG...``; ``-h`` prints the usage of every
command, or after a command of that one. A flag takes its value as the next
word or after '=', may be cut to a unique prefix and, but for ``--crop``,
keeps its last value; a word led by '-' is a value only as a negative number.

Exit codes: 0 on success, otherwise the class of the error decides: 1 for
a ``CropgateError`` (invalid farm, unknown crop, missing factor record ...),
2 for its subclass ``InputError`` (usage errors, grammar) and unreadable
files. Either prints one line, a usage error ``error: ...``.
"""

import math
import re
import sys
from types import SimpleNamespace

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
    crops = args.crop or []
    if len(crops) != 1:
        raise InputError("assess needs exactly one --crop")
    model, factors_path, db = _load(args)
    from .assess import assess_crop
    from .reports import write_assessment
    result = assess_crop(model, db, crops[0],
                         cutoff_missing=args.cutoff_missing)
    code = _write(args, factors_path, _flags(args, crop=crops[0]),
                  write_assessment, result)
    for note in result.notes:
        print(f"note: {note}", file=sys.stderr)
    return code


def _cmd_compare(args) -> int:
    crops = args.crop or []
    if len(crops) not in (0, 2):
        raise InputError("compare takes no --crop (the farm's pair) or two")
    model, factors_path, db = _load(args)
    from .assess import compare_pair
    from .reports import write_comparison
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
    shares = _sweep_points(args)
    model = parse_farm_document(read_text(args.farm, args.inputs))
    points = marginal_share_sweep(model, shares)
    flags = _flags(args, shares=",".join(f"{share:.6f}" for share in shares))
    return _write(args, None, flags, write_sweep, points, model.marginal_pair)


# ---------------------------------------------------------------------- #
#  argument parsing and dispatch
# ---------------------------------------------------------------------- #

# each command: its handler, what it does, and its flags with the metavar
# of their value (None for a switch); a flag's field is its name
_FARM = {"--farm": "FILE"}
_OUTPUT = {"--out": "DIR", "--format": "csv|json"}
_ENGINE = {**_FARM, "--factors": "FILE", "--crop": "NAME",
           "--cutoff-missing": None, "--horizon": f"1..{MAX_HORIZON_YEARS}",
           **_OUTPUT}
_COMMANDS = {
    "validate": (_cmd_validate, "parse and validate a farm file", _FARM),
    "assess": (_cmd_assess, "full report for one --crop", _ENGINE),
    "compare": (_cmd_compare, "two crops side by side", _ENGINE),
    "sweep": (_cmd_sweep, "income difference by marginal share, over "
              "--shares or a --range", {**_FARM, "--shares": "A,B/C",
                                        "--range": "START:STOP:STEP",
                                        **_OUTPUT}),
}
_PROGRAM = dict.fromkeys(("-h", "--help", "--version"))
_DEFAULTS = {"--out": ".", "--format": "csv", "--cutoff-missing": False}


def _flag(token: str, flags: dict) -> tuple[list[str], str | None] | None:
    """The flags ``token`` may name and the value after its '=' (or -h), or
    None for a word (a command or a value), read as argparse reads it: not
    led by '-', '-' alone, a negative number, or spaced and naming no flag."""
    if (token[:1] != "-" or token == "-"
            or re.match(r"^-\d+$|^-\d*\.\d+$", token)):
        return None
    long = token[1] == "-"
    typed = token.partition("=")[0] if long else token[:2]
    matched = [typed] if typed in flags else [
        flag for flag in flags if long and flag.startswith(typed)]
    if " " in token and not matched:
        return None
    return matched, token[len(typed) + 1:] if token != typed else None


def _value(args, flag: str, text):
    if flag == "--crop":
        return (args.crop or []) + [text]
    if flag == "--format" and text not in ("csv", "json"):
        raise InputError(f"--format is csv or json, not {text!r}")
    if flag in ("--shares", "--range") and (
            args.range if flag == "--shares" else args.shares) is not None:
        raise InputError("sweep takes --shares or --range, not both")
    try:
        return int(text) if flag == "--horizon" else text
    except ValueError:
        raise InputError(f"--horizon {text!r} is no whole years") from None


def _usage(commands) -> str:
    """The usage of each of ``commands``; --farm is the required flag."""
    lines = []
    for command in commands:
        _, about, flags = _COMMANDS[command]
        words = [f"{flag} {metavar}" if metavar else flag
                 for flag, metavar in flags.items()]
        lines += [" ".join(["usage: cropgate", command, *(
            word if word.startswith("--farm") else f"[{word}]"
            for word in words)]), f"  {about}"]
    return "\n".join(lines)


def _parse_args(argv) -> SimpleNamespace | str:
    """The fields of a command line, or the text that -h or --version asks
    for at once; a stray word or an unknown or missing flag fails last."""
    args, flags, unknown, tokens = None, _PROGRAM, [], iter(argv)
    for token in tokens:
        read = _flag(token, flags)
        if read is None and args is None:  # the command
            if token not in _COMMANDS:
                raise InputError(f"unknown command {token!r}")
            flags = {**_COMMANDS[token][2], "-h": None, "--help": None}
            args = SimpleNamespace(command=token, **{
                flag[2:].replace("-", "_"): _DEFAULTS.get(flag)
                for flag in _COMMANDS[token][2]})
            continue
        matched, value = read or ([], None)
        if len(matched) > 1:
            raise InputError(f"{token.partition('=')[0]!r} is ambiguous: "
                             f"{', '.join(matched)}")
        if not matched:
            unknown.append(token)
            continue
        flag, metavar = matched[0], flags[matched[0]]
        if metavar is None and value is not None:
            raise InputError(f"{flag} takes no value")
        if flag in _PROGRAM:
            return (f"cropgate {__version__}" if flag == "--version"
                    else _usage([args.command] if args else _COMMANDS))
        if metavar and value is None:
            value = next(tokens, None)
            if value is None or _flag(value, flags) is not None:
                raise InputError(f"{flag} needs a value")
        setattr(args, flag[2:].replace("-", "_"),
                _value(args, flag, value) if metavar else True)
    if args is None:
        raise InputError(f"no command; use one of {', '.join(_COMMANDS)}")
    if unknown:
        raise InputError("unrecognized arguments: "
                         + ", ".join(map(repr, unknown)))
    if args.farm is None:
        raise InputError(f"{args.command} needs --farm")
    if args.command == "sweep" and args.shares is args.range is None:
        raise InputError("sweep needs --shares or --range")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # -h or --version
            print(args)
            return EXIT_OK
        args.inputs = {}  # bytes by path, each read once to parse and to hash
        return _COMMANDS[args.command][0](args)
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
