"""Every single-line and single-section damage of the bundled farm and
factor files, run through four commands, with each command's exit code
tabulated.

Usage::

    PYTHONPATH=src python tests/damage_scan.py > outcomes.txt
    diff tests/damage_outcomes.txt outcomes.txt

A variant is one bundled file with one change:

* a line dropped, or a line duplicated;
* on a ``key = number [unit]`` line: the number replaced by each of
  ``NUMBERS``, its sign flipped, its unit replaced by each unit of ``UNITS``
  but its own (``1`` among them), or its unit removed;
* a section (its header and every line up to the next header) dropped or
  duplicated, or its header renamed by doubling its last letter.

A variant whose text equals the original or an earlier variant is skipped.
Each variant runs ``COMMANDS`` in process through ``cropgate.cli.main``. The
exit contract is checked on every run: no exception leaves ``main()``, the
exit code is 0, 1 or 2, a non-zero exit prints a message (``validate`` puts
a failed validation on stdout, every other message goes to stderr), and no
JSON report of a successful run holds a non-finite number.

The outcome table goes to stdout, one line per variant: the file, the
1-based line number (a section's is its header's), the damage, one exit
code per command, and ``silent`` or ``-``. A variant is silent when every
command exits 0, no line of stdout or stderr is a ``warning:`` or a
``note:``, and some report differs from the undamaged files' reports in
more than its run hash and manifest: the damage changed numbers without a
word. To tell, a variant on which the four commands exit 0 without a word
also runs ``OTHER_CROPS``, so that every crop of the bundled farm is
assessed. Every
breach of the contract goes to stderr, and then the script exits 1. The
table is pinned in ``tests/damage_outcomes.txt``, so a change that makes
some damage accepted or refused shows as a diff. The scan takes about a
minute; the tier-1 suite samples the same damages in ``test_fuzz.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
import traceback

from cropgate.assess import bundled_data_path
from cropgate.cli import main

FILES = ("farm_soria.cg", "factors_calibrated.cg")
FARM = FILES[0]

# "key = <number>[ <unit>]", the number and its unit as groups, as in
# test_fuzz.py
_QUANTITY = re.compile(
    r"^(\w+ = )(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?: ([^\s#,]+))?")
NUMBERS = ("0", "-1", "1e306", "1e999", "1e-320", "nan", "inf", "0.5")
UNITS = ("kg", "Mg/ha", "kg/ha", "g/ha", "L", "L/ha", "kg/L", "ha", "y",
         "m", "Mg/m3", "EUR/ha", "EUR/Mg", "percent", "MJ", "1")
_HEADER = re.compile(r"^\[[\w.]+\]")

COMMANDS = (
    ("validate",),
    ("assess", "--crop", "tall_wheatgrass"),
    ("assess", "--crop", "rye", "--format", "json"),
    ("compare", "--format", "json"),
)
# run only to tell whether a variant is silent: a damage to one of these
# crops changes no report of COMMANDS
OTHER_CROPS = tuple(("assess", "--crop", crop, "--format", "json")
                    for crop in ("wheat", "barley", "triticale", "sunflower",
                                 "fallow"))


def variants(text: str):
    """(1-based line number, damage, damaged text) for every single-line
    damage of ``text``, each distinct text once."""
    lines = text.split("\n")
    seen = {text}

    def emit(i, damage, new_lines):
        damaged = "\n".join(new_lines)
        if damaged not in seen:
            seen.add(damaged)
            yield i + 1, damage, damaged

    for i, line in enumerate(lines):
        yield from emit(i, "drop", lines[:i] + lines[i + 1:])
        yield from emit(i, "duplicate", lines[:i + 1] + lines[i:])
    for i, line in enumerate(lines):
        match = _QUANTITY.match(line)
        if match is None:
            continue
        key, number, unit = match.groups()
        rest = line[match.end():]

        def rewritten(new_number, new_unit):
            unit_text = f" {new_unit}" if new_unit else ""
            return lines[:i] + [key + new_number + unit_text + rest] \
                + lines[i + 1:]

        for new in NUMBERS:
            yield from emit(i, f"number={new}", rewritten(new, unit))
        flipped = number[1:] if number.startswith("-") else "-" + number
        yield from emit(i, "negate", rewritten(flipped, unit))
        for new in UNITS:
            if new != unit:
                yield from emit(i, f"unit={new}", rewritten(number, new))
        if unit:
            yield from emit(i, "unit=", rewritten(number, None))
    starts = [i for i, line in enumerate(lines) if _HEADER.match(line)]
    for start, end in zip(starts, starts[1:] + [len(lines)]):
        section = lines[start:end]
        yield from emit(start, "section-drop", lines[:start] + lines[end:])
        yield from emit(start, "section-duplicate",
                        lines[:end] + section + lines[end:])
        header = lines[start]
        j = header.index("]")
        renamed = header[:j] + header[j - 1] + header[j:]
        yield from emit(start, "section-rename",
                        lines[:start] + [renamed] + lines[start + 1:])


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _payload(path: str):
    # a report less what hashes the input bytes: the JSON manifest and the
    # "# run" line of a CSV file
    with open(path, encoding="utf-8") as handle:
        if path.endswith(".json"):
            data = json.load(handle)
            del data["manifest"]
            return data
        return [line for line in handle if not line.startswith("# run ")]


def run(command: tuple[str, ...], farm: str, out_dir: str
        ) -> tuple[int, str, tuple | None]:
    """Exit code of one command, what breaks the contract ('' if nothing),
    and, for an exit 0, whether it printed a warning or a note and the
    payloads of the reports it wrote."""
    argv = list(command) + ["--farm", farm]
    if command[0] != "validate":
        argv += ["--out", out_dir]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit):  # main() returns its code, never exits
        return -1, "raised " + traceback.format_exc().splitlines()[-1], None
    if code not in (0, 1, 2):
        return code, f"exit code {code!r}", None
    if code:
        last = out.getvalue().splitlines()[-1:]
        told = err.getvalue().strip() or (
            command[0] == "validate" and last != []
            and last[0].startswith("invalid: "))
        return code, "" if told else "non-zero exit without a message", None
    paths = [line for line in out.getvalue().splitlines()
             if line.startswith(out_dir)]
    for path in paths:
        if path.endswith(".json"):
            with open(path, encoding="utf-8") as handle:
                try:
                    json.load(handle, parse_constant=_reject_constant)
                except ValueError as exc:
                    return code, f"{os.path.basename(path)}: {exc}", None
    said = any(line.startswith(("warning: ", "note: "))
               for line in (out.getvalue() + err.getvalue()).splitlines())
    return code, "", (said, [_payload(path) for path in paths])


def _quiet(told: list) -> bool:
    # every run exited 0 and printed no warning or note
    return all(outcome is not None and not outcome[0]
               for _, outcome in told)


def scan(table, breaches) -> int:
    """Write one table line per variant; return the number of breaches."""
    originals = {}
    for name in FILES:
        with open(bundled_data_path(name), encoding="utf-8") as handle:
            originals[name] = handle.read()
    found = 0
    with tempfile.TemporaryDirectory() as work:
        def write(name, text):
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)

        for name, text in originals.items():
            write(name, text)
        farm, out_dir = os.path.join(work, FARM), os.path.join(work, "out")
        everything = COMMANDS + OTHER_CROPS
        undamaged = [run(command, farm, out_dir)[2] for command in everything]
        for name in FILES:
            for line, damage, text in variants(originals[name]):
                write(name, text)
                told = []
                for command in everything:
                    if len(told) == len(COMMANDS) and not _quiet(told):
                        break  # not silent: the other crops need no run
                    code, breach, outcome = run(command, farm, out_dir)
                    told.append((code, outcome))
                    if breach:
                        found += 1
                        print(f"{name}:{line} {damage} "
                              f"[{' '.join(command)}]: {breach}",
                              file=breaches)
                silent = _quiet(told) and [
                    outcome for _, outcome in told] != undamaged
                print(name, line, damage,
                      *(code for code, _ in told[:len(COMMANDS)]),
                      "silent" if silent else "-", file=table)
            write(name, originals[name])
    return found


if __name__ == "__main__":
    sys.exit(1 if scan(sys.stdout, sys.stderr) else 0)
