"""The command-line contract under damaged inputs, and the demo scripts.

Each fuzz example damages one line of the bundled farm or factor file and
runs every command on the result. Whatever the damage, ``main()`` returns
0, 1 or 2 and raises nothing; a failure says why; and the JSON reports of
a success hold only finite numbers. A bad flag value exits 2 with one line
and writes nothing.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from cropgate.cli import EXIT_DOMAIN, EXIT_INPUT, main

from conftest import SHIPPED_FACTORS, SHIPPED_FARM

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


FILES = {os.path.basename(path): _read(path)
         for path in (SHIPPED_FARM, SHIPPED_FACTORS)}
FARM_NAME = os.path.basename(SHIPPED_FARM)

# "key = <number>[ <unit>]", the number and its unit as groups
_QUANTITY = re.compile(
    r"^(\w+ = )(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?: ([^\s#,]+))?")
_NEW_NUMBERS = ("0", "-1", "1e306", "1e999")
_UNITS = ("kg", "Mg/ha", "kg/ha", "g/ha", "L", "L/ha", "kg/L", "ha", "y",
          "m", "Mg/m3", "EUR/ha", "EUR/Mg", "percent", "MJ")


def _quantity_lines(lines: list[str]) -> list[int]:
    return [i for i, line in enumerate(lines) if _QUANTITY.match(line)]


def _soil_sections(lines: list[str]) -> list[int]:
    return [i for i, line in enumerate(lines) if line.startswith("[soil.")]


@st.composite
def damaged_inputs(draw) -> tuple[str, str]:
    """(file name, text) with one line dropped, duplicated or altered, or
    one soil section added whose year has a leading zero."""
    name = draw(st.sampled_from(sorted(FILES)))
    lines = FILES[name].split("\n")
    kind = draw(st.sampled_from(
        ["drop", "duplicate", "number", "negate", "unit"]
        + (["soil"] if name == FARM_NAME else [])))
    if kind == "soil":
        start = draw(st.sampled_from(_soil_sections(lines)))
        end = next(i for i in range(start + 1, len(lines))
                   if lines[i].startswith("["))
        header = lines[draw(st.sampled_from(_soil_sections(lines)))]
        segments = header[1:-1].split(".")
        lines += [f"[soil.{segments[1]}.0{segments[2]}]"] + lines[start + 1:end]
        return name, "\n".join(lines)
    if kind in ("drop", "duplicate"):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = [] if kind == "drop" else [lines[i], lines[i]]
        return name, "\n".join(lines)
    i = draw(st.sampled_from(_quantity_lines(lines)))
    match = _QUANTITY.match(lines[i])
    key, number, unit = match.groups()
    if kind == "number":
        number = draw(st.sampled_from(_NEW_NUMBERS))
    elif kind == "negate":
        number = number[1:] if number.startswith("-") else "-" + number
    else:
        unit = draw(st.sampled_from([u for u in _UNITS if u != unit]))
    lines[i] = (key + number + (f" {unit}" if unit else "")
                + lines[i][match.end():])
    return name, "\n".join(lines)


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in a report")


COMMANDS = [
    ["validate"],
    ["assess", "--crop", "tall_wheatgrass"],
    ["assess", "--crop", "rye", "--format", "json"],
    ["compare"],
    ["sweep", "--range", "0.1:0.9:0.1"],
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(damaged_inputs())
# income on 302 ha at 1e306 EUR/ha overflows: used to write Infinity
@example((FARM_NAME, FILES[FARM_NAME].replace("cap_aid = 165.00 EUR/ha",
                                              "cap_aid = 1e306 EUR/ha")))
# a sign damage that every command accepts: the derandomized draw has none
@example((FARM_NAME, FILES[FARM_NAME].replace("soc_fixation = 0.765 Mg/ha",
                                              "soc_fixation = -1 Mg/ha")))
def test_damaged_inputs_keep_the_exit_contract(damaged):
    name, text = damaged
    with tempfile.TemporaryDirectory() as work:
        for file_name, original in FILES.items():
            with open(os.path.join(work, file_name), "w",
                      encoding="utf-8") as handle:
                handle.write(text if file_name == name else original)
        farm = os.path.join(work, FARM_NAME)
        for n, command in enumerate(COMMANDS):
            out_dir = os.path.join(work, f"out{n}")
            argv = command + ["--farm", farm]
            if command[0] != "validate":
                argv += ["--out", out_dir]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), command
            if code:
                # validate reports a farm that fails validation on stdout
                explained = err.getvalue() or (
                    command == ["validate"] and code == EXIT_DOMAIN
                    and "invalid: " in out.getvalue())
                assert explained, command
            elif os.path.isdir(out_dir):
                for report in os.listdir(out_dir):
                    if report.endswith(".json"):
                        json.loads(_read(os.path.join(out_dir, report)),
                                   parse_constant=_reject_constant)


@pytest.mark.parametrize("argv", [
    *(["assess", "--crop", "rye", f"--horizon={horizon}"]
      for horizon in ("0", "-3", "1001", str(10**400))),
    *(["sweep", f"--shares={shares}"] for shares in ("", "1/0", "nan", "a")),
    *(["sweep", f"--range={span}"]
      for span in ("0:1", "0:1:0", "1:0:0.1", "0:1:1e-320", "0:1e308:1e-10",
                   "1e308:-1e308:1")),
], ids=lambda argv: argv[-1][:20])
def test_bad_flag_values_exit_2_with_one_line(argv, tmp_path):
    out_dir = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv + ["--farm", SHIPPED_FARM, "--out", str(out_dir)])
    assert code == EXIT_INPUT
    assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    assert not out_dir.exists()


@pytest.mark.parametrize("script", sorted(
    name for name in os.listdir(DEMOS) if name.endswith(".py")))
def test_demo_runs(script):
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, script)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
