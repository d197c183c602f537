"""Command-line behavior: exit codes, outputs, determinism."""

import builtins
import contextlib
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from cropgate import InputError, cli
from cropgate.cli import EXIT_DOMAIN, EXIT_INPUT, EXIT_OK, main

from conftest import SHIPPED_FACTORS, SHIPPED_FARM
from oracles import build_parser

GASES_ONLY = """
[flow.diesel]
unit = L
gwp100 = 0.5866
pe_renewable = 0.75
pe_nonrenewable = 49.3
"""

BROKEN_FARM = """
[farm
name = "x"
"""

UNBALANCED_FARM = """
[farm]
name = "x"
total_area = 50 ha
marginal_area = 10 ha
marginal_pair = a, b

[crop.a]
land_class = marginal
soc_equilibrium = true

[crop.b]
land_class = marginal
soc_equilibrium = true
"""

ZERO_INCOME_FARM = """
[farm]
name = "x"
total_area = 20 ha
marginal_area = 10 ha
marginal_pair = a, b

[crop.a]
land_class = marginal
soc_equilibrium = true

[crop.b]
land_class = marginal
soc_equilibrium = true

[crop.rest]
land_class = fallow
area = 10 ha
soc_equilibrium = true
"""


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def edited_copy(tmp_path, farm_edit=lambda text: text,
                factors_edit=lambda text: text) -> str:
    """Copy the bundled farm and factor files into ``tmp_path``, passing
    each text through its edit; returns the farm path."""
    for shipped, edit in ((SHIPPED_FARM, farm_edit),
                          (SHIPPED_FACTORS, factors_edit)):
        with open(shipped, encoding="utf-8") as handle:
            text = edit(handle.read())
        name = shipped.rsplit("/", 1)[-1]
        (tmp_path / name).write_text(text, encoding="utf-8")
    return str(tmp_path / "farm_soria.cg")


class TestValidate:
    def test_shipped_farm_is_ok(self, farm_path, capsys):
        code, out, err = run(["validate", "--farm", farm_path], capsys)
        assert code == EXIT_OK
        assert "ok: 7 crops on 302 ha" in out

    def test_semantic_problems_exit_1(self, tmp_path, capsys):
        farm = tmp_path / "farm.cg"
        farm.write_text(UNBALANCED_FARM, encoding="utf-8")
        code, out, err = run(["validate", "--farm", str(farm)], capsys)
        assert code == EXIT_DOMAIN
        assert "invalid:" in out
        assert "total_area" in out

    def test_grammar_problems_exit_2(self, tmp_path, capsys):
        farm = tmp_path / "farm.cg"
        farm.write_text(BROKEN_FARM, encoding="utf-8")
        code, out, err = run(["validate", "--farm", str(farm)], capsys)
        assert code == EXIT_INPUT
        assert "syntax error:" in err

    def test_soil_year_with_leading_zero_exit_1(self, tmp_path, capsys):
        # 02013 and 2013 are one year; without soc_fixation tall wheatgrass
        # takes its credit from that zero-year soil pair
        farm = edited_copy(tmp_path, lambda text: text.replace(
            "[soil.marginal.2016]", "[soil.marginal.02013]").replace(
            "soc_fixation = 0.765 Mg/ha\n", ""))
        code, out, _ = run(["validate", "--farm", farm], capsys)
        assert code == EXIT_DOMAIN
        assert out.splitlines() == [
            "error: [soil.marginal.2013] two analyses of marginal land in "
            "2013: this one and [soil.marginal.02013]",
            "invalid: 1 error(s)"]
        code, _, err = run(["assess", "--farm", farm, "--crop",
                            "tall_wheatgrass", "--out", str(tmp_path)], capsys)
        assert code == EXIT_DOMAIN
        assert err.startswith("invalid farm description:\n")

    def test_herbicide_dose_not_per_ha_exit_1(self, tmp_path, capsys):
        farm = edited_copy(tmp_path, lambda text: text.replace(
            "dose = 2 L/ha", "dose = 2 L"))
        code, out, _ = run(["validate", "--farm", farm], capsys)
        assert code == EXIT_DOMAIN
        assert out.splitlines()[0] == (
            "error: [crop.wheat.herbicide.clortoluron.dose] must be a finite "
            "volume or mass per ha")

    def test_unreadable_file_exit_2(self, tmp_path, capsys):
        code, out, err = run(
            ["validate", "--farm", str(tmp_path / "absent.cg")], capsys)
        assert code == EXIT_INPUT
        assert "cannot read" in err


class TestAssess:
    def test_writes_the_four_files(self, farm_path, tmp_path, capsys):
        code, out, err = run(
            ["assess", "--farm", farm_path, "--crop", "tall_wheatgrass",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        listed = out.strip().splitlines()
        assert [p.rsplit("/", 1)[-1] for p in listed] == [
            "balance.csv", "gwp_phases.csv", "energy_phases.csv",
            "result.json"]
        payload = json.loads((tmp_path / "result.json").read_text())
        assert payload["manifest"]["flags"]["command"] == "assess"
        assert payload["manifest"]["flags"]["crop"] == "tall_wheatgrass"

    def test_json_format_writes_only_json(self, farm_path, tmp_path, capsys):
        code, out, err = run(
            ["assess", "--farm", farm_path, "--crop", "rye",
             "--out", str(tmp_path), "--format", "json"], capsys)
        assert code == EXIT_OK
        assert [p.name for p in sorted(tmp_path.iterdir())] == ["result.json"]

    def test_crop_flag_is_mandatory_and_single(self, farm_path, tmp_path,
                                               capsys):
        code, _, err = run(
            ["assess", "--farm", farm_path, "--out", str(tmp_path)], capsys)
        assert code == EXIT_INPUT
        assert "exactly one --crop" in err
        code, _, err = run(
            ["assess", "--farm", farm_path, "--crop", "rye", "--crop",
             "wheat", "--out", str(tmp_path)], capsys)
        assert code == EXIT_INPUT

    def test_unknown_crop_exit_1(self, farm_path, tmp_path, capsys):
        code, _, err = run(
            ["assess", "--farm", farm_path, "--crop", "miscanthus",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_DOMAIN
        assert "no crop named" in err

    def test_missing_factor_record_exit_1(self, farm_path, tmp_path, capsys):
        factors = tmp_path / "thin.cg"
        factors.write_text(GASES_ONLY, encoding="utf-8")
        code, _, err = run(
            ["assess", "--farm", farm_path, "--factors", str(factors),
             "--crop", "rye", "--out", str(tmp_path)], capsys)
        assert code == EXIT_DOMAIN
        assert "no factor record" in err

    def test_cutoff_missing_downgrades_to_notes(self, farm_path, tmp_path,
                                                capsys):
        factors = tmp_path / "thin.cg"
        factors.write_text(GASES_ONLY, encoding="utf-8")
        code, out, err = run(
            ["assess", "--farm", farm_path, "--factors", str(factors),
             "--crop", "rye", "--out", str(tmp_path), "--cutoff-missing"],
            capsys)
        assert code == EXIT_OK
        assert "cut off at zero burden" in err
        payload = json.loads((tmp_path / "result.json").read_text())
        assert "npk_8_24_8" in payload["gwp"]["missing_flows"]

    def test_horizon_flag_reaches_manifest_and_model(self, farm_path,
                                                     tmp_path, capsys):
        code, out, err = run(
            ["assess", "--farm", farm_path, "--crop", "tall_wheatgrass",
             "--out", str(tmp_path), "--horizon", "8"], capsys)
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "result.json").read_text())
        assert payload["manifest"]["flags"]["horizon"] == "8"

    @pytest.mark.parametrize("argv", [["assess", "--crop", "rye"],
                                      ["compare"]])
    @pytest.mark.parametrize("horizon", ["1001", "9" * 400],
                             ids=["1001", "400_digits"])
    def test_horizon_beyond_the_bound_exit_2(self, farm_path, tmp_path,
                                             capsys, argv, horizon):
        code, out, err = run(argv + ["--farm", farm_path, "--out",
                                     str(tmp_path), "--horizon", horizon],
                             capsys)
        assert code == EXIT_INPUT
        assert err == (f"error: --horizon must be at most "
                       f"{cli.MAX_HORIZON_YEARS} years\n")
        assert out == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["assess", "--crop", "rye"],
                                      ["compare"]])
    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_horizon_below_one_exit_2(self, farm_path, tmp_path, capsys,
                                      argv, horizon):
        # used to exit 1 from the economics, after both files were read
        code, out, err = run(argv + ["--farm", farm_path, "--out",
                                     str(tmp_path), f"--horizon={horizon}"],
                             capsys)
        assert code == EXIT_INPUT
        assert err == "error: --horizon must be at least 1 year\n"
        assert out == "" and not any(tmp_path.iterdir())

    def test_horizon_at_the_bound_is_accepted(self, farm_path, tmp_path,
                                              capsys):
        code, _, _ = run(["assess", "--farm", farm_path, "--crop", "rye",
                          "--out", str(tmp_path), "--horizon",
                          str(cli.MAX_HORIZON_YEARS)], capsys)
        assert code == EXIT_OK

    def test_byte_identical_reruns(self, farm_path, tmp_path, capsys):
        for sub in ("one", "two"):
            code, _, _ = run(
                ["assess", "--farm", farm_path, "--crop", "rye",
                 "--out", str(tmp_path / sub)], capsys)
            assert code == EXIT_OK
        for name in ("balance.csv", "gwp_phases.csv", "energy_phases.csv",
                     "result.json"):
            assert (tmp_path / "one" / name).read_bytes() \
                == (tmp_path / "two" / name).read_bytes(), name


    @pytest.mark.parametrize("epoch", ["abc", "99999999999999999"])
    def test_malformed_build_epoch_exit_2(self, farm_path, tmp_path, capsys,
                                          monkeypatch, epoch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        code, out, err = run(
            ["assess", "--farm", farm_path, "--crop", "rye",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_INPUT
        assert err.startswith("error: SOURCE_DATE_EPOCH ")
        assert err.count("\n") == 1

    def test_negative_exhaust_factor_exit_1(self, tmp_path, capsys):
        farm = edited_copy(tmp_path, factors_edit=lambda text: text.replace(
            "co2 = 2.64 kg/L", "co2 = -2.64 kg/L"))
        code, _, err = run(["assess", "--farm", farm, "--crop", "rye",
                            "--out", str(tmp_path / "out")], capsys)
        assert code == EXIT_DOMAIN
        assert err == ("invalid factor file:\n"
                       "error: [emissions.exhaust.co2] cannot be negative\n")
        assert not (tmp_path / "out").exists()

    def test_unwritable_out_dir_exit_2(self, farm_path, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        code, _, err = run(
            ["assess", "--farm", farm_path, "--crop", "rye",
             "--out", str(blocker / "sub")], capsys)
        assert code == EXIT_INPUT
        assert err.startswith("error: cannot write ")
        assert err.count("\n") == 1

    def test_missing_out_dir_is_created(self, farm_path, tmp_path, capsys):
        out_dir = tmp_path / "not" / "yet"
        code, out, _ = run(
            ["assess", "--farm", farm_path, "--crop", "rye",
             "--out", str(out_dir)], capsys)
        assert code == EXIT_OK
        names = ["balance.csv", "gwp_phases.csv", "energy_phases.csv",
                 "result.json"]
        assert out.splitlines() == [str(out_dir / name) for name in names]
        assert sorted(os.listdir(out_dir)) == sorted(names)

    def test_out_dir_that_is_a_file_exit_2(self, farm_path, tmp_path,
                                           capsys):
        blocker = tmp_path / "file"
        blocker.write_text("kept", encoding="utf-8")
        code, out, err = run(
            ["assess", "--farm", farm_path, "--crop", "rye",
             "--out", str(blocker)], capsys)
        assert code == EXIT_INPUT
        assert err == (f"error: cannot write {blocker}: "
                       f"{os.strerror(errno.EEXIST)}\n")
        assert out == "" and blocker.read_text(encoding="utf-8") == "kept"

    def test_out_dir_symlinked_to_a_directory_writes_through(
            self, farm_path, tmp_path, capsys):
        target = tmp_path / "target"
        target.mkdir()
        link = tmp_path / "link"
        link.symlink_to(target, target_is_directory=True)
        code, out, _ = run(
            ["assess", "--farm", farm_path, "--crop", "rye",
             "--out", str(link)], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[0] == str(link / "balance.csv")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert sorted(os.listdir(target)) == [
            "balance.csv", "energy_phases.csv", "gwp_phases.csv",
            "result.json"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    def test_failed_write_names_the_report(self, farm_path, tmp_path, capsys):
        # the open succeeds and the write fails: the error has no filename
        (tmp_path / "balance.csv").symlink_to("/dev/full")
        code, _, err = run(
            ["assess", "--farm", farm_path, "--crop", "rye",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_INPUT
        assert err == (f"error: cannot write {tmp_path / 'balance.csv'}: "
                       f"{os.strerror(errno.ENOSPC)}\n")

    def test_directory_at_a_report_name_exit_2(self, farm_path, tmp_path,
                                               capsys):
        (tmp_path / "balance.csv").mkdir()
        code, _, err = run(
            ["assess", "--farm", farm_path, "--crop", "rye",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_INPUT
        assert err == (f"error: cannot write {tmp_path / 'balance.csv'}: "
                       f"{os.strerror(errno.EISDIR)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/null"),
                        reason="needs /dev/null")
    def test_report_symlinked_to_dev_null_exit_0(self, farm_path, tmp_path,
                                                 capsys):
        # a device cannot be truncated: only a longer old file is cut
        (tmp_path / "balance.csv").symlink_to("/dev/null")
        code, out, _ = run(
            ["assess", "--farm", farm_path, "--crop", "rye",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[0] == str(tmp_path / "balance.csv")
        assert os.readlink(tmp_path / "balance.csv") == "/dev/null"

    def test_non_utf8_factor_file_exit_2(self, farm_path, tmp_path, capsys):
        factors = tmp_path / "latin1.cg"
        factors.write_bytes("[flow.x]\nnote = \"ca\xf1a\"\n".encode("latin-1"))
        code, _, err = run(
            ["assess", "--farm", farm_path, "--factors", str(factors),
             "--crop", "rye", "--out", str(tmp_path)], capsys)
        assert code == EXIT_INPUT
        assert err.startswith(f"error: cannot read {factors}: not UTF-8 text ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["validate", "assess"])
    def test_non_utf8_farm_file_exit_2(self, command, tmp_path, capsys):
        farm = tmp_path / "latin1.cg"
        farm.write_bytes("[farm]\nname = \"ca\xf1a\"\n".encode("latin-1"))
        argv = [command, "--farm", str(farm)]
        if command == "assess":
            argv += ["--crop", "rye", "--out", str(tmp_path)]
        code, _, err = run(argv, capsys)
        assert code == EXIT_INPUT
        assert err.startswith(f"error: cannot read {farm}: not UTF-8 text ")
        assert err.count("\n") == 1


class TestInputs:
    """Each input file is read once, and the manifest hashes the bytes that
    were parsed."""

    COMMANDS = [["assess", "--crop", "rye"], ["compare"],
                ["sweep", "--range", "0.1:0.9:0.1"]]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda argv: argv[0])
    def test_one_open_per_input(self, command, tmp_path, capsys,
                                monkeypatch):
        farm = edited_copy(tmp_path)
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(os.fspath(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code, _, _ = run([command[0], "--farm", farm, *command[1:],
                          "--out", str(tmp_path / "out")], capsys)
        assert code == EXIT_OK
        inputs = [farm]
        if command[0] != "sweep":
            inputs.append(str(tmp_path / "factors_calibrated.cg"))
        assert sorted(opened) == sorted(inputs)

    @pytest.mark.parametrize("command,report", [
        (COMMANDS[0], "result.json"), (COMMANDS[1], "comparison.json"),
        (COMMANDS[2], "sweep.json")], ids=["assess", "compare", "sweep"])
    def test_manifest_hashes_the_parsed_bytes(self, command, report,
                                              tmp_path, capsys, monkeypatch):
        farm = edited_copy(tmp_path)
        with open(farm, "rb") as handle:
            parsed = handle.read()
        from cropgate import reports
        build_manifest = reports.build_manifest

        def edit_then_build(farm_path, *args):
            with open(farm_path, "ab") as handle:
                handle.write(b"# edited after parsing\n")
            return build_manifest(farm_path, *args)

        monkeypatch.setattr(reports, "build_manifest", edit_then_build)
        code, _, _ = run([command[0], "--farm", farm, *command[1:],
                          "--format", "json", "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / report).read_text())["manifest"]
        assert manifest["farm_sha256"] == hashlib.sha256(parsed).hexdigest()

    def test_byte_order_marks_are_read_and_hashed(self, tmp_path, capsys):
        farm = edited_copy(tmp_path)
        factors = tmp_path / "factors_calibrated.cg"
        for path in (tmp_path / "farm_soria.cg", factors):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        code, out, _ = run(["validate", "--farm", farm], capsys)
        assert (code, out) == (EXIT_OK, "ok: 7 crops on 302 ha\n")
        code, _, _ = run(["assess", "--farm", farm, "--crop", "rye",
                          "--format", "json", "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "result.json").read_text())[
            "manifest"]
        for path, key in ((farm, "farm_sha256"), (factors, "factors_sha256")):
            with open(path, "rb") as handle:
                assert manifest[key] == hashlib.sha256(
                    handle.read()).hexdigest()

    @pytest.mark.parametrize("damaged", ["farm", "factors"])
    def test_decode_offset_counts_the_byte_order_mark(self, damaged,
                                                      tmp_path, capsys):
        farm = edited_copy(tmp_path)
        path = tmp_path / ("farm_soria.cg" if damaged == "farm"
                           else "factors_calibrated.cg")
        path.write_bytes(b"\xef\xbb\xbf# ca\xf1a\n" + path.read_bytes())
        code, _, err = run(["assess", "--farm", farm, "--crop", "rye",
                            "--out", str(tmp_path)], capsys)
        assert code == EXIT_INPUT
        assert err == (f"error: cannot read {path}: not UTF-8 text "
                       "(invalid continuation byte at byte 7)\n")


class TestCompare:
    def test_defaults_to_the_farm_pair(self, farm_path, tmp_path, capsys):
        code, out, err = run(
            ["compare", "--farm", farm_path, "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        lines = (tmp_path / "comparison.csv").read_text().splitlines()
        assert lines[1] == "metric,tall_wheatgrass,rye,difference"
        assert "balance_with_cap_eur_ha,156.19,145.13,11.05" in lines

    def test_explicit_pair_keeps_order(self, farm_path, tmp_path, capsys):
        code, out, err = run(
            ["compare", "--farm", farm_path, "--crop", "rye", "--crop",
             "tall_wheatgrass", "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        lines = (tmp_path / "comparison.csv").read_text().splitlines()
        assert lines[1] == "metric,rye,tall_wheatgrass,difference"

    def test_single_crop_is_a_usage_error(self, farm_path, tmp_path, capsys):
        code, _, err = run(
            ["compare", "--farm", farm_path, "--crop", "rye",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_INPUT
        assert "compare takes" in err

    def test_a_crop_with_itself_writes_nothing(self, farm_path, tmp_path,
                                               capsys):
        out_dir = tmp_path / "out"
        code, out, err = run(
            ["compare", "--farm", farm_path, "--crop", "rye", "--crop",
             "rye", "--out", str(out_dir)], capsys)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "error: cannot compare crop 'rye' with itself\n"
        assert not out_dir.exists()


def huge_areas(text: str) -> str:
    """Every area of the bundled farm times 1e305: 3.02e307 ha in all."""
    return re.sub(r"(area = \d+)( ha)", r"\1e305\2", text)


@pytest.mark.parametrize("tail", [["compare", "--format", "json"],
                                  ["sweep", "--range", "0.1:0.9:0.1"]])
def test_non_finite_results_exit_1(tmp_path, capsys, tail):
    farm = edited_copy(tmp_path, huge_areas)
    code, out, _ = run(["validate", "--farm", farm], capsys)
    assert out == "ok: 7 crops on 3.02e+307 ha\n"  # areas are not capped
    out_dir = tmp_path / "out"
    code, out, err = run(tail + ["--farm", farm, "--out", str(out_dir)],
                         capsys)
    assert code == EXIT_DOMAIN
    assert re.fullmatch(r"error: \w+\.json would hold a value that is not "
                        r"finite; an input is too large\n", err)
    assert out == ""
    assert not out_dir.exists()


class TestSweep:
    def test_fraction_and_plain_shares(self, farm_path, tmp_path, capsys):
        code, out, err = run(
            ["sweep", "--farm", farm_path, "--shares", "40/302,0.5",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[2].startswith("0.132450,")
        assert lines[2].endswith(",0.5")
        assert lines[3].startswith("0.500000,")
        assert lines[3].endswith(",2.3")

    def test_range_is_inclusive(self, farm_path, tmp_path, capsys):
        code, out, err = run(
            ["sweep", "--farm", farm_path, "--range", "0.1:0.5:0.2",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[2:]] \
            == ["0.100000", "0.300000", "0.500000"]

    @pytest.mark.parametrize("argv_tail", [
        ["--shares", ""],
        ["--shares", "abc"],
        ["--shares", "1/0"],
        ["--range", "0.1:0.5"],
        ["--range", "0.1:0.5:0"],
        ["--range", "0.6:0.5:0.1"],
        ["--range", "0:inf:0.1"],
        ["--shares", "nan"],
    ])
    def test_malformed_share_specs_exit_2(self, farm_path, tmp_path, capsys,
                                          argv_tail):
        code, _, err = run(
            ["sweep", "--farm", farm_path, "--out", str(tmp_path)]
            + argv_tail, capsys)
        assert code == EXIT_INPUT
        assert err.startswith("error:")

    def test_range_point_count_is_bounded(self, farm_path, tmp_path,
                                          capsys):
        # a billion points: the count is checked before any is built
        code, _, err = run(
            ["sweep", "--farm", farm_path, "--range", "0:1:1e-9",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_INPUT
        assert err.startswith("error: --range gives 1000000001 shares")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spec", ["0:1:1e-320", "0:1e308:1e-10"])
    def test_range_count_overflow_exit_2(self, farm_path, tmp_path, capsys,
                                         spec):
        # the point count used to overflow math.floor into a traceback
        code, _, err = run(
            ["sweep", "--farm", farm_path, "--range", spec,
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_INPUT
        assert err == "error: --range gives more than 10000 shares\n"

    def test_share_beyond_the_farm_exit_1(self, farm_path, tmp_path, capsys):
        code, _, err = run(
            ["sweep", "--farm", farm_path, "--shares", "1.5",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_DOMAIN
        assert "outside [0, 1]" in err

    def test_zero_income_is_a_domain_error(self, tmp_path, capsys):
        farm = tmp_path / "farm.cg"
        farm.write_text(ZERO_INCOME_FARM, encoding="utf-8")
        code, _, err = run(
            ["sweep", "--farm", str(farm), "--shares", "0.5",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_DOMAIN
        assert err.startswith("error: farm income with 'b' is zero")
        assert err.count("\n") == 1


class TestErrorPolicy:
    """Package errors choose the exit code; anything else is a bug."""

    @pytest.mark.parametrize("bug", [ValueError("bug"), KeyError("bug"),
                                     ZeroDivisionError("bug")])
    def test_builtin_errors_propagate(self, farm_path, tmp_path, monkeypatch,
                                      bug):
        def broken(*args, **kwargs):
            raise bug
        monkeypatch.setattr("cropgate.assess.assess_crop", broken)
        with pytest.raises(type(bug)):
            main(["assess", "--farm", farm_path, "--crop", "rye",
                  "--out", str(tmp_path)])

    def test_unknown_crop_message_has_no_key_quotes(self, farm_path,
                                                    tmp_path, capsys):
        code, _, err = run(["assess", "--farm", farm_path, "--crop", "oats",
                            "--out", str(tmp_path)], capsys)
        assert code == EXIT_DOMAIN
        assert err == "error: farm has no crop named 'oats'\n"


class TestParser:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert "cropgate 1.0.0" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert main(["harvest"]) == EXIT_INPUT

    @pytest.mark.parametrize("argv", [
        ["assess", "--farm", "F", "--crop", "rye", "--bogus"],
        ["harvest", "--farm", "F"],
        [],
        ["assess", "--crop", "rye"],
        ["assess", "--farm", "F", "--crop", "rye", "--format", "xml"],
        ["assess", "--farm", "F", "--crop", "rye", "--horizon", "1e3"],
        ["assess", "--crop", "rye", "--farm"],
        ["assess", "--f", "F", "--crop", "rye"],
        ["sweep", "--farm", "F", "--shares", "0.5", "--range", "0:1:0.5"],
        ["sweep", "--farm", "F"],
    ], ids=["unknown_flag", "unknown_command", "no_command", "no_farm",
            "format_xml", "horizon_1e3", "no_value", "ambiguous_prefix",
            "shares_and_range", "neither_shares_nor_range"])
    def test_a_usage_error_is_one_line(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("argv,message", [
        (["assess"], "assess needs exactly one --crop"),
        (["compare", "--crop", "rye"],
         "compare takes no --crop (the farm's pair) or two"),
        (["sweep", "--range", "0:1:0"], "--range step must be positive"),
    ], ids=["assess", "compare", "sweep"])
    def test_flags_are_checked_before_the_farm_is_read(self, tmp_path, capsys,
                                                       argv, message):
        code, _, err = run(argv + ["--farm", str(tmp_path / "absent.cg")],
                           capsys)
        assert (code, err) == (EXIT_INPUT, f"error: {message}\n")

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["sweep", "-h"],
                                      ["assess", "--crop", "rye", "--he"]])
    def test_help_prints_the_usage(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert (code, err) == (EXIT_OK, "")
        commands = argv[:1] if argv[0] in cli._COMMANDS else list(cli._COMMANDS)
        assert [line.split()[2] for line in out.splitlines()
                if line.startswith("usage: ")] == commands

    def test_main_without_argv_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["cropgate", "--version"])
        assert main() == EXIT_OK
        assert capsys.readouterr().out == "cropgate 1.0.0\n"

    def test_module_entry_point(self, farm_path):
        proc = subprocess.run(
            [sys.executable, "-m", "cropgate.cli", "validate", "--farm",
             farm_path], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "ok: 7 crops" in proc.stdout


# The words the command lines below are drawn from. Left out, as argparse
# versions read them differently: '--' (3.12 and 3.13 changed what follows
# it); '-h' with a suffix (3.10 raises IndexError on '-h=', and '-hh' is two
# -h); and an ambiguous prefix in the same line as -h or --version, which
# 3.11 rejects while it sorts the words and later versions only once they
# reach the prefix. '--h' is left out for that reason too: it is -h to
# validate and sweep, and ambiguous to assess and compare.
_COMMAND_WORDS = ["validate", "assess", "compare", "sweep", "harvest", ""]
_FLAG_WORDS = ["--farm", "--factors", "--crop", "--cutoff-missing",
               "--horizon", "--out", "--format", "--shares", "--range",
               "--far", "--fac", "--fo", "--cr", "--cu", "--ho", "--o", "--s",
               "--r", "--farms", "--bogus", "-x", "-1e3"]
_HELP_WORDS = ["-h", "--help", "--he", "--version", "--ver"]
_AMBIGUOUS_WORDS = ["--f", "--fa", "--c"]
_VALUE_WORDS = ["f.cg", "rye", "", "-", "-3", "-0.5", "-.5", "7", "+8", " 9",
                "1_0", "1e3", "csv", "json", "xml", "0.1:0.9:0.1", "1/2,0.5",
                "a b", "-a b", "--farm x"]


@st.composite
def command_lines(draw) -> list[str]:
    """A head of program flags, a command and a body of flags and values,
    each part possibly empty, with help or ambiguous prefixes but not both."""
    helpful = draw(st.booleans())
    flag = st.sampled_from(_FLAG_WORDS + (_HELP_WORDS if helpful
                                          else _AMBIGUOUS_WORDS))
    value = st.sampled_from(_VALUE_WORDS)
    item = st.one_of(st.tuples(flag, value).map(list),
                     st.builds(lambda f, v: [f"{f}={v}"], flag, value),
                     flag.map(lambda f: [f]), value.map(lambda v: [v]))
    words = [word for items in draw(st.lists(item, max_size=6))
             for word in items]
    head = draw(st.lists(flag, max_size=1))
    command = draw(st.lists(st.sampled_from(_COMMAND_WORDS), min_size=1,
                            max_size=1) | st.just([]))
    farm = draw(st.sampled_from([[], ["--farm", "f.cg"]]))
    return head + command + farm + words


def _outcome(parse, argv):
    """"reject", "help", the version line, or the fields of ``argv``."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            parsed = parse(argv)
    except SystemExit as exit:
        if exit.code:
            return "reject"
        parsed = out.getvalue().rstrip("\n")
    except InputError as exc:
        assert "\n" not in str(exc) and "\r" not in str(exc), exc
        return "reject"
    if isinstance(parsed, str):
        return "help" if parsed.startswith("usage: ") else parsed
    return vars(parsed)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(command_lines())
@example(["assess", "--farm=f.cg", "--crop", "rye", "--crop=wheat",
          "--horizon", "-3", "--out", "-", "--format=json", "--cutoff-missing"])
@example(["sweep", "--ra", "0:1:0.5", "--far", "-a b", "--o", "", "--fo",
          "csv", "--fo", "json"])
@example(["validate", "--f", "x", "--farm", "y"])
@example(["--bogus", "validate", "--farm", "f.cg", "-h"])
@example(["--version", "harvest"])
@example(["assess", "--farm", "f.cg", "--h"])
@example(["sweep", "--h"])
@example(["compare", "--farm", "f.cg", "--horizon", " 7 ", "--c", "rye"])
def test_parser_agrees_with_argparse(argv):
    """On accept or reject, -h or --version, and every field."""
    assert _outcome(cli._parse_args, argv) == _outcome(
        build_parser().parse_args, argv), argv
