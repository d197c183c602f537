"""Deterministic report files and the run manifest."""

import hashlib
import json
import json.encoder
import math
import os
import shutil

import pytest
from hypothesis import example, given, strategies as st

from cropgate import CropgateError, reports
from cropgate.assess import assess_crop, compare_pair
from cropgate.cli import main
from cropgate.economics import marginal_share_sweep
from cropgate.reports import (build_manifest, fmt_eur, fmt_gj, fmt_mg_co2e,
                              fmt_share, write_assessment, write_comparison,
                              write_sweep)


@pytest.fixture
def manifest(farm_path, factors_path):
    return build_manifest(farm_path, factors_path, {"command": "assess"})


@pytest.fixture
def twg_assessment(farm_model, factor_db):
    return assess_crop(farm_model, factor_db, "tall_wheatgrass")


def read(path) -> str:
    with open(path, encoding="utf-8", newline="") as handle:
        return handle.read()


class TestFixedFormats:
    @pytest.mark.parametrize("fn,value,expected", [
        (fmt_eur, 249.88, "249.88"),
        (fmt_eur, -19.8669, "-19.87"),
        (fmt_eur, 0.0, "0.00"),
        (fmt_eur, -0.001, "0.00"),      # never print -0.00
        (fmt_mg_co2e, -1.942, "-1.942"),
        (fmt_mg_co2e, -1e-9, "0.000"),
        (fmt_gj, 15.82, "15.8"),
        (fmt_gj, -0.04, "0.0"),
        (fmt_share, 60.23, "60.2"),
        (fmt_share, 100.0, "100.0"),
    ])
    def test_rounding_and_zero_normalization(self, fn, value, expected):
        assert fn(value) == expected


def round_then_format(value: float, decimals: int) -> str:
    """The reference: round, drop the sign of a zero, then format."""
    rounded = round(value, decimals)
    if rounded == 0.0:
        rounded = 0.0
    return f"{rounded:.{decimals}f}"


@st.composite
def fixed_cases(draw) -> tuple[float, int]:
    decimals = draw(st.sampled_from([1, 2, 3]))
    unit = 10.0 ** -decimals
    value = draw(st.one_of(
        st.floats(),  # inf and nan included
        st.floats(min_value=-unit / 2, max_value=unit / 2),  # near zero
        # (2k + 1) / 2**(d + 1) is a binary-exact half of the last digit
        st.integers(-10**9, 10**9).map(
            lambda k: (2 * k + 1) / 2 ** (decimals + 1))))
    return value, decimals


class TestFixedMatchesRound:
    @given(fixed_cases())
    @example((0.125, 2)).via("exact half, rounds to even")
    @example((-0.0005, 3)).via("half a unit below zero")
    @example((-0.0, 1))
    @example((math.inf, 2))
    @example((-math.inf, 3))
    @example((math.nan, 1))
    def test_same_text_as_round_then_format(self, case):
        value, decimals = case
        assert reports._fixed(decimals)(value) \
            == round_then_format(value, decimals)


# every value json.dumps writes: str-keyed dicts, lists, tuples and scalars
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300))  # subnormals too
json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20)


class TestJsonText:
    @given(json_values)
    @example({"a": [], "b": {}, "c": (), "d": [{}]})
    @example({"z": -0.0, "y": 0.0, "x": 5e-324, "w": 1.7976931348623157e308,
              "v": 10**30, "u": -(2**64), "t": True, "s": None})
    @example(["\"\\", "\x00\n\t", "\u00e9\U0001f33e", ""])
    def test_same_bytes_as_json_dumps(self, value):
        assert reports._json_text(value) == json.dumps(
            value, indent=2, sort_keys=True, allow_nan=False)

    @given(st.text())
    @example("\"\\\x00\n\x7f\u00e9\u2028\ud800\U0001f33e")
    def test_quote_is_the_pure_python_escaper_too(self, text):
        """Without ``_json`` the escaper is json's Python one: same text."""
        assert reports._quote(text) \
            == json.encoder.py_encode_basestring_ascii(text)

    def test_hash_is_sha256(self):
        for data in (b"", b"abc", bytes(range(256)) * 500):
            assert reports.sha256(data).hexdigest() \
                == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("wrap", [lambda v: v, lambda v: {"k": [1, v]}],
                             ids=["bare", "nested"])
    def test_non_finite_float_raises_value_error(self, bad, wrap):
        with pytest.raises(ValueError):
            json.dumps(wrap(bad), allow_nan=False)  # the reference agrees
        with pytest.raises(ValueError):
            reports._json_text(wrap(bad))

    def test_unsupported_value_raises_type_error(self):
        with pytest.raises(TypeError, match="^object is not JSON serializable$"):
            reports._json_text({"a": object()})


class TestManifest:
    def test_identical_inputs_hash_identically(self, farm_path, factors_path):
        a = build_manifest(farm_path, factors_path, {"x": 1, "y": 2})
        b = build_manifest(farm_path, factors_path, {"y": 2, "x": 1})
        assert a.run_hash == b.run_hash
        assert len(a.run_hash) == 64

    def test_flag_changes_change_the_hash(self, farm_path, factors_path):
        a = build_manifest(farm_path, factors_path, {"horizon": 4})
        b = build_manifest(farm_path, factors_path, {"horizon": 8})
        assert a.run_hash != b.run_hash

    def test_content_changes_change_the_hash(self, farm_path, factors_path,
                                             tmp_path):
        copy = tmp_path / "farm_soria.cg"
        shutil.copy(farm_path, copy)
        with open(copy, "a", encoding="utf-8") as handle:
            handle.write("# annotation\n")
        a = build_manifest(farm_path, factors_path, {})
        b = build_manifest(str(copy), factors_path, {})
        assert a.run_hash != b.run_hash
        assert a.farm_path == b.farm_path == "farm_soria.cg"  # basename only

    def test_timestamp_only_from_build_epoch(self, farm_path, factors_path,
                                             monkeypatch):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        untimed = build_manifest(farm_path, factors_path, {})
        assert untimed.timestamp is None
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        timed = build_manifest(farm_path, factors_path, {})
        assert timed.timestamp == "2023-11-14T22:13:20Z"
        # the timestamp stays outside the hashed region
        assert timed.run_hash == untimed.run_hash

    def test_missing_factors_file_allowed(self, farm_path):
        manifest = build_manifest(farm_path, None, {})
        assert manifest.factors_path is None
        assert manifest.factors_sha256 is None
        assert len(manifest.run_hash) == 64


class CountingSha256:
    """Stands in for ``reports.sha256``, recording what each call gets."""

    def __init__(self):
        self.inputs = []

    def __call__(self, data=b""):
        self.inputs.append(bytes(data))
        return hashlib.sha256(data)


class TestDigestMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(reports, "_DIGESTS", {})

    def test_same_size_rewrite_at_the_same_mtime_changes_the_hash(
            self, farm_path, tmp_path):
        farm = tmp_path / "farm.cg"
        shutil.copy(farm_path, farm)
        before = build_manifest(str(farm), None, {})
        stat = os.stat(farm)
        data = farm.read_bytes()
        edited = data.replace(b"302 ha", b"303 ha", 1)
        assert edited != data and len(edited) == len(data)
        farm.write_bytes(edited)
        os.utime(farm, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert os.stat(farm).st_mtime_ns == stat.st_mtime_ns
        after = build_manifest(str(farm), None, {})
        assert after.farm_sha256 == hashlib.sha256(edited).hexdigest()
        assert after.run_hash != before.run_hash

    def test_unchanged_file_is_hashed_once(self, farm_path, factors_path,
                                           tmp_path, monkeypatch):
        inputs = []
        for path in (farm_path, factors_path):
            shutil.copy(path, tmp_path)
            inputs.append(str(tmp_path / os.path.basename(path)))
        counting = CountingSha256()
        monkeypatch.setattr(reports, "sha256", counting)
        run_hashes = {build_manifest(*inputs, {"crop": "rye"}).run_hash
                      for _ in range(50)}
        assert len(run_hashes) == 1
        for path in inputs:
            with open(path, "rb") as handle:
                assert counting.inputs.count(handle.read()) == 1, path

    def test_memo_stays_within_its_bound(self, tmp_path):
        for i in range(reports._DIGESTS_MAX + 5):
            path = tmp_path / f"farm{i}.cg"
            path.write_text(f"# {i}\n", encoding="utf-8")
            manifest = build_manifest(str(path), None, {})
            assert len(reports._DIGESTS) <= reports._DIGESTS_MAX
            assert reports._DIGESTS[str(path)][1] == manifest.farm_sha256


class TestAssessmentFiles:
    def test_csv_set(self, twg_assessment, manifest, tmp_path):
        written = write_assessment(twg_assessment, manifest, str(tmp_path))
        names = [p.rsplit("/", 1)[-1] for p in written]
        assert names == ["balance.csv", "gwp_phases.csv", "energy_phases.csv",
                         "result.json"]
        for path in written[:3]:
            lines = read(path).splitlines()
            assert lines[0] == f"# run {manifest.run_hash}"

    def test_balance_rows(self, twg_assessment, manifest, tmp_path):
        write_assessment(twg_assessment, manifest, str(tmp_path))
        lines = read(tmp_path / "balance.csv").splitlines()
        assert lines[1] == "concept,eur_per_ha"
        rows = dict(line.split(",") for line in lines[2:])
        assert rows["total_cost"] == "249.88"
        assert rows["grain_sales"] == "0.00"
        assert list(rows)[-1] == "balance_with_cap"

    def test_gwp_rows(self, twg_assessment, manifest, tmp_path):
        write_assessment(twg_assessment, manifest, str(tmp_path))
        lines = read(tmp_path / "gwp_phases.csv").splitlines()
        assert lines[1] == "phase,mg_co2e_per_ha_y,share_pct"
        assert len(lines) == 10  # comment, header, 6 phases, two totals
        soc_row = [line for line in lines if line.startswith("soc_change,")]
        assert soc_row == ["soc_change,-2.805,"]  # negative, no share
        assert lines[-1].startswith("net_total,-1.942,")

    def test_energy_rows(self, twg_assessment, manifest, tmp_path):
        write_assessment(twg_assessment, manifest, str(tmp_path))
        lines = read(tmp_path / "energy_phases.csv").splitlines()
        # emission phases carry no energy and no share
        assert "field_emissions,0.0,0.0,0.0," in lines
        assert "soc_change,0.0,0.0,0.0," in lines
        assert lines[-1].startswith("total,")
        assert lines[-1].endswith(",100.0")

    def test_json_mirrors_full_precision(self, twg_assessment, manifest,
                                         tmp_path):
        write_assessment(twg_assessment, manifest, str(tmp_path))
        payload = json.loads(read(tmp_path / "result.json"))
        assert payload["manifest"]["run_hash"] == manifest.run_hash
        eco = payload["economics_eur_ha"]
        assert eco["balance_with_cap"] == \
            twg_assessment.economics.balance_with_cap  # unrounded
        assert payload["gwp"]["net_total_mg_co2e"] == \
            twg_assessment.gwp.net_total
        assert payload["crop"] == "tall_wheatgrass"

    def test_json_only_format(self, twg_assessment, manifest, tmp_path):
        written = write_assessment(twg_assessment, manifest, str(tmp_path),
                                   fmt="json")
        assert [p.rsplit("/", 1)[-1] for p in written] == ["result.json"]

    def test_byte_identical_across_runs(self, farm_model, factor_db,
                                        manifest, tmp_path):
        for sub in ("one", "two"):
            result = assess_crop(farm_model, factor_db, "tall_wheatgrass")
            write_assessment(result, manifest, str(tmp_path / sub))
        for name in ("balance.csv", "gwp_phases.csv", "energy_phases.csv",
                     "result.json"):
            first = (tmp_path / "one" / name).read_bytes()
            second = (tmp_path / "two" / name).read_bytes()
            assert first == second, name
        assert first.endswith(b"\n")
        assert b"\r" not in first


class TestRewriteInPlace:
    """Existing report files are overwritten, never truncated to zero."""

    NAMES = ("balance.csv", "gwp_phases.csv", "energy_phases.csv",
             "result.json")

    @pytest.mark.parametrize("stale", [b"x" * 20000, b"old\n"],
                             ids=["longer", "shorter"])
    def test_stale_file_ends_as_a_fresh_write(self, twg_assessment, manifest,
                                              tmp_path, stale):
        write_assessment(twg_assessment, manifest, str(tmp_path / "fresh"))
        (tmp_path / "out").mkdir()
        for name in self.NAMES:
            (tmp_path / "out" / name).write_bytes(stale)
        write_assessment(twg_assessment, manifest, str(tmp_path / "out"))
        for name in self.NAMES:
            assert (tmp_path / "out" / name).read_bytes() \
                == (tmp_path / "fresh" / name).read_bytes(), name

    def test_rewrite_keeps_inode_and_mode(self, twg_assessment, manifest,
                                          tmp_path):
        path = tmp_path / "result.json"
        path.write_bytes(b"{}")
        os.chmod(path, 0o640)
        before = os.stat(path)
        write_assessment(twg_assessment, manifest, str(tmp_path), fmt="json")
        after = os.stat(path)
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert after.st_size > before.st_size

    def test_no_report_is_opened_with_o_trunc(self, twg_assessment, manifest,
                                              tmp_path, monkeypatch):
        # truncating to zero (or renaming over a file) makes ext4 flush the
        # file's blocks on close; see the reports module docstring
        opened = []
        real_open = os.open

        def recording_open(path, flags, *args, **kwargs):
            opened.append((os.path.basename(path), flags & os.O_TRUNC))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(reports.os, "open", recording_open)
        for _ in range(2):  # create, then rewrite
            write_assessment(twg_assessment, manifest, str(tmp_path))
        # each report opened once by its own name: no io.open, no temp file
        assert opened == [(name, 0) for name in self.NAMES] * 2


class TestComparisonFiles:
    def test_csv_layout(self, farm_model, factor_db, manifest, tmp_path):
        comparison = compare_pair(farm_model, factor_db)
        write_comparison(comparison, manifest, str(tmp_path))
        lines = read(tmp_path / "comparison.csv").splitlines()
        assert lines[1] == "metric,tall_wheatgrass,rye,difference"
        margin = [line for line in lines
                  if line.startswith("balance_with_cap_eur_ha,")]
        assert margin == ["balance_with_cap_eur_ha,156.19,145.13,11.05"]
        assert "verdict_profit_margin,tall_wheatgrass,," in lines

    def test_json_payload(self, farm_model, factor_db, manifest, tmp_path):
        comparison = compare_pair(farm_model, factor_db)
        write_comparison(comparison, manifest, str(tmp_path))
        payload = json.loads(read(tmp_path / "comparison.json"))
        assert payload["crops"] == ["tall_wheatgrass", "rye"]
        assert payload["margin_difference_eur_ha"] == \
            pytest.approx(11.0519)
        assert payload["verdicts"]["net_gwp"] == "tall_wheatgrass"

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_value_writes_nothing(self, farm_model, factor_db,
                                             manifest, tmp_path, value):
        comparison = compare_pair(farm_model, factor_db)._replace(
            margin_difference_eur_ha=value)
        with pytest.raises(CropgateError, match="comparison.json would hold"):
            write_comparison(comparison, manifest, str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()


class TestSweepFiles:
    def test_csv_layout(self, farm_model, manifest, tmp_path):
        points = marginal_share_sweep(farm_model, [40.0 / 302.0, 0.5])
        write_sweep(points, farm_model.marginal_pair, manifest, str(tmp_path))
        lines = read(tmp_path / "sweep.csv").splitlines()
        assert lines[1] == ("share,income_tall_wheatgrass,income_rye,"
                            "relative_difference_pct")
        assert lines[2].startswith("0.132450,")
        assert lines[2].endswith(",0.5")
        assert lines[3].startswith("0.500000,")
        assert lines[3].endswith(",2.3")

    def test_json_payload(self, farm_model, manifest, tmp_path):
        points = marginal_share_sweep(farm_model, [0.25])
        write_sweep(points, farm_model.marginal_pair, manifest, str(tmp_path))
        payload = json.loads(read(tmp_path / "sweep.json"))
        point = payload["points"][0]
        assert point["share"] == 0.25
        assert set(point) == {"share", "income_tall_wheatgrass", "income_rye",
                              "relative_difference"}



def _table(path) -> dict[str, list[str]]:
    """The rows of a CSV report by their first cell, header included; the
    JSON file sorts its keys, so only the cells are compared, not the row
    order, which the layout tests pin."""
    rows = [line.split(",") for line in read(path).splitlines()[1:]]
    table = {row[0]: row[1:] for row in rows}
    assert len(table) == len(rows), path
    return table


def _share_cells(shares: dict) -> dict:
    return {phase: round_then_format(share, 1) for phase, share in
            shares.items()}


class TestCsvCellsFormatJsonValues:
    """Each CSV cell is the fixed-point text of the JSON value it shows, and
    each totals row the text of the JSON total: no table computes a figure
    of its own, except an energy phase's total, the sum of its two JSON
    values."""

    def test_every_bundled_crop(self, farm_model, factor_db, manifest,
                                tmp_path):
        for name in farm_model.crops:
            out = tmp_path / name
            write_assessment(assess_crop(farm_model, factor_db, name),
                             manifest, str(out))
            payload = json.loads(read(out / "result.json"))
            assert _table(out / "balance.csv") == {
                "concept": ["eur_per_ha"],
                **{concept: [round_then_format(value, 2)] for concept, value
                   in payload["economics_eur_ha"].items()}}, name

            gwp = payload["gwp"]
            shares = _share_cells(gwp["shares_pct"])
            assert _table(out / "gwp_phases.csv") == {
                "phase": ["mg_co2e_per_ha_y", "share_pct"],
                **{phase: [round_then_format(value, 3), shares.get(phase, "")]
                   for phase, value in gwp["by_phase_mg_co2e"].items()},
                "positive_total": [
                    round_then_format(gwp["positive_total_mg_co2e"], 3),
                    "100.0" if shares else ""],
                "net_total": [round_then_format(gwp["net_total_mg_co2e"], 3),
                              ""]}, name

            energy = payload["energy"]
            shares = _share_cells(energy["shares_pct"])
            renewable = energy["renewable_by_phase_gj"]
            nonrenewable = energy["nonrenewable_by_phase_gj"]
            assert _table(out / "energy_phases.csv") == {
                "phase": ["renewable_gj_per_ha_y", "nonrenewable_gj_per_ha_y",
                          "total_gj_per_ha_y", "share_pct"],
                **{phase: [round_then_format(renewable[phase], 1),
                           round_then_format(nonrenewable[phase], 1),
                           round_then_format(renewable[phase]
                                             + nonrenewable[phase], 1),
                           shares.get(phase, "")] for phase in renewable},
                "total": [round_then_format(energy["renewable_total_gj"], 1),
                          round_then_format(energy["nonrenewable_total_gj"], 1),
                          round_then_format(energy["total_gj"], 1),
                          "100.0" if shares else ""]}, name

    def test_compare(self, farm_model, factor_db, manifest, tmp_path):
        write_comparison(compare_pair(farm_model, factor_db), manifest,
                         str(tmp_path))
        payload = json.loads(read(tmp_path / "comparison.json"))
        first, second = payload["crops"]
        decimals = {"_eur_ha": 2, "_eur_y": 2, "_mg_co2e": 3, "_gj": 1}
        expected = {"metric": [first, second, "difference"]}
        for metric, values in payload["metrics"].items():
            places, = (places for suffix, places in decimals.items()
                       if metric.endswith(suffix))
            expected[metric] = [round_then_format(values[key], places)
                                for key in (first, second, "difference")]
        for metric, winner in payload["verdicts"].items():
            expected[f"verdict_{metric}"] = [winner, "", ""]
        assert _table(tmp_path / "comparison.csv") == expected

    def test_sweep(self, farm_model, manifest, tmp_path):
        first, second = farm_model.marginal_pair
        write_sweep(marginal_share_sweep(farm_model, [i / 10 for i in range(11)]),
                    farm_model.marginal_pair, manifest, str(tmp_path))
        payload = json.loads(read(tmp_path / "sweep.json"))
        assert _table(tmp_path / "sweep.csv") == {
            "share": [f"income_{first}", f"income_{second}",
                      "relative_difference_pct"],
            **{f"{point['share']:.6f}": [
                round_then_format(point[f"income_{first}"], 2),
                round_then_format(point[f"income_{second}"], 2),
                round_then_format(point["relative_difference"] * 100.0, 1)]
               for point in payload["points"]}}


# ---------------------------------------------------------------------- #
#  pinned report bytes
# ---------------------------------------------------------------------- #

# (output directory, arguments after --farm and --out) on the bundled farm
PINNED_RUNS = [
    *[(crop, ["assess", "--crop", crop]) for crop in (
        "wheat", "barley", "triticale", "sunflower", "fallow", "rye",
        "tall_wheatgrass")],
    ("tall_wheatgrass_json",
     ["assess", "--crop", "tall_wheatgrass", "--format", "json"]),
    ("tall_wheatgrass_horizon_7_cutoff",
     ["assess", "--crop", "tall_wheatgrass", "--horizon", "7",
      "--cutoff-missing"]),
    ("compare", ["compare"]),
    ("compare_json", ["compare", "--format", "json"]),
    ("sweep", ["sweep", "--range", "0.1:0.9:0.1"]),
]

PINNED_SHA256 = {
    "wheat/balance.csv":
        "93af773d723cc8aacc07cd8b57febac10b6cce646e43bf2174cfff28ca12e6e2",
    "wheat/energy_phases.csv":
        "18897e5b360fac00531492adbbee62e85006e4298ce4d4d50abd04b9a61adce8",
    "wheat/gwp_phases.csv":
        "60ae1c0b8d18c273103318ebf304884427f7420edc556be6a535562b446aad07",
    "wheat/result.json":
        "5f2122aa6c8df9f6a0a40d2a2ee44410f47b72d92c6f8787a509f459c1217e0e",
    "barley/balance.csv":
        "9a4e016fd7cbe8ae9fdc80d944d1cd739952635cd273cf87fb2567b1be94d01a",
    "barley/energy_phases.csv":
        "13b3ca905b9fbc23376a05444bd1aedfe31760de3b690915d43a31fff8ffe879",
    "barley/gwp_phases.csv":
        "5b01d66017ab23900ba467af8cc277fabed257c8a48cc4c11bad284d1c0b92d2",
    "barley/result.json":
        "02f453048f02230a182f0b9098aa457be5bd5597a2da770055dff12be165a03a",
    "triticale/balance.csv":
        "2c67d5debed4a579f4a6dca8563464f650e17ff9a5ddb7818c099f1b998be154",
    "triticale/energy_phases.csv":
        "19e8e027a883cb9a2a6c7a987ed8dfae00f6c56433168bdaee192994bfe87b10",
    "triticale/gwp_phases.csv":
        "113c1153ea5b787d8c9d2b8713885b0f5baae44aa702aeaab2c5a7bf6bdd904a",
    "triticale/result.json":
        "13b0f015ada017fb0ed449771fb6ca438354476261f29f11bdf18aafd50726df",
    "sunflower/balance.csv":
        "ce00f037710b1376af0d0085b7eca03732b05a7d61905f9fbe80819fa6df8a47",
    "sunflower/energy_phases.csv":
        "f0fdf51f682bab7898d1f91fd7484adc8955bf3603d8bcd442804727bd9a54d3",
    "sunflower/gwp_phases.csv":
        "77c5106d831d0ba1516025b34079be96dc8eff9489dc8dfec1a9d2b080299688",
    "sunflower/result.json":
        "7dd3ae51213c46875aa96d092993a6b6d3fe2ce66ef8b548a4c29d663ea5362a",
    "fallow/balance.csv":
        "acabcfc5c13c0a413e48da694a3dafdc4205a254918e9029c4b66b1be63b90bb",
    "fallow/energy_phases.csv":
        "8b85b46658488acdcaa30bbc02545c496b9c9351c90f04b871ae47efbebd517e",
    "fallow/gwp_phases.csv":
        "230394606f2c5530ca60504a6d60fa2069d2871f6bd18da7fbea0bd2093aaa80",
    "fallow/result.json":
        "f7b0f8eec2ccc57cf5b49d51adad95a7343d8e1f745965562d4d83cb6a899877",
    "rye/balance.csv":
        "acf78007e786fb5df1ab363d9426c33eed92ba8b7c1ea6ab7cbfff50b80e7fd8",
    "rye/energy_phases.csv":
        "4b43765085a7ba975c6444535575d21e7392da3293f84449d29f9cbadfd76081",
    "rye/gwp_phases.csv":
        "5fcf52682a37f1e6b8a1fa558766983fffc1cf787c157a186fcd665a36bcd408",
    "rye/result.json":
        "cfc07d4e199d9e300c80641058e659be22d4638e25f65a9d3d8f49f7d65f9134",
    "tall_wheatgrass/balance.csv":
        "6093e7e984f1c482f0f549303215ec332d3f47698eb2b816f75183bed4544fbb",
    "tall_wheatgrass/energy_phases.csv":
        "c8bc1cc0746928843e2c7178c111bba3e9bc1dfe68cb0fbd8ab8b176ae73170e",
    "tall_wheatgrass/gwp_phases.csv":
        "08bf5c91762e71bc5e8abc3cbb1309018b848865ab2db286f47e50e92aaf238b",
    "tall_wheatgrass/result.json":
        "6a62714f7e775453db931ed0c261649d33ec4aee74fe2279a9aae995804befd1",
    "tall_wheatgrass_json/result.json":
        "d9bc1af81634b0357c14f40f29cf09e03cdba135ca9904db7f201124533709a4",
    "tall_wheatgrass_horizon_7_cutoff/balance.csv":
        "6df9d1d585e37ab0eb3dfecd0803535fc3b4cab503b8bbd7d8c358cb85c9183b",
    "tall_wheatgrass_horizon_7_cutoff/energy_phases.csv":
        "a641f87d016df31ccd1e7888db8a276b1f314810fbb0eb11a30eca733e8046bf",
    "tall_wheatgrass_horizon_7_cutoff/gwp_phases.csv":
        "6fca4d52af6a76750741c6398f1d2a733dfecdc87776e291fda52550b5262019",
    "tall_wheatgrass_horizon_7_cutoff/result.json":
        "229b336be90d6c2e1198ed995ffc0bc93be5d69d46ddd89d5554f414e4d1c0de",
    "compare/comparison.csv":
        "a1a1dbc42c1f8901667989adce107b2d56075a7d6d59b207e29daaa44db293ad",
    "compare/comparison.json":
        "2edf4222c66cf22e46e68a24b91dce600874a3846ae9e4dfff71a60d8e698b51",
    "compare_json/comparison.json":
        "faeda0d9092ffc1402e81645079eda32602fd25c66a26bd034b10b9742bf1220",
    "sweep/sweep.csv":
        "b65887d30b3d16df872e6a8e78191600bfd31a879eee03724cdafd0b6355c9ab",
    "sweep/sweep.json":
        "d8ac258ee9b1982dfd9e0405b969d9b384174be38cfecf44da9141f66cb9efe0",
}


def test_report_bytes_are_pinned(farm_path, tmp_path, monkeypatch):
    """Every report file the commands write has the bytes it had when the
    digests were recorded; a report change must update them here."""
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    digests = {}
    for name, argv in PINNED_RUNS:
        out_dir = tmp_path / name
        assert main([*argv, "--farm", farm_path, "--out", str(out_dir)]) == 0
        for path in sorted(out_dir.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    assert digests == PINNED_SHA256


def test_engine_reprs_are_pinned():
    """Every assess_crop and compare_pair repr of the bundled farm and of
    the generated holdings hashes to the digest in
    .github/engine-reprs.sha256, which CI also diffs on every Python."""
    import engine_digest
    pinned = os.path.join(engine_digest.ROOT, ".github", "engine-reprs.sha256")
    with open(pinned, encoding="utf-8") as handle:
        expected = handle.read().splitlines()
    assert [f"{engine_digest.digest(model, db)}  {name}"
            for name, model, db in engine_digest.holdings()] == expected
