"""The three workloads: one closed-loop client, ops run one after another.

* ``cli_soria``: cold ``python -m cropgate.cli`` processes on the bundled
  holding; interpreter start and package import dominate.
* ``farm_scaled``: a seeded 120-crop holding loaded, assessed, compared,
  swept and written to reports in process; parsing, inventory and report
  writing all weigh in.
* ``seed_chain``: 24 farm-multiplied crops with dose/yield ratios in
  [0.5, 0.99], assessed in process; the seed chain dominates.

Each workload exposes ``setup()`` (one set-up, timed by the caller), ``op()``
(one timed op) and ``check()`` (the untimed output check of the last op).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time

import checks
import gen

SWEEP_SHARES = [i / 100 for i in range(101)]
BUNDLED_TOTAL_AREA_HA = 302.0  # [farm] total_area of farm_soria.cg


def import_cropgate(root: str):
    """Import the package afresh from the working tree's ``src``.

    Earlier copies are dropped from ``sys.modules`` so that every set-up
    pays the package's own import; the standard library stays cached.
    """
    src = os.path.join(root, "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules
                 if n == "cropgate" or n.startswith("cropgate.")]:
        del sys.modules[name]
    importlib.import_module("cropgate.cli")
    return importlib.import_module("cropgate")


def read_tree(directory: str) -> dict[str, bytes]:
    files = {}
    for base, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, directory)] = fh.read()
    return files


class Calibration:
    """Fixed stdlib work, timed right before each in-process op.

    This machine's speed drifts by tens of percent within a minute, most for
    allocation-heavy Python. An op's wall time divided by this task's, timed
    back to back, cancels most of the drift: a JSON round trip of a fixed
    document and, for workloads that write reports, the text written to
    ``files`` small files, as the op does.
    """

    # about this task's median wall time on the 2-vCPU machine the benchmark
    # was built on; it turns set-up time over calibration back into seconds
    reference_s = 0.030

    def __init__(self, directory: str, files: int):
        rng = random.Random(0)
        self.doc = json.dumps([{"id": i, "name": f"item{i}",
                                "values": [rng.random() for _ in range(5)]}
                               for i in range(3000)])
        self.directory, self.files = directory, files
        os.makedirs(directory, exist_ok=True)

    def __call__(self) -> float:
        start = time.perf_counter()
        text = json.dumps(json.loads(self.doc))
        for i in range(self.files):
            with open(os.path.join(self.directory, f"{i}.json"), "w",
                      encoding="utf-8") as fh:
                fh.write(text[i * 1000:(i + 1) * 1000])
        return time.perf_counter() - start


# ---------------------------------------------------------------------- #
#  in-process workloads
# ---------------------------------------------------------------------- #

class FarmScaled:
    """Load, assess every crop, compare the pair, sweep, write reports."""

    name = "farm_scaled"
    calibration_files = 40

    def __init__(self, root: str, tmp: str, seed: int,
                 n_crops: int = gen.FARM_SCALED_N):
        self.root, self.tmp, self.seed, self.n_crops = root, tmp, seed, n_crops
        self.reference: dict[str, bytes] = {}

    def setup(self) -> None:
        # repeated set-ups rewrite the same files, as the ops do: creating a
        # fresh tree each time made set-up times follow the disk's backlog
        rep_dir = os.path.join(self.tmp, f"{self.name}-{self.n_crops}")
        farm, factors, self.sizes = gen.farm_scaled(self.root, self.seed,
                                                    self.n_crops)
        self.farm_path = gen.write_inputs(os.path.join(rep_dir, "inputs"),
                                          farm, factors)
        self.out_dir = os.path.join(rep_dir, "reports")
        self.cg = import_cropgate(self.root)
        self.op()

    def after_setup(self) -> None:
        """Untimed: validate the generated farm, capture reference bytes."""
        with open(self.farm_path, encoding="utf-8") as fh:
            doc = self.cg.sections.parse_document(fh.read())
        model, report = self.cg.farmspec.build_farm_model(doc)
        if model is None or report.errors:
            raise RuntimeError(f"generated farm is invalid: {report.render()}")
        self.reference = read_tree(self.out_dir)

    def op(self) -> int:
        assess, reports = self.cg.assess, self.cg.reports
        model = assess.load_farm(self.farm_path)
        factors_path = assess.resolve_factors_path(self.farm_path, model)
        db = assess.load_factors(factors_path)
        results = [assess.assess_crop(model, db, name) for name in model.crops]
        comparison = assess.compare_pair(model, db)
        sweep = self.cg.economics.marginal_share_sweep(model, SWEEP_SHARES)
        written = []
        for result in results:
            manifest = reports.build_manifest(
                self.farm_path, factors_path,
                {"command": "assess", "format": "csv",
                 "cutoff_missing": False, "crop": result.crop_name})
            written += reports.write_assessment(
                result, manifest, os.path.join(self.out_dir, result.crop_name),
                "csv")
        self.last = (model, results, comparison, sweep, written)
        return len(results) + 2

    def check(self) -> list[str]:
        model, results, comparison, sweep, written = self.last
        problems = []
        for result in results + [comparison.first, comparison.second]:
            problems += checks.check_identities(result)
        for result in (comparison.first, comparison.second):
            problems += checks.check_pinned(result.crop_name,
                                            assessment_values(result))
        problems += checks.check_sweep(
            [(p.share, p.income_first, p.income_second) for p in sweep],
            model.total_area_ha)
        if len(written) != 4 * len(results):
            problems.append(f"{len(written)} report files written")
        problems += checks.check_bytes(read_tree(self.out_dir), self.reference)
        return problems


class SeedChain:
    """assess_crop on 24 farm-multiplied crops; nothing is written."""

    name = "seed_chain"
    calibration_files = 0

    def __init__(self, root: str, tmp: str, seed: int,
                 n_crops: int = gen.SEED_CHAIN_N):
        self.root, self.tmp, self.seed, self.n_crops = root, tmp, seed, n_crops

    def setup(self) -> None:
        rep_dir = os.path.join(self.tmp, self.name)
        farm, factors, self.sizes = gen.seed_chain(self.root, self.seed,
                                                   self.n_crops)
        farm_path = gen.write_inputs(rep_dir, farm, factors)
        self.cg = import_cropgate(self.root)
        assess = self.cg.assess
        self.model = assess.load_farm(farm_path)
        self.db = assess.load_factors(
            assess.resolve_factors_path(farm_path, self.model))
        self.crops = [name for name in self.model.crops
                      if name not in gen.PAIR]
        self.op()

    def after_setup(self) -> None:
        """Untimed: the closed-form reference x = (c/Y + p) / (1 - r)."""
        self.reference = {}
        for name in self.crops:
            crop = self.model.crops[name]
            one_level = self.cg.inventory.build_lci(crop, self.model, self.db,
                                                    seed_one_level=True)
            ratio = crop.sowing_dose_mg_ha / crop.seed_yield_mg_ha
            self.reference[name] = checks.seed_chain_reference(one_level, ratio)

    def op(self) -> int:
        assess = self.cg.assess
        self.last = [assess.assess_crop(self.model, self.db, name)
                     for name in self.crops]
        return len(self.last)

    def check(self) -> list[str]:
        problems = []
        for result in self.last:
            problems += checks.check_seed_chain(result.inventory,
                                                self.reference[result.crop_name])
            problems += checks.check_identities(result)
        return problems


def assessment_values(result) -> dict[str, float]:
    return {"positive_gwp": result.gwp.positive_total,
            "net_gwp": result.gwp.net_total,
            "energy_total": result.energy.total,
            "balance_with_cap": result.economics.balance_with_cap}


# ---------------------------------------------------------------------- #
#  cold command-line processes
# ---------------------------------------------------------------------- #

# (label, arguments, writes reports, crops assessed)
CLI_SESSION = (
    ("validate", ["validate"], False, 0),
    ("assess_rye", ["assess", "--crop", "rye"], True, 1),
    ("assess_tall_wheatgrass", ["assess", "--crop", "tall_wheatgrass"], True, 1),
    ("compare", ["compare"], True, 2),
    ("sweep", ["sweep", "--range", "0.1:0.9:0.1"], True, 0),
)
_IMPORTTIME_RE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")
IMPORT_PROBES = ("cropgate", "importlib.resources", "cropgate.farmspec",
                 "cropgate.reports")


class Spawner:
    """Runs child interpreters with the working tree's ``src`` on the path."""

    # a bare start's median wall time on the 2-vCPU machine the benchmark
    # was built on, the cli_soria counterpart of Calibration.reference_s
    bare_reference_s = 0.060

    def __init__(self, root: str, tmp: str):
        self.root = root
        self.log_dir = os.path.join(tmp, "logs")
        os.makedirs(self.log_dir, exist_ok=True)
        self.env = dict(os.environ)
        self.env.pop("SOURCE_DATE_EPOCH", None)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH")
                     else []))

    def run(self, args: list[str]) -> tuple[float, int, int, str, str]:
        """(wall s, exit code, peak RSS kB, stdout, stderr) of one child."""
        out_path = os.path.join(self.log_dir, "stdout")
        err_path = os.path.join(self.log_dir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + args, stdout=out,
                                    stderr=err, env=self.env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return wall, proc.returncode, usage.ru_maxrss, stdout, stderr

    def bare(self) -> float:
        wall, code, _, _, err = self.run(["-c", "pass"])
        if code:
            raise RuntimeError(f"bare interpreter failed: {err.strip()}")
        return wall

    def import_probe(self) -> tuple[float, dict[str, int]]:
        """Wall time of ``import cropgate.cli`` and -X importtime figures."""
        wall, code, _, _, err = self.run(["-c", "import cropgate.cli"])
        if code:
            raise RuntimeError(f"import cropgate.cli failed: {err.strip()}")
        _, code, _, _, err = self.run(["-X", "importtime", "-c",
                                       "import cropgate.cli"])
        if code:
            raise RuntimeError(f"-X importtime failed: {err.strip()}")
        cumulative = {match.group(2): int(match.group(1))
                      for match in _IMPORTTIME_RE.finditer(err)}
        return wall, {name: cumulative.get(name, 0) for name in IMPORT_PROBES}


class CliSoria:
    """One op is one command of the session; bare starts interleave.

    The inputs are the bundled files, so the seed only names the run.
    """

    name = "cli_soria"

    def __init__(self, root: str, tmp: str):
        self.spawner = Spawner(root, tmp)
        self.farm_path = os.path.join(root, gen.DATA_DIR, gen.BUNDLED_FARM)
        self.out_root = os.path.join(tmp, "cli")
        self.reference: dict[str, dict[str, bytes]] = {}
        self.sizes = {"farm": gen.BUNDLED_FARM, "commands": len(CLI_SESSION)}

    def argv(self, label: str, args: list[str], writes: bool) -> list[str]:
        argv = args + ["--farm", self.farm_path]
        if writes:
            argv += ["--out", os.path.join(self.out_root, label)]
        return argv

    def session(self, record=None) -> None:
        """Run every command once as a child. With ``record``, a bare
        interpreter start runs before each command and ``record(label, wall,
        rss, problems, bare)`` receives each result."""
        for label, args, writes, crops in CLI_SESSION:
            bare = self.spawner.bare() if record is not None else None
            started = time.time_ns()
            wall, code, rss, stdout, stderr = self.spawner.run(
                ["-m", "cropgate.cli"] + self.argv(label, args, writes))
            problems = ([f"{label} exited {code}: {stderr.strip()[-200:]}"]
                        if code else self.check(label, stdout, started))
            if record is not None:
                record(label, wall, rss, problems, bare)

    def in_process_session(self, cli) -> list[str]:
        """Every command through ``cli.main`` in this process."""
        problems = []
        for label, args, writes, crops in CLI_SESSION:
            started = time.time_ns()
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(self.argv(label, args, writes))
            problems += ([f"{label} returned {code}: {stderr.getvalue()[-200:]}"]
                         if code else
                         self.check(label, stdout.getvalue(), started))
        return problems

    def capture_reference(self) -> None:
        self.reference = {label: read_tree(os.path.join(self.out_root, label))
                          for label, _, writes, _ in CLI_SESSION if writes}

    def check(self, label: str, stdout: str, started_ns: int) -> list[str]:
        if label == "validate":
            last = stdout.strip().splitlines()[-1:] or [""]
            return ([] if last[0] == "ok: 7 crops on 302 ha"
                    else [f"validate printed {last[0]!r}"])
        directory = os.path.join(self.out_root, label)
        files = read_tree(directory)
        problems = [f"{label}: {name} not rewritten" for name in files
                    if os.stat(os.path.join(directory, name)).st_mtime_ns
                    < started_ns - 50_000_000]
        try:
            problems += self._check_values(label, files)
        except (ValueError, KeyError) as exc:  # unreadable or incomplete JSON
            problems.append(f"{label}: report unreadable: {exc!r}")
        if self.reference:
            problems += checks.check_bytes(files, self.reference[label])
        return problems

    @staticmethod
    def _check_values(label: str, files: dict[str, bytes]) -> list[str]:
        problems = []
        if label.startswith("assess_"):
            crop = label[len("assess_"):]
            payload = json.loads(files.get("result.json", b"{}"))
            problems += checks.check_pinned(crop, _result_json_values(payload))
        elif label == "compare":
            metrics = json.loads(files.get("comparison.json", b"{}")).get(
                "metrics", {})
            for crop in checks.PINNED:
                problems += checks.check_pinned(crop, {
                    key: metrics.get(name, {}).get(crop)
                    for key, name in (("positive_gwp", "positive_gwp_mg_co2e"),
                                      ("net_gwp", "net_gwp_mg_co2e"),
                                      ("energy_total", "primary_energy_gj"),
                                      ("balance_with_cap",
                                       "balance_with_cap_eur_ha"))})
        elif label == "sweep":
            points = json.loads(files.get("sweep.json", b"{}")).get("points", [])
            if len(points) != 9:
                problems.append(f"sweep wrote {len(points)} points, expected 9")
            problems += checks.check_sweep(
                [(p["share"], p["income_tall_wheatgrass"], p["income_rye"])
                 for p in points], BUNDLED_TOTAL_AREA_HA)
        return problems


def _result_json_values(payload: dict) -> dict:
    gwp = payload.get("gwp", {})
    return {"positive_gwp": gwp.get("positive_total_mg_co2e"),
            "net_gwp": gwp.get("net_total_mg_co2e"),
            "energy_total": payload.get("energy", {}).get("total_gj"),
            "balance_with_cap": payload.get("economics_eur_ha", {}).get(
                "balance_with_cap")}
