#!/usr/bin/env python3
"""Benchmark for cropgate: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 bench/run.py --workload farm_scaled --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). The line before it holds the run's details (seed, input
sizes, tail percentile, failures), which also go to
``.bench_out/<workload>-seed<seed>-trace<trace>.json`` with the spans of a
traced run beside it. ``--workload all`` runs each workload in its own
process and prints one table row per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPS = 5
MIN_OPS = 3

# (name, unit, better, bound): the end-to-end metrics of every workload.
# Wall times on a shared 2-core machine drift by tens of percent within a
# minute, so an op's cost is its wall time divided by that of a fixed task
# timed right before it: a bare interpreter start for cli_soria, a stdlib
# JSON round trip (plus small file writes where the op writes) in process.
# Raw milliseconds and crops/s go to the info line.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_rel", "ratio", "lower", 0.15),
    ("op_tail_rel", "ratio", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

SCALED = ("sections.parse_document", "farmspec.build_farm_model",
          "factors.load_factor_db", "inventory.build_lci",
          "impact.characterize_gwp", "reports.write_assessment")

# (name, unit, better): the per-layer metrics of a traced run; a metric of
# a layer the workload does not run reads 0
PER_LAYER = (
    ("cli.python_start_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.validate_ms", "ms", "lower"),
    ("cli.assess_ms", "ms", "lower"),
    ("cli.compare_ms", "ms", "lower"),
    ("cli.sweep_ms", "ms", "lower"),
    ("cli.start_import_share_pct", "%", "lower"),
    ("cli.import.cropgate_us", "us", "lower"),
    ("cli.import.importlib_resources_us", "us", "lower"),
    ("cli.import.cropgate_farmspec_us", "us", "lower"),
    ("cli.import.cropgate_reports_us", "us", "lower"),
    ("sections.parse_document.ms", "ms", "lower"),
    ("sections.parse_document.calls", "count", "lower"),
    ("sections.lines", "count", "lower"),
    ("units.parse_unit.ms", "ms", "lower"),
    ("units.parse_unit.calls", "count", "lower"),
    ("units.quantity_ops", "count", "lower"),
    ("farmspec.build_farm_model.ms", "ms", "lower"),
    ("farmspec.validate_model.ms", "ms", "lower"),
    ("farmspec.diagnostics", "count", "lower"),
    ("factors.load_factor_db.ms", "ms", "lower"),
    ("factors.records", "count", "lower"),
    ("assess.load_farm.ms", "ms", "lower"),
    ("assess.load_factors.ms", "ms", "lower"),
    ("assess.assess_crop.ms", "ms", "lower"),
    ("inventory.seed_inventory.ms", "ms", "lower"),
    ("inventory.seed_inventory.calls", "count", "lower"),
    ("inventory.build_lci.ms", "ms", "lower"),
    ("inventory.flows", "count", "lower"),
    ("impact.characterize_gwp.ms", "ms", "lower"),
    ("impact.characterize_energy.ms", "ms", "lower"),
    ("impact.phase_shares.ms", "ms", "lower"),
    ("economics.crop_balance.ms", "ms", "lower"),
    ("economics.crop_balance.calls", "count", "lower"),
    ("economics.farm_income.ms", "ms", "lower"),
    ("economics.marginal_share_sweep.ms", "ms", "lower"),
    ("reports.build_manifest.ms", "ms", "lower"),
    ("reports.write_assessment.ms", "ms", "lower"),
    ("reports.write_comparison.ms", "ms", "lower"),
    ("reports.write_sweep.ms", "ms", "lower"),
    ("reports.bytes_written", "bytes", "lower"),
    *((f"{module}.errors", "count", "lower") for module in spans.MODULES),
    *((f"{module}.share_pct", "%", "lower") for module in spans.MODULES),
    *((f"{name}.scale_4x", "ratio", "lower") for name in SCALED),
    ("trace.overhead_pct", "%", "lower"),
)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond) at the highest percentile that has at
    least ten ops beyond it; the maximum when there are too few ops."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n, 10


class Run:
    """Ops, failures and timings of one benchmark process."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.walls: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.crops: dict[str, int] = {}  # crops one op of each kind assesses

    def record(self, wall: float, crops: int, problems: list[str],
               kind: str = "op") -> None:
        self.attempted += 1
        self.walls.append(wall)
        self.by_kind.setdefault(kind, []).append(wall)
        if problems:
            self.failures.append(problems[0])
        else:
            self.crops[kind] = crops

    def crops_per_s(self) -> float:
        """Crops assessed per second at each kind of op's median wall time;
        medians keep a few slow ops from moving it."""
        return sum(self.crops.values()) / sum(
            statistics.median(self.by_kind[kind]) for kind in self.crops)

    def loop(self, workload, seconds: float, calibrate, tracer=None,
             min_ops: int = MIN_OPS) -> tuple[list[float], list[float]]:
        """Closed loop of in-process ops, each right after a ``calibrate()``
        run; returns this loop's op and calibration wall times."""
        walls, cals = [], []
        deadline = time.perf_counter() + seconds
        while len(walls) < min_ops or time.perf_counter() < deadline:
            cals.append(calibrate())
            if tracer is not None:
                tracer.begin_op()
            start = time.perf_counter()
            try:
                crops = workload.op()
                problems = None
            except Exception as exc:  # an op that raises is a failed op
                crops, problems = 0, [f"op raised {exc!r}"]
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
            if problems is None:
                problems = workload.check()
            self.record(wall, crops, problems)
            walls.append(wall)
        return walls, cals


def setup_seconds(setup, calibrate, reference_s: float,
                  ) -> tuple[float, list[float]]:
    """Median of SETUP_REPS set-ups, each divided by a calibration run right
    before it and scaled by the calibration's reference time: set-up seconds
    at a fixed machine speed, so that the drift that moves raw times cancels.
    Also returns the raw set-up times."""
    relative, raw = [], []
    for _ in range(SETUP_REPS):
        cal = calibrate()
        start = time.perf_counter()
        setup()
        raw.append(time.perf_counter() - start)
        relative.append(raw[-1] / cal)
    return statistics.median(relative) * reference_s, raw


def end_to_end(setup: tuple[float, list[float]], walls: list[float],
               cals: list[float], crops_per_s: float,
               peak_rss_kb: int) -> tuple[dict, dict]:
    """End-to-end metrics from paired op and calibration wall times."""
    ratios = [wall / cal for wall, cal in zip(walls, cals)]
    tail_ratio, percentile, beyond = tail(ratios)
    metrics = {"setup_s": setup[0],
               "op_p50_rel": statistics.median(ratios),
               "op_tail_rel": tail_ratio,
               "peak_rss_mb": peak_rss_kb / 1024.0}
    info = {"ops": len(walls), "tail_percentile": round(percentile, 1),
            "tail_ops_beyond": beyond, "setup_raw_s": setup[1],
            "op_p50_ms": statistics.median(walls) * 1e3,
            "op_tail_ms": tail(walls)[0] * 1e3, "crops_per_s": crops_per_s,
            "calibration_ms": statistics.median(cals) * 1e3,
            "calibration_walls_s": cals}
    return metrics, info


def overhead_pct(untraced: tuple[list[float], list[float]],
                 traced: tuple[list[float], list[float]]) -> float:
    """Traced against untraced median op, each relative to its calibration."""
    def rel(loop):
        return statistics.median(w / c for w, c in zip(*loop))
    return 100.0 * (rel(traced) / rel(untraced) - 1.0)


# ---------------------------------------------------------------------- #
#  in-process workloads
# ---------------------------------------------------------------------- #

def run_in_process(cls, seed: int, seconds: float, traced: bool, tmp: str,
                   out_base: str) -> tuple[Run, dict, dict]:
    workload = cls(ROOT, tmp, seed)
    calibrate = workloads.Calibration(os.path.join(tmp, "calibration"),
                                      workload.calibration_files)
    setup = setup_seconds(workload.setup, calibrate, calibrate.reference_s)
    workload.after_setup()
    run = Run()
    info = {"sizes": workload.sizes}
    if not traced:
        walls, cals = run.loop(workload, seconds, calibrate)
        metrics, extra = end_to_end(
            setup, walls, cals, run.crops_per_s(),
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        info.update(extra)
        return run, metrics, info

    untraced = run.loop(workload, seconds / 3, calibrate)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run.loop(workload, seconds / 3, calibrate, tracer)
    finally:
        tracer.uninstall()
    layers = spans.layer_metrics(tracer.per_op(), traced[0])
    layers["trace.overhead_pct"] = overhead_pct(untraced, traced)
    info["spans"] = tracer.write(out_base + "-spans.jsonl.gz")
    if cls is workloads.FarmScaled:
        big = cls(ROOT, tmp, seed, 4 * workload.n_crops)
        big.setup()
        big.after_setup()
        big_tracer = spans.Tracer()
        big_tracer.install()
        try:
            big_walls, _ = run.loop(big, seconds / 3, calibrate, big_tracer,
                                    min_ops=2)
        finally:
            big_tracer.uninstall()
        big_layers = spans.layer_metrics(big_tracer.per_op(), big_walls)
        for name in SCALED:
            base = layers.get(f"{name}.ms", 0.0)
            layers[f"{name}.scale_4x"] = (big_layers.get(f"{name}.ms", 0.0)
                                          / base if base else 0.0)
        info["sizes_4x"] = big.sizes
        info["spans_4x"] = big_tracer.write(out_base + "-spans-4x.jsonl.gz")
    info.update(ops_untraced=len(untraced[0]), ops_traced=len(traced[0]))
    return run, layers, info


# ---------------------------------------------------------------------- #
#  cold command-line processes
# ---------------------------------------------------------------------- #

def run_cli(seed: int, seconds: float, traced: bool, tmp: str,
            out_base: str) -> tuple[Run, dict, dict]:
    workload = workloads.CliSoria(ROOT, tmp)
    setup = setup_seconds(workload.session, workload.spawner.bare,
                          workload.spawner.bare_reference_s)
    workload.capture_reference()
    run = Run()
    bare: list[float] = []
    peak = [0]

    def record(label, wall, rss, problems, bare_wall):
        crops = next(c for lbl, _, _, c in workloads.CLI_SESSION if lbl == label)
        run.record(wall, crops, problems, kind=label)
        bare.append(bare_wall)
        peak[0] = max(peak[0], rss)

    imports: list[float] = []
    import_us: list[dict[str, int]] = []
    deadline = time.perf_counter() + (seconds / 2 if traced else seconds)
    while not run.walls or time.perf_counter() < deadline:
        workload.session(record)
        if traced:  # import probes interleave with the sessions they explain
            wall, figures = workload.spawner.import_probe()
            imports.append(wall)
            import_us.append(figures)
    info = {"sizes": workload.sizes}
    if not traced:
        metrics, extra = end_to_end(setup, run.walls, bare, run.crops_per_s(),
                                    peak[0])
        info.update(extra)
        return run, metrics, info

    start_ms = statistics.median(bare) * 1e3
    import_ms = statistics.median(imports) * 1e3 - start_ms
    command_ms = statistics.median(run.walls) * 1e3

    workloads.import_cropgate(ROOT)
    cli = sys.modules["cropgate.cli"]

    class InProcess:
        def op(self):
            self.problems = workload.in_process_session(cli)
            return 4

        def check(self):
            return self.problems

    calibrate = workloads.Calibration(os.path.join(tmp, "calibration"), 0)
    untraced = run.loop(InProcess(), seconds / 4, calibrate)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run.loop(InProcess(), seconds / 4, calibrate, tracer)
    finally:
        tracer.uninstall()
    layers = spans.layer_metrics(tracer.per_op(), traced[0])
    layers["trace.overhead_pct"] = overhead_pct(untraced, traced)
    layers.update({
        "cli.python_start_ms": start_ms,
        "cli.import_ms": import_ms,
        "cli.validate_ms": statistics.median(run.by_kind["validate"]) * 1e3,
        "cli.assess_ms": statistics.median(run.by_kind["assess_rye"]
                                           + run.by_kind["assess_tall_wheatgrass"]) * 1e3,
        "cli.compare_ms": statistics.median(run.by_kind["compare"]) * 1e3,
        "cli.sweep_ms": statistics.median(run.by_kind["sweep"]) * 1e3,
        "cli.start_import_share_pct": 100.0 * (start_ms + import_ms) / command_ms,
    })
    for name in workloads.IMPORT_PROBES:
        key = "cli.import." + name.replace(".", "_") + "_us"
        layers[key] = statistics.median(sample[name] for sample in import_us)
    info["spans"] = tracer.write(out_base + "-spans.jsonl.gz")
    info.update(ops_untraced=len(untraced[0]), ops_traced=len(traced[0]),
                command_ms_median=command_ms)
    return run, layers, info


# ---------------------------------------------------------------------- #
#  entry points
# ---------------------------------------------------------------------- #

WORKLOADS = {
    "cli_soria": run_cli,
    "farm_scaled": lambda *a: run_in_process(workloads.FarmScaled, *a),
    "seed_chain": lambda *a: run_in_process(workloads.SeedChain, *a),
}


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    out_base = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(traced)}")
    tmp_parent = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_parent)
    try:
        run, measured, info = WORKLOADS[name](seed, seconds, traced, tmp,
                                              out_base)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_parent)
        except OSError:
            pass  # another run still uses it
    declared = PER_LAYER if traced else END_TO_END
    metrics = {m[0]: {"value": float(measured.get(m[0], 0.0)), "unit": m[1]}
               for m in declared}
    info.update(workload=name, seed=seed, seconds=seconds, trace=int(traced),
                attempted=run.attempted, failed=len(run.failures),
                failed_share=len(run.failures) / run.attempted,
                failures=run.failures[:5], op_walls_s=run.walls,
                temp_dir=os.path.relpath(tmp, ROOT) + " (removed)",
                all_metrics=measured)
    with open(out_base + ".json", "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1, sort_keys=True)
    print(json.dumps({"info": {k: v for k, v in info.items()
                               if k != "all_metrics"}}, sort_keys=True))
    return {"correct": not run.failures, "attempted": run.attempted,
            "failed": len(run.failures), "metrics": metrics}


def run_all(seed: int, seconds: float) -> int:
    """Each workload in a fresh process; one row per workload."""
    names = [m[0] for m in END_TO_END]
    units = {m[0]: m[1] for m in END_TO_END}
    details = ("op_p50_ms", "crops_per_s", "failed_share")
    header = (["workload"] + [f"{n} [{units[n]}]" for n in names]
              + [f"({n})" for n in details])
    print("  ".join(f"{h:>18}" for h in header))
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            status = 1
            continue
        *_, info_line, result_line = proc.stdout.strip().splitlines()
        result, info = json.loads(result_line), json.loads(info_line)["info"]
        row = ([name] + [f"{result['metrics'][n]['value']:.4g}" for n in names]
               + [f"{info[n]:.4g}" for n in details])
        print("  ".join(f"{cell:>18}" for cell in row))
        status |= result["failed"] > 0
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cropgate", "__init__.py")):
        print(f"error: no cropgate package under {ROOT}/src; run from the "
              "root of a cropgate checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    # on termination, unwind so that the temp dir is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    print(json.dumps(run_one(args.workload, args.seed, args.seconds,
                             bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
