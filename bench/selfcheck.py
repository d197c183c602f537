#!/usr/bin/env python3
"""Checks of the benchmark itself (not of cropgate).

    python3 bench/selfcheck.py

* the generator is deterministic, uses every unit alias, and its farms
  build with zero errors;
* every output check rejects a deliberately perturbed expected value;
* metric names are well formed and BENCHMARK.json matches run.py;
* a run leaves no temp dir behind, and a directory without the package
  makes the benchmark fail without printing a result.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import checks
import gen
import run
import workloads

ROOT = run.ROOT
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
UNIT_ALIASES = (" kg/ha", " g/ha", " Mg/ha", " L/ha", " m3", " percent")
FAILED: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        FAILED.append(what)


def check_generator(cg) -> None:
    for name, make in (("farm_scaled", gen.farm_scaled),
                       ("seed_chain", gen.seed_chain)):
        first, again, other = make(ROOT, 1), make(ROOT, 1), make(ROOT, 2)
        expect(first[:2] == again[:2], f"{name}: same seed, same bytes")
        expect(first[:2] != other[:2], f"{name}: another seed, other bytes")
        expect(first[2]["farm_lines"] == other[2]["farm_lines"],
               f"{name}: input size does not depend on the seed")
        expect(all(alias in first[0] for alias in UNIT_ALIASES),
               f"{name}: farm uses every unit alias")
        for seed in (1, 2, 3):
            model, report = cg.farmspec.build_farm_model(
                cg.sections.parse_document(make(ROOT, seed)[0]))
            expect(model is not None and not report.errors,
                   f"{name} seed {seed}: farm builds with zero errors")


def perturbed(pinned: dict, crop: str, key: str, factor: float) -> dict:
    copy = {c: dict(entries) for c, entries in pinned.items()}
    value, kind, tolerance = copy[crop][key]
    copy[crop][key] = (value * factor, kind, tolerance)
    return copy


def check_checkers(cg) -> None:
    model = cg.assess.load_farm(os.path.join(ROOT, gen.DATA_DIR,
                                             gen.BUNDLED_FARM))
    db = cg.assess.load_factors(os.path.join(ROOT, gen.DATA_DIR,
                                             gen.BUNDLED_FACTORS))
    for crop in checks.PINNED:
        result = cg.assess.assess_crop(model, db, crop)
        values = workloads.assessment_values(result)
        expect(not checks.check_pinned(crop, values),
               f"pinned {crop}: accepts the paper's values")
        for key in checks.PINNED[crop]:
            expect(bool(checks.check_pinned(
                crop, values, perturbed(checks.PINNED, crop, key, 1.05))),
                f"pinned {crop}.{key}: rejects a value 5% off")
        expect(not checks.check_identities(result),
               f"identities {crop}: accept the engine's result")
        gwp = dataclasses.replace(result.gwp,
                                  net_total=result.gwp.net_total + 1e-9)
        energy = dataclasses.replace(result.energy,
                                     total=result.energy.total * (1 + 1e-12))
        eco = dataclasses.replace(result.economics,
                                  total_cost=result.economics.total_cost + 1e-9)
        for field, value in (("gwp", gwp), ("energy", energy),
                             ("economics", eco)):
            expect(bool(checks.check_identities(
                dataclasses.replace(result, **{field: value}))),
                f"identities {crop}: reject a perturbed {field} total")

    sweep = cg.economics.marginal_share_sweep(model, [0.1, 0.5, 0.9])
    points = [(p.share, p.income_first, p.income_second) for p in sweep]
    expect(not checks.check_sweep(points, model.total_area_ha),
           "sweep: accepts the engine's income gap")
    expect(bool(checks.check_sweep(points, model.total_area_ha, perturbed(
        checks.PINNED, "rye", "balance_with_cap", 1.01))),
        "sweep: rejects a balance 1% off")

    crop = model.crops["rye"]
    ratio = crop.sowing_dose_mg_ha / crop.seed_yield_mg_ha
    one_level = cg.inventory.build_lci(crop, model, db, seed_one_level=True)
    reference = checks.seed_chain_reference(one_level, ratio)
    full = cg.inventory.build_lci(crop, model, db)
    expect(not checks.check_seed_chain(full, reference),
           "seed chain: accepts the fixed point against the closed form")
    for flow_id in reference:
        bad = dict(reference)
        bad[flow_id] *= 1 + 1e-8
        expect(bool(checks.check_seed_chain(full, bad)),
               f"seed chain: rejects {flow_id} 1e-8 off")

    files = {"a.csv": b"x,1\n", "b.json": b"{}\n"}
    expect(not checks.check_bytes(files, dict(files)), "bytes: accepts a copy")
    expect(bool(checks.check_bytes(files, {**files, "a.csv": b"x,2\n"})),
           "bytes: rejects one changed byte")
    expect(bool(checks.check_bytes(files, {"a.csv": files["a.csv"]})),
           "bytes: rejects an extra file")


def check_declarations() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [m[0] for m in run.END_TO_END + run.PER_LAYER]
    expect(all(NAME_RE.fullmatch(n) and len(n) <= 64 for n in names),
           "metric names match [A-Za-z0-9_.-]+")
    expect(len(set(names)) == len(names), "metric names are unique")
    expect([(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches run.py")
    expect([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
           == list(run.PER_LAYER), "BENCHMARK.json per_layer matches run.py")
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.py")


def check_runs() -> None:
    tmp_parent = os.path.join(ROOT, ".bench_tmp")
    before = set(os.listdir(tmp_parent)) if os.path.isdir(tmp_parent) else set()
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload",
         "seed_chain", "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) \
        if proc.returncode == 0 else {}
    expect(result.get("correct") is True, "a short run is correct")
    after = set(os.listdir(tmp_parent)) if os.path.isdir(tmp_parent) else set()
    expect(after <= before, "a run leaves no temp dir behind")

    os.makedirs(tmp_parent, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=tmp_parent)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "seed_chain",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, check=False, timeout=180)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without the package the run fails and prints no result")
    finally:
        shutil.rmtree(bare)
        if not os.listdir(tmp_parent):
            os.rmdir(tmp_parent)


def main() -> int:
    cg = workloads.import_cropgate(ROOT)
    check_generator(cg)
    check_checkers(cg)
    check_declarations()
    check_runs()
    print(f"{len(FAILED)} check(s) failed" if FAILED else "all checks passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
