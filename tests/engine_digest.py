"""One SHA-256 per holding over the reprs of every engine result.

Usage::

    PYTHONPATH=src python tests/engine_digest.py > digest.txt
    diff .github/engine-reprs.sha256 digest.txt

The holdings are the bundled farm and the generated ``farm_scaled`` and
``seed_chain`` holdings of seeds 1-3 (``bench/gen.py``). For each one the
script hashes, in this order and one per line, ``repr(assess_crop(...))``
for every crop in the farm's crop order and ``repr(compare_pair(...))`` for
its default pair. A repr holds every float at full precision, every flow
of the inventory with its amount, and the notes, so the digest pins what
no report shows: the per-flow amounts and the last digit of each sum.

It prints one ``<sha256>  <holding>`` line per holding, in the layout of
``sha256sum``. A change that moves any of these reprs must update
``.github/engine-reprs.sha256`` and say why.
"""

from __future__ import annotations

import hashlib
import os
import sys

from cropgate.assess import (assess_crop, bundled_data_path, compare_pair,
                             load_factors, load_farm)
from cropgate.factors import load_factor_db
from cropgate.farmspec import parse_farm_document

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(os.path.join(ROOT, "bench"))
import gen  # noqa: E402  (bench/gen.py, the holding generator)

SEEDS = (1, 2, 3)


def digest(model, db) -> str:
    lines = [repr(assess_crop(model, db, name)) for name in model.crops]
    lines.append(repr(compare_pair(model, db)))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def holdings():
    """(name, model, db) for every holding the digest covers."""
    yield ("bundled", load_farm(bundled_data_path("farm_soria.cg")),
           load_factors(bundled_data_path("factors_calibrated.cg")))
    for kind in ("farm_scaled", "seed_chain"):
        for seed in SEEDS:
            farm, factors, _ = getattr(gen, kind)(ROOT, seed)
            yield (f"{kind}_{seed}", parse_farm_document(farm),
                   load_factor_db(factors))


def main() -> int:
    for name, model, db in holdings():
        print(f"{digest(model, db)}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
