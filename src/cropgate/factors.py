"""Characterization factor database.

A factor file holds everything the assessment needs that is not farm data:
per-flow production-and-transport factors (GWP100 and split cumulative
primary energy), greenhouse-gas characterization factors, per-crop field
emission parameters, and exhaust emission factors per litre of diesel.

Sections:

* ``[flow.<id>]`` -- ``unit`` (per-unit basis), ``gwp100`` (kg CO2e per
  unit), ``pe_renewable`` / ``pe_nonrenewable`` (MJ per unit), ``note``.
* ``[gas.<name>]`` -- ``gwp100`` in kg CO2e per kg of gas. CO2, N2O and CH4
  carry defaults (1, 265, 30.5) and may be overridden here.
* ``[emissions.<crop>]`` -- field N2O parameters or a measured override.
* ``[emissions.exhaust]`` -- per-litre exhaust factors for diesel engines.

Lookups are strict: a flow without a record raises. The cut-off mode used by
the command line resolves missing flows to zero and reports them instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .sections import Section, parse_document
from .units import Quantity, parse_unit

__all__ = [
    "FactorFileError", "MissingFlowError", "FactorRecord", "GasGWP",
    "N2OParams", "ExhaustFactors", "FactorDB", "load_factor_db",
    "DEFAULT_GAS_GWP", "DEFAULT_EXHAUST",
]

# IPCC 2013 GWP100 values as commonly applied in LCA practice.
DEFAULT_GAS_GWP = {"co2": 1.0, "n2o": 265.0, "ch4": 30.5}


class FactorFileError(ValueError):
    """Malformed factor file; message lists every problem found."""


class MissingFlowError(KeyError):
    def __init__(self, flow_id: str):
        super().__init__(flow_id)
        self.flow_id = flow_id

    def __str__(self) -> str:
        return f"no factor record for flow {self.flow_id!r}"


@dataclass(frozen=True)
class FactorRecord:
    flow_id: str
    unit: str               # basis, e.g. "Mg", "L", "kg"
    gwp100: float           # kg CO2e per unit
    pe_renewable: float     # MJ per unit
    pe_nonrenewable: float  # MJ per unit
    note: str = ""


@dataclass(frozen=True)
class GasGWP:
    gas: str
    gwp100: float  # kg CO2e per kg gas


@dataclass(frozen=True)
class N2OParams:
    """Field N2O model parameters for one crop.

    When ``override_mg_ha`` is set it wins over the parametric model; the
    parametric route applies the direct emission factor to applied and
    residue nitrogen plus an indirect term on volatilized ammonia.
    """
    ef_direct: float = 0.01
    residue_n_kg_ha: float = 0.0
    nh3_loss_fraction: float = 0.0
    ef_indirect_nh3: float = 0.0
    override_mg_ha: float | None = None


@dataclass(frozen=True)
class ExhaustFactors:
    """Exhaust masses per litre of diesel burned, all in kg/L."""
    co2_kg_l: float = 2.64
    ch4_kg_l: float = 0.0
    n2o_kg_l: float = 0.0


DEFAULT_EXHAUST = ExhaustFactors()


@dataclass
class FactorDB:
    records: dict[str, FactorRecord] = field(default_factory=dict)
    gases: dict[str, GasGWP] = field(default_factory=dict)
    emissions: dict[str, N2OParams] = field(default_factory=dict)
    exhaust: ExhaustFactors = DEFAULT_EXHAUST

    def __post_init__(self):
        for gas, gwp in DEFAULT_GAS_GWP.items():
            self.gases.setdefault(gas, GasGWP(gas, gwp))

    def lookup(self, flow_id: str) -> FactorRecord:
        try:
            return self.records[flow_id]
        except KeyError:
            raise MissingFlowError(flow_id) from None

    def gas_gwp(self, gas: str) -> float:
        return self.gases[gas].gwp100

    def n2o_params(self, crop_name: str) -> N2OParams:
        return self.emissions.get(crop_name, N2OParams())


class _Problems:
    def __init__(self):
        self.messages: list[str] = []

    def add(self, where: str, message: str) -> None:
        self.messages.append(f"[{where}] {message}")

    def raise_if_any(self) -> None:
        if self.messages:
            raise FactorFileError("\n".join(self.messages))


def _number(section: Section, key: str, problems: _Problems,
            unit_text: str | None = None, default: float | None = None,
            ) -> float | None:
    value = section.get(key)
    if value is None:
        return default
    if not isinstance(value, Quantity):
        problems.add(section.name, f"{key} must be numeric")
        return default
    if unit_text is None or value.unit.dimensionless:
        return value.value
    expected, scale = parse_unit(unit_text)
    if value.unit != expected:
        problems.add(section.name, f"{key} must be in {unit_text}")
        return default
    return value.value / scale


def _read_flow(section: Section, problems: _Problems) -> FactorRecord | None:
    unit = section.get("unit")
    if not isinstance(unit, str):
        problems.add(section.name, "flow needs a unit basis")
        return None
    try:
        parse_unit(unit)
    except Exception:
        problems.add(section.name, f"unknown unit basis {unit!r}")
        return None
    gwp = _number(section, "gwp100", problems, default=0.0)
    pe_r = _number(section, "pe_renewable", problems, default=0.0)
    pe_nr = _number(section, "pe_nonrenewable", problems, default=0.0)
    note = section.get("note", "")
    for key in section.entries:
        if key not in ("unit", "gwp100", "pe_renewable", "pe_nonrenewable", "note"):
            problems.add(section.name, f"unknown key {key!r}")
    if gwp is None or not math.isfinite(gwp):
        problems.add(section.name, "gwp100 must be finite")
        return None
    if pe_r is None or pe_r < 0 or pe_nr is None or pe_nr < 0:
        problems.add(section.name, "primary energy factors cannot be negative")
        return None
    return FactorRecord(flow_id=section.path[1], unit=unit, gwp100=gwp,
                        pe_renewable=pe_r, pe_nonrenewable=pe_nr,
                        note=note if isinstance(note, str) else "")


def _read_emissions(section: Section, problems: _Problems) -> N2OParams:
    override = _number(section, "override", problems, "Mg/ha")
    params = N2OParams(
        ef_direct=_number(section, "ef_direct", problems, default=0.01),
        residue_n_kg_ha=_number(section, "residue_n", problems, "kg/ha", 0.0),
        nh3_loss_fraction=_number(section, "nh3_loss_fraction", problems,
                                  default=0.0),
        ef_indirect_nh3=_number(section, "ef_indirect_nh3", problems,
                                default=0.0),
        override_mg_ha=override)
    for key in section.entries:
        if key not in ("override", "ef_direct", "residue_n",
                       "nh3_loss_fraction", "ef_indirect_nh3"):
            problems.add(section.name, f"unknown key {key!r}")
    return params


def _read_exhaust(section: Section, problems: _Problems) -> ExhaustFactors:
    co2 = _number(section, "co2", problems, "kg/L", DEFAULT_EXHAUST.co2_kg_l)
    ch4 = _number(section, "ch4", problems, "kg/L", 0.0)
    n2o = _number(section, "n2o", problems, "kg/L", 0.0)
    for key in section.entries:
        if key not in ("co2", "ch4", "n2o"):
            problems.add(section.name, f"unknown key {key!r}")
    return ExhaustFactors(co2_kg_l=co2, ch4_kg_l=ch4, n2o_kg_l=n2o)


def load_factor_db(text: str) -> FactorDB:
    """Parse a factor file.

    Raises:
        SectionSyntaxError: grammar problems (duplicate sections included).
        FactorFileError: malformed records, all problems listed together.
    """
    doc = parse_document(text)
    problems = _Problems()
    db = FactorDB()
    for section in doc.sections:
        kind = section.path[0]
        if kind == "flow" and len(section.path) == 2:
            record = _read_flow(section, problems)
            if record is not None:
                db.records[record.flow_id] = record
        elif kind == "gas" and len(section.path) == 2:
            gwp = _number(section, "gwp100", problems)
            if gwp is None or not math.isfinite(gwp):
                problems.add(section.name, "gas needs a finite gwp100")
            else:
                db.gases[section.path[1]] = GasGWP(section.path[1], gwp)
        elif kind == "emissions" and len(section.path) == 2:
            if section.path[1] == "exhaust":
                db.exhaust = _read_exhaust(section, problems)
            else:
                db.emissions[section.path[1]] = _read_emissions(section, problems)
        else:
            problems.add(section.name, "unknown section")
    problems.raise_if_any()
    return db
