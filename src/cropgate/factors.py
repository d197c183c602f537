"""Characterization factor database.

A factor file holds everything the assessment needs that is not farm data:
per-flow production-and-transport factors (GWP100 and split cumulative
primary energy), greenhouse-gas characterization factors, per-crop field
emission parameters, and exhaust emission factors per litre of diesel.

Sections:

* ``[flow.<id>]`` -- ``unit`` (per-unit basis: a mass or a volume, as the
  inventory holds every flow in Mg or L), ``gwp100`` (kg CO2e per unit),
  ``pe_renewable`` / ``pe_nonrenewable`` (MJ per unit), ``note``. The
  ``co2``, ``ch4`` and ``n2o`` flows take no record: they are gases.
* ``[gas.<name>]`` -- ``gwp100`` in kg CO2e per kg of gas, for ``co2``,
  ``ch4`` and ``n2o`` only. They carry defaults (1, 30.5, 265) and may be
  overridden here.
* ``[emissions.<crop>]`` -- field N2O parameters or a measured override.
* ``[emissions.exhaust]`` -- per-litre exhaust factors for diesel engines.

Characterization is strict: a flow without a record raises
``MissingFlowError``. The cut-off mode used by the command line resolves
missing flows to zero and reports them instead.
"""

from typing import NamedTuple

from . import GASES, CropgateError
from .sections import SectionReader, ValidationReport, parse_document
from .units import UnitError, parse_unit

__all__ = [
    "FactorFileError", "MissingFlowError", "FactorRecord", "N2OParams",
    "FactorDB", "load_factor_db",
    "DEFAULT_GAS_GWP", "DEFAULT_EXHAUST",
]

# IPCC 2013 GWP100 values as commonly applied in LCA practice, in GASES order
DEFAULT_GAS_GWP = dict(zip(GASES, (1.0, 30.5, 265.0)))
# exhaust masses per litre of diesel burned, in kg of gas per L
DEFAULT_EXHAUST = dict(zip(GASES, (2.64, 0.0, 0.0)))
# the units of inventory flows: masses in Mg, volumes in L
_FLOW_BASES = (parse_unit("Mg")[0], parse_unit("L")[0])


class FactorFileError(CropgateError):
    """Malformed factor file; message lists every problem found."""
    prefix = ""  # the message opens with "invalid factor file:"


class MissingFlowError(CropgateError, KeyError):
    def __init__(self, flow_id: str):
        super().__init__(flow_id)
        self.flow_id = flow_id

    def __str__(self) -> str:
        return f"no factor record for flow {self.flow_id!r}"


class FactorRecord(NamedTuple):
    flow_id: str
    unit: str               # basis, e.g. "Mg", "L", "kg"
    gwp100: float           # kg CO2e per unit
    pe_renewable: float     # MJ per unit
    pe_nonrenewable: float  # MJ per unit
    note: str = ""


class N2OParams(NamedTuple):
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


_DEFAULT_N2O = N2OParams()  # the Tier 1 default of a crop without its own


class FactorDB:
    def __init__(self, records: dict[str, FactorRecord] | None = None,
                 gases: dict[str, float] | None = None,
                 emissions: dict[str, N2OParams] | None = None,
                 exhaust: dict[str, float] | None = None):
        self.records = {} if records is None else records
        self.gases = {**DEFAULT_GAS_GWP, **(gases or {})}  # kg CO2e per kg
        self.emissions = {} if emissions is None else emissions
        self.exhaust = {**DEFAULT_EXHAUST, **(exhaust or {})}  # kg per L

    def n2o_params(self, crop_name: str) -> N2OParams:
        return self.emissions.get(crop_name, _DEFAULT_N2O)


def _read_flow(reader: SectionReader) -> FactorRecord:
    if "unit" not in reader.entries:
        reader.error("unit", "flow needs a unit basis")
    unit = reader.text("unit")
    if unit is not None:
        try:
            if parse_unit(unit)[0] not in _FLOW_BASES:
                reader.error("unit", f"unit basis {unit!r} is not a mass "
                             "(Mg, kg, g) or a volume (L, m3)")
        except UnitError:
            reader.error("unit", f"unknown unit basis {unit!r}")
    return FactorRecord(
        flow_id=reader.path[1], unit=unit,
        gwp100=reader.number("gwp100", 0.0),
        pe_renewable=reader.non_negative("pe_renewable", None, 0.0),
        pe_nonrenewable=reader.non_negative("pe_nonrenewable", None, 0.0),
        note=reader.text("note", ""))


def _read_emissions(reader: SectionReader) -> N2OParams:
    return N2OParams(
        ef_direct=reader.fraction("ef_direct", 0.01),
        residue_n_kg_ha=reader.non_negative("residue_n", "kg/ha", 0.0),
        nh3_loss_fraction=reader.fraction("nh3_loss_fraction", 0.0),
        ef_indirect_nh3=reader.fraction("ef_indirect_nh3", 0.0),
        override_mg_ha=reader.non_negative("override", "Mg/ha"))


def load_factor_db(text: str) -> FactorDB:
    """Parse a factor file.

    Raises:
        SectionSyntaxError: grammar problems (duplicate sections included).
        FactorFileError: malformed records, all problems listed together.
    """
    report = ValidationReport()
    db = FactorDB()
    for path, entries in parse_document(text).items():
        reader = SectionReader(path, entries, report)
        kind, name = path[0], path[-1]
        if len(path) != 2 or kind not in ("flow", "gas", "emissions"):
            report.error(reader.name, "unknown section")
            continue
        if kind == "flow":
            if name in GASES:
                report.error(reader.name, "never applies: the flow is a gas, "
                             f"characterized by [gas.{name}]")
            db.records[name] = _read_flow(reader)
        elif kind == "gas":
            if name not in GASES:
                report.error(reader.name, "never applies: the inventory "
                             "emits co2, ch4 and n2o only")
            if "gwp100" not in entries:
                reader.error("gwp100", "gas needs a finite gwp100")
            db.gases[name] = reader.number("gwp100")
        elif name == "exhaust":
            db.exhaust = {gas: reader.non_negative(gas, "kg/L", default)
                          for gas, default in DEFAULT_EXHAUST.items()}
        else:
            db.emissions[name] = _read_emissions(reader)
        reader.finish()
    if not report.ok:
        raise FactorFileError("invalid factor file:\n" + report.render())
    return db
