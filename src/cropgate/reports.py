"""Deterministic report files.

Identical inputs and flags produce byte-identical files: numbers go through
fixed-precision formatting (EUR to 2 decimals, Mg CO2e to 3, GJ to 1, shares
to 1 decimal percent), rows keep a fixed order, CSV uses comma, ".", LF and
a header row, JSON mirrors the same values at full precision. The JSON text
is byte-identical to ``json.dumps(payload, indent=2, sort_keys=True)``,
ASCII-escaped, but comes from a short emitter here: with ``indent`` set,
``json`` falls back to its pure-Python encoder, which cost twice as much. No
clock is read; a timestamp appears only when SOURCE_DATE_EPOCH is set, and
it stays outside the hashed manifest region either way.

Every file embeds the run manifest hash: CSVs as a leading ``# run`` comment
line, JSON as a ``manifest`` object. The manifest hashes the input bytes the
caller parsed, or each file as read then; a digest computed earlier in the
process is reused only when the bytes equal those it was computed from.
SHA-256 comes from CPython's built-in module and the string escaper from
``_json``: ``hashlib`` loads OpenSSL (~3 MB, ~4 ms) and ``json`` a package.

An existing report file is rewritten in place: opened without ``O_TRUNC``,
overwritten from the start and cut only when the old file was longer, so it
keeps its inode, mode and symlink target. Nothing is fsync'd. The reason for
both is ext4's ``auto_da_alloc``: closing a file truncated to zero, or
renaming over an existing one, forces its delayed blocks out, and a forced
write per file is the cost avoided. Rewriting 488 report files (417 kB) into
an existing directory took a median 61 ms with ``open(path, "w")``, 125 ms
with a temp file plus ``os.replace`` and 3.4 ms in place (ext4, 2 shared
vCPUs; the flush costs vary with the disk's backlog, the order does not).
The output directory costs one ``stat`` when it exists (a symlink to one
included) and is created, parents too, only when it is missing.
"""

import math
import os
from dataclasses import fields
from typing import TYPE_CHECKING, NamedTuple
try:  # see the module docstring
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:  # a build without the built-in hash modules
        from hashlib import sha256
try:
    from _json import encode_basestring_ascii as _quote
except ImportError:
    from json.encoder import encode_basestring_ascii as _quote

from . import CropgateError, InputError, __version__
from .economics import EconomicBalance, SweepPoint

if TYPE_CHECKING:  # the engine loads only for the reports that show it
    from .assess import CropAssessment, PairComparison

__all__ = ["RunManifest", "build_manifest", "write_assessment",
           "write_comparison", "write_sweep",
           "fmt_eur", "fmt_mg_co2e", "fmt_gj", "fmt_share"]

_TOOL = "cropgate"
FUNCTIONAL_UNIT = "1 ha cultivated for 1 year"


def _fixed(decimals: int, name: str = "fmt"):
    """The cell formatter to ``decimals`` places: one call per cell.

    ``name`` becomes the formatter's ``__name__``, so a public formatter
    reads as itself in tracebacks and test ids.
    """
    template = f"%.{decimals}f"

    def fmt(value: float) -> str:
        text = template % value
        if text[0] == "-" and not text.strip("-0."):
            return text[1:]  # a value that rounds to zero prints without "-"
        return text
    fmt.__name__ = fmt.__qualname__ = name
    return fmt


fmt_eur = _fixed(2, "fmt_eur")
fmt_mg_co2e = _fixed(3, "fmt_mg_co2e")
fmt_gj = _fixed(1, "fmt_gj")
fmt_share = _fixed(1, "fmt_share")


class RunManifest(NamedTuple):
    tool: str
    version: str
    farm_path: str
    farm_sha256: str
    factors_path: str | None
    factors_sha256: str | None
    flags: dict[str, str]
    run_hash: str
    timestamp: str | None  # outside the hashed region


# input digests by path: (bytes, hex digest). A holding-wide run builds one
# manifest per crop on the same two files; the bound keeps a process that
# reads many files from holding them all.
_DIGESTS: dict[str, tuple[bytes, str]] = {}
_DIGESTS_MAX = 16


def _sha256_file(path: str, inputs: dict[str, bytes] | None) -> str:
    """SHA-256 of the file's bytes: those in ``inputs``, else as read now.

    A stored digest is reused only when the bytes equal the stored bytes,
    never on a matching size or mtime: a same-size rewrite within one
    timestamp tick must still change the hash.
    """
    data = inputs.get(path) if inputs else None
    if data is None:
        with open(path, "rb") as handle:
            data = handle.read()
    known = _DIGESTS.get(path)
    if known is not None and known[0] == data:
        return known[1]
    digest = sha256(data).hexdigest()
    if path not in _DIGESTS and len(_DIGESTS) >= _DIGESTS_MAX:
        _DIGESTS.pop(next(iter(_DIGESTS)), None)  # the oldest entry
    _DIGESTS[path] = (data, digest)
    return digest


def _build_timestamp() -> str | None:
    """UTC time from SOURCE_DATE_EPOCH, or None when it is unset."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if not epoch:
        return None
    from datetime import datetime, timezone
    try:
        moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise InputError(f"SOURCE_DATE_EPOCH must be a Unix time in whole "
                         f"seconds, not {epoch!r}") from None
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def build_manifest(farm_path: str, factors_path: str | None,
                   flags: dict[str, object],
                   inputs: dict[str, bytes] | None = None) -> RunManifest:
    """Hash the run: input bytes from ``inputs`` by path, else read now, tool
    version and flags; file names and the optional timestamp stay outside."""
    farm_hash = _sha256_file(farm_path, inputs)
    factors_hash = _sha256_file(factors_path, inputs) if factors_path else None
    flag_text = {key: str(value) for key, value in sorted(flags.items())}
    region = "\n".join(
        [f"tool={_TOOL} {__version__}", f"farm={farm_hash}",
         f"factors={factors_hash or 'none'}"]
        + [f"flag:{key}={value}" for key, value in flag_text.items()])
    run_hash = sha256(region.encode("utf-8")).hexdigest()

    return RunManifest(
        tool=_TOOL, version=__version__,
        farm_path=os.path.basename(os.fspath(farm_path)),
        farm_sha256=farm_hash,
        factors_path=(os.path.basename(os.fspath(factors_path))
                      if factors_path else None),
        factors_sha256=factors_hash, flags=flag_text, run_hash=run_hash,
        timestamp=_build_timestamp())


def _emit(out_dir: str, fmt: str, manifest: RunManifest,
          tables: dict[str, list[tuple[str, ...]]], json_name: str,
          payload: dict) -> list[str]:
    """Write the CSV tables (``csv`` format only), then the JSON file.

    Each table is a header row plus data rows of already formatted cells;
    the JSON payload gains the manifest. Returns the paths in write order.
    Nothing is written when a value is not finite.
    """
    texts = {}
    if fmt == "csv":
        for name, rows in tables.items():
            lines = [f"# run {manifest.run_hash}", *map(",".join, rows)]
            texts[name] = "\n".join(lines) + "\n"
    try:
        texts[json_name] = _json_text(
            {"manifest": manifest._asdict(), **payload}) + "\n"
    except ValueError:
        raise CropgateError(f"{json_name} would hold a value that is not "
                            "finite; an input is too large") from None
    if not os.path.isdir(out_dir):  # one stat per call when it exists
        os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, text in texts.items():
        path = os.path.join(out_dir, name)
        try:
            _rewrite(path, text.encode("utf-8"))
        except OSError as exc:
            exc.filename = path  # a failed write or close names no file
            raise
        written.append(path)
    return written


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``.

    The same bytes, without the pure-Python encoder that ``json`` falls back
    to whenever ``indent`` is set. Handles str-keyed dicts, lists, tuples,
    str, int, float, bool and None; a float that is not finite raises
    ValueError, anything else TypeError.
    """
    chunks: list[str] = []
    _encode(obj, "\n", chunks.append)
    return "".join(chunks)


def _encode(obj, newline: str, emit) -> None:
    if isinstance(obj, str):
        emit(_quote(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"float value not JSON compliant: {obj!r}")
        emit(float.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, value in sorted(obj.items()):
            emit(separator + _quote(key) + ": ")
            _encode(value, inner, emit)
            separator = "," + inner
        emit(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            emit("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for value in obj:
            emit(separator)
            _encode(value, inner, emit)
            separator = "," + inner
        emit(newline + "]")
    elif obj is None:
        emit("null")
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif isinstance(obj, int):
        emit(int.__repr__(obj))
    else:
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# no O_TRUNC: see the module docstring; O_BINARY keeps LF on Windows
_REWRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _rewrite(path: str, data: bytes) -> None:
    """Write ``data`` over the file at ``path`` in place.

    The file is created if absent and cut to ``len(data)`` only if it was
    longer: an unconditional truncate fails on a device such as /dev/null.
    """
    fd = os.open(path, _REWRITE_FLAGS, 0o666)
    try:
        stale = os.fstat(fd).st_size > len(data)
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stale:
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


# ---------------------------------------------------------------------- #
#  single-crop assessment
# ---------------------------------------------------------------------- #

# every EconomicBalance field after crop_name, in report row order
_BALANCE_FIELDS = tuple(f.name for f in fields(EconomicBalance)[1:])


def _phase_table(header: tuple[str, ...], shares: dict[str, float],
                 rows: list[tuple[str, ...]],
                 totals: list[tuple[str, ...]]) -> list[tuple[str, ...]]:
    """The header; each phase row ``(phase, *cells)`` plus its share or a
    blank; then the total rows, of which the first, the sum of the phases,
    has a share of 100 when there are shares."""
    share_cells = {phase: fmt_share(share) for phase, share in shares.items()}
    first, *rest = totals
    return [header, *[(*row, share_cells.get(row[0], "")) for row in rows],
            (*first, fmt_share(100.0) if shares else ""),
            *[(*row, "") for row in rest]]


def write_assessment(result: "CropAssessment", manifest: RunManifest,
                     out_dir: str, fmt: str = "csv") -> list[str]:
    """Emit the report files for one crop; returns the paths written.

    ``csv`` writes the three tables plus result.json; ``json`` writes only
    result.json. The tables format its values, in the order its mappings
    keep: the file sorts its keys, the tables do not.
    """
    from .inventory import PHASE_NAMES
    gwp, energy = result.gwp, result.energy
    economics = {name: getattr(result.economics, name)
                 for name in _BALANCE_FIELDS}
    mg_co2e, renewable, nonrenewable = (
        {name: by_phase[phase] for phase, name in PHASE_NAMES.items()}
        for by_phase in (gwp.by_phase, energy.renewable_by_phase,
                         energy.nonrenewable_by_phase))
    gwp_shares, energy_shares = (
        {PHASE_NAMES[phase]: share for phase, share in shares.items()}
        for shares in (result.gwp_shares, result.energy_shares))
    payload = {
        "functional_unit": FUNCTIONAL_UNIT,
        "crop": result.crop_name,
        "economics_eur_ha": economics,
        "gwp": {
            "by_phase_mg_co2e": mg_co2e,
            "positive_total_mg_co2e": gwp.positive_total,
            "net_total_mg_co2e": gwp.net_total,
            "shares_pct": gwp_shares,
            "missing_flows": list(gwp.missing),
        },
        "energy": {
            "renewable_by_phase_gj": renewable,
            "nonrenewable_by_phase_gj": nonrenewable,
            "renewable_total_gj": energy.renewable_total,
            "nonrenewable_total_gj": energy.nonrenewable_total,
            "total_gj": energy.total,
            "shares_pct": energy_shares,
            "missing_flows": list(energy.missing),
        },
        "notes": list(result.notes),
    }
    balance = [("concept", "eur_per_ha")] + [
        (concept, fmt_eur(value)) for concept, value in economics.items()]
    gwp_rows = _phase_table(
        ("phase", "mg_co2e_per_ha_y", "share_pct"), gwp_shares,
        [(phase, fmt_mg_co2e(value)) for phase, value in mg_co2e.items()],
        [("positive_total", fmt_mg_co2e(gwp.positive_total)),
         ("net_total", fmt_mg_co2e(gwp.net_total))])
    # the per-phase energy total is in the table only
    energy_rows = _phase_table(
        ("phase", "renewable_gj_per_ha_y", "nonrenewable_gj_per_ha_y",
         "total_gj_per_ha_y", "share_pct"), energy_shares,
        [(phase, fmt_gj(ren), fmt_gj(non), fmt_gj(ren + non))
         for (phase, ren), non in zip(renewable.items(),
                                      nonrenewable.values())],
        [("total", fmt_gj(energy.renewable_total),
          fmt_gj(energy.nonrenewable_total), fmt_gj(energy.total))])
    return _emit(out_dir, fmt, manifest,
                 {"balance.csv": balance, "gwp_phases.csv": gwp_rows,
                  "energy_phases.csv": energy_rows},
                 "result.json", payload)


# ---------------------------------------------------------------------- #
#  pair comparison
# ---------------------------------------------------------------------- #

def write_comparison(comparison: "PairComparison", manifest: RunManifest,
                     out_dir: str, fmt: str = "csv") -> list[str]:
    first, second = comparison.first, comparison.second
    metrics = [
        ("balance_with_cap_eur_ha", fmt_eur,
         first.economics.balance_with_cap, second.economics.balance_with_cap),
        ("balance_without_cap_eur_ha", fmt_eur,
         first.economics.balance_without_cap,
         second.economics.balance_without_cap),
        ("farm_income_eur_y", fmt_eur, comparison.income_first.total_eur,
         comparison.income_second.total_eur),
        ("positive_gwp_mg_co2e", fmt_mg_co2e, first.gwp.positive_total,
         second.gwp.positive_total),
        ("net_gwp_mg_co2e", fmt_mg_co2e, first.gwp.net_total,
         second.gwp.net_total),
        ("primary_energy_gj", fmt_gj, first.energy.total,
         second.energy.total),
        ("renewable_energy_gj", fmt_gj, first.energy.renewable_total,
         second.energy.renewable_total),
        ("nonrenewable_energy_gj", fmt_gj, first.energy.nonrenewable_total,
         second.energy.nonrenewable_total),
    ]
    rows = [("metric", first.crop_name, second.crop_name, "difference")]
    rows += [(name, fmt_fn(a), fmt_fn(b), fmt_fn(a - b))
             for name, fmt_fn, a, b in metrics]
    rows += [(f"verdict_{metric}", winner, "", "")
             for metric, winner in sorted(comparison.verdicts.items())]
    payload = {
        "functional_unit": FUNCTIONAL_UNIT,
        "crops": [first.crop_name, second.crop_name],
        "metrics": {name: {first.crop_name: a, second.crop_name: b,
                           "difference": a - b}
                    for name, _, a, b in metrics},
        "margin_difference_eur_ha": comparison.margin_difference_eur_ha,
        "verdicts": dict(comparison.verdicts),
        "notes": sorted(set(first.notes) | set(second.notes)),
    }
    return _emit(out_dir, fmt, manifest, {"comparison.csv": rows},
                 "comparison.json", payload)


# ---------------------------------------------------------------------- #
#  marginal-share sweep
# ---------------------------------------------------------------------- #

def write_sweep(points: list[SweepPoint], pair: tuple[str, str],
                manifest: RunManifest, out_dir: str,
                fmt: str = "csv") -> list[str]:
    first_name, second_name = pair
    rows = [("share", f"income_{first_name}", f"income_{second_name}",
             "relative_difference_pct")]
    rows += [(f"{point.share:.6f}", fmt_eur(point.income_first),
              fmt_eur(point.income_second),
              fmt_share(point.relative_difference * 100.0))
             for point in points]
    payload = {
        "crops": [first_name, second_name],
        "points": [{
            "share": point.share,
            f"income_{first_name}": point.income_first,
            f"income_{second_name}": point.income_second,
            "relative_difference": point.relative_difference,
        } for point in points],
    }
    return _emit(out_dir, fmt, manifest, {"sweep.csv": rows}, "sweep.json",
                 payload)
