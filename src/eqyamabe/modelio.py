"""Model files, deterministic report serialization, and CSV tables.

Model files are JSON.  A model names a base (weighted quotient, round
sphere, sampled profile, or flat torus), a fiber-length profile, a curvature
density, and optional quadrature overrides.  Parsing failures carry the
offending field path so the CLI can point at the exact key.

Reports are emitted as canonical JSON: keys in construction order, floats
with 17 significant digits, newline-terminated.  Identical inputs therefore
produce byte-identical reports.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import __version__
from .bundle import InvariantMetric, RadialField
from .errors import ModelParseError, NumericalError
from .numerics import QuadratureConfig
from .orbifold import (
    Base,
    FlatTorusBase,
    make_round_sphere,
    profile_from_samples,
    wps_profile,
)
from .yamabe import wps_density_field

__all__ = [
    "ModelSpec",
    "parse_model",
    "parse_model_file",
    "build_base",
    "build_metric",
    "build_quadrature",
    "format_float",
    "canonical_json",
    "table_to_csv",
]

TOOL_NAME = "eqyamabe"
TOOL_VERSION = __version__

_BASE_TYPES = ("wps", "round_sphere", "profile", "flat_torus")
_ELL_TYPES = ("constant", "samples")
_F_TYPES = ("constant", "wps", "samples")
# quadrature overrides and the JSON types each takes
_QUADRATURE_FIELDS = {
    "max_refinements": int,
    "abs_tol": (int, float),
    "rel_tol": (int, float),
}
# endpoint-mode and panel keys of older model files: validated so those files
# still parse, then ignored, because every integral uses the one nested Fejér
# rule, whose first level is fixed
_LEGACY_QUADRATURE_FIELDS = {"endpoint_mode", "epsilon", "panels", "points_per_panel"}
# the least value each legacy panel key took
_LEGACY_PANEL_MINIMA = {"panels": 1, "points_per_panel": 2}
_LEGACY_ENDPOINT_MODES = ("plain", "substitution", "epsilon_cutoff")


@dataclass(frozen=True)
class ModelSpec:
    """Validated model description; `raw` is the exact parsed document."""

    base: dict
    ell: dict
    F: dict
    quadrature: dict | None
    raw: dict


def _require(mapping: dict, key: str, path: str, types, choices=None):
    if key not in mapping:
        raise ModelParseError(f"{path}.{key}: missing required field")
    value = mapping[key]
    # JSON true/false are Python bools, which are ints: no field takes one
    if isinstance(value, bool) or not isinstance(value, types):
        tn = types.__name__ if isinstance(types, type) else "/".join(t.__name__ for t in types)
        raise ModelParseError(f"{path}.{key}: expected {tn}, got {type(value).__name__}")
    if choices is not None and value not in choices:
        raise ModelParseError(f"{path}.{key}: expected one of {sorted(choices)}, got {value!r}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive(value, path: str) -> float:
    v = float(value)
    if not math.isfinite(v) or v <= 0:
        raise ModelParseError(f"{path}: must be a positive finite number")
    return v


def parse_model(doc: Any) -> ModelSpec:
    if not isinstance(doc, dict):
        raise ModelParseError("$: model document must be a JSON object")
    base = _require(doc, "base", "$", dict)
    btype = _require(base, "type", "$.base", str, _BASE_TYPES)
    if btype == "wps":
        m1 = _require(base, "m1", "$.base", int)
        m2 = _require(base, "m2", "$.base", int)
        if m1 < 1 or m2 < 1 or math.gcd(m1, m2) != 1:
            raise ModelParseError("$.base: m1, m2 must be coprime positive integers")
        # the grid of older model files: validated so those files still
        # parse, then ignored, because the profile is in closed form
        if "grid" in base and _require(base, "grid", "$.base", int) < 4:
            raise ModelParseError("$.base.grid: must be an integer >= 4")
    elif btype == "round_sphere":
        _positive(_require(base, "radius", "$.base", (int, float)), "$.base.radius")
    elif btype == "flat_torus":
        _positive(_require(base, "length", "$.base", (int, float)), "$.base.length")
        _positive(_require(base, "radius", "$.base", (int, float)), "$.base.radius")
    else:  # profile
        samples = _require(base, "samples", "$.base", list)
        if len(samples) < 8:
            raise ModelParseError("$.base.samples: need at least 8 [s, phi] pairs")
        for i, row in enumerate(samples):
            if (
                not isinstance(row, list)
                or len(row) != 2
                or not all(_is_number(v) for v in row)
            ):
                raise ModelParseError(f"$.base.samples[{i}]: expected a [s, phi] number pair")
        for key in ("m_start", "m_end"):
            m = _require(base, key, "$.base", int)
            if m < 1:
                raise ModelParseError(f"$.base.{key}: must be a positive integer")

    ell = _require(doc, "ell", "$", dict)
    etype = _require(ell, "type", "$.ell", str, _ELL_TYPES)
    if etype == "constant":
        _positive(_require(ell, "value", "$.ell", (int, float)), "$.ell.value")
    else:
        values = _require(ell, "values", "$.ell", list)
        if len(values) < 4 or not all(_is_number(v) for v in values):
            raise ModelParseError("$.ell.values: need at least 4 numbers")
        if min(values) <= 0:
            raise ModelParseError("$.ell.values: fiber length must be positive everywhere")

    F = _require(doc, "F", "$", dict)
    ftype = _require(F, "type", "$.F", str, _F_TYPES)
    if ftype == "constant":
        v = _require(F, "value", "$.F", (int, float))
        if not math.isfinite(float(v)):
            raise ModelParseError("$.F.value: must be finite")
    elif ftype == "samples":
        values = _require(F, "values", "$.F", list)
        if len(values) < 4 or not all(_is_number(v) for v in values):
            raise ModelParseError("$.F.values: need at least 4 numbers")
    else:  # wps density needs a wps base
        if btype != "wps":
            raise ModelParseError("$.F.type: 'wps' density requires a 'wps' base")

    quad = doc.get("quadrature")
    if quad is not None:
        if not isinstance(quad, dict):
            raise ModelParseError("$.quadrature: expected an object")
        unknown = set(quad) - set(_QUADRATURE_FIELDS) - _LEGACY_QUADRATURE_FIELDS
        if unknown:
            raise ModelParseError(f"$.quadrature: unknown fields {sorted(unknown)}")
        for key, types in _QUADRATURE_FIELDS.items():
            if key in quad:
                _require(quad, key, "$.quadrature", types)
        if "endpoint_mode" in quad:
            _require(quad, "endpoint_mode", "$.quadrature", str, _LEGACY_ENDPOINT_MODES)
        if "epsilon" in quad:
            eps = _require(quad, "epsilon", "$.quadrature", (int, float))
            _positive(eps, "$.quadrature.epsilon")
        for key, least in _LEGACY_PANEL_MINIMA.items():
            if key in quad and _require(quad, key, "$.quadrature", int) < least:
                raise ModelParseError(f"$.quadrature.{key}: must be an integer >= {least}")
        try:
            build_quadrature(quad)
        except (TypeError, ValueError) as exc:
            raise ModelParseError(f"$.quadrature: {exc}") from exc

    return ModelSpec(base=base, ell=ell, F=F, quadrature=quad, raw=doc)


def parse_model_file(path: str) -> ModelSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelParseError(f"$: cannot read model file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelParseError(f"$: invalid JSON: {exc}") from exc
    return parse_model(doc)


def build_quadrature(overrides: dict | None) -> QuadratureConfig | None:
    fields = {k: v for k, v in (overrides or {}).items() if k in _QUADRATURE_FIELDS}
    return QuadratureConfig(**fields) if fields else None


def build_base(spec: ModelSpec) -> Base:
    base = spec.base
    btype = base["type"]
    if btype == "wps":
        return wps_profile(base["m1"], base["m2"])
    if btype == "round_sphere":
        return make_round_sphere(float(base["radius"]))
    if btype == "flat_torus":
        return FlatTorusBase(length=float(base["length"]), radius=float(base["radius"]))
    samples = np.asarray(base["samples"], dtype=float)
    try:
        return profile_from_samples(
            samples[:, 0], samples[:, 1], base["m_start"], base["m_end"]
        )
    except ValueError as exc:
        raise ModelParseError(f"$.base.samples: {exc}") from exc


def _field_from(spec_part: dict, base: Base, kind: str) -> RadialField:
    if spec_part["type"] == "constant":
        return RadialField.const(float(spec_part["value"]))
    grid = np.linspace(0.0, base.length, len(spec_part["values"]))
    values = np.asarray(spec_part["values"], dtype=float)
    try:
        return RadialField.from_samples(grid, values, periodic=base.periodic)
    except ValueError as exc:
        raise ModelParseError(f"$.{kind}.values: {exc}") from exc


def build_metric(spec: ModelSpec) -> InvariantMetric:
    base = build_base(spec)
    ell = _field_from(spec.ell, base, "ell")
    if spec.F["type"] == "wps":
        F = wps_density_field(spec.base["m1"], spec.base["m2"])
    else:
        F = _field_from(spec.F, base, "F")
    try:
        return InvariantMetric(base=base, ell=ell, F=F)
    except ValueError as exc:
        raise ModelParseError(f"$.ell: {exc}") from exc


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    """17 significant digits: enough to round-trip any double bit-exactly."""
    if isinstance(x, float):
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _write_canonical(obj: Any, out: io.StringIO, indent: int, path: str = "$") -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            out.write(f'{pad}  "{k}": ')
            _write_canonical(v, out, indent + 1, f"{path}.{k}")
            out.write(",\n" if i < len(items) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.write("[]")
            return
        out.write("[\n")
        for i, v in enumerate(seq):
            out.write(pad + "  ")
            _write_canonical(v, out, indent + 1, f"{path}[{i}]")
            out.write(",\n" if i < len(seq) - 1 else "\n")
        out.write(pad + "]")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise NumericalError(f"{path} is {format_float(float(obj))}, which JSON cannot carry")
        out.write(format_float(float(obj)))
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif obj is None:
        out.write("null")
    else:
        out.write(json.dumps(str(obj)))


def canonical_json(obj: Any) -> str:
    """The report as JSON (RFC 8259): keys in the order given, two-space
    indents and 17-digit floats.  JSON has no NaN or infinity, so either
    raises NumericalError naming its key path."""
    buf = io.StringIO()
    _write_canonical(obj, buf, 0)
    buf.write("\n")
    return buf.getvalue()


def table_to_csv(columns: dict[str, list]) -> str:
    """RFC-4180-style CSV with a one-line header, 17-digit floats, CRLF rows;
    None is an empty cell."""
    names = list(columns)
    rows = zip(*[columns[n] for n in names])
    lines = [",".join(names)]
    for row in rows:
        cells = []
        for v in row:
            if v is None:
                cells.append("")
            elif isinstance(v, (float, np.floating)):
                cells.append(format_float(float(v)))
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                text = str(v)
                if any(ch in text for ch in ",\"\r\n"):
                    text = '"' + text.replace('"', '""') + '"'
                cells.append(text)
        lines.append(",".join(cells))
    return "\r\n".join(lines) + "\r\n"
