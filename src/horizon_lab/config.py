"""Configuration documents: schema, parsing, canonical serialization.

A config is a JSON object (schema version 1) describing the field, its
homogeneity data (explicit or inferred), the chart, the runs, and output
options.  Parsing is strict: unknown keys are rejected, and every failure
raises SchemaError carrying a JSON pointer to the offending element.
Canonical emission (sorted keys, two-space indent, trailing newline) is
byte-stable under a parse/emit round trip.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional, Tuple, Union

import jsonschema

from .errors import SchemaError
from .homogeneity import FieldSpec, HomogeneityType, Monomial

__all__ = [
    "SCHEMA_VERSION",
    "CONFIG_SCHEMA",
    "RunSpec",
    "OutputSpec",
    "AnalysisConfig",
    "parse_config",
    "canonical_text",
    "config_from_bundle",
]

SCHEMA_VERSION = 1

DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-12
DEFAULT_HORIZON_EPS = 1e-12
DEFAULT_TAU_MAX = 200.0

_MONOMIAL_SCHEMA = {
    "type": "object",
    "properties": {
        "coeff": {"type": "number"},
        "exponents": {"type": "array", "items": {"type": "number"}},
    },
    "required": ["coeff", "exponents"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "field": {
            "type": "object",
            "properties": {
                "variables": {
                    "type": "array",
                    "items": {"type": "string"},
                    "minItems": 1,
                },
                "components": {
                    "type": "array",
                    "items": {"type": "array", "items": _MONOMIAL_SCHEMA},
                },
                "nonautonomous": {"type": "boolean"},
            },
            "required": ["variables", "components"],
            "additionalProperties": False,
        },
        "homogeneity": {
            "type": "object",
            "properties": {
                "alpha": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 0},
                },
                "k": {"type": "number"},
                "infer": {"type": "boolean"},
                "alpha_max": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "chart": {
            "type": "object",
            "properties": {
                "type": {"enum": ["parabolic", "directional"]},
                "index": {"type": "integer", "minimum": 0},
                "sign": {"enum": [1, -1]},
            },
            "required": ["type"],
            "additionalProperties": False,
        },
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {
                    "y0": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 1,
                    },
                    "t0": {"type": "number"},
                    "tau_max": {"type": "number", "exclusiveMinimum": 0},
                    "rel_tol": {"type": "number", "exclusiveMinimum": 0},
                    "abs_tol": {"type": "number", "exclusiveMinimum": 0},
                    "horizon_eps": {"type": "number", "minimum": 0},
                },
                "required": ["y0"],
                "additionalProperties": False,
            },
        },
        "outputs": {
            "type": "object",
            "properties": {
                "directory": {"type": "string"},
                "formats": {
                    "type": "array",
                    "items": {"enum": ["csv", "json"]},
                    "minItems": 1,
                },
            },
            "additionalProperties": False,
        },
    },
    "required": ["schema", "field", "homogeneity", "chart", "runs"],
    "additionalProperties": False,
}

_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


def _pointer(path) -> str:
    return "/" + "/".join(str(p) for p in path)


def _nonfinite_path(value, path=()):
    """Path to the first NaN or infinite number in a decoded document, or
    None.  Python's json accepts NaN and Infinity, and 1e999 overflows."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return None
    for key, item in items:
        found = _nonfinite_path(item, path + (key,))
        if found is not None:
            return found
    return None


@dataclass(frozen=True)
class RunSpec:
    """One integration request: initial point plus tolerances."""

    y0: Tuple[float, ...]
    t0: float = 0.0
    tau_max: float = DEFAULT_TAU_MAX
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL
    horizon_eps: float = DEFAULT_HORIZON_EPS


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "horizon_lab_out"
    formats: Tuple[str, ...] = ("csv", "json")


@dataclass(frozen=True)
class AnalysisConfig:
    """A validated analysis request.

    Either ``htype`` is set (explicit alpha/k) or ``infer_alpha_max`` is set
    (type inference requested); never both.
    """

    field: FieldSpec
    htype: Optional[HomogeneityType]
    infer_alpha_max: Optional[int]
    chart_kind: str
    chart_index: Optional[int]
    chart_sign: int
    runs: Tuple[RunSpec, ...]
    outputs: OutputSpec
    document: dict = dc_field(repr=False, default_factory=dict)


def parse_config(text: Union[str, bytes]) -> AnalysisConfig:
    """Parse and validate a JSON config document.

    Raises SchemaError (with a JSON pointer) for structural problems and for
    semantic ones the schema cannot express: NaN or infinite numbers,
    arity mismatches, an all-zero alpha, non-positive order, a directional
    chart over a weight-0 variable, and initial points outside the chart's
    half-space.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"config is not valid UTF-8: {exc}", "") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}", "") from exc

    errors = sorted(
        _VALIDATOR.iter_errors(doc), key=lambda e: list(e.absolute_path)
    )
    if errors:
        err = errors[0]
        raise SchemaError(err.message, _pointer(err.absolute_path))
    bad = _nonfinite_path(doc)
    if bad is not None:
        raise SchemaError("numbers must be finite", _pointer(bad))

    fdoc = doc["field"]
    variables = tuple(fdoc["variables"])
    n = len(variables)
    if len(set(variables)) != n:
        raise SchemaError("variable names must be unique", "/field/variables")
    comps_doc = fdoc["components"]
    if len(comps_doc) != n:
        raise SchemaError(
            f"{len(comps_doc)} components for {n} variables",
            "/field/components",
        )
    components = []
    for i, comp in enumerate(comps_doc):
        monos = []
        for j, m in enumerate(comp):
            if len(m["exponents"]) != n:
                raise SchemaError(
                    f"monomial has {len(m['exponents'])} exponents for {n} "
                    f"variables",
                    f"/field/components/{i}/{j}/exponents",
                )
            if m["coeff"] == 0:
                raise SchemaError(
                    "monomial coefficient must be nonzero",
                    f"/field/components/{i}/{j}/coeff",
                )
            monos.append(
                Monomial(coeff=m["coeff"], exponents=tuple(m["exponents"]))
            )
        components.append(tuple(monos))
    nonautonomous = bool(fdoc.get("nonautonomous", False))
    if nonautonomous:
        c0 = components[0]
        ok = (
            len(c0) == 1
            and c0[0].coeff == 1.0
            and all(e == 0 for e in c0[0].exponents)
        )
        if not ok:
            raise SchemaError(
                "nonautonomous fields must have the constant monomial 1 as "
                "component 0 (t' = 1)",
                "/field/components/0",
            )
    field = FieldSpec(
        variable_names=variables,
        components=tuple(components),
        nonautonomous=nonautonomous,
    )

    hdoc = doc["homogeneity"]
    explicit = "alpha" in hdoc or "k" in hdoc
    inferred = hdoc.get("infer", False) or "alpha_max" in hdoc
    if explicit and inferred:
        raise SchemaError(
            "give either alpha/k or infer/alpha_max, not both", "/homogeneity"
        )
    htype = None
    infer_alpha_max = None
    if inferred:
        if not hdoc.get("infer", False):
            raise SchemaError(
                "alpha_max requires \"infer\": true", "/homogeneity/infer"
            )
        infer_alpha_max = int(hdoc.get("alpha_max", 6))
    else:
        if "alpha" not in hdoc or "k" not in hdoc:
            raise SchemaError(
                "explicit homogeneity needs both alpha and k", "/homogeneity"
            )
        alpha = tuple(hdoc["alpha"])
        if len(alpha) != n:
            raise SchemaError(
                f"alpha has {len(alpha)} entries for {n} variables",
                "/homogeneity/alpha",
            )
        if not any(alpha):
            raise SchemaError(
                "alpha must have at least one positive entry",
                "/homogeneity/alpha",
            )
        if nonautonomous and alpha[0] != 0:
            raise SchemaError(
                "the time variable must have weight 0", "/homogeneity/alpha/0"
            )
        k = hdoc["k"]
        if not k > 0:
            raise SchemaError("order k must be positive", "/homogeneity/k")
        htype = HomogeneityType(alpha=alpha, k=k)

    cdoc = doc["chart"]
    chart_kind = cdoc["type"]
    chart_index = None
    chart_sign = int(cdoc.get("sign", 1))
    if chart_kind == "directional":
        if "index" not in cdoc:
            raise SchemaError("directional chart needs an index", "/chart")
        chart_index = int(cdoc["index"])
        if chart_index >= n:
            raise SchemaError(
                f"chart index {chart_index} out of range for {n} variables",
                "/chart/index",
            )
        if htype is not None and htype.alpha[chart_index] == 0:
            raise SchemaError(
                "directional charts need a positively weighted variable",
                "/chart/index",
            )
    elif "index" in cdoc or "sign" in cdoc:
        raise SchemaError(
            "parabolic charts take no index or sign", "/chart"
        )

    runs = []
    for i, rdoc in enumerate(doc["runs"]):
        y0 = tuple(float(v) for v in rdoc["y0"])
        if len(y0) != n:
            raise SchemaError(
                f"y0 has {len(y0)} entries for {n} variables",
                f"/runs/{i}/y0",
            )
        if chart_kind == "directional" and chart_index is not None:
            if chart_sign * y0[chart_index] <= 0:
                raise SchemaError(
                    f"initial point lies outside the chart half-space "
                    f"({'+' if chart_sign > 0 else '-'}y[{chart_index}] > 0)",
                    f"/runs/{i}/y0/{chart_index}",
                )
        if nonautonomous and "t0" in rdoc and rdoc["t0"] != y0[0]:
            raise SchemaError(
                "for nonautonomous fields t0 must equal y0[0]",
                f"/runs/{i}/t0",
            )
        runs.append(
            RunSpec(
                y0=y0,
                t0=float(rdoc.get("t0", y0[0] if nonautonomous else 0.0)),
                tau_max=float(rdoc.get("tau_max", DEFAULT_TAU_MAX)),
                rel_tol=float(rdoc.get("rel_tol", DEFAULT_REL_TOL)),
                abs_tol=float(rdoc.get("abs_tol", DEFAULT_ABS_TOL)),
                horizon_eps=float(rdoc.get("horizon_eps", DEFAULT_HORIZON_EPS)),
            )
        )

    odoc = doc.get("outputs", {})
    outputs = OutputSpec(
        directory=odoc.get("directory", "horizon_lab_out"),
        formats=tuple(odoc.get("formats", ("csv", "json"))),
    )

    return AnalysisConfig(
        field=field,
        htype=htype,
        infer_alpha_max=infer_alpha_max,
        chart_kind=chart_kind,
        chart_index=chart_index,
        chart_sign=chart_sign,
        runs=tuple(runs),
        outputs=outputs,
        document=doc,
    )


def canonical_text(doc: dict) -> str:
    """Serialize a config/report dict deterministically (byte-stable)."""
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def config_from_bundle(bundle, outputs: Optional[dict] = None) -> dict:
    """Build the canonical config document for a built-in system bundle."""
    field = bundle.field
    doc = {
        "schema": SCHEMA_VERSION,
        "field": {
            "variables": list(field.variable_names),
            "nonautonomous": field.nonautonomous,
            "components": [
                [
                    {"coeff": m.coeff, "exponents": [_num(e) for e in m.exponents]}
                    for m in comp
                ]
                for comp in field.components
            ],
        },
        "homogeneity": {
            "alpha": list(bundle.htype.alpha),
            "k": _num(bundle.htype.k),
        },
        "chart": (
            {"type": "parabolic"}
            if bundle.chart_kind == "parabolic"
            else {
                "type": "directional",
                "index": bundle.chart_index,
                "sign": bundle.chart_sign,
            }
        ),
        "runs": [
            {
                "y0": [float(v) for v in run["y0"]],
                "t0": float(run.get("t0", 0.0)),
                "tau_max": float(run.get("tau_max", DEFAULT_TAU_MAX)),
                "rel_tol": DEFAULT_REL_TOL,
                "abs_tol": DEFAULT_ABS_TOL,
                "horizon_eps": DEFAULT_HORIZON_EPS,
            }
            for run in bundle.default_runs
        ],
    }
    if outputs:
        doc["outputs"] = dict(outputs)
    return doc


def _num(value):
    """JSON-friendly number: ints stay ints, fractions/floats become floats."""
    if isinstance(value, int):
        return value
    f = float(value)
    return int(f) if f.is_integer() else f
