"""Configuration documents: validation, parsing, canonical serialization.

A config is a JSON object (schema version 1) describing the field, its
homogeneity type (alpha, k), the chart, the runs, and output options.
Parsing is strict and validates as it reads: unknown keys are rejected,
and every failure raises SchemaError carrying a JSON pointer to the
offending element.  This module checks what JSON alone has; the field,
type, chart and controls it builds state their own rules, and an error
they locate becomes a SchemaError at the element it came from.  The chart
is built on the config's type: the one type every later stage reads.
Canonical emission (sorted keys, two-space indent, trailing newline) is
byte-stable under a parse/emit round trip.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field as dc_field
from typing import Tuple, Union

from .charts import Chart, DirectionalChart, ParabolicChart
from .dynamics import IntegratorControls
from .errors import HorizonLabError, SchemaError
from .homogeneity import FieldSpec, HomogeneityType, Monomial, derive_beta

__all__ = [
    "SCHEMA_VERSION",
    "RunSpec",
    "OutputSpec",
    "AnalysisConfig",
    "parse_config",
    "canonical_text",
]

SCHEMA_VERSION = 1

# the integrator controls a run may give; one left out gets the
# IntegratorControls default, and the runs that give none share _DEFAULTS
_RUN_CONTROLS = ("tau_max", "rel_tol", "abs_tol", "horizon_eps")
_RUN_OPTIONAL = ("t0", *_RUN_CONTROLS)
_DEFAULTS = IntegratorControls()

_FLOAT_MAX = sys.float_info.max
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean"}


def _typed(value, ptr: str, kind: type):
    if not isinstance(value, kind):
        raise SchemaError(f"expected {_JSON_TYPES[kind]}", ptr or "/")
    return value


def _object(value, ptr: str, required: tuple, optional: tuple = ()) -> dict:
    """A JSON object with every ``required`` key and no key outside both."""
    _typed(value, ptr, dict)
    missing = [k for k in required if k not in value]
    if missing:
        raise SchemaError(f"missing key(s): {_quoted(missing)}", ptr or "/")
    unknown = [k for k in value if k not in required and k not in optional]
    if unknown:
        raise SchemaError(f"unknown key(s): {_quoted(sorted(unknown))}", ptr or "/")
    return value


def _quoted(keys) -> str:
    return ", ".join(repr(k) for k in keys)


def _list(value, ptr: str, min_items: int = 0) -> list:
    if len(_typed(value, ptr, list)) < min_items:
        raise SchemaError(f"needs at least {min_items} item(s)", ptr)
    return value


def _number(value, ptr: str):
    """A finite JSON number (never a boolean)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError("expected a number", ptr)
    # NaN fails every comparison; a JSON integer beyond float range overflows
    if not abs(value) <= _FLOAT_MAX:
        raise SchemaError("numbers must be finite", ptr)
    return value


def _integer(value, ptr: str):
    """A JSON integer; an integral float such as 1.0 counts as one."""
    _number(value, ptr)
    if isinstance(value, float) and not value.is_integer():
        raise SchemaError("expected an integer", ptr)
    return value


def _choice(value, ptr: str, options: tuple):
    # True == 1 in Python, but a JSON boolean is never one of the options
    if isinstance(value, bool) or value not in options:
        raise SchemaError(f"must be one of {_quoted(options)}", ptr)
    return value


@dataclass(frozen=True)
class RunSpec:
    """One integration request: initial point plus integrator controls."""

    y0: Tuple[float, ...]
    t0: float
    controls: IntegratorControls


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "horizon_lab_out"
    formats: Tuple[str, ...] = ("csv", "json")


@dataclass(frozen=True)
class AnalysisConfig:
    """A validated analysis request.

    ``htype`` is the config's homogeneity type (alpha, k).  ``chart`` is
    the parabolic or directional chart built on that type.
    """

    field: FieldSpec
    htype: HomogeneityType
    chart: Chart
    runs: Tuple[RunSpec, ...]
    outputs: OutputSpec
    document: dict = dc_field(repr=False, default_factory=dict)


def parse_config(text: Union[str, bytes]) -> AnalysisConfig:
    """Parse and validate a JSON config document in one pass.

    Raises SchemaError, whose ``pointer`` names the offending element ("/"
    for the root).  This layer checks what JSON alone has: UTF-8 JSON text,
    unknown and missing keys, JSON types (a boolean is never a number; an
    integral float such as 1.0 counts as an integer), finite numbers (1e999
    and integers beyond float range are not), ``schema`` 1, the
    ``chart.type`` and format names, a nonempty ``variables``, ``runs`` and
    ``formats``, a parabolic chart without index and sign, a directional
    one with an index, and a nonautonomous run's ``t0 = y0[0]``.  Each
    other rule is stated by the type built here that owns it, and the
    error it ``located`` is raised at the element that type was built
    from: ``Monomial`` and ``FieldSpec`` (the field), ``derive_beta``,
    ``FieldSpec.check_weights`` and ``HomogeneityType`` (alpha and k),
    ``DirectionalChart`` (index and sign), the chart's ``checked`` (y0)
    and ``IntegratorControls`` (a run's controls).
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

    _object(doc, "", ("schema", "field", "homogeneity", "chart", "runs"), ("outputs",))
    _choice(doc["schema"], "/schema", (SCHEMA_VERSION,))

    fdoc = _object(
        doc["field"], "/field", ("variables", "components"), ("nonautonomous",)
    )
    variables = tuple(
        _typed(v, f"/field/variables/{i}", str)
        for i, v in enumerate(_list(fdoc["variables"], "/field/variables", 1))
    )
    ptr = "/field/components"
    comps_doc = [
        [_monomial(m, f"{ptr}/{i}/{j}") for j, m in enumerate(_list(c, f"{ptr}/{i}"))]
        for i, c in enumerate(_list(fdoc["components"], ptr))
    ]
    # every monomial's JSON is checked before any coefficient's rule
    components = tuple(
        tuple(
            _built(Monomial, {"coeff": f"{ptr}/{i}/{j}/coeff"}, *m)
            for j, m in enumerate(c)
        )
        for i, c in enumerate(comps_doc)
    )
    nonautonomous = _typed(
        fdoc.get("nonautonomous", False), "/field/nonautonomous", bool
    )
    where = {"variable_names": "/field/variables", "components": ptr}
    field = _built(FieldSpec, where, variables, components, nonautonomous)

    hdoc = _object(doc["homogeneity"], "/homogeneity", ("alpha", "k"))
    alpha = tuple(
        _integer(a, f"/homogeneity/alpha/{i}")
        for i, a in enumerate(_list(hdoc["alpha"], "/homogeneity/alpha"))
    )
    where = {"alpha": "/homogeneity/alpha", "k": "/homogeneity/k"}
    # alpha's own rules come before how it fits the field, and both before k
    _built(derive_beta, where, alpha)
    _built(field.check_weights, where, alpha)
    htype = _built(HomogeneityType, where, alpha, _number(hdoc["k"], "/homogeneity/k"))

    cdoc = _object(doc["chart"], "/chart", ("type",), ("index", "sign"))
    chart_kind = _choice(cdoc["type"], "/chart/type", ("parabolic", "directional"))
    chart_sign = int(_integer(cdoc.get("sign", 1), "/chart/sign"))
    chart_index = int(_integer(cdoc.get("index", 0), "/chart/index"))
    if chart_kind == "parabolic":
        if "index" in cdoc or "sign" in cdoc:
            raise SchemaError("parabolic charts take no index or sign", "/chart")
        chart = ParabolicChart(htype=htype)
    elif "index" not in cdoc:
        raise SchemaError("directional chart needs an index", "/chart")
    else:
        where = {"i0": "/chart/index", "sign": "/chart/sign"}
        chart = _built(DirectionalChart, where, htype, chart_index, chart_sign)

    runs = []
    for i, rdoc in enumerate(_list(doc["runs"], "/runs", 1)):
        ptr = f"/runs/{i}"
        _object(rdoc, ptr, ("y0",), _RUN_OPTIONAL)
        yptr = f"{ptr}/y0"
        y0 = [_number(v, f"{yptr}/{j}") for j, v in enumerate(_list(rdoc["y0"], yptr))]
        y0 = tuple(_built(chart.checked, {"y": yptr}, y0).tolist())
        t0 = _number(rdoc.get("t0", y0[0] if nonautonomous else 0.0), f"{ptr}/t0")
        if nonautonomous and t0 != y0[0]:
            raise SchemaError(
                "for nonautonomous fields t0 must equal y0[0]", f"{ptr}/t0"
            )
        given = {
            key: float(_number(rdoc[key], f"{ptr}/{key}"))
            for key in _RUN_CONTROLS
            if key in rdoc
        }
        controls = _DEFAULTS
        if given:
            where = {key: f"{ptr}/{key}" for key in given}
            controls = _built(IntegratorControls, where, **given)
        runs.append(RunSpec(y0=y0, t0=float(t0), controls=controls))

    odoc = _object(doc.get("outputs", {}), "/outputs", (), ("directory", "formats"))
    formats = _list(odoc.get("formats", ["csv", "json"]), "/outputs/formats", 1)
    outputs = OutputSpec(
        directory=_typed(
            odoc.get("directory", "horizon_lab_out"), "/outputs/directory", str
        ),
        formats=tuple(
            _choice(f, f"/outputs/formats/{i}", ("csv", "json"))
            for i, f in enumerate(formats)
        ),
    )

    return AnalysisConfig(
        field=field,
        htype=htype,
        chart=chart,
        runs=tuple(runs),
        outputs=outputs,
        document=doc,
    )


def _monomial(value, ptr: str) -> tuple:
    """A monomial object's (coeff, exponents), both checked as numbers."""
    _object(value, ptr, ("coeff", "exponents"))
    return _number(value["coeff"], f"{ptr}/coeff"), tuple(
        _number(e, f"{ptr}/exponents/{q}")
        for q, e in enumerate(_list(value["exponents"], f"{ptr}/exponents"))
    )


def _built(make, where: dict, *args, **kwargs):
    """``make(*args, **kwargs)``, raising an error ``located`` in an
    argument that ``where`` maps to a pointer as a SchemaError there."""
    try:
        return make(*args, **kwargs)
    except (ValueError, HorizonLabError) as exc:
        err = SchemaError.at(exc, where)
        if err is None:
            raise
        raise err from None


def canonical_text(doc: dict) -> str:
    """Serialize a config/report dict deterministically (byte-stable)."""
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
