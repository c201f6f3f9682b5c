"""Configuration documents: validation, parsing, canonical serialization.

A config is a JSON object (schema version 1) describing the field, its
homogeneity type (alpha, k), the chart, the runs, and output options.
Parsing is strict and validates as it reads: unknown keys are rejected,
and every failure raises SchemaError carrying a JSON pointer to the
offending element.  Parsing also builds the chart on the config's type:
the one type every later stage reads.  Canonical emission (sorted keys,
two-space indent, trailing newline) is byte-stable under a parse/emit
round trip.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field as dc_field
from typing import Tuple, Union

from .charts import Chart, DirectionalChart, ParabolicChart
from .dynamics import IntegratorControls
from .errors import DomainError, SchemaError
from .homogeneity import FieldSpec, HomogeneityType, Monomial

__all__ = [
    "SCHEMA_VERSION",
    "RunSpec",
    "OutputSpec",
    "AnalysisConfig",
    "parse_config",
    "canonical_text",
]

SCHEMA_VERSION = 1

# the integrator controls a run may give, checked against
# IntegratorControls.BOUNDS; one left out gets the IntegratorControls default
_RUN_CONTROLS = ("tau_max", "rel_tol", "abs_tol", "horizon_eps")

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
    unknown = sorted(k for k in value if k not in required + optional)
    if unknown:
        raise SchemaError(f"unknown key(s): {_quoted(unknown)}", ptr or "/")
    return value


def _quoted(keys) -> str:
    return ", ".join(repr(k) for k in keys)


def _list(value, ptr: str, min_items: int = 0) -> list:
    if len(_typed(value, ptr, list)) < min_items:
        raise SchemaError(f"needs at least {min_items} item(s)", ptr)
    return value


def _number(value, ptr: str, above=None, at_least=None):
    """A finite JSON number (never a boolean) within the given bounds."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError("expected a number", ptr)
    # NaN fails every comparison; a JSON integer beyond float range overflows
    if not abs(value) <= sys.float_info.max:
        raise SchemaError("numbers must be finite", ptr)
    if above is not None and not value > above:
        raise SchemaError(f"must be greater than {above}", ptr)
    if at_least is not None and not value >= at_least:
        raise SchemaError(f"must be at least {at_least}", ptr)
    return value


def _integer(value, ptr: str, at_least: int):
    """A JSON integer; an integral float such as 1.0 counts as one."""
    _number(value, ptr, at_least=at_least)
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
    for the root), for text that is not UTF-8 JSON and for a document with
    - an unknown key in any object, or a missing required one (``schema``,
      ``field``, ``homogeneity``, ``chart``, ``runs``; ``field.variables``
      and ``components``; ``homogeneity.alpha`` and ``k``; a monomial's
      ``coeff`` and ``exponents``; ``chart.type``; a run's ``y0``);
    - a wrong JSON type: a boolean is never a number, while an integral
      float such as 1.0 counts as an integer;
    - a NaN or infinite number anywhere, 1e999 and integers beyond float
      range included;
    - a value out of range: ``tau_max``, ``rel_tol`` or ``abs_tol`` <= 0;
      ``horizon_eps``, an ``alpha`` entry or ``chart.index`` < 0; an empty
      ``variables``, ``runs``, ``y0`` or ``formats``; ``schema`` not 1,
      ``chart.type`` not parabolic or directional, ``chart.sign`` not 1 or
      -1, a format not csv or json;
    - repeated variable names, a zero coefficient, or components, exponents,
      alpha, y0 or a chart index that do not fit the number of variables;
    - a nonautonomous field without t' = 1 as component 0, with a nonzero
      time weight, or with a run whose ``t0`` is not ``y0[0]``;
    - an all-zero alpha or k <= 0; an alpha entry or a 2 beta_i = 2
      lcm(alpha)/alpha_i beyond int64 (2**63 - 1);
    - a directional chart without an index, over a variable of weight 0,
      or with an initial point outside its half-space; a parabolic chart
      with an index or sign.
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
    n = len(variables)
    if len(set(variables)) != n:
        raise SchemaError("variable names must be unique", "/field/variables")
    comps_doc = [
        [
            _monomial(m, f"/field/components/{i}/{j}")
            for j, m in enumerate(_list(comp, f"/field/components/{i}"))
        ]
        for i, comp in enumerate(_list(fdoc["components"], "/field/components"))
    ]
    if len(comps_doc) != n:
        raise SchemaError(
            f"{len(comps_doc)} components for {n} variables",
            "/field/components",
        )
    components = []
    for i, comp in enumerate(comps_doc):
        monos = []
        for j, (coeff, exponents) in enumerate(comp):
            ptr = f"/field/components/{i}/{j}"
            if len(exponents) != n:
                raise SchemaError(
                    f"monomial has {len(exponents)} exponents for {n} variables",
                    f"{ptr}/exponents",
                )
            if coeff == 0:
                raise SchemaError(
                    "monomial coefficient must be nonzero", f"{ptr}/coeff"
                )
            monos.append(Monomial(coeff=coeff, exponents=exponents))
        components.append(tuple(monos))
    nonautonomous = _typed(
        fdoc.get("nonautonomous", False), "/field/nonautonomous", bool
    )
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

    hdoc = _object(doc["homogeneity"], "/homogeneity", ("alpha", "k"))
    alpha = tuple(
        _integer(a, f"/homogeneity/alpha/{i}", 0)
        for i, a in enumerate(_list(hdoc["alpha"], "/homogeneity/alpha"))
    )
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
    k = _number(hdoc["k"], "/homogeneity/k")
    if not k > 0:
        raise SchemaError("order k must be positive", "/homogeneity/k")
    try:  # k is checked above, so what fails here is alpha's size
        htype = HomogeneityType(alpha=alpha, k=k)
    except DomainError as exc:
        raise SchemaError(str(exc), "/homogeneity/alpha") from None

    cdoc = _object(doc["chart"], "/chart", ("type",), ("index", "sign"))
    chart_kind = _choice(cdoc["type"], "/chart/type", ("parabolic", "directional"))
    chart_sign = int(_choice(cdoc.get("sign", 1), "/chart/sign", (1, -1)))
    chart_index = None
    if "index" in cdoc:
        chart_index = int(_integer(cdoc["index"], "/chart/index", 0))
    if chart_kind == "parabolic":
        if "index" in cdoc or "sign" in cdoc:
            raise SchemaError("parabolic charts take no index or sign", "/chart")
        chart = ParabolicChart(htype=htype)
    else:
        if chart_index is None:
            raise SchemaError("directional chart needs an index", "/chart")
        if chart_index >= n:
            raise SchemaError(
                f"chart index {chart_index} out of range for {n} variables",
                "/chart/index",
            )
        if htype.alpha[chart_index] == 0:
            raise SchemaError(
                "directional charts need a positively weighted variable",
                "/chart/index",
            )
        chart = DirectionalChart(htype=htype, i0=chart_index, sign=chart_sign)

    runs = []
    for i, rdoc in enumerate(_list(doc["runs"], "/runs", 1)):
        ptr = f"/runs/{i}"
        _object(rdoc, ptr, ("y0",), ("t0", *_RUN_CONTROLS))
        y0 = tuple(
            float(_number(v, f"{ptr}/y0/{j}"))
            for j, v in enumerate(_list(rdoc["y0"], f"{ptr}/y0", 1))
        )
        if len(y0) != n:
            raise SchemaError(
                f"y0 has {len(y0)} entries for {n} variables", f"{ptr}/y0"
            )
        if isinstance(chart, DirectionalChart):
            if chart.sign * y0[chart.i0] <= 0:
                raise SchemaError(
                    f"initial point lies outside the chart half-space "
                    f"({'+' if chart.sign > 0 else '-'}y[{chart.i0}] > 0)",
                    f"{ptr}/y0/{chart.i0}",
                )
        t0 = _number(rdoc.get("t0", y0[0] if nonautonomous else 0.0), f"{ptr}/t0")
        if nonautonomous and t0 != y0[0]:
            raise SchemaError(
                "for nonautonomous fields t0 must equal y0[0]", f"{ptr}/t0"
            )
        controls = IntegratorControls(**{
            key: float(
                _number(rdoc[key], f"{ptr}/{key}", **IntegratorControls.BOUNDS[key])
            )
            for key in _RUN_CONTROLS
            if key in rdoc
        })
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


def canonical_text(doc: dict) -> str:
    """Serialize a config/report dict deterministically (byte-stable)."""
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
