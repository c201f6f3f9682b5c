"""Config parsing, canonical serialization, the pipeline, and CLI behavior."""

import csv
import hashlib
import json
import logging
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import horizon_lab
from horizon_lab import (
    ChartDomainError,
    DirectionalChart,
    DomainError,
    FieldSpec,
    HomogeneityType,
    HorizonLabError,
    Monomial,
    NegativeWExponentError,
    OutputError,
    SchemaError,
    cli,
)
from horizon_lab.config import canonical_text, parse_config
from horizon_lab.cli import main, run_pipeline
from horizon_lab.charts import embed
from horizon_lab.desing import build_desing
from horizon_lab.dynamics import (
    IntegratorControls,
    find_horizon_equilibria,
    grid_seeds,
    integrate,
)
from horizon_lab.systems import EXAMPLES, selfsimilar

from conftest import example_text, nan_spectra_where

SCALAR_DOC = {
    "schema": 1,
    "field": {
        "variables": ["y"],
        "components": [[{"coeff": 1.0, "exponents": [2]}]],
    },
    "homogeneity": {"alpha": [1], "k": 1},
    "chart": {"type": "parabolic"},
    "runs": [{"y0": [1.0]}],
}


def doc(**overrides):
    d = json.loads(json.dumps(SCALAR_DOC))
    d.update(overrides)
    return d


# ---------------------------------------------------------------------------
# parse_config


def test_minimal_scalar_config():
    cfg = parse_config(json.dumps(SCALAR_DOC))
    assert cfg.field.variable_names == ("y",)
    assert cfg.htype.alpha == (1,)
    assert cfg.chart.label == "parabolic"
    run = cfg.runs[0]
    assert run.y0 == (1.0,)
    assert run.controls == IntegratorControls()


def test_run_without_tolerances_gets_integrator_defaults():
    controls = parse_config(json.dumps(SCALAR_DOC)).runs[0].controls
    defaults = IntegratorControls()
    assert (
        controls.rel_tol, controls.abs_tol, controls.horizon_eps, controls.tau_max
    ) == (
        defaults.rel_tol,
        defaults.abs_tol,
        defaults.horizon_eps,
        defaults.tau_max,
    )


def test_bytes_input_accepted():
    cfg = parse_config(json.dumps(SCALAR_DOC).encode())
    assert cfg.field.variable_names == ("y",)


def test_all_zero_alpha_pointer():
    bad = doc(homogeneity={"alpha": [0], "k": 1})
    with pytest.raises(SchemaError) as exc_info:
        parse_config(json.dumps(bad))
    assert exc_info.value.pointer == "/homogeneity/alpha"


def test_unknown_key_pointer():
    bad = doc(extra_section={"foo": 1})
    with pytest.raises(SchemaError) as exc_info:
        parse_config(json.dumps(bad))
    assert exc_info.value.pointer == "/"
    assert "extra_section" in str(exc_info.value)


def test_nested_schema_pointer():
    bad = doc()
    bad["runs"][0]["rel_tol"] = -1.0
    with pytest.raises(SchemaError) as exc_info:
        parse_config(json.dumps(bad))
    assert exc_info.value.pointer == "/runs/0/rel_tol"


def test_arity_mismatch_pointer():
    bad = doc()
    bad["runs"] = [{"y0": [1.0, 2.0]}]
    with pytest.raises(SchemaError) as exc_info:
        parse_config(json.dumps(bad))
    assert exc_info.value.pointer == "/runs/0/y0"


def test_alpha_k_and_infer_conflict():
    bad = doc(homogeneity={"alpha": [1], "k": 1, "infer": True})
    with pytest.raises(SchemaError) as exc_info:
        parse_config(json.dumps(bad))
    assert exc_info.value.pointer == "/homogeneity"


def test_directional_halfspace_check():
    bad = doc(
        chart={"type": "directional", "index": 0, "sign": 1},
        runs=[{"y0": [-1.0]}],
    )
    with pytest.raises(SchemaError) as exc_info:
        parse_config(json.dumps(bad))
    assert exc_info.value.pointer == "/runs/0/y0/0"


@pytest.mark.parametrize(
    "where, value, pointer",
    [
        (("runs", 1, "y0", 0), float("nan"), "/runs/1/y0/0"),
        (("runs", 0, "y0", 0), float("inf"), "/runs/0/y0/0"),
        (("runs", 0, "t0"), float("-inf"), "/runs/0/t0"),
        (("runs", 0, "tau_max"), float("inf"), "/runs/0/tau_max"),
        (("runs", 0, "rel_tol"), float("nan"), "/runs/0/rel_tol"),
        (("runs", 0, "abs_tol"), float("inf"), "/runs/0/abs_tol"),
        (("runs", 0, "horizon_eps"), float("nan"), "/runs/0/horizon_eps"),
        (("homogeneity", "k"), float("inf"), "/homogeneity/k"),
    ],
)
def test_nonfinite_numbers_rejected_with_pointer(where, value, pointer):
    bad = doc(runs=[{"y0": [1.0]}, {"y0": [2.0]}])
    target = bad
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    with pytest.raises(SchemaError) as exc_info:
        parse_config(json.dumps(bad))
    assert exc_info.value.pointer == pointer


def test_overflowing_literal_rejected_with_pointer():
    text = json.dumps(SCALAR_DOC).replace('"y0": [1.0]', '"y0": [1e999]')
    with pytest.raises(SchemaError) as exc_info:
        parse_config(text)
    assert exc_info.value.pointer == "/runs/0/y0/0"


@pytest.mark.parametrize(
    "where, pointer",
    [
        (("runs", 0, "y0", 0), "/runs/0/y0/0"),
        (("field", "components", 0, 0, "coeff"), "/field/components/0/0/coeff"),
        (("homogeneity", "k"), "/homogeneity/k"),
    ],
)
def test_integer_beyond_float_range_rejected_with_pointer(where, pointer):
    bad = doc()
    target = bad
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = 10**400  # json writes every digit
    with pytest.raises(SchemaError, match="finite") as exc_info:
        parse_config(json.dumps(bad))
    assert exc_info.value.pointer == pointer


def test_invalid_json_is_schema_error():
    with pytest.raises(SchemaError):
        parse_config("{not json")


# every optional key set, so that each rule below can be broken on its own
FULL_DOC = {
    "schema": 1,
    "field": {
        "variables": ["t", "y"],
        "nonautonomous": True,
        "components": [
            [{"coeff": 1.0, "exponents": [0, 0]}],
            [{"coeff": 1.0, "exponents": [0, 2]}],
        ],
    },
    "homogeneity": {"alpha": [0, 1], "k": 1},
    "chart": {"type": "directional", "index": 1, "sign": 1},
    "runs": [
        {
            "y0": [0.0, 1.0],
            "t0": 0.0,
            "tau_max": 50.0,
            "rel_tol": 1e-10,
            "abs_tol": 1e-12,
            "horizon_eps": 1e-9,
        }
    ],
    "outputs": {"directory": "out", "formats": ["csv", "json"]},
}
DELETE = object()
OVERFLOW = "<1e999>"  # stands for the literal 1e999, which json cannot emit
MONO = ("field", "components", 1, 0)
RUN = ("runs", 0)


def _mutated(where, value):
    d = json.loads(json.dumps(FULL_DOC))
    target = d
    for key in where[:-1]:
        target = target[key]
    if value is DELETE:
        del target[where[-1]]
    else:
        target[where[-1]] = value
    return json.dumps(d).replace(f'"{OVERFLOW}"', "1e999")


@pytest.mark.parametrize(
    "where, value, pointer",
    [
        # unknown keys, reported at the object that holds them
        (("zz",), 1, "/"),
        (("field", "zz"), 1, "/field"),
        (MONO + ("zz",), 1, "/field/components/1/0"),
        (("homogeneity", "zz"), 1, "/homogeneity"),
        (("chart", "zz"), 1, "/chart"),
        (RUN + ("zz",), 1, "/runs/0"),
        (("outputs", "zz"), 1, "/outputs"),
        # required keys
        (("schema",), DELETE, "/"),
        (("field",), DELETE, "/"),
        (("homogeneity",), DELETE, "/"),
        (("chart",), DELETE, "/"),
        (("runs",), DELETE, "/"),
        (("field", "variables"), DELETE, "/field"),
        (("field", "components"), DELETE, "/field"),
        (MONO + ("coeff",), DELETE, "/field/components/1/0"),
        (MONO + ("exponents",), DELETE, "/field/components/1/0"),
        (("chart", "type"), DELETE, "/chart"),
        (RUN + ("y0",), DELETE, "/runs/0"),
        # optional keys may go
        (("field", "nonautonomous"), DELETE, None),
        (("chart", "sign"), DELETE, None),
        (("outputs",), DELETE, None),
        (RUN + ("t0",), DELETE, None),
        (RUN + ("tau_max",), DELETE, None),
        (("outputs", "formats"), DELETE, None),
        # wrong types
        (("field",), [], "/field"),
        (("field", "variables"), "t", "/field/variables"),
        (("field", "variables", 0), 1, "/field/variables/0"),
        (("field", "components"), {}, "/field/components"),
        (("field", "components", 1), {}, "/field/components/1"),
        (MONO, [], "/field/components/1/0"),
        (MONO + ("exponents",), "x", "/field/components/1/0/exponents"),
        (("field", "nonautonomous"), 1, "/field/nonautonomous"),
        (("homogeneity",), [], "/homogeneity"),
        (("homogeneity", "alpha"), 1, "/homogeneity/alpha"),
        (("homogeneity", "k"), "1", "/homogeneity/k"),
        (("chart",), "parabolic", "/chart"),
        (("runs",), {}, "/runs"),
        (RUN, [], "/runs/0"),
        (RUN + ("y0",), "x", "/runs/0/y0"),
        (RUN + ("t0",), None, "/runs/0/t0"),
        (("outputs",), [], "/outputs"),
        (("outputs", "directory"), 1, "/outputs/directory"),
        (("outputs", "formats"), "csv", "/outputs/formats"),
        # a JSON boolean is never a number
        (("schema",), True, "/schema"),
        (MONO + ("coeff",), True, "/field/components/1/0/coeff"),
        (MONO + ("exponents", 1), True, "/field/components/1/0/exponents/1"),
        (("homogeneity", "alpha", 1), True, "/homogeneity/alpha/1"),
        (("homogeneity", "k"), True, "/homogeneity/k"),
        (("chart", "index"), True, "/chart/index"),
        (("chart", "sign"), True, "/chart/sign"),
        (RUN + ("y0", 1), True, "/runs/0/y0/1"),
        (RUN + ("t0",), False, "/runs/0/t0"),
        (RUN + ("tau_max",), True, "/runs/0/tau_max"),
        # an integral float is an integer
        (("schema",), 1.0, None),
        (("homogeneity", "alpha"), [0.0, 1.0], None),
        (("chart", "index"), 1.0, None),
        (("chart", "sign"), 1.0, None),
        (("homogeneity", "alpha", 1), 1.5, "/homogeneity/alpha/1"),
        (("chart", "index"), 1.5, "/chart/index"),
        # bounds
        (RUN + ("tau_max",), 0, "/runs/0/tau_max"),
        (RUN + ("rel_tol",), 0.0, "/runs/0/rel_tol"),
        (RUN + ("abs_tol",), -1e-12, "/runs/0/abs_tol"),
        (RUN + ("horizon_eps",), 0, None),
        (RUN + ("horizon_eps",), -1e-9, "/runs/0/horizon_eps"),
        (("homogeneity", "alpha", 1), -1, "/homogeneity/alpha/1"),
        (("chart", "index"), -1, "/chart/index"),
        (("field", "variables"), [], "/field/variables"),
        (("runs",), [], "/runs"),
        (RUN + ("y0",), [], "/runs/0/y0"),
        (("outputs", "formats"), [], "/outputs/formats"),
        # enums
        (("schema",), 2, "/schema"),
        (("chart", "type"), "polar", "/chart/type"),
        (("chart", "sign"), 0, "/chart/sign"),
        (("chart", "sign"), -1.0, "/runs/0/y0/1"),  # accepted, then off-chart
        (("outputs", "formats", 1), "xml", "/outputs/formats/1"),
        # non-finite numbers
        (MONO + ("coeff",), float("nan"), "/field/components/1/0/coeff"),
        (MONO + ("exponents", 1), float("inf"), "/field/components/1/0/exponents/1"),
        (("homogeneity", "k"), OVERFLOW, "/homogeneity/k"),
        (RUN + ("y0", 1), OVERFLOW, "/runs/0/y0/1"),
        (RUN + ("t0",), float("-inf"), "/runs/0/t0"),
        (RUN + ("tau_max",), float("nan"), "/runs/0/tau_max"),
        # a wrong type is reported before the arity it also breaks
        (("field", "components"), [[]], "/field/components"),
        (("field", "components"), [1], "/field/components/0"),
        (RUN + ("y0",), [1.0, "x", 2.0], "/runs/0/y0/1"),
    ],
)
def test_single_violation_pointer(where, value, pointer):
    text = _mutated(where, value)
    if pointer is None:
        parse_config(text)
        return
    with pytest.raises(SchemaError) as exc_info:
        parse_config(text)
    assert exc_info.value.pointer == pointer


@pytest.mark.parametrize(
    "homogeneity, message",
    [
        ({"infer": True}, "missing key(s): 'alpha', 'k'"),
        ({"alpha": [1], "k": 1, "alpha_max": 6}, "unknown key(s): 'alpha_max'"),
        ({"alpha": [1]}, "missing key(s): 'k'"),
        ({"k": 1}, "missing key(s): 'alpha'"),
    ],
    ids=["infer", "alpha_max", "alpha_only", "k_only"],
)
def test_homogeneity_states_alpha_and_k(homogeneity, message):
    with pytest.raises(SchemaError) as exc_info:
        parse_config(json.dumps(doc(homogeneity=homogeneity)))
    assert exc_info.value.pointer == "/homogeneity"
    assert message in str(exc_info.value)


@pytest.mark.parametrize(
    "where, value, pointer",
    [pytest.param(("homogeneity", "zz"), 1, "/homogeneity", id="where7-1-/homogeneity")],
)
def test_single_violation_pointer_infer(where, value, pointer):
    # a block written for the removed infer/alpha_max keys, with a stray key
    # besides, is still one violation, pointed at the block itself
    d = dict(FULL_DOC, homogeneity={"infer": True, "alpha_max": 6})
    d[where[0]][where[1]] = value
    with pytest.raises(SchemaError) as exc_info:
        parse_config(json.dumps(d))
    assert exc_info.value.pointer == pointer


# a third, weighted variable z beside FULL_DOC's t and y, whose monomial
# y^1.5 z^0.5 is within the type bound k + alpha_z = 2
WITH_Z = {
    ("field", "variables"): ["t", "y", "z"],
    ("field", "components"): [
        [{"coeff": 1.0, "exponents": [0, 0, 0]}],
        [{"coeff": 1.0, "exponents": [0, 2, 0]}],
        [{"coeff": 1.0, "exponents": [0, 1.5, 0.5]}],
    ],
    ("homogeneity", "alpha"): [0, 1, 1],
    RUN + ("y0",): [0.0, 1.0, 1.0],
}
GOOD = parse_config(json.dumps(FULL_DOC))
T1, Y2 = GOOD.field.components


def _built_field(cfg):
    return build_desing(cfg.field, cfg.htype, cfg.chart)


# every rule on a config's field, type, chart and runs: the edits that break
# it in FULL_DOC, the pointer it is reported at, and a call on the same bad
# input of the type that states the rule, with the class that call raises.
# The last four are the desingularization's rules, met when the field is
# built, so validate reports them.
CONFIG_RULES = {
    "unique names": (
        {("field", "variables"): ["t", "t"]}, "/field/variables",
        lambda _: FieldSpec(("t", "t"), (T1, Y2), True), ValueError,
    ),
    "a component per variable": (
        {("field", "components"): FULL_DOC["field"]["components"][:1]}, "/field/components",
        lambda _: FieldSpec(("t", "y"), (T1,), True), ValueError,
    ),
    "n exponents per monomial": (
        {MONO + ("exponents",): [2]}, "/field/components/1/0/exponents",
        lambda _: FieldSpec(("t", "y"), (T1, (Monomial(1.0, (2,)),)), True), ValueError,
    ),
    "a nonzero coefficient": (
        {MONO + ("coeff",): 0}, "/field/components/1/0/coeff",
        lambda _: Monomial(0, (0, 2)), ValueError,
    ),
    "t' = 1": (
        {("field", "components", 0, 0, "coeff"): 2.0}, "/field/components/0",
        lambda _: FieldSpec(("t", "y"), ((Monomial(2.0, (0, 0)),), Y2), True), ValueError,
    ),
    "a weight per variable": (
        {("homogeneity", "alpha"): [1]}, "/homogeneity/alpha",
        lambda _: GOOD.field.check_weights((1,)), ValueError,
    ),
    "a zero time weight": (
        {("homogeneity", "alpha"): [1, 1]}, "/homogeneity/alpha/0",
        lambda _: GOOD.field.check_weights((1, 1)), DomainError,
    ),
    "integral weights": (
        {("homogeneity", "alpha", 1): 1.5}, "/homogeneity/alpha/1",
        lambda _: HomogeneityType((0, 1.5), 1), ValueError,
    ),
    "nonnegative weights": (
        {("homogeneity", "alpha", 1): -1}, "/homogeneity/alpha/1",
        lambda _: HomogeneityType((0, -1), 1), ValueError,
    ),
    "a positive weight": (
        {("homogeneity", "alpha"): [0, 0]}, "/homogeneity/alpha",
        lambda _: HomogeneityType((0, 0), 1), ValueError,
    ),
    "k > 0": (
        {("homogeneity", "k"): 0}, "/homogeneity/k",
        lambda _: HomogeneityType((0, 1), 0), DomainError,
    ),
    "int64 weights": (
        {("homogeneity", "alpha", 1): 2**63}, "/homogeneity/alpha",
        lambda _: HomogeneityType((0, 2**63), 1), DomainError,
    ),
    "a chart sign of 1 or -1": (
        {("chart", "sign"): 0}, "/chart/sign",
        lambda _: DirectionalChart(GOOD.htype, 1, 0), ChartDomainError,
    ),
    "a chart index in range": (
        {("chart", "index"): 2}, "/chart/index",
        lambda _: DirectionalChart(GOOD.htype, 2), ChartDomainError,
    ),
    "a weighted chart index": (
        {("chart", "index"): 0}, "/chart/index",
        lambda _: DirectionalChart(GOOD.htype, 0), ChartDomainError,
    ),
    "a y0 of n entries": (
        {RUN + ("y0",): [0.0, 1.0, 2.0]}, "/runs/0/y0",
        lambda _: embed(GOOD.chart, [0.0, 1.0, 2.0]), ValueError,
    ),
    "a y0 in the half-space": (
        {RUN + ("y0",): [0.0, -1.0]}, "/runs/0/y0/1",
        lambda _: embed(GOOD.chart, [0.0, -1.0]), ChartDomainError,
    ),
    "control bounds": (
        {RUN + ("tau_max",): 0}, "/runs/0/tau_max",
        lambda _: IntegratorControls(tau_max=0), DomainError,
    ),
    "the type bound": (
        {MONO + ("exponents",): [0, 3]}, "/field/components/1/0",
        _built_field, NegativeWExponentError,
    ),
    "parabolic weighted exponents": (
        {
            MONO + ("exponents",): [0, 2.5],
            ("homogeneity", "k"): 2,
            ("chart",): {"type": "parabolic"},
        },
        "/field/components/1/0/exponents/1",
        _built_field, DomainError,
    ),
    "directional crossing variables": (
        WITH_Z, "/field/components/2/0/exponents/2", _built_field, DomainError,
    ),
    "a negative chart's own variable": (
        {MONO + ("exponents",): [0, 1.5], ("chart", "sign"): -1, RUN + ("y0",): [0.0, -1.0]},
        "/field/components/1/0/exponents/1",
        _built_field, ChartDomainError,
    ),
}


@pytest.mark.parametrize(
    "edits, pointer, owner_call, raises",
    list(CONFIG_RULES.values()),
    ids=list(CONFIG_RULES),
)
def test_each_config_rule_is_stated_by_its_type_and_reported_at_its_pointer(
    edits, pointer, owner_call, raises, tmp_path, capsys
):
    d = json.loads(json.dumps(FULL_DOC))
    for where, value in edits.items():
        target = d
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
    text = json.dumps(d)
    try:
        cfg = parse_config(text)
    except SchemaError as exc:
        assert exc.pointer == pointer
        cfg = GOOD
    else:  # a rule of the desingularization, met when the field is built
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.endswith(f" (at {pointer})\n")
    with pytest.raises(raises):
        owner_call(cfg)


# ---------------------------------------------------------------------------
# built-in systems and canonical serialization


def test_selfsimilar_rejects_fractional_m():
    with pytest.raises(DomainError):
        selfsimilar(m=0.5)


def test_example_registry_contents():
    assert set(EXAMPLES) == {"painleve1", "kk_dafermos", "selfsimilar", "mems"}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_emit_parse_emit_is_byte_stable(name):
    first = canonical_text(EXAMPLES[name]().document)
    cfg = parse_config(first)
    second = canonical_text(cfg.document)
    assert first == second
    assert first.endswith("\n")


@pytest.mark.parametrize(
    "name, params, digest",
    [
        ("painleve1", {}, "77fc1de1c02c7f599c151aa03a629c02a5cc2bdf6c5130b99c63782dc445c81e"),
        ("kk_dafermos", {}, "73e141fb229358b8018c28f51225c643a48048860c4d87bd01bdb958faf2dd48"),
        ("selfsimilar", {}, "3baec1628b1120caf28fc67f853dbac17084019aba3e613bec784e9c2259ead1"),
        ("mems", {}, "9814e144f1bc44fed35fb126fe2680f1476f417beaa7900dcec4fac6bf22ea69"),
        (
            "kk_dafermos",
            {"epsilon": 0.5},
            "7df56786cb379f39aefb0816b4932f5fcc6fbe1beab6c97eb05dec03cad69851",
        ),
        (
            "mems",
            {"n_dim": 2, "p": 4, "q": 1.5},
            "8ff4ca9824b88e735e50273e4702832ad63e4a683bb435af145f441852a82ad7",
        ),
        (
            "selfsimilar",
            {"m": -0.5, "beta": -2.0, "alpha_ss": 0.3},
            "a600f7253687f6f571e8cd16e91820d1622e95ea8aa45a4129ae0f56c138c5e2",
        ),
    ],
)
def test_emitted_example_configs_are_pinned(name, params, digest):
    """The --emit-config bytes of every example, at its defaults and at one
    non-default parameter set, are fixed: a refactor of the builders must
    keep them."""
    text = example_text(name, params)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_canonical_text_key_order_independent():
    a = canonical_text({"b": 1, "a": [1, 2]})
    b = canonical_text({"a": [1, 2], "b": 1})
    assert a == b


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_scalar_outputs(tmp_path):
    cfg = parse_config(json.dumps(SCALAR_DOC))
    code, report = run_pipeline(cfg, out_dir=str(tmp_path))
    assert code == 0
    assert (tmp_path / "report.json").exists()
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk == report
    run = report["runs"][0]
    assert run["stop_reason"] == "horizon_reached"
    assert run["blowup"]["t_max"] == pytest.approx(1.0, abs=1e-9)
    csv_path = tmp_path / run["csv"]
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tau", "t", "coord_0", "horizon_gap"]
    # a row per sample after the initial condition; the report counts steps
    df = cli.build_field_from_config(cfg)
    traj = integrate(df, embed(df.chart, np.array([1.0])).coords)
    assert len(rows) - 1 == len(traj.taus) - 1
    assert run["accepted_steps"] == traj.n_accepted < len(rows) - 1
    assert run["rejected_steps"] == traj.n_rejected
    taus = [float(r[0]) for r in rows[1:]]
    assert taus == sorted(taus)
    assert float(rows[-1][3]) < 1e-11


def test_pipeline_partial_run_exit_code(tmp_path):
    d = doc()
    d["runs"] = [{"y0": [1.0]}, {"y0": [0.1], "tau_max": 1.0}]
    cfg = parse_config(json.dumps(d))
    code, report = run_pipeline(cfg, out_dir=str(tmp_path))
    assert code == 2
    assert "blowup" in report["runs"][0]
    assert "error" in report["runs"][1]
    assert report["runs"][1]["stop_reason"] == "tau_exhausted"


def test_pipeline_parallel_matches_serial(tmp_path):
    d = doc()
    d["runs"] = [{"y0": [1.0]}, {"y0": [2.0]}, {"y0": [0.5]}]
    cfg = parse_config(json.dumps(d))
    code1, rep1 = run_pipeline(cfg, out_dir=str(tmp_path / "serial"), jobs=1)
    code2, rep2 = run_pipeline(cfg, out_dir=str(tmp_path / "par"), jobs=2)
    assert (code1, rep1) == (code2, rep2)
    for name in ("report.json", "run_000.csv", "run_001.csv", "run_002.csv"):
        a = (tmp_path / "serial" / name).read_bytes()
        b = (tmp_path / "par" / name).read_bytes()
        assert a == b


def _pin_cpus(monkeypatch, cpus):
    """The process may run on ``cpus`` CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)


def _assert_no_child_left():
    # raises once this process has no child, running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


THREE_RUNS_DOC = doc(runs=[{"y0": [1.0]}, {"y0": [2.0]}, {"y0": [0.5]}])


def test_jobs_forks_one_child_per_block_but_the_first(tmp_path, monkeypatch):
    cfg = parse_config(json.dumps(THREE_RUNS_DOC))
    _, serial = run_pipeline(cfg, out_dir=str(tmp_path / "serial"))

    forks, builds = [], []
    real_fork, real_build = os.fork, cli.build_field_from_config

    def counting_fork():
        forks.append(1)  # in the parent, before the child exists
        return real_fork()

    def build_once(config):
        # a child inherits this list, so a rebuild there raises too
        if builds:
            raise AssertionError("the field was built twice")
        builds.append(config)
        return real_build(config)

    def no_parse(text):
        raise AssertionError("a worker parsed config text")

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(cli, "build_field_from_config", build_once)
    monkeypatch.setattr(cli, "parse_config", no_parse)
    monkeypatch.setattr(horizon_lab.config, "parse_config", no_parse)
    # one CPU, then a CPU count below the run count and one above it
    for cpus in (1, 2, 4):
        _pin_cpus(monkeypatch, cpus)
        forks.clear()
        builds.clear()
        out = tmp_path / f"jobs{cpus}"
        code, fanned = run_pipeline(cfg, out_dir=str(out), jobs=8)

        assert code == 0 and fanned == serial
        # w = min(jobs, runs, CPUs) blocks; the parent analyzes one itself
        assert len(forks) == min(8, 3, cpus) - 1
        assert builds == [cfg]
        for name in ("run_000.csv", "run_001.csv", "run_002.csv", "report.json"):
            assert (out / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()
        _assert_no_child_left()


def _fail_blocks(monkeypatch, fail, parents):
    """On two CPUs, make ``_analyze_block`` call ``fail(indices)`` on the
    parent's block, the one that holds run 0, or else on the others."""
    real_block = cli._analyze_block

    def block(config, dfield, indices, csv_dir):
        if (0 in indices) == parents:
            fail(indices)
        return real_block(config, dfield, indices, csv_dir)

    monkeypatch.setattr(cli, "_analyze_block", block)
    _pin_cpus(monkeypatch, 2)


def test_jobs_child_exception_reaches_the_caller(tmp_path, monkeypatch):
    def fail(indices):
        raise OutputError(f"cannot write runs {list(indices)}")

    _fail_blocks(monkeypatch, fail, parents=False)
    cfg = parse_config(json.dumps(THREE_RUNS_DOC))
    with pytest.raises(OutputError, match=r"^cannot write runs \[1\]$"):
        run_pipeline(cfg, out_dir=str(tmp_path / "out"), jobs=2)
    _assert_no_child_left()


def test_jobs_child_without_result_is_an_error(tmp_path, monkeypatch, capsys):
    def fail(indices):
        os._exit(3)

    _fail_blocks(monkeypatch, fail, parents=False)
    cfg = parse_config(json.dumps(THREE_RUNS_DOC))
    with pytest.raises(HorizonLabError) as info:
        run_pipeline(cfg, out_dir=str(tmp_path / "out"), jobs=2)
    assert type(info.value) is HorizonLabError
    assert str(info.value) == "the worker for runs 1 ended without a result (exit status 3)"
    _assert_no_child_left()

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(THREE_RUNS_DOC))
    capsys.readouterr()
    assert main(["analyze", str(path), "--out", str(tmp_path / "cli"), "--jobs", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines() == [
        "error: HorizonLabError: the worker for runs 1 ended without a result "
        "(exit status 3)"
    ]
    _assert_no_child_left()


def test_jobs_parent_block_error_still_reaps_the_child(tmp_path, monkeypatch):
    def fail(indices):
        raise DomainError(f"parent's block {list(indices)}")

    _fail_blocks(monkeypatch, fail, parents=True)
    cfg = parse_config(json.dumps(THREE_RUNS_DOC))
    out = tmp_path / "out"
    with pytest.raises(DomainError, match=r"^parent's block \[0, 2\]$"):
        run_pipeline(cfg, out_dir=str(out), jobs=2)
    _assert_no_child_left()
    # the child analyzed its block to the end: run 1's CSV, not the parent's
    assert sorted(f.name for f in out.iterdir()) == ["run_001.csv"]


def test_jobs_failed_fork_reaps_the_children_forked_before(tmp_path, monkeypatch):
    real_fork = os.fork
    forks = []

    def second_fork_fails():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError("no more processes")
        return real_fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    _pin_cpus(monkeypatch, 3)
    fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()
    cfg = parse_config(json.dumps(THREE_RUNS_DOC))
    with pytest.raises(BlockingIOError):
        run_pipeline(cfg, out_dir=str(tmp_path / "out"), jobs=3)
    _assert_no_child_left()
    if fds:  # no pipe end is left open
        assert set(os.listdir("/proc/self/fd")) <= fds


DIRECTIONAL_SCALAR_DOC = doc(chart={"type": "directional", "index": 0, "sign": 1})


def test_directional_chart_with_nothing_to_solve_for(tmp_path, capsys):
    """On a one-variable field the directional horizon is the point s = 0:
    the search checks g there instead of refusing to search."""
    cfg = parse_config(json.dumps(DIRECTIONAL_SCALAR_DOC))
    code, report = run_pipeline(cfg, out_dir=str(tmp_path / "out"))
    assert code == 0
    blowup = report["runs"][0]["blowup"]
    assert blowup["t_max"] == pytest.approx(1.0, abs=1e-12)
    assert blowup["type1_confirmed"]
    for eq in (blowup["shadowed_target"], *report["equilibria"]):
        assert eq["coords"] == [0.0]
        assert eq["classification"] == "sink"
        assert eq["eigenvalues"] == [[-1.0, 0.0]]

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(DIRECTIONAL_SCALAR_DOC))
    assert main(["equilibria", str(path)]) == 0
    out = capsys.readouterr().out
    assert "1 horizon equilibria" in out and "sink: (y=0)" in out


def test_pipeline_rerun_is_deterministic(tmp_path):
    cfg = parse_config(json.dumps(SCALAR_DOC))
    run_pipeline(cfg, out_dir=str(tmp_path / "a"))
    run_pipeline(cfg, out_dir=str(tmp_path / "b"))
    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()


def test_rerun_overwrites_longer_outputs_in_place(tmp_path):
    # a rerun into a directory whose files are longer than the new content
    # cuts the stale tails; new files get the mode write_text gives them,
    # and an existing file needs no read permission (root ignores the mode)
    d = doc()
    d["runs"] = [{"y0": [1.0]}, {"y0": [0.5]}]
    cfg = parse_config(json.dumps(d))
    names = ("run_000.csv", "run_001.csv", "equilibria.csv", "report.json")
    old_umask = os.umask(0o027)
    try:
        run_pipeline(cfg, out_dir=str(tmp_path / "fresh"))
    finally:
        os.umask(old_umask)
    fresh = {name: (tmp_path / "fresh" / name).read_bytes() for name in names}
    for name in names:
        assert (tmp_path / "fresh" / name).stat().st_mode & 0o777 == 0o640
    stale = tmp_path / "stale"
    stale.mkdir()
    for name in names:
        (stale / name).write_bytes(fresh[name] + b"stale tail\n" * 100)
    (stale / "report.json").chmod(0o200)
    run_pipeline(cfg, out_dir=str(stale))
    (stale / "report.json").chmod(0o600)
    assert {name: (stale / name).read_bytes() for name in names} == fresh
    assert sorted(f.name for f in stale.iterdir()) == sorted(names)


@pytest.mark.parametrize("endpoint", ["found", "none", "far", "nowhere"])
def test_run_target_falls_back_to_grid(tmp_path, monkeypatch, endpoint):
    """The endpoint solve gives the target; when it finds nothing, or only
    an equilibrium out of reach of the endpoint, the grid search runs."""
    real_grid = cli.find_horizon_equilibria
    real_ends = cli.horizon_equilibria_per_seed
    calls = []

    def spy_ends(dfield, seeds):
        calls.append(False)
        if endpoint in ("none", "nowhere"):
            return [[] for _ in seeds]
        if endpoint == "far":
            # the source at y = -1, far from the endpoint near the sink at +1
            seeds = -np.asarray(seeds)
        return real_ends(dfield, seeds)

    def spy_grid(dfield, seeds):
        calls.append(True)
        return [] if endpoint == "nowhere" else real_grid(dfield, seeds)

    monkeypatch.setattr(cli, "horizon_equilibria_per_seed", spy_ends)
    monkeypatch.setattr(cli, "find_horizon_equilibria", spy_grid)
    code, report = run_pipeline(
        parse_config(json.dumps(SCALAR_DOC)), out_dir=str(tmp_path)
    )
    run = report["runs"][0]
    if endpoint == "nowhere":
        assert code == 2 and run["error"]["type"] == "NoTargetFound"
        assert calls == [False, True, True]
        return
    assert code == 0
    target = run["blowup"]["shadowed_target"]
    assert target["coords"] == pytest.approx([1.0], abs=1e-12)
    assert target["classification"] == "sink"
    # endpoint solve, grid fallback if needed, then the global listing
    fallback = [] if endpoint == "found" else [True]
    assert calls == [False] + fallback + [True]


# painleve1 runs with every outcome: a plain one (t_end 0.32); one with
# t_end 0.41, whose endpoint solve a test can blank to force the grid
# fallback; one that starts on the horizon, so its decay fit has 1 sample;
# one that stops at a gap below 0.9, far from every equilibrium, so
# NoTargetFound wins over its fit's error; one that runs out of tau; and a
# fast one (t_end 1e-4), whose endpoint Jacobian a test can spoil
_P1 = json.loads(example_text("painleve1"))
_P1_RUNS = [
    {"y0": [0.0, 10.0, 63.245553203367585]},
    {"y0": [0.0, 6.0, 30.0]},
    {"y0": [0.0, 10.0, 63.245553203367585], "horizon_eps": 0.5},
    {"y0": [0.0, 1.0, 1.0], "horizon_eps": 0.9},
    {"y0": [0.0, 10.0, 63.245553203367585], "tau_max": 0.5},
    {"y0": [0.0, 1e8, 1e12]},
]


def _block_and_alone(tmp_path, d):
    """The run records of config ``d``, and those of a config of each run
    alone, renumbered; the run CSVs must match too."""
    _, together = run_pipeline(parse_config(json.dumps(d)), out_dir=str(tmp_path / "all"))
    alone = []
    for i, run in enumerate(d["runs"]):
        out = tmp_path / f"run{i}"
        _, solo = run_pipeline(parse_config(json.dumps(dict(d, runs=[run]))), out_dir=str(out))
        (record,) = solo["runs"]
        if record["csv"] is not None:
            name = f"run_{i:03d}.csv"
            assert (out / record["csv"]).read_bytes() == (tmp_path / "all" / name).read_bytes()
            record["csv"] = name
        alone.append(dict(record, index=i))
    return together["runs"], alone


def test_block_records_equal_one_run_records(tmp_path, monkeypatch):
    """A run's record does not depend on the runs it shares a block with:
    its grid fallback, its fit error and its endpoint's EigenFailure stay
    in its own record."""
    real = cli.horizon_equilibria_per_seed

    def late_slices_find_nothing(dfield, seeds):
        found = real(dfield, seeds)
        return [[] if s[0] > 0.35 else f for s, f in zip(seeds, found)]

    monkeypatch.setattr(cli, "horizon_equilibria_per_seed", late_slices_find_nothing)
    nan_spectra_where(monkeypatch, lambda x: 0.0 < x[0] < 1e-3)
    together, alone = _block_and_alone(tmp_path, dict(_P1, runs=_P1_RUNS))
    assert together == alone
    errors = [r["error"] and r["error"]["type"] for r in together]
    assert errors == [None, None, "InsufficientWindow", "NoTargetFound",
                      "NotConverged", "EigenFailure"]
    # run 1's target comes from the grid fallback on its own slice
    assert together[1]["blowup"]["shadowed_target"]["t_slice"] == together[1]["t_end"]


def test_overflow_config_records_equal_one_run_records(tmp_path):
    from test_cli_robustness import OVERFLOW_CONFIG

    together, alone = _block_and_alone(tmp_path, OVERFLOW_CONFIG)
    assert together == alone
    assert [r["error"] for r in together] == [None, None]


def test_serial_pipeline_holds_one_trajectory_at_a_time(tmp_path, monkeypatch):
    """The first pass keeps a run's endpoint and fits, not its trajectory
    or a view of its samples, so a process holds one trajectory at a
    time."""
    alive = []
    real = cli.integrate

    def tracked(*args, **kwargs):
        assert [ref for ref in alive if ref() is not None] == []
        traj = real(*args, **kwargs)
        alive.extend([weakref.ref(traj), weakref.ref(traj.coords.base)])
        return traj

    monkeypatch.setattr(cli, "integrate", tracked)
    _, report = run_pipeline(
        parse_config(json.dumps(dict(_P1, runs=_P1_RUNS))), out_dir=str(tmp_path)
    )
    assert len(alive) == 2 * len(_P1_RUNS) == 2 * len(report["runs"])
    assert [ref for ref in alive if ref() is not None] == []


def _equilibria_files(out):
    with open(out / "equilibria.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    return header, rows, report["equilibria"]


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_equilibria_csv_matches_report(tmp_path, name):
    """Each equilibria.csv row carries the values of its report.json entry."""
    run_pipeline(parse_config(example_text(name)), out_dir=str(tmp_path))
    header, rows, entries = _equilibria_files(tmp_path)
    n = len(entries[0]["coords"])
    assert len(header) == 4 + 3 * n
    assert len(rows) == len(entries)
    for i, (values, doc) in enumerate(zip(rows, entries)):
        row = dict(zip(header, values, strict=True))
        assert row["index"] == str(i)
        assert row["classification"] == doc["classification"]
        assert row["residual"] == repr(doc["residual"])
        t_slice = doc["t_slice"]
        assert row["t_slice"] == ("" if t_slice is None else repr(t_slice))
        assert len(doc["coords"]) == len(doc["eigenvalues"]) == n
        for j, (v, (re, im)) in enumerate(zip(doc["coords"], doc["eigenvalues"])):
            assert row[f"coord_{j}"] == repr(v)
            assert row[f"eig_re_{j}"] == repr(re)
            assert row[f"eig_im_{j}"] == repr(im)


def test_equilibria_csv_without_equilibria(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_global_equilibria", lambda config, dfield, t=None: [])
    run_pipeline(parse_config(json.dumps(SCALAR_DOC)), out_dir=str(tmp_path))
    header = "index,classification,residual,t_slice,coord_0,eig_re_0,eig_im_0\n"
    assert (tmp_path / "equilibria.csv").read_text(encoding="utf-8") == header
    assert _equilibria_files(tmp_path)[1:] == ([], [])
    # the equilibria command writes the same header for an empty listing
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SCALAR_DOC))
    assert main(["equilibria", str(cfg), "--out", str(tmp_path / "eq")]) == 0
    assert (tmp_path / "eq" / "equilibria.csv").read_text(encoding="utf-8") == header


# ---------------------------------------------------------------------------
# CLI entry point (in-process)


def test_main_analyze_roundtrip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SCALAR_DOC))
    rc = main(["analyze", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["runs"][0]["blowup"]["t_max"] == pytest.approx(1.0, abs=1e-9)


def test_main_validate_good_and_bad(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(SCALAR_DOC))
    assert main(["validate", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc(homogeneity={"alpha": [0], "k": 1})))
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "/homogeneity/alpha" in err


# configs that once ended a command in a traceback or passed validate only
_COMMAND_DOCS = {
    # v has weight 0 on the directional chart over y > 0, so the horizon
    # search has no column to solve for while v' = y stays nonzero
    "zero_columns": doc(
        field={
            "variables": ["y", "v"],
            "components": [
                [{"coeff": 1.0, "exponents": [2, 0]}],
                [{"coeff": 1.0, "exponents": [1, 0]}],
            ],
        },
        homogeneity={"alpha": [1, 0], "k": 1},
        chart={"type": "directional", "index": 0, "sign": 1},
        runs=[{"y0": [1.0, 0.0]}],
    ),
    # y^3 has weighted degree 3 > k + alpha = 2: no field can be built
    "cubic_off_type": doc(
        field={
            "variables": ["y"],
            "components": [[{"coeff": 1.0, "exponents": [3]}]],
        }
    ),
}


@pytest.mark.parametrize(
    "case, codes",
    [
        # the examples with their type replaced by {"infer": true}, which
        # states no alpha and k: a config error at /homogeneity
        ("painleve1", (1, 1)),
        ("kk_dafermos", (1, 1)),
        ("selfsimilar", (1, 1)),
        ("mems", (1, 1)),
        ("zero_columns", (0, 2)),
        ("cubic_off_type", (1, 1)),
    ],
)
def test_commands_end_without_traceback_and_validate_agrees(
    case, codes, tmp_path, capsys
):
    if case in EXAMPLES:
        d = json.loads(example_text(case))
        d["homogeneity"] = {"infer": True}
    else:
        d = _COMMAND_DOCS[case]
    cfg = str(tmp_path / "cfg.json")
    Path(cfg).write_text(json.dumps(d))
    validate = main(["validate", cfg])
    validate_err = capsys.readouterr().err
    analyze = main(["analyze", cfg, "--out", str(tmp_path / "out")])
    analyze_err = capsys.readouterr().err
    assert (validate, analyze) == codes
    if validate == 1:
        assert validate_err == analyze_err != ""
        assert validate_err.count("\n") == 1
    if case in EXAMPLES:
        assert "(at /homogeneity)" in validate_err


def test_equilibria_without_free_columns_lists_none(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_COMMAND_DOCS["zero_columns"]))
    assert main(["equilibria", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("0 horizon equilibria")


def test_main_equilibria_lists_scalar_pair(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SCALAR_DOC))
    rc = main(["equilibria", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sink" in out and "source" in out


def test_main_example_list(capsys):
    assert main(["example", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("painleve1", "kk_dafermos", "selfsimilar", "mems"):
        assert name in out


def test_main_example_emit_config(capsys):
    assert main(["example", "painleve1", "--emit-config"]) == 0
    out = capsys.readouterr().out
    cfg = parse_config(out)
    assert cfg.field.nonautonomous
    assert canonical_text(cfg.document) == out


def test_main_unknown_example(capsys):
    assert main(["example", "no_such_system"]) == 1
    err = capsys.readouterr().err
    assert "no_such_system" in err


def test_main_example_param_matches_emit_example(capsys):
    argv = ["example", "mems", "--param", "n_dim=2", "--param", "p=4"]
    assert main(argv + ["--emit-config"]) == 0
    assert capsys.readouterr().out == example_text("mems", {"n_dim": 2, "p": 4})


@pytest.mark.parametrize(
    "name, param, value",
    [
        ("mems", "q", math.nan),
        ("mems", "q", math.inf),
        ("selfsimilar", "alpha_ss", math.nan),
        ("selfsimilar", "beta", -math.inf),
        ("mems", "q", "nan"),
        ("kk_dafermos", "epsilon", "abc"),
    ],
)
def test_emit_example_rejects_non_finite_params(name, param, value):
    with pytest.raises(DomainError, match=f"parameter '{param}'.*finite"):
        example_text(name, {param: value})


@pytest.mark.parametrize(
    "name, param, message",
    [
        pytest.param(name, param, message, id=f"{param}-{message}")
        for name, param, message in [
            ("mems", "nope=1", "nope"),  # the builder has no such parameter
            ("mems", "p", "NAME=VALUE"),
            ("mems", "p=abc", "NAME=VALUE"),
            ("mems", "p=nan", "NAME=VALUE"),
            ("mems", "p=inf", "NAME=VALUE"),
            ("mems", "p=2.5", "must be integers"),
            ("mems", "n_dim=2.5", "must be integers"),
            # alpha_ss = 0 would make a monomial with coefficient 0
            ("selfsimilar", "alpha_ss=0", "alpha_ss != 0"),
        ]
    ],
)
def test_main_example_bad_param_exits_1(capsys, name, param, message):
    assert main(["example", name, "--param", param, "--emit-config"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],  # missing config
        ["analyze", "cfg.json", "--jobs", "abc"],
        ["no_such_command"],
        [],
    ],
)
def test_main_usage_errors_exit_1(capsys, argv):
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_main_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_main_jobs_below_one_exits_1(tmp_path, capsys, jobs):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SCALAR_DOC))
    out = tmp_path / "out"
    assert main(["analyze", str(cfg_path), "--out", str(out), "--jobs", jobs]) == 1
    assert "jobs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_main_equilibria_t_slice(tmp_path, capsys):
    cfg_path = tmp_path / "painleve1.json"
    cfg_path.write_text(example_text("painleve1"))
    out = tmp_path / "out"
    argv = ["equilibria", str(cfg_path), "--t-slice", "0.5", "--out", str(out)]
    assert main(argv) == 0
    with open(out / "equilibria.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    cfg = parse_config(cfg_path.read_bytes())
    df = cli.build_field_from_config(cfg)
    expected = find_horizon_equilibria(df, grid_seeds(df, [0.5, 0.0, 0.0]))
    assert len(rows) == len(expected) == 2
    for row, eq in zip(rows, expected):
        assert row["t_slice"] == "0.5"
        coords = [float(row[f"coord_{i}"]) for i in range(3)]
        assert coords == [float(v) for v in eq.coords]

    capsys.readouterr()
    assert main(["equilibria", str(cfg_path), "--t-slice", "nan"]) == 1
    assert "DomainError" in capsys.readouterr().err
    auto = tmp_path / "scalar.json"
    auto.write_text(json.dumps(SCALAR_DOC))
    assert main(["equilibria", str(auto), "--t-slice", "0.5"]) == 1
    assert "DomainError" in capsys.readouterr().err


@pytest.mark.parametrize("t", ["1e15", "3e16", "5e16", "1e17", "3e17", "1e18", "1e19"])
def test_main_equilibria_far_t_slice_lists_both_points(tmp_path, t):
    # the search solves the field on the horizon, where painleve1's weight-0
    # term t * W**4 is gone, so a far slice lists C02's two closed-form
    # points (17^(-1/6), +-2 17^(-1/4)) like any other slice
    cfg_path = tmp_path / "painleve1.json"
    cfg_path.write_text(example_text("painleve1"))
    out = tmp_path / "out"
    assert main(["equilibria", str(cfg_path), "--t-slice", t, "--out", str(out)]) == 0
    with open(out / "equilibria.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    u, v = 17.0 ** (-1.0 / 6.0), 2.0 * 17.0 ** (-1.0 / 4.0)
    got = sorted((float(r["coord_1"]), float(r["coord_2"])) for r in rows)
    assert len(got) == 2
    assert got[0] == pytest.approx((u, -v), rel=1e-10)
    assert got[1] == pytest.approx((u, v), rel=1e-10)
    assert sorted(r["classification"] for r in rows) == ["sink", "source"]
    assert all(r["t_slice"] == repr(float(t)) for r in rows)


def _help(command, capsys):
    assert main([command, "--help"]) == 0
    return " ".join(capsys.readouterr().out.split())


def test_help_states_jobs_and_negative_t_slice(capsys):
    # both commands that run the pipeline say what --jobs counts; a negative
    # slice in exponent form must be attached with "=", since argparse takes
    # a bare -1e17 for an option
    for command in ("analyze", "example"):
        assert "min(JOBS, runs, usable CPUs)" in _help(command, capsys)
        assert "analyzes one block of runs itself" in _help(command, capsys)
    assert "--t-slice=-1e17" in _help("equilibria", capsys)
    cfg_path = Path(__file__).parent / "unused.json"
    assert main(["equilibria", str(cfg_path), "--t-slice", "-1e17"]) == 1
    assert "expected one argument" in capsys.readouterr().err


# y' = y^2 with a time variable that no monomial reads: every slice has the
# same two horizon points y = -1 (source) and y = 1 (sink)
T_FREE_DOC = {
    "schema": 1,
    "field": {
        "variables": ["t", "y"],
        "nonautonomous": True,
        "components": [[{"coeff": 1.0, "exponents": [0, 0]}],
                       [{"coeff": 1.0, "exponents": [0, 2]}]],
    },
    "homogeneity": {"alpha": [0, 1], "k": 1},
    "chart": {"type": "parabolic"},
    "runs": [{"y0": [0.0, 1.0], "t0": 0.0}],
}


@pytest.mark.parametrize("t", ["1e300", "-1e300", "1.7e308"])
def test_main_equilibria_huge_t_slice_sorts_without_overflow(tmp_path, capsys, t):
    # the points are sorted by their coordinates rounded to 10 decimals,
    # which scales t by 1e10 past the largest float; under the test suite's
    # error::RuntimeWarning that overflow warning would end the search
    cfg_path = tmp_path / "tfree.json"
    cfg_path.write_text(json.dumps(T_FREE_DOC))
    out = tmp_path / "out"
    assert main(["equilibria", str(cfg_path), f"--t-slice={t}", "--out", str(out)]) == 0
    assert "2 horizon equilibria" in capsys.readouterr().out
    with open(out / "equilibria.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["classification"], float(r["coord_1"])) for r in rows] == [
        ("source", -1.0), ("sink", 1.0)]
    assert all(r["t_slice"] == repr(float(t)) for r in rows)


# ---------------------------------------------------------------------------
# CLI via subprocess: exit codes, logging, determinism


# the directory holding the horizon_lab under test, absolute so that the child
# imports the same package whatever its cwd (a relative PYTHONPATH entry such
# as "src" would resolve under the child's cwd instead)
PACKAGE_ROOT = Path(horizon_lab.__file__).resolve().parent.parent


def run_cli(args, cwd, env_extra=None):
    env = dict(os.environ)
    env.pop("HORIZON_LAB_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_ROOT), env.get("PYTHONPATH")) if p
    )
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "horizon_lab", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(SCALAR_DOC))
    partial = tmp_path / "partial.json"
    partial.write_text(
        json.dumps(doc(runs=[{"y0": [0.1], "tau_max": 1.0}]))
    )
    bad = tmp_path / "bad.json"
    bad.write_text("{")

    ok = run_cli(["analyze", str(good), "--out", "out_ok"], cwd=tmp_path)
    assert ok.returncode == 0
    assert "t_max" in ok.stdout

    part = run_cli(["analyze", str(partial), "--out", "out_p"], cwd=tmp_path)
    assert part.returncode == 2
    assert "tau_exhausted" in part.stdout

    err = run_cli(["analyze", str(bad), "--out", "out_b"], cwd=tmp_path)
    assert err.returncode == 1
    assert err.stderr.strip() != ""


def test_cli_rejects_homogeneity_without_alpha_and_k(tmp_path):
    d = json.loads(example_text("painleve1"))
    d["homogeneity"] = {"infer": True}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(d))
    validate = run_cli(["validate", str(cfg)], cwd=tmp_path)
    analyze = run_cli(["analyze", str(cfg), "--out", "out"], cwd=tmp_path)
    assert validate.returncode == analyze.returncode == 1
    assert validate.stderr == analyze.stderr == (
        "config error: missing key(s): 'alpha', 'k' (at /homogeneity)\n"
    )
    assert not (tmp_path / "out").exists()


def _mems_with_alpha(alpha, k):
    d = json.loads(example_text("mems"))
    d["homogeneity"] = {"alpha": alpha, "k": k}
    return d


@pytest.mark.parametrize(
    "case", ["mems_param", "mems_config", "scalar_2_70", "two_beta_wraps"]
)
def test_cli_rejects_weights_beyond_int64(tmp_path, case):
    # mems's p = 1e20 gives alpha_w = 10**20 + 3; 2**70 is beyond int64;
    # (0, 2, 2**62 + 3) fits, but its 2 beta_w = 2**63 + 6 does not
    docs = {
        "mems_config": _mems_with_alpha([0, 2, 10**20 + 3], 10**20 + 1),
        "scalar_2_70": doc(homogeneity={"alpha": [2**70], "k": 2**70}),
        "two_beta_wraps": _mems_with_alpha([0, 2, 2**62 + 3], 3),
    }
    if case == "mems_param":
        commands = [["example", "mems", "--param", "p=1e20", "--out", "out"]]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps(docs[case]))
        commands = [["validate", "cfg.json"],
                    ["analyze", "cfg.json", "--out", "out"]]
    for args in commands:
        proc = run_cli(args, cwd=tmp_path)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error: weights too large")
        assert proc.stderr.endswith("(at /homogeneity/alpha)\n")
    assert not (tmp_path / "out").exists()


def test_cli_log_env_toggles_stderr(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SCALAR_DOC))
    quiet = run_cli(["analyze", str(cfg), "--out", "q"], cwd=tmp_path)
    assert quiet.returncode == 0
    assert "pipeline start" not in quiet.stderr
    chatty = run_cli(
        ["analyze", str(cfg), "--out", "v"],
        cwd=tmp_path,
        env_extra={"HORIZON_LAB_LOG": "info"},
    )
    assert chatty.returncode == 0
    assert "pipeline start" in chatty.stderr
    assert "stop=horizon_reached" in chatty.stderr


def test_cli_log_env_is_read_on_every_main_call(tmp_path, monkeypatch, caplog):
    # main called twice in one process follows each call's HORIZON_LAB_LOG
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SCALAR_DOC))
    logger = logging.getLogger("horizon_lab")
    before = logger.level
    try:
        for name, level in (("warn", logging.WARNING), ("info", logging.INFO)):
            monkeypatch.setenv("HORIZON_LAB_LOG", name)
            caplog.clear()
            assert main(["analyze", str(cfg), "--out", str(tmp_path / name)]) == 0
            assert logger.getEffectiveLevel() == level
            assert ("pipeline start" in caplog.text) == (level == logging.INFO)
    finally:
        logger.setLevel(before)


def test_cli_jobs_flag_is_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    d = doc()
    d["runs"] = [{"y0": [1.0]}, {"y0": [3.0]}]
    cfg.write_text(json.dumps(d))
    one = run_cli(["analyze", str(cfg), "--out", "j1", "--jobs", "1"], cwd=tmp_path)
    two = run_cli(["analyze", str(cfg), "--out", "j2", "--jobs", "2"], cwd=tmp_path)
    assert one.returncode == two.returncode == 0
    assert (tmp_path / "j1" / "report.json").read_bytes() == (
        tmp_path / "j2" / "report.json"
    ).read_bytes()
    assert one.stdout.replace("j1", "@") == two.stdout.replace("j2", "@")
    # each run record counts its rejected steps as well as its accepted ones
    for run in json.loads((tmp_path / "j2" / "report.json").read_text())["runs"]:
        assert isinstance(run["accepted_steps"], int)
        assert isinstance(run["rejected_steps"], int)


@pytest.mark.parametrize(
    "case", ["example_out_file", "equilibria_out_file", "csv_is_dir", "csv_is_dir_jobs"]
)
def test_output_path_errors_exit_1_without_traceback(tmp_path, case):
    cfg = tmp_path / "cfg.json"
    d = doc()
    d["runs"] = [{"y0": [1.0]}, {"y0": [0.5]}]
    cfg.write_text(json.dumps(d))
    (tmp_path / "a_file").write_text("not a directory\n")
    (tmp_path / "out" / "run_000.csv").mkdir(parents=True)
    args = {
        "example_out_file": ["example", "selfsimilar", "--out", "a_file"],
        "equilibria_out_file": ["equilibria", str(cfg), "--out", "a_file"],
        "csv_is_dir": ["analyze", str(cfg), "--out", "out"],
        # the CSV is written in a worker process
        "csv_is_dir_jobs": ["analyze", str(cfg), "--out", "out", "--jobs", "2"],
    }[case]
    proc = run_cli(args, cwd=tmp_path)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: OutputError: ")
    assert len(proc.stderr.splitlines()) == 1


def test_jobs_workers_need_no_inherited_field(tmp_path):
    """``--jobs`` output does not depend on multiprocessing's start
    method: set to spawn, which like a forkserver default starts workers
    from a fresh import, it leaves the forked children's bytes those of
    ``--jobs 1``."""
    cfg = tmp_path / "cfg.json"
    d = doc()
    d["runs"] = [{"y0": [1.0]}, {"y0": [3.0]}, {"y0": [0.5]}]
    cfg.write_text(json.dumps(d))
    script = tmp_path / "spawned.py"
    script.write_text(
        "import multiprocessing, sys\n"
        "from horizon_lab import cli\n"
        "if __name__ == '__main__':\n"
        "    multiprocessing.set_start_method('spawn')\n"
        "    sys.exit(cli.main(['analyze', sys.argv[1], '--out', sys.argv[2],\n"
        "                       '--jobs', sys.argv[3]]))\n"
    )
    env = dict(os.environ)
    env.pop("HORIZON_LAB_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_ROOT), env.get("PYTHONPATH")) if p
    )
    procs = [
        subprocess.run(
            [sys.executable, str(script), str(cfg), out, jobs],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        for out, jobs in (("j1", "1"), ("j2", "2"))
    ]
    assert [p.returncode for p in procs] == [0, 0], procs[1].stderr
    assert procs[0].stdout.replace("j1", "@") == procs[1].stdout.replace("j2", "@")
    names = sorted(f.name for f in (tmp_path / "j1").iterdir())
    assert names == sorted(f.name for f in (tmp_path / "j2").iterdir())
    assert "run_002.csv" in names
    for name in names:
        assert (tmp_path / "j1" / name).read_bytes() == (tmp_path / "j2" / name).read_bytes()


def test_runs_without_jsonschema(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SCALAR_DOC))
    script = (
        "import sys\n"
        "sys.modules['jsonschema'] = None\n"  # any import of it now fails
        "import horizon_lab\n"
        "from horizon_lab.cli import main\n"
        "from horizon_lab.config import parse_config\n"
        "parse_config(open(sys.argv[1]).read())\n"
        "sys.exit(main(['validate', sys.argv[1]]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_ROOT), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(cfg)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "config OK\n"


def test_example_run_does_not_import_numpy_ma(tmp_path):
    # np.median imports numpy.ma on its first call in a process (about
    # 15 ms and 1 MB), and a process pool's modules cost about 21 ms; an
    # example run must pay for neither, and neither must a --jobs 2 run,
    # whose two runs fork one child
    script = (
        "import sys\n"
        "from horizon_lab.cli import main\n"
        "rc = main(['example', 'mems', '--out', sys.argv[1]])\n"
        "rc = rc or main(['analyze', sys.argv[2], '--out', sys.argv[3], '--jobs', '2'])\n"
        "unused = ('numpy.ma', 'concurrent.futures.process', 'multiprocessing')\n"
        "print([m for m in unused if m in sys.modules])\n"
        "sys.exit(rc)\n"
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc(runs=[{"y0": [1.0]}, {"y0": [2.0]}])))
    env = dict(os.environ)
    env.pop("HORIZON_LAB_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_ROOT), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out"), str(cfg), str(tmp_path / "j2")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "run_000.csv").exists()
    assert (tmp_path / "j2" / "run_001.csv").exists()


@pytest.mark.parametrize("callers, blas_threads", [(None, "1"), ("2", "2")])
def test_import_sets_openblas_threads_unless_the_caller_did(callers, blas_threads):
    # every matrix the package factors is a small (n+1) x (n+1): a BLAS
    # thread pool would only cost start-up time and idle threads.  The
    # default holds while NumPy loads, when OpenBLAS reads it, and leaves
    # the environment as it was, so a child that does not import
    # horizon_lab sees the caller's value or none
    script = (
        "import os, subprocess, sys\n"
        "import horizon_lab\n"
        "if os.path.isdir('/proc/self/task'):\n"
        "    print(len(os.listdir('/proc/self/task')))\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "child = \"import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))\"\n"
        "print(subprocess.run([sys.executable, '-c', child],\n"
        "                     capture_output=True, text=True).stdout.strip())\n"
    )
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if callers is not None:
        env["OPENBLAS_NUM_THREADS"] = callers
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_ROOT), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.split()
    # the importer's environment and its child's: the caller's value or none
    assert out[-2:] == [str(callers)] * 2
    if callers is None and len(out) > 2:
        # Linux: the main thread alone, no OpenBLAS worker
        assert out[0] == blas_threads


def test_app_freezes_the_heap_once_and_main_never(tmp_path, monkeypatch):
    # the exit-time collections skip the frozen import-time heap; main and
    # run_pipeline, called in-process again and again, leave it alone
    freezes = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: freezes.append(1))
    assert main(["example", "selfsimilar", "--out", str(tmp_path)]) == 0
    assert freezes == []
    monkeypatch.setattr(sys, "argv", ["horizon-lab", "example", "list"])
    with pytest.raises(SystemExit) as exc:
        cli.app()
    assert exc.value.code == 0 and freezes == [1]
