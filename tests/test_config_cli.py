"""Config parsing, canonical serialization, the pipeline, and CLI behavior."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import horizon_lab
from horizon_lab import DomainError, SchemaError, cli
from horizon_lab.config import (
    DEFAULT_ABS_TOL,
    DEFAULT_HORIZON_EPS,
    DEFAULT_REL_TOL,
    DEFAULT_TAU_MAX,
    canonical_text,
    config_from_bundle,
    parse_config,
)
from horizon_lab.cli import main, run_pipeline
from horizon_lab.systems import EXAMPLES, selfsimilar

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
    assert cfg.chart_kind == "parabolic"
    run = cfg.runs[0]
    assert run.y0 == (1.0,)
    assert run.rel_tol == DEFAULT_REL_TOL
    assert run.abs_tol == DEFAULT_ABS_TOL
    assert run.horizon_eps == DEFAULT_HORIZON_EPS
    assert run.tau_max == DEFAULT_TAU_MAX


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


def test_invalid_json_is_schema_error():
    with pytest.raises(SchemaError):
        parse_config("{not json")


# ---------------------------------------------------------------------------
# built-in systems and canonical serialization


def test_selfsimilar_rejects_fractional_m():
    with pytest.raises(DomainError):
        selfsimilar(m=0.5)


def test_example_registry_contents():
    assert set(EXAMPLES) == {"painleve1", "kk_dafermos", "selfsimilar", "mems"}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_emit_parse_emit_is_byte_stable(name):
    bundle = EXAMPLES[name]()
    first = canonical_text(config_from_bundle(bundle))
    cfg = parse_config(first)
    second = canonical_text(cfg.document)
    assert first == second
    assert first.endswith("\n")


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
    assert len(rows) - 1 == run["accepted_steps"]
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


def test_pipeline_rerun_is_deterministic(tmp_path):
    cfg = parse_config(json.dumps(SCALAR_DOC))
    run_pipeline(cfg, out_dir=str(tmp_path / "a"))
    run_pipeline(cfg, out_dir=str(tmp_path / "b"))
    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()


@pytest.mark.parametrize("endpoint", ["found", "none", "far", "nowhere"])
def test_run_target_falls_back_to_grid(tmp_path, monkeypatch, endpoint):
    """The endpoint solve gives the target; when it finds nothing, or only
    an equilibrium out of reach of the endpoint, the grid search runs."""
    real = cli.horizon_targets
    calls = []

    def spy(dfield, anchor, t_slice=None, grid=True):
        calls.append(grid)
        if endpoint == "nowhere" or (endpoint == "none" and not grid):
            return []
        if endpoint == "far" and not grid:
            # the source at y = -1, far from the endpoint near the sink at +1
            anchor = -np.asarray(anchor)
        return real(dfield, anchor, t_slice, grid=grid)

    monkeypatch.setattr(cli, "horizon_targets", spy)
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
