"""Command-line interface: analyze / equilibria / example / validate.

Exit codes: 0 on success, 1 for configuration or usage errors, 2 when the
pipeline ran but some run could not be completed (e.g. a trajectory exhausted
its tau budget before reaching the horizon).  Log verbosity comes from the
HORIZON_LAB_LOG environment variable (error | warn | info | debug).

Outputs are deterministic: one CSV per run with columns
tau,t,coord_0..coord_{n-1},horizon_gap (one row per accepted step), an
equilibria CSV, and a canonical report.json.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .blowup import BlowupReport, build_report
from .charts import DirectionalChart
from .config import (
    AnalysisConfig,
    canonical_text,
    config_from_bundle,
    parse_config,
)
from .desing import (
    DesingField,
    build_directional_desing,
    build_parabolic_desing,
)
from .dynamics import (
    HORIZON_REACHED,
    Equilibrium,
    IntegratorControls,
    Trajectory,
    horizon_targets,
    integrate,
)
from .errors import HorizonLabError, NoTargetFound, SchemaError, UnknownExample
from .homogeneity import infer_type
from .systems import example_names, make_example

__all__ = [
    "main",
    "app",
    "run_pipeline",
    "list_examples",
    "emit_example",
    "build_field_from_config",
]

log = logging.getLogger("horizon_lab")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _setup_logging() -> None:
    raw = os.environ.get("HORIZON_LAB_LOG", "warn").strip().lower()
    level = _LOG_LEVELS.get(raw)
    if level is None:
        level = logging.WARNING
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s"
    )
    if raw not in _LOG_LEVELS and raw:
        log.warning(
            "unknown HORIZON_LAB_LOG level '%s'; using 'warn' "
            "(valid: error, warn, info, debug)",
            raw,
        )


# --------------------------------------------------------------------------
# pipeline


def build_field_from_config(config: AnalysisConfig) -> DesingField:
    """Resolve the homogeneity type and construct the desingularized field."""
    htype = config.htype
    if htype is None:
        candidates = infer_type(config.field, config.infer_alpha_max)
        htype = candidates[0]
        log.info(
            "inferred type alpha=%s, k=%s (%d candidates)",
            htype.alpha,
            htype.k,
            len(candidates),
        )
        if (
            config.chart_kind == "directional"
            and htype.alpha[config.chart_index] == 0
        ):
            raise SchemaError(
                "inferred type gives the chart variable weight 0",
                "/chart/index",
            )
    if config.chart_kind == "parabolic":
        return build_parabolic_desing(config.field, htype)
    chart = DirectionalChart(
        htype=htype, i0=config.chart_index, sign=config.chart_sign
    )
    return build_directional_desing(config.field, htype, chart)


def _float_str(v: float) -> str:
    return repr(float(v))


def _write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    """One row per accepted step (the initial condition is not a step)."""
    n = traj.coords.shape[1]
    header = ["tau", "t"] + [f"coord_{i}" for i in range(n)] + ["horizon_gap"]
    lines = [",".join(header)]
    for i in range(1, len(traj.taus)):
        row = (
            [_float_str(traj.taus[i]), _float_str(traj.ts[i])]
            + [_float_str(v) for v in traj.coords[i]]
            + [_float_str(traj.gaps[i])]
        )
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_equilibria_csv(path: Path, equilibria) -> None:
    if equilibria:
        n = len(equilibria[0].coords)
        n_eig = len(equilibria[0].eigenvalues)
    else:
        n = n_eig = 0
    header = (
        ["index", "classification", "residual", "t_slice"]
        + [f"coord_{i}" for i in range(n)]
        + [f"eig_re_{i}" for i in range(n_eig)]
        + [f"eig_im_{i}" for i in range(n_eig)]
    )
    lines = [",".join(header)]
    for idx, eq in enumerate(equilibria):
        row = (
            [
                str(idx),
                eq.classification,
                _float_str(eq.residual),
                "" if eq.t_slice is None else _float_str(eq.t_slice),
            ]
            + [_float_str(v) for v in eq.coords]
            + [_float_str(v.real) for v in eq.eigenvalues]
            + [_float_str(v.imag) for v in eq.eigenvalues]
        )
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _equilibrium_doc(eq: Equilibrium) -> dict:
    return {
        "coords": [float(v) for v in eq.coords],
        "t_slice": None if eq.t_slice is None else float(eq.t_slice),
        "residual": float(eq.residual),
        "classification": eq.classification,
        "tangential_dims": eq.tangential_dims,
        "eigenvalues": [[float(v.real), float(v.imag)] for v in eq.eigenvalues],
    }


def _blowup_doc(report: BlowupReport) -> dict:
    return {
        "t_max": report.t_max,
        "t_max_tail_fraction": report.t_max_tail_fraction,
        "lambda_decay": report.lambda_decay,
        "residual_slope": report.residual_slope,
        "type1_confirmed": report.type1_confirmed,
        "shadowed_target": _equilibrium_doc(report.shadowed_target),
        "records": [
            {
                "variable": r.variable,
                "component_index": r.component_index,
                "predicted_exponent": r.predicted_exponent,
                "fitted_exponent": r.fitted_exponent,
                "fit_r2": r.fit_r2,
                "leading_coefficient": r.leading_coefficient,
                "vanishing": r.vanishing,
            }
            for r in report.records
        ],
    }


def _first_anchor(config: AnalysisConfig, dfield: DesingField) -> np.ndarray:
    """Chart coordinates of the first run's initial point: the family slice
    (weight-0 values) on which the global equilibria are listed."""
    from .charts import embed

    return embed(dfield.chart, np.asarray(config.runs[0].y0)).coords


def _run_report(dfield: DesingField, traj: Trajectory) -> BlowupReport:
    """Blow-up report against the equilibrium the trajectory shadows.

    One Gauss-Newton solve from the endpoint finds that equilibrium; the
    grid search through the endpoint's family slice is the fallback when
    the solve finds nothing within reach of the endpoint.
    """
    end = traj.coords[-1]
    t_slice = float(traj.ts[-1]) if dfield.nonautonomous else None
    targets = horizon_targets(dfield, end, t_slice, grid=False)
    if targets:
        try:
            return build_report(traj, targets, dfield.htype)
        except NoTargetFound:
            pass
    targets = horizon_targets(dfield, end, t_slice)
    return build_report(traj, targets, dfield.htype)


def _analyze_one_run(
    config: AnalysisConfig, dfield: DesingField, run_index: int
) -> Tuple[dict, Optional[Trajectory]]:
    run = config.runs[run_index]
    chart = dfield.chart
    record: dict = {
        "index": run_index,
        "y0": [float(v) for v in run.y0],
        "csv": None,
        "stop_reason": None,
        "tau_end": None,
        "t_end": None,
        "accepted_steps": None,
        "blowup": None,
        "error": None,
    }
    try:
        from .charts import embed

        point = embed(chart, np.asarray(run.y0))
        controls = IntegratorControls(
            rel_tol=run.rel_tol,
            abs_tol=run.abs_tol,
            tau_max=run.tau_max,
            horizon_eps=run.horizon_eps,
        )
        traj = integrate(dfield, point.coords, t0=run.t0, controls=controls)
    except HorizonLabError as exc:
        record["error"] = {"type": type(exc).__name__, "message": str(exc)}
        return record, None

    record["stop_reason"] = traj.stop_reason
    record["tau_end"] = float(traj.taus[-1])
    record["t_end"] = float(traj.ts[-1])
    record["accepted_steps"] = traj.n_accepted

    if traj.stop_reason != HORIZON_REACHED:
        record["error"] = {
            "type": "NotConverged",
            "message": (
                f"trajectory stopped with '{traj.stop_reason}' before "
                f"reaching the horizon"
            ),
        }
        return record, traj

    try:
        record["blowup"] = _blowup_doc(_run_report(dfield, traj))
    except HorizonLabError as exc:
        record["error"] = {"type": type(exc).__name__, "message": str(exc)}
    return record, traj


def _worker(args: tuple) -> dict:
    """Worker for --jobs: rebuilds the field from config text (compiled
    evaluators do not pickle) and analyzes one run."""
    config_text, run_index, out_dir, write_csv = args
    config = parse_config(config_text)
    dfield = build_field_from_config(config)
    record, traj = _analyze_one_run(config, dfield, run_index)
    if traj is not None and write_csv:
        name = f"run_{run_index:03d}.csv"
        _write_trajectory_csv(Path(out_dir) / name, traj)
        record["csv"] = name
    return record


def run_pipeline(
    config: AnalysisConfig,
    out_dir: Optional[str] = None,
    jobs: int = 1,
) -> Tuple[int, dict]:
    """Run every configured trajectory and write outputs.

    Returns (exit_code, report document).  Exit code 2 means at least one
    run is partial (did not reach the horizon or produced no blow-up
    report); such runs carry an ``error`` entry instead of a ``blowup`` one.
    """
    out = Path(out_dir if out_dir is not None else config.outputs.directory)
    out.mkdir(parents=True, exist_ok=True)
    write_csv = "csv" in config.outputs.formats
    write_json = "json" in config.outputs.formats

    dfield = build_field_from_config(config)
    config_text = canonical_text(config.document)
    log.info(
        "pipeline start: %d run(s), %s chart, variables %s",
        len(config.runs),
        dfield.chart.label,
        ", ".join(config.field.variable_names),
    )
    log.debug("generated evaluator:\n%s", dfield.source_code)

    n_runs = len(config.runs)
    if jobs > 1 and n_runs > 1:
        args = [
            (config_text, i, str(out), write_csv) for i in range(n_runs)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_worker, args))
    else:
        records = []
        for i in range(n_runs):
            record, traj = _analyze_one_run(config, dfield, i)
            if traj is not None and write_csv:
                name = f"run_{i:03d}.csv"
                _write_trajectory_csv(out / name, traj)
                record["csv"] = name
            records.append(record)
    for r in records:
        log.info(
            "run %s: stop=%s tau_end=%s error=%s",
            r["index"],
            r["stop_reason"],
            r["tau_end"],
            None if r["error"] is None else r["error"]["type"],
        )

    # global equilibria listing at the first run's time slice
    equilibria = []
    try:
        t_slice = float(config.runs[0].y0[0]) if dfield.nonautonomous else None
        anchor = _first_anchor(config, dfield)
        equilibria = horizon_targets(dfield, anchor, t_slice)
    except HorizonLabError as exc:
        log.warning("equilibrium search failed: %s", exc)
    if write_csv:
        _write_equilibria_csv(out / "equilibria.csv", equilibria)

    htype = dfield.htype
    report_doc = {
        "schema": 1,
        "chart": dfield.chart.label,
        "homogeneity": {
            "alpha": list(htype.alpha),
            "k": float(htype.k),
            "beta": list(htype.beta),
            "c": htype.c,
        },
        "variables": list(config.field.variable_names),
        "equilibria": [_equilibrium_doc(eq) for eq in equilibria],
        "runs": records,
    }
    if write_json:
        (out / "report.json").write_text(
            canonical_text(report_doc), encoding="utf-8"
        )

    ok = all(r["error"] is None for r in records)
    return (0 if ok else 2), report_doc


# --------------------------------------------------------------------------
# examples


def list_examples():
    """Names of the built-in example systems."""
    return example_names()


def emit_example(name: str, params: Optional[dict] = None) -> str:
    """Canonical config text for a built-in example.

    Raises UnknownExample for unregistered names and DomainError for
    parameters outside the model's valid range.
    """
    bundle = make_example(name, params)
    return canonical_text(config_from_bundle(bundle))


# --------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horizon-lab",
        description=(
            "Detect and profile finite-time blow-up of ODE solutions by "
            "integrating the desingularized dynamics on a compactified "
            "phase space."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run the full pipeline on a config")
    p_an.add_argument("config", help="path to a JSON config file")
    p_an.add_argument("--out", help="output directory (overrides config)")
    p_an.add_argument(
        "--jobs", type=int, default=1, help="parallel worker processes"
    )

    p_eq = sub.add_parser(
        "equilibria", help="locate and classify horizon equilibria"
    )
    p_eq.add_argument("config", help="path to a JSON config file")
    p_eq.add_argument("--out", help="write equilibria.csv to this directory")
    p_eq.add_argument(
        "--t-slice",
        type=float,
        default=None,
        help="frozen time value (nonautonomous fields; default: first run's t0)",
    )

    p_ex = sub.add_parser(
        "example", help="emit or analyze a built-in example system"
    )
    p_ex.add_argument(
        "name",
        help=f"example name ({', '.join(example_names())}) or 'list'",
    )
    p_ex.add_argument("--emit-config", action="store_true",
                      help="print the canonical config JSON and exit")
    p_ex.add_argument("--out", help="output directory for analysis")
    p_ex.add_argument("--jobs", type=int, default=1)
    p_ex.add_argument("--epsilon", type=float, default=None)
    p_ex.add_argument("--m", type=float, default=None)
    p_ex.add_argument("--beta", type=float, default=None)
    p_ex.add_argument("--alpha-ss", dest="alpha_ss", type=float, default=None)
    p_ex.add_argument("--n-dim", dest="n_dim", type=int, default=None)
    p_ex.add_argument("--p", type=int, default=None)
    p_ex.add_argument("--q", type=float, default=None)

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config", help="path to a JSON config file")

    return parser


def _read_config(path: str) -> AnalysisConfig:
    try:
        text = Path(path).read_bytes()
    except OSError as exc:
        raise SchemaError(f"cannot read config: {exc}", "") from exc
    return parse_config(text)


def _print_run_summary(report: dict, out_dir: str) -> None:
    n_ok = sum(1 for r in report["runs"] if r["error"] is None)
    print(f"{n_ok}/{len(report['runs'])} runs completed; outputs in {out_dir}")
    for r in report["runs"]:
        if r["error"] is not None:
            print(
                f"  run {r['index']}: {r['error']['type']}: "
                f"{r['error']['message']}"
            )
        elif r["blowup"] is not None:
            b = r["blowup"]
            print(
                f"  run {r['index']}: t_max = {b['t_max']!r} "
                f"(type I {'confirmed' if b['type1_confirmed'] else 'NOT confirmed'})"
            )


def _cmd_analyze(args) -> int:
    config = _read_config(args.config)
    code, report = run_pipeline(config, out_dir=args.out, jobs=args.jobs)
    _print_run_summary(report, args.out or config.outputs.directory)
    return code


def _cmd_equilibria(args) -> int:
    config = _read_config(args.config)
    dfield = build_field_from_config(config)
    t_slice = args.t_slice
    if dfield.nonautonomous and t_slice is None:
        t_slice = float(config.runs[0].y0[0])
    eqs = horizon_targets(dfield, _first_anchor(config, dfield), t_slice)
    names = config.field.variable_names
    print(f"{len(eqs)} horizon equilibria ({dfield.chart.label} chart)")
    for i, eq in enumerate(eqs):
        coord_str = ", ".join(
            f"{nm}={v:.12g}" for nm, v in zip(names, eq.coords)
        )
        eig_str = ", ".join(f"{v:.6g}" for v in eq.eigenvalues)
        print(f"  [{i}] {eq.classification}: ({coord_str})")
        print(f"      residual {eq.residual:.3g}; eigenvalues {eig_str}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_equilibria_csv(out / "equilibria.csv", eqs)
    return 0


def _cmd_example(args) -> int:
    if args.name == "list":
        for name in list_examples():
            print(name)
        return 0
    params = {
        key: getattr(args, key)
        for key in ("epsilon", "m", "beta", "alpha_ss", "n_dim", "p", "q")
        if getattr(args, key) is not None
    }
    text = emit_example(args.name, params)
    if args.emit_config:
        sys.stdout.write(text)
        return 0
    config = parse_config(text)
    out_dir = args.out or str(Path("horizon_lab_out") / args.name)
    code, report = run_pipeline(config, out_dir=out_dir, jobs=args.jobs)
    _print_run_summary(report, out_dir)
    return code


def _cmd_validate(args) -> int:
    _read_config(args.config)
    print("config OK")
    return 0


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "equilibria": _cmd_equilibria,
        "example": _cmd_example,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except UnknownExample as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except HorizonLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    app()
