"""Command-line interface: analyze / equilibria / example / validate.

Exit codes: 0 on success, 1 for configuration or usage errors, 2 when the
pipeline ran but some run could not be completed (e.g. a trajectory exhausted
its tau budget before reaching the horizon).  Log verbosity comes from the
HORIZON_LAB_LOG environment variable (error | warn | info | debug).

Outputs are deterministic: one CSV per run with columns
tau,t,coord_0..coord_{n-1},horizon_gap (one row per trajectory sample after
the initial condition: each accepted step's dense-output samples, then its
end), an
equilibria.csv with columns index,classification,residual,t_slice,
coord_0..coord_{n-1},eig_re_0..eig_re_{n-1},eig_im_0..eig_im_{n-1} (each
row carries the values of the matching report.json "equilibria" entry),
and a canonical report.json.  A rerun overwrites each of these files in
place and cuts it at its new end, which leaves the bytes of a fresh run
once it completes (see _write_output); an output path that cannot be
created or written raises OutputError.

A process analyzes its runs as one block in two passes: one run at a time
it integrates, writes the CSV and fits what does not depend on the target,
keeping only the endpoint and the fits; then a single batched search from
all the endpoints finds each run's target.  With ``--jobs N`` each worker
takes one interleaved block of runs (see run_pipeline).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .blowup import BlowupReport, fit_blowup, nearest_target
from . import charts
from .config import AnalysisConfig, canonical_text, parse_config
from .desing import DesingField, build_desing
from .dynamics import (
    HORIZON_REACHED,
    Equilibrium,
    Trajectory,
    find_horizon_equilibria,
    grid_seeds,
    horizon_equilibria_per_seed,
    integrate,
)
from .errors import (
    DomainError,
    HorizonLabError,
    NoTargetFound,
    OutputError,
    SchemaError,
    UnknownExample,
)
from .systems import example_names, make_example

__all__ = [
    "main",
    "app",
    "run_pipeline",
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
    """The desingularized field of ``config.field`` on ``config.chart``,
    for the config's type.  Raises what the builders raise, e.g.
    NegativeWExponentError for a monomial that breaks the type."""
    return build_desing(config.field, config.htype, config.chart)


_O_BINARY = getattr(os, "O_BINARY", 0)  # no newline translation on Windows


def _output_dir(path: Path) -> Path:
    """``path``, created with its parents unless it is a directory already."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory: {exc}") from exc
    return path


def _write_output(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, the one way outputs are written.

    The file is opened for writing only, created when missing with the
    mode ``write_text`` gives it (0o666 less the umask).  An existing file
    is overwritten in place and then cut at the new end, rather than
    truncated to zero and rewritten, which costs several times more on
    some filesystems (ext4 mounted with ``discard``); a completed rerun
    into the same directory leaves the same bytes as a fresh run.  The
    rewrite is not crash-safe: a rerun killed between the write and the
    cut leaves the new bytes followed by the old file's tail, which for a
    shorter CSV reads as rows of two runs.
    """
    data = text.encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | _O_BINARY, 0o666)
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.truncate()
    except OSError as exc:
        raise OutputError(f"cannot write output: {exc}") from exc


def _write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    """One row per trajectory sample but the initial condition: every
    accepted step's end, after the step's dense-output samples.

    Each distinct column is formatted once: t is coord_0 of a
    nonautonomous field and the gap is coord_{i0} on a directional chart.
    """
    n = traj.coords.shape[1]
    header = ["tau", "t"] + [f"coord_{i}" for i in range(n)] + ["horizon_gap"]

    def column(values):
        return list(map(repr, values[1:].tolist()))

    coords = [column(traj.coords[:, i]) for i in range(n)]
    ts = coords[0] if traj.dfield.nonautonomous else column(traj.ts)
    gap_slot = traj.dfield.gap_slot
    gaps = coords[gap_slot] if gap_slot < n else column(traj.gaps)
    lines = [",".join(header)]
    lines += map(",".join, zip(column(traj.taus), ts, *coords, gaps))
    _write_output(path, "\n".join(lines) + "\n")


def _write_equilibria_csv(path: Path, n: int, docs) -> None:
    """One row per ``_equilibrium_doc`` of a field with n slots.  The
    Jacobian is n x n, so n coordinate columns and n eigenvalue columns of
    each part, also when there are no rows."""
    header = (
        ["index", "classification", "residual", "t_slice"]
        + [f"coord_{i}" for i in range(n)]
        + [f"eig_re_{i}" for i in range(n)]
        + [f"eig_im_{i}" for i in range(n)]
    )
    lines = [",".join(header)]
    for idx, doc in enumerate(docs):
        eigs = doc["eigenvalues"]
        t_slice = "" if doc["t_slice"] is None else repr(doc["t_slice"])
        values = doc["coords"] + [re for re, _ in eigs] + [im for _, im in eigs]
        row = [str(idx), doc["classification"], repr(doc["residual"]), t_slice]
        lines.append(",".join(row + list(map(repr, values))))
    _write_output(path, "\n".join(lines) + "\n")


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
        "records": [dataclasses.asdict(r) for r in report.records],
    }


def _global_equilibria(
    config: AnalysisConfig, dfield: DesingField, t_slice: Optional[float] = None
) -> list:
    """Horizon equilibria on the family slice (weight-0 values) through the
    first run's initial point; ``t_slice`` replaces its time value."""
    anchor = charts.embed(dfield.chart, np.asarray(config.runs[0].y0)).coords
    if t_slice is not None:
        if not (dfield.nonautonomous and math.isfinite(t_slice)):
            raise DomainError("t_slice needs a nonautonomous field and a finite value")
        anchor[0] = t_slice
    return find_horizon_equilibria(dfield, grid_seeds(dfield, anchor))


def _error_doc(exc: HorizonLabError) -> dict:
    return {"type": type(exc).__name__, "message": str(exc)}


def _first_pass(
    config: AnalysisConfig, dfield: DesingField, run_index: int, csv_dir: Optional[Path]
):
    """Integrate one run, write its CSV into ``csv_dir`` unless it is None,
    and fit what of its report does not depend on the target.

    Returns (record, end, fit): end is the endpoint of a horizon-reaching
    trajectory and fit its ``fit_blowup``, or the error doc of what that
    raised; both are None for a run that did not reach the horizon, whose
    record is complete.  The trajectory itself is not kept.
    """
    run = config.runs[run_index]
    record: dict = {
        "index": run_index,
        "y0": [float(v) for v in run.y0],
        "csv": None,
        "stop_reason": None,
        "tau_end": None,
        "t_end": None,
        "accepted_steps": None,
        "rejected_steps": None,
        "blowup": None,
        "error": None,
    }
    try:
        point = charts.embed(dfield.chart, np.asarray(run.y0))
        traj = integrate(dfield, point.coords, t0=run.t0, controls=run.controls)
    except HorizonLabError as exc:
        record["error"] = _error_doc(exc)
        return record, None, None

    record["stop_reason"] = traj.stop_reason
    record["tau_end"] = float(traj.taus[-1])
    record["t_end"] = float(traj.ts[-1])
    record["accepted_steps"] = traj.n_accepted
    record["rejected_steps"] = traj.n_rejected
    if csv_dir is not None:
        record["csv"] = f"run_{run_index:03d}.csv"
        _write_trajectory_csv(csv_dir / record["csv"], traj)

    if traj.stop_reason != HORIZON_REACHED:
        record["error"] = {
            "type": "NotConverged",
            "message": (
                f"trajectory stopped with '{traj.stop_reason}' before "
                f"reaching the horizon"
            ),
        }
        return record, None, None

    try:
        fit = fit_blowup(traj)
    except HorizonLabError as exc:
        fit = _error_doc(exc)
    return record, traj.coords[-1].copy(), fit


def _shadowed_target(dfield: DesingField, end: np.ndarray, found) -> Equilibrium:
    """The equilibrium a trajectory ending at ``end`` shadows.  ``found``
    is the endpoint solve's entry for it (``horizon_equilibria_per_seed``),
    raised when it is an exception; the grid search through the endpoint's
    family slice is the fallback when the solve finds nothing within reach
    of the endpoint."""
    if isinstance(found, HorizonLabError):
        raise found
    try:
        return nearest_target(dfield, end, found)
    except NoTargetFound:
        fallback = find_horizon_equilibria(dfield, grid_seeds(dfield, end))
        return nearest_target(dfield, end, fallback)


def _analyze_block(
    config: AnalysisConfig, dfield: DesingField, indices, csv_dir: Optional[Path]
) -> list:
    """The records of the runs ``indices``, in two passes.

    The first runs one run at a time (``_first_pass``), so a process holds
    one trajectory at a time.  The second solves from every horizon-reaching
    endpoint in one batch (``horizon_equilibria_per_seed``) and completes
    each record: an error of the endpoint solve or a NoTargetFound comes
    before an error of the fit, and each stays in its run's record.
    """
    records, pending = [], []
    for i in indices:
        record, end, fit = _first_pass(config, dfield, i, csv_dir)
        records.append(record)
        if end is not None:
            pending.append((record, end, fit))
    found = horizon_equilibria_per_seed(dfield, [end for _, end, _ in pending])
    for (record, end, fit), entry in zip(pending, found):
        try:
            target = _shadowed_target(dfield, end, entry)
        except HorizonLabError as exc:
            record["error"] = _error_doc(exc)
            continue
        if isinstance(fit, dict):
            record["error"] = fit
        else:
            record["blowup"] = _blowup_doc(
                dataclasses.replace(fit, shadowed_target=target)
            )
    return records


_worker_state: tuple = ()


def _init_worker(config: AnalysisConfig, csv_dir: Optional[Path]) -> None:
    """Pool initializer: keep (config, field, csv_dir) for this worker
    process.  Compiled evaluators do not pickle, so each worker builds its
    own field, once; a forked worker finds the compiled evaluators in the
    cache it inherits, and a spawned one compiles them."""
    global _worker_state
    _worker_state = (config, build_field_from_config(config), csv_dir)


def _block_in_worker(indices: range) -> list:
    config, dfield, csv_dir = _worker_state
    return _analyze_block(config, dfield, indices, csv_dir)


def run_pipeline(
    config: AnalysisConfig,
    out_dir: Optional[str] = None,
    jobs: int = 1,
) -> Tuple[int, dict]:
    """Run every configured trajectory and write outputs.

    The runs form one block (``_analyze_block``): each is integrated and
    fitted in turn, and one batched solve from all their endpoints finds
    the targets.  With ``jobs`` > 1 and several runs, each of
    w = min(jobs, runs) worker processes takes one interleaved block, runs
    k, k + w, k + 2w, ...: no run costs much more than another, so static
    blocks keep the workers about equally busy.  The records are the same
    bytes whichever way the runs are split.

    Returns (exit_code, report document).  Exit code 2 means at least one
    run is partial (did not reach the horizon or produced no blow-up
    report); such runs carry an ``error`` entry instead of a ``blowup`` one.
    """
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    out = _output_dir(
        Path(out_dir if out_dir is not None else config.outputs.directory)
    )
    csv_dir = out if "csv" in config.outputs.formats else None

    dfield = build_field_from_config(config)
    log.info(
        "pipeline start: %d run(s), %s chart, variables %s",
        len(config.runs),
        dfield.chart.label,
        ", ".join(config.field.variable_names),
    )
    log.debug("generated evaluator:\n%s", dfield.source_code)

    n_runs = len(config.runs)
    if jobs > 1 and n_runs > 1:
        workers = min(jobs, n_runs)
        blocks = [range(n_runs)[k::workers] for k in range(workers)]
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(config, csv_dir),
        ) as pool:
            records = sorted(
                (r for block in pool.map(_block_in_worker, blocks) for r in block),
                key=lambda r: r["index"],
            )
    else:
        records = _analyze_block(config, dfield, range(n_runs), csv_dir)
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
        equilibria = _global_equilibria(config, dfield)
    except HorizonLabError as exc:
        log.warning("equilibrium search failed: %s", exc)
    eq_docs = [_equilibrium_doc(eq) for eq in equilibria]
    if csv_dir is not None:
        _write_equilibria_csv(out / "equilibria.csv", dfield.n, eq_docs)

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
        "equilibria": eq_docs,
        "runs": records,
    }
    if "json" in config.outputs.formats:
        _write_output(out / "report.json", canonical_text(report_doc))

    ok = all(r["error"] is None for r in records)
    return (0 if ok else 2), report_doc


# --------------------------------------------------------------------------
# argument parsing


def _example_param(text: str) -> Tuple[str, float]:
    """NAME=VALUE with a finite number; the example's builder checks NAME."""
    name, _, raw = text.partition("=")
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if name and math.isfinite(value):
        return name, value
    raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got '{text}'")


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
        "--jobs", type=int, default=1, help="parallel worker processes (>= 1)"
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
    p_ex.add_argument(
        "--param",
        type=_example_param,
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="example parameter (repeatable), e.g. --param epsilon=0.1",
    )

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
    eqs = _global_equilibria(config, dfield, args.t_slice)
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
        _write_equilibria_csv(
            _output_dir(Path(args.out)) / "equilibria.csv",
            dfield.n,
            [_equilibrium_doc(eq) for eq in eqs],
        )
    return 0


def _cmd_example(args) -> int:
    if args.name == "list":
        for name in example_names():
            print(name)
        return 0
    config = make_example(args.name, dict(args.param))
    if args.emit_config:
        sys.stdout.write(canonical_text(config.document))
        return 0
    out_dir = args.out or str(Path("horizon_lab_out") / args.name)
    code, report = run_pipeline(config, out_dir=out_dir, jobs=args.jobs)
    _print_run_summary(report, out_dir)
    return code


def _cmd_validate(args) -> int:
    """Parse the config and build its field, so a config ``analyze``
    rejects fails here too."""
    build_field_from_config(_read_config(args.config))
    print("config OK")
    return 0


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return 0 if exc.code == 0 else 1
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
