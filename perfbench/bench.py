"""Measurement loops, correctness checks and metric assembly.

Each workload is one client in a closed loop: a batch is one pipeline call
over the workload's whole config, and the next batch starts when the
previous one has returned. A run of the reference kernel follows every
batch, and each batch's wall and CPU time is divided by the host's
slowness: the mean over the kernel runs on either side of their time over
the kernel's nominal time. The kernel runs with the batch's parallelism:
in this process for an in-process batch, and in one helper process per CPU
for the CLI, whose workers keep every CPU busy. End-to-end figures are
medians of these normalized batch times over a run.
The traced run alternates untraced and traced batches, so the tracing
overhead is measured in the same host state.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from horizon_lab import cli, config
from tracer import Tracer, layer_metrics, layer_shares
from refkernel import NOMINAL_SECONDS, ParallelReference, probe, slowness
from workloads import Workload, config_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
# set-up probes per run, spread evenly over the timed loop
SETUP_REPEATS = 10
# kernel runs per helper process in one parallel reference, about 0.1 s
CLI_REFERENCE_RUNS = 8

END_TO_END_UNITS = {
    "runs_per_s": "1/s",
    "cpu_ms_per_run": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "equilibria.ms_per_run": "ms",
    "equilibria.calls_per_run": "count",
    "equilibria.seeds_per_call": "count",
    "equilibria.found_per_call": "count",
    "equilibria.useful_ratio": "ratio",
    "equilibria.jac_per_seed": "count",
    "integrate.ms_per_run": "ms",
    "integrate.steps_accepted": "count",
    "integrate.steps_rejected": "count",
    "integrate.us_per_step": "us",
    "integrate.rhs_per_step": "count",
    "integrate.field_share": "ratio",
    "desing.build_ms": "ms",
    "desing.rhs_calls_per_run": "count",
    "desing.jac_calls_per_run": "count",
    "config.parse_ms": "ms",
    "charts.embed_us": "us",
    "report.ms_per_run": "ms",
    "pipeline.self_ms_per_run": "ms",
    "output.bytes_per_run": "bytes",
    "fanout.speedup": "x",
    "trace.overhead_frac": "ratio",
}


def _cpu_s() -> float:
    """CPU seconds of this process plus its waited-for descendants."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


@dataclass
class Batch:
    wall_s: float
    cpu_s: float
    report: bytes
    # host slowness around the batch for (wall, CPU) time: 1 on a quiet host
    slow: Tuple[float, float] = (1.0, 1.0)

    def norm_wall(self) -> float:
        """Wall time in nominal seconds."""
        return self.wall_s / self.slow[0]

    def norm_cpu(self) -> float:
        """CPU time in nominal seconds."""
        return self.cpu_s / self.slow[1]


def in_process(text: str, out_dir: Path, jobs: int = 1) -> Callable[[], Batch]:
    """Batch that parses the config and calls run_pipeline in this process."""

    def batch() -> Batch:
        w0, c0 = time.perf_counter(), _cpu_s()
        cfg = config.parse_config(text)
        _code, doc = cli.run_pipeline(cfg, out_dir=str(out_dir), jobs=jobs)
        wall, cpu = time.perf_counter() - w0, _cpu_s() - c0
        return Batch(wall, cpu, config.canonical_text(doc).encode())

    return batch


def cli_process(config_path: Path, out_dir: Path, jobs: int) -> Callable[[], Batch]:
    """Batch that runs ``python -m horizon_lab analyze`` as a subprocess."""
    env = dict(os.environ)
    env.pop("HORIZON_LAB_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, "-m", "horizon_lab", "analyze", str(config_path),
        "--out", str(out_dir), "--jobs", str(jobs),
    ]

    def batch() -> Batch:
        w0, c0 = time.perf_counter(), _cpu_s()
        proc = subprocess.run(
            cmd, cwd=out_dir.parent, env=env, capture_output=True, timeout=170
        )
        wall, cpu = time.perf_counter() - w0, _cpu_s() - c0
        if proc.returncode not in (0, 2):
            raise RuntimeError(
                f"analyze exited {proc.returncode}: {proc.stderr.decode()}"
            )
        return Batch(wall, cpu, (out_dir / "report.json").read_bytes())

    return batch


def _loop(batches: Sequence[Callable[[], Batch]], deadline: float,
          reference: Callable[[], Tuple[float, float]] = slowness,
          ) -> List[List[Batch]]:
    """Run the batch functions in turn, each followed by a reference run,
    until ``time.perf_counter()`` passes ``deadline``; every function runs
    at least once and equally often."""
    samples: List[List[Batch]] = [[] for _ in batches]
    before = reference()
    while not samples[0] or time.perf_counter() < deadline:
        for fn, out in zip(batches, samples):
            batch = fn()
            after = reference()
            batch.slow = (0.5 * (before[0] + after[0]), 0.5 * (before[1] + after[1]))
            before = after
            out.append(batch)
    return samples


def _median_wall(batches: Sequence[Batch]) -> float:
    """Median batch wall time in nominal seconds."""
    return statistics.median(b.norm_wall() for b in batches)


def _slowness(batches: Sequence[Batch]) -> str:
    return (
        f"median host slowness {statistics.median(b.slow[0] for b in batches):.4g} "
        f"(wall), {statistics.median(b.slow[1] for b in batches):.4g} (CPU)"
    )


def _output_files(out_dir: Path) -> Dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def _differing_runs(a: Path, b: Path, n_runs: int) -> set:
    """Runs whose outputs differ between two output directories; any
    difference outside the per-run CSVs implicates every run."""
    fa, fb = _output_files(a), _output_files(b)
    bad = set()
    for name in set(fa) | set(fb):
        if fa.get(name) == fb.get(name):
            continue
        if name.startswith("run_") and name.endswith(".csv"):
            bad.add(int(name[4:-4]))
        else:
            return set(range(n_runs))
    return bad


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup_probe(config_path: Path) -> float:
    """Seconds a fresh interpreter takes to import horizon_lab, parse the
    config and build its field."""
    cmd = [sys.executable, str(HERE / "probe_setup.py"), str(SRC), str(config_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout.split()[-1])


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import scipy

    return {
        "nproc": NPROC,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


class Run:
    """One benchmark invocation: a workload, a seed and a mode."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.n = workload.runs
        self.text = config_text(workload, seed, self.n)
        self.work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        self.config_path = self.work / "config.json"
        self.config_path.write_text(self.text, encoding="utf-8")
        self.lines: List[str] = []

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _out(self, name: str) -> Path:
        path = self.work / name
        path.mkdir(exist_ok=True)
        return path

    def say(self, line: str) -> None:
        self.lines.append(line)

    # -- modes -------------------------------------------------------------

    def measure(self) -> dict:
        """Run the mode and return the result object for the last line."""
        # one small pipeline call so imports and caches are warm
        warm = config_text(self.workload, self.seed, 1)
        in_process(warm, self._out("warm"))()
        if self.trace:
            metrics, batches, extra = self._traced()
        else:
            metrics, batches, extra = self._timed()
        return self._verdict(metrics, batches, extra)

    def _timed(self):
        n = self.n
        out = self._out("out")
        if self.workload.cli:
            batch = cli_process(self.config_path, out, NPROC)
        else:
            batch = in_process(self.text, out)
        setup_probe(self.config_path)  # fills the bytecode caches
        batches, setup = [], []
        parallel = (
            ParallelReference(NPROC, CLI_REFERENCE_RUNS)
            if self.workload.cli else nullcontext(slowness)
        )
        with parallel as reference:
            start = time.perf_counter()
            for i in range(1, SETUP_REPEATS + 1):
                deadline = start + self.seconds * i / SETUP_REPEATS
                if not batches or time.perf_counter() < deadline:
                    batches += _loop([batch], deadline, reference)[0]
                before = probe()
                seconds = setup_probe(self.config_path)
                setup.append(seconds * NOMINAL_SECONDS / (0.5 * (before + probe())))
            rss = _rss_mb(
                resource.RUSAGE_CHILDREN if self.workload.cli else resource.RUSAGE_SELF
            )
        metrics = {
            "runs_per_s": n / _median_wall(batches),
            "cpu_ms_per_run": 1e3
            * statistics.median(b.norm_cpu() for b in batches) / n,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
        }
        path = f"analyze --jobs {NPROC} subprocess" if self.workload.cli else (
            "in-process run_pipeline, jobs=1")
        kernel = (
            f"{CLI_REFERENCE_RUNS} runs in each of {NPROC} processes at once"
            if self.workload.cli else "1 run in this process"
        )
        self.say(f"path: {path}; {len(batches)} batches of {n} runs")
        self.say(
            f"reference kernel: {kernel} after each batch; {_slowness(batches)}; "
            f"nominal run {1e3 * NOMINAL_SECONDS:g} ms"
        )
        self.say(
            f"runs_per_s = {metrics['runs_per_s']:.6g} 1/s (median of "
            f"{len(batches)} normalized batches; raw wall median "
            f"{n / statistics.median(b.wall_s for b in batches):.6g})"
        )
        self.say(
            f"cpu_ms_per_run = {metrics['cpu_ms_per_run']:.6g} ms (median of "
            f"{len(batches)} normalized batches; raw median "
            f"{1e3 * statistics.median(b.cpu_s for b in batches) / n:.6g})"
        )
        self.say(
            f"setup_s = {metrics['setup_s']:.6g} s (median of {len(setup)} "
            f"normalized fresh-interpreter probes)"
        )
        self.say(f"peak_rss_mb = {rss:.6g} MB (ru_maxrss)")
        extra = {}
        if self.workload.cli:
            ref = self._out("ref")
            in_process(self.text, ref)()
            extra["bytes"] = _differing_runs(out, ref, n)
        return metrics, batches, extra

    def _traced(self):
        n = self.n
        out = self._out("out")
        tracers: List[Tracer] = []
        traced_out = self._out("traced")

        def traced_batch() -> Batch:
            tracer = Tracer()
            tracers.append(tracer)
            with tracer:
                return in_process(self.text, traced_out)()

        if self.workload.cli:
            cli_dirs = self._out("cli_1"), self._out("cli_n")
            fan = [cli_process(self.config_path, cli_dirs[0], 1),
                   cli_process(self.config_path, cli_dirs[1], NPROC)]
            basis = f"analyze --jobs 1 over --jobs {NPROC}"
        else:
            fan = [in_process(self.text, self._out("fan"), NPROC)]
            basis = f"run_pipeline jobs=1 over jobs={NPROC}"
        plain, traced, *fanned = _loop(
            [in_process(self.text, out), traced_batch, *fan],
            time.perf_counter() + self.seconds,
        )
        # per-layer figures come from the traced batch of median normalized time
        order = sorted(range(len(traced)), key=lambda i: traced[i].norm_wall())
        mid = order[len(order) // 2]
        if tracers[mid].missing:
            self.say("spans not found: " + ", ".join(tracers[mid].missing))
        metrics = layer_metrics(tracers[mid], n, 1.0 / traced[mid].slow[0])
        metrics["output.bytes_per_run"] = sum(
            len(v) for v in _output_files(out).values()
        ) / n
        serial = fanned[0] if self.workload.cli else plain
        metrics["fanout.speedup"] = _median_wall(serial) / _median_wall(fanned[-1])
        metrics["trace.overhead_frac"] = _median_wall(traced) / _median_wall(plain) - 1.0
        self.say(
            f"traced in-process run_pipeline, jobs=1: {len(traced)} traced and "
            f"{len(plain)} untraced batches of {n} runs; times in nominal "
            f"seconds of the reference kernel (1 run in this process after "
            f"each batch; {_slowness(plain)}; nominal run "
            f"{1e3 * NOMINAL_SECONDS:g} ms)"
        )
        self.say(f"fanout.speedup: median {basis}, {len(fanned[0])} batches each")
        shares = layer_shares(tracers[mid])
        self.say(
            "share of traced pipeline time: "
            + ", ".join(f"{k} {100 * v:.1f}%" for k, v in
                        sorted(shares.items(), key=lambda kv: -kv[1]))
        )
        extra = {}
        if self.workload.cli:
            extra["bytes"] = set().union(
                *(_differing_runs(d, out, n) for d in cli_dirs)
            )
        return metrics, plain + traced + sum(fanned, []), extra

    # -- correctness ---------------------------------------------------------

    def _verdict(self, metrics: dict, batches: List[Batch], extra: dict) -> dict:
        from oracle import check_report, reference_tmax

        cfg = config.parse_config(self.text)
        first = batches[0].report
        checks = check_report(
            cfg,
            json.loads(first),
            reference_tmax(cfg, self.workload.blowup_index),
        )
        repeat_ok = all(b.report == first for b in batches)
        for check in checks:
            if not repeat_ok:
                check.causes.append("repeat")
            if check.index in extra.get("bytes", ()):
                check.causes.append("bytes")
        # the operations are the config's distinct runs: every batch repeats
        # all of them, and a repeat that differs from the first fails them
        # all, so the counts depend on the seed and not on the batch count
        failed = sum(c.failed for c in checks)
        causes = Counter(c for chk in checks for c in chk.causes)
        self.say(
            f"failed_frac = {failed / self.n:.4g} (unitless; {failed} of "
            f"{self.n} runs, each repeated in {len(batches)} batches; causes: "
            + (", ".join(f"{k} {v}" for k, v in sorted(causes.items())) or "none")
            + ")"
        )
        return {
            "correct": not any(c.wrong for c in checks),
            "attempted": self.n,
            "failed": failed,
            "metrics": {
                name: {"value": float(value), "unit": _unit(name)}
                for name, value in metrics.items()
            },
        }


def _unit(name: str) -> str:
    return END_TO_END_UNITS.get(name) or LAYER_UNITS[name]
