"""Timing and counting spans around the program's public entry points.

``Tracer`` replaces module attributes with wrappers while it is active and
restores them on exit; nothing under ``src/`` is edited. Spans nest through
a stack and are aggregated in memory by (name, parent): count, total time
and the time covered by child spans, so a layer's self time is its total
minus its children. The wrappers also read counts off the results
(accepted and rejected steps, equilibria found).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from horizon_lab import blowup, charts, cli, config, dynamics
from horizon_lab.desing import DesingField

# (span name, [(owner, attribute), ...]): every binding the pipeline calls
# through. ``cli`` imports most entry points by name, so the cli binding is
# the one run_pipeline uses; ``charts.embed`` is looked up at call time.
# ``dynamics._gauss_newton`` is private: it is the one boundary every
# equilibrium seed passes, so it counts seeds and Gauss-Newton solves.
_TARGETS = (
    ("config.parse", [(config, "parse_config"), (cli, "parse_config")]),
    ("desing.build", [(cli, "build_field_from_config")]),
    ("charts.embed", [(charts, "embed")]),
    ("integrate", [(dynamics, "integrate"), (cli, "integrate")]),
    (
        "equilibria",
        [
            (dynamics, "find_horizon_equilibria"),
            (cli, "find_horizon_equilibria"),
        ],
    ),
    ("equilibria.solve", [(dynamics, "_gauss_newton")]),
    ("report", [(blowup, "build_report"), (cli, "build_report")]),
    ("pipeline", [(cli, "run_pipeline")]),
    ("desing.rhs", [(DesingField, "rhs_values")]),
    ("desing.jac", [(DesingField, "jacobian")]),
)

_TOP = "<top>"


class Tracer:
    """Context manager that records spans while it is active."""

    def __init__(self) -> None:
        # (name, parent) -> [count, total_ns, child_ns]
        self.spans: Dict[Tuple[str, str], List[int]] = defaultdict(
            lambda: [0, 0, 0]
        )
        self.counts: Dict[str, int] = defaultdict(int)
        self.missing: List[str] = []
        self._stack: List[list] = [[_TOP, 0]]
        self._saved: List[tuple] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                agg = spans[(name, parent[0])]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += frame[1]
            if name == "integrate":
                counts["steps_accepted"] += result.n_accepted
                counts["steps_rejected"] += result.n_rejected
            elif name == "equilibria":
                counts["equilibria_found"] += len(result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for name, bindings in _TARGETS:
            originals = [
                (owner, attr, getattr(owner, attr, None))
                for owner, attr in bindings
            ]
            present = [o for o in originals if o[2] is not None]
            if not present:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, present[0][2])
            for owner, attr, original in present:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- queries ---------------------------------------------------------

    def count(self, name: str, parents=None) -> int:
        return sum(
            v[0]
            for (n, p), v in self.spans.items()
            if n == name and (parents is None or p in parents)
        )

    def total_s(self, name: str, parents=None) -> float:
        return 1e-9 * sum(
            v[1]
            for (n, p), v in self.spans.items()
            if n == name and (parents is None or p in parents)
        )

    def self_s(self, name: str) -> float:
        return 1e-9 * sum(
            v[1] - v[2] for (n, _p), v in self.spans.items() if n == name
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, runs: int, scale: float = 1.0) -> Dict[str, float]:
    """Per-layer figures from the spans of ``runs`` traced pipeline runs;
    every time is multiplied by ``scale``."""
    eq_calls = tr.count("equilibria")
    seeds = tr.count("equilibria.solve")
    found = tr.counts["equilibria_found"]
    in_eq = ("equilibria", "equilibria.solve")
    integrate_s = scale * tr.total_s("integrate")
    accepted = tr.counts["steps_accepted"]
    return {
        "equilibria.ms_per_run": 1e3 * scale * tr.total_s("equilibria") / runs,
        "equilibria.calls_per_run": eq_calls / runs,
        "equilibria.seeds_per_call": _ratio(seeds, eq_calls),
        "equilibria.found_per_call": _ratio(found, eq_calls),
        "equilibria.useful_ratio": _ratio(found, seeds),
        "equilibria.jac_per_seed": _ratio(tr.count("desing.jac", in_eq), seeds),
        "integrate.ms_per_run": 1e3 * integrate_s / runs,
        "integrate.steps_accepted": accepted / runs,
        "integrate.steps_rejected": tr.counts["steps_rejected"] / runs,
        "integrate.us_per_step": 1e6 * _ratio(integrate_s, accepted),
        "integrate.rhs_per_step": _ratio(
            tr.count("desing.rhs", ("integrate",)), accepted
        ),
        "integrate.field_share": _ratio(
            scale * tr.total_s("desing.rhs", ("integrate",)), integrate_s
        ),
        "desing.build_ms": 1e3
        * scale * _ratio(tr.total_s("desing.build"), tr.count("desing.build")),
        "desing.rhs_calls_per_run": tr.count("desing.rhs") / runs,
        "desing.jac_calls_per_run": tr.count("desing.jac") / runs,
        "config.parse_ms": 1e3
        * scale * _ratio(tr.total_s("config.parse"), tr.count("config.parse")),
        "charts.embed_us": 1e6
        * scale * _ratio(tr.total_s("charts.embed"), tr.count("charts.embed")),
        "report.ms_per_run": 1e3 * scale * tr.total_s("report") / runs,
        "pipeline.self_ms_per_run": 1e3 * scale * tr.self_s("pipeline") / runs,
    }


def layer_shares(tr: Tracer) -> Dict[str, float]:
    """Share of pipeline time spent in each layer called by the pipeline,
    plus the pipeline's own (orchestration and output) time."""
    total = tr.total_s("pipeline")
    shares = {
        name: _ratio(tr.total_s(name, ("pipeline",)), total)
        for name in ("desing.build", "charts.embed", "integrate",
                     "equilibria", "report")
    }
    shares["pipeline.self"] = _ratio(tr.self_s("pipeline"), total)
    return shares
