"""Independent checks of the pipeline's blow-up reports.

The t_max oracle integrates the original field (not the desingularized
one) with SciPy's DOP853 at rtol = atol = 1e-13, stops where one blowing-up
component reaches |y_i| = 1e5 and |y_i| = 1e7, and extrapolates the blow-up
time from the type-I law |y_i| ~ C (t_max - t)^(-a), a = alpha_i / k:

    (t_max - t1) / (t_max - t2) = (1e7 / 1e5)^(1/a) = R
    t_max = (R t2 - t1) / (R - 1)

On the three benchmark systems it agrees with the library to 1e-14..5e-12
relative to the blow-up span, so a miss beyond ``TMAX_RTOL`` is a wrong
answer, not noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from horizon_lab.homogeneity import FieldSpec, eval_field

EVENT_LEVELS = (1e5, 1e7)
TMAX_RTOL = 1e-9
EXPONENT_RTOL = 0.05
_T_SPAN = 100.0
# causes that mean a wrong number or a non-reproducible output, as opposed
# to a missing answer or a wrong type verdict
WRONG_CAUSES = ("t_max", "exponent", "bytes", "repeat")


class OracleError(RuntimeError):
    """The reference integration did not reach both event levels."""


def _crossing(index: int, level: float):
    def event(_t, y):
        return abs(y[index]) - level

    event.direction = 1.0
    event.terminal = level == EVENT_LEVELS[-1]
    return event


def oracle_tmax(
    field_spec: FieldSpec,
    y0: Sequence[float],
    t0: float,
    index: int,
    exponent: float,
) -> float:
    """Blow-up time of y' = f(y), y(t0) = y0, from component ``index``.

    ``exponent`` is a = alpha_i / k, the power at which |y_i| blows up.
    """
    sol = solve_ivp(
        lambda _t, y: eval_field(field_spec, y),
        (float(t0), float(t0) + _T_SPAN),
        np.asarray(y0, dtype=float),
        method="DOP853",
        rtol=1e-13,
        atol=1e-13,
        events=[_crossing(index, level) for level in EVENT_LEVELS],
    )
    if sol.status != 1 or any(len(te) == 0 for te in sol.t_events):
        raise OracleError(
            f"reference run from y0 = {list(y0)} did not reach "
            f"|y_{index}| = {EVENT_LEVELS[-1]:g}: {sol.message}"
        )
    t1 = float(sol.t_events[0][0])
    t2 = float(sol.t_events[1][0])
    ratio = (EVENT_LEVELS[1] / EVENT_LEVELS[0]) ** (1.0 / exponent)
    return (ratio * t2 - t1) / (ratio - 1.0)


@dataclass
class RunCheck:
    """Verdict on one run record.

    ``causes`` lists why the run failed. A cause in ``WRONG_CAUSES`` means
    the program printed a wrong number; the others mean it printed no
    answer or a wrong type verdict.
    """

    index: int
    causes: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.causes)

    @property
    def wrong(self) -> bool:
        return any(c in WRONG_CAUSES for c in self.causes)


def reference_tmax(config, index: int) -> List[float]:
    """Oracle t_max for every run of a parsed ``AnalysisConfig``."""
    htype = config.htype
    exponent = htype.alpha[index] / float(htype.k)
    return [
        oracle_tmax(config.field, run.y0, run.t0, index, exponent)
        for run in config.runs
    ]


def check_report(config, report: dict, references: Sequence[float]) -> List[RunCheck]:
    """Check each run of a pipeline report against the oracle.

    Every input here is type I, so a run fails when it errors, when the
    library does not confirm type I, when its t_max misses the oracle, or
    when a fitted exponent of a non-constant component is missing or off
    by more than 5% of -alpha_i/k. Constant components (an empty right-hand
    side) blow up at no rate, so their fits are not checked.
    """
    constant = {
        i for i, comp in enumerate(config.field.components) if not comp
    }
    if len(report["runs"]) != len(config.runs):
        raise ValueError(
            f"report holds {len(report['runs'])} runs, config {len(config.runs)}"
        )
    checks = []
    for run, record, t_ref in zip(config.runs, report["runs"], references):
        check = RunCheck(index=record["index"])
        checks.append(check)
        if record["error"] is not None:
            check.causes.append("error:" + record["error"]["type"])
            continue
        blowup = record["blowup"]
        span = abs(t_ref - run.t0)
        if not abs(blowup["t_max"] - t_ref) <= TMAX_RTOL * span:
            check.causes.append("t_max")
        if not blowup["type1_confirmed"]:
            check.causes.append("verdict")
        for rate in blowup["records"]:
            if rate["component_index"] in constant:
                continue
            fitted = rate["fitted_exponent"]
            predicted = rate["predicted_exponent"]
            if fitted is None or not (
                abs(fitted - predicted) <= EXPONENT_RTOL * abs(predicted)
            ):
                check.causes.append("exponent")
                break
    return checks
