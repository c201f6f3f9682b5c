"""Seeded multi-run configs for the three benchmark workloads.

The field documents below are the benchmark's own copy of three bundled
systems (kk_dafermos at epsilon = 0, mems at n_dim = 3, p = 2, q = 1, and
painleve1), so the inputs stay fixed even if the program's examples change.
Initial points are a Latin hypercube sample of the stated uniform ranges,
drawn from ``random.Random("<workload>/<seed>")``: the same seed gives
byte-identical config text.

Each workload makes one layer dominant and another negligible:

- kk_sweep is equilibrium-bound. Every run freezes the same chi = 0 slice,
  so each run repeats the same 343-seed Gauss-Newton grid.
- mems_sweep is integrator-bound: long trajectories, cheap equilibria.
- painleve1_cli goes through ``python -m horizon_lab analyze --jobs nproc``.
  The field is nonautonomous, so every run searches its own time slice and
  every worker re-parses the config and rebuilds the field.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple


def _mono(coeff, *exponents):
    return {"coeff": coeff, "exponents": list(exponents)}


KK_DAFERMOS = {
    "field": {
        "variables": ["chi", "u1", "u2", "w1", "w2"],
        "nonautonomous": False,
        "components": [
            [],
            [
                _mono(1.0, 0, 2, 0, 0, 0),
                _mono(-1.0, 0, 0, 1, 0, 0),
                _mono(-1.0, 1, 1, 0, 0, 0),
                _mono(-1.0, 0, 0, 0, 1, 0),
            ],
            [
                _mono(1.0 / 3.0, 0, 3, 0, 0, 0),
                _mono(-1.0, 0, 1, 0, 0, 0),
                _mono(-1.0, 1, 0, 1, 0, 0),
                _mono(-1.0, 0, 0, 0, 0, 1),
            ],
            [],
            [],
        ],
    },
    "homogeneity": {"alpha": [0, 1, 2, 1, 2], "k": 1},
    "chart": {"type": "directional", "index": 2, "sign": 1},
}

MEMS = {
    "field": {
        "variables": ["r", "w", "v"],
        "nonautonomous": True,
        "components": [
            [_mono(1.0, 0, 0, 0)],
            [_mono(1.0, 0, 0, 1)],
            [
                _mono(-2.0, -1, 0, 1),
                _mono(-1.0, 1, 4, 0),
                _mono(2.0, 0, -1, 2),
            ],
        ],
    },
    "homogeneity": {"alpha": [0, 2, 5], "k": 3},
    "chart": {"type": "directional", "index": 1, "sign": -1},
}

PAINLEVE1 = {
    "field": {
        "variables": ["chi", "u", "v"],
        "nonautonomous": True,
        "components": [
            [_mono(1.0, 0, 0, 0)],
            [_mono(1.0, 0, 0, 1)],
            [_mono(6.0, 0, 2, 0), _mono(1.0, 1, 0, 0)],
        ],
    },
    "homogeneity": {"alpha": [0, 2, 3], "k": 1},
    "chart": {"type": "parabolic"},
}


def _kk_run(u: Sequence[float]) -> dict:
    y0 = [0.0, 2.0 + 2.0 * u[0], 0.5 + u[1], u[2] - 0.5, u[3] - 0.5]
    return {"y0": y0, "t0": 0.0}


def _mems_run(u: Sequence[float]) -> dict:
    return {"y0": [1.0, u[0] - 1.5, u[1] - 1.5], "t0": 1.0}


def _painleve1_run(u: Sequence[float]) -> dict:
    u0 = 5.0 + 15.0 * u[0]
    v0 = 2.0 * u0**1.5 * (0.8 + 0.4 * u[1])
    return {"y0": [0.0, u0, v0], "t0": 0.0}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``make_run`` maps a point of the unit cube of dimension ``dims`` to one
    run; ``blowup_index`` is the component the t_max oracle watches;
    ``cli`` selects the subprocess path instead of an in-process
    ``run_pipeline``; the inputs in ``centered`` take the midpoints of their
    strata instead of a random point in each.
    """

    name: str
    system: dict
    make_run: Callable[[Sequence[float]], dict]
    dims: int
    runs: int
    blowup_index: int
    cli: bool
    centered: Tuple[int, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        # kk's type-I verdict fails when |w1| is above about 0.23, inside
        # the stratum [0.125, 0.25]; midpoints keep exactly half the runs
        # (|w1| >= 0.3125) on the failing side for every seed
        Workload("kk_sweep", KK_DAFERMOS, _kk_run, 4, 8, 1, False, (2,)),
        Workload("mems_sweep", MEMS, _mems_run, 2, 16, 1, False),
        Workload("painleve1_cli", PAINLEVE1, _painleve1_run, 2, 32, 1, True),
    )
}


def config_document(workload: Workload, seed: int, n_runs: int) -> dict:
    """Latin hypercube sample: each uniform input is drawn once from each
    of ``n_runs`` equal strata, so every seed gets the same mix of easy and
    costly runs and only the details differ."""
    rng = random.Random(f"{workload.name}/{seed}")
    strata = [rng.sample(range(n_runs), n_runs) for _ in range(workload.dims)]
    runs: List[dict] = [
        workload.make_run([
            (col[i] + (0.5 if d in workload.centered else rng.random())) / n_runs
            for d, col in enumerate(strata)
        ])
        for i in range(n_runs)
    ]
    return {"schema": 1, **workload.system, "runs": runs}


def config_text(workload: Workload, seed: int, n_runs: int) -> str:
    """Canonical JSON text of the workload's config for ``seed``."""
    doc = config_document(workload, seed, n_runs)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
