"""Every config ends ``cli.main`` with an exit code, never a traceback."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizon_lab import dynamics
from horizon_lab.cli import main

# run 0 reaches the horizon (gap 7.7e-13), where its fitted time-factor
# amplitude A = exp(mean log(tf) + k lambda tau) alone exceeds the float
# range; the tail A exp(-k lambda tau_end) / (k lambda) does not
OVERFLOW_CONFIG = {
    "schema": 1,
    "field": {
        "variables": ["x0", "x1"],
        "nonautonomous": False,
        "components": [
            [
                {"coeff": 1.0, "exponents": [1, 0]},
                {"coeff": 2.0, "exponents": [3, 0]},
                {"coeff": 1e-08, "exponents": [2, 0]},
            ],
            [
                {"coeff": 100000000.0, "exponents": [0, 2]},
                {"coeff": 2.0, "exponents": [1, 1]},
                {"coeff": 0.5, "exponents": [0, 2]},
            ],
        ],
    },
    "homogeneity": {"alpha": [1, 2], "k": 2},
    "chart": {"type": "parabolic"},
    "runs": [
        {"y0": [-391.66415746780564, 0.011042094672148376], "tau_max": 30.0},
        {"y0": [-0.5224167987000556, 0.653397933850167], "tau_max": 30.0},
    ],
}


def test_tail_overflow_config_writes_its_report(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(OVERFLOW_CONFIG))
    out = tmp_path / "out"
    assert main(["analyze", str(path), "--out", str(out)]) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err
    runs = json.loads((out / "report.json").read_text())["runs"]
    assert [r["index"] for r in runs] == [0, 1]


def _signed(lo, hi):
    """A sign times 10**e, e from ``lo`` to ``hi``."""
    return st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(lo, hi)).map(
        lambda p: p[0] * 10.0 ** p[1]
    )


@st.composite
def _monomial(draw, alpha, degree, time_slot):
    """Exponents of weighted degree ``degree`` (lower when the weights do
    not fit it exactly), or with one exponent -1 now and then."""
    n = len(alpha)
    exps = [0] * n
    left = degree
    weighted = [j for j in range(n) if alpha[j]]
    for pos, j in enumerate(draw(st.permutations(weighted))):
        top = left // alpha[j]
        exps[j] = top if pos == len(weighted) - 1 else draw(st.integers(0, top))
        left -= exps[j] * alpha[j]
    if time_slot:
        exps[0] = draw(st.integers(0, 2))
    if draw(st.integers(0, 9)) == 0:
        exps[draw(st.integers(0, n - 1))] = -1
    # O(1) coefficients half the time, so that many runs reach the horizon
    coeff = draw(st.one_of(_signed(-0.3, 0.3), _signed(-8.0, 8.0)))
    return {"coeff": coeff, "exponents": exps}


@st.composite
def _configs(draw):
    n = draw(st.integers(1, 3))
    nonautonomous = n > 1 and draw(st.booleans())
    alpha = [draw(st.integers(1, 3)) for _ in range(n)]
    if nonautonomous:
        alpha[0] = 0
    k = draw(st.integers(1, 3))
    components = []
    for i in range(n):
        if nonautonomous and i == 0:
            components.append([{"coeff": 1.0, "exponents": [0] * n}])
            continue
        top = k + alpha[i]
        degrees = draw(st.lists(
            st.one_of(st.just(top), st.integers(0, top)), min_size=1, max_size=3
        ))
        components.append(
            [draw(_monomial(alpha, d, nonautonomous)) for d in degrees]
        )
    weighted = [j for j in range(n) if alpha[j]]
    if draw(st.booleans()):
        chart = {"type": "parabolic"}
        i0 = sign = None
    else:
        i0, sign = draw(st.sampled_from(weighted)), draw(st.sampled_from([1, -1]))
        chart = {"type": "directional", "index": i0, "sign": sign}
    runs = []
    for _ in range(draw(st.integers(1, 2))):
        y0 = [draw(_signed(-2.0, 3.0)) for _ in range(n)]
        if i0 is not None:
            y0[i0] = sign * abs(y0[i0])
        runs.append({"y0": y0, "tau_max": draw(st.sampled_from([5.0, 30.0]))})
    return {
        "schema": 1,
        "field": {
            "variables": [f"x{i}" for i in range(n)],
            "nonautonomous": nonautonomous,
            "components": components,
        },
        "homogeneity": {"alpha": alpha, "k": k},
        "chart": chart,
        "runs": runs,
    }


@settings(max_examples=25, deadline=None, derandomize=True)
@given(doc=_configs())
def test_random_configs_end_with_an_exit_code(doc):
    # a low step budget bounds each run's time; the Tier-1 warning filter
    # turns any RuntimeWarning into an exception that escapes main
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(dynamics, "_MAX_STEPS", 3000)
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) in (0, 1)
        assert main(["equilibria", str(path)]) in (0, 1)
        assert main(["analyze", str(path), "--out", str(Path(tmp) / "out")]) in (0, 1, 2)
