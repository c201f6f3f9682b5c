import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from horizon_lab import (
    DirectionalChart,
    FieldSpec,
    HomogeneityType,
    Monomial,
    build_directional_desing,
    build_parabolic_desing,
    parse_config,
)

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# acceptance tests append (criterion_id, passed, line) triples here; the
# terminal-summary hook below replays them outside pytest's capture so every
# criterion shows one visible verdict line even when its test passed
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for _cid, ok, line in ACCEPTANCE_VERDICTS:
        terminalreporter.write_line(line, green=ok, red=not ok)


def fd_jacobian(func, x, h=1e-6):
    """Central-difference Jacobian of ``func`` at ``x`` (oracle for tests)."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(func(x), dtype=float)
    J = np.zeros((f0.size, x.size))
    for j in range(x.size):
        step = h * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        J[:, j] = (np.asarray(func(xp)) - np.asarray(func(xm))) / (2 * step)
    return J


def workload_config(name, seed):
    """The benchmark's config for ``name`` at ``seed``."""
    mod = sys.modules.get("perfbench_workloads")
    if mod is None:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
        mod = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = mod  # dataclasses look their module up here
        spec.loader.exec_module(mod)
    w = mod.WORKLOADS[name]
    return parse_config(mod.config_text(w, seed, w.runs))


def _sqrt_coordinate():
    # sqrt(r) on a weight-0 variable: a fractional power of a coordinate
    fs = FieldSpec(
        variable_names=("r", "y"),
        components=((), (Monomial(1.0, (Fraction(1, 2), 2)),)),
    )
    return build_parabolic_desing(fs, HomogeneityType(alpha=(0, 1), k=1))


_HALF_K = HomogeneityType(alpha=(1,), k=Fraction(1, 2))
_LINEAR = FieldSpec(variable_names=("y",), components=((Monomial(1.0, (1,)),),))
_HALF_K2 = HomogeneityType(alpha=(1, 1), k=Fraction(1, 2))
_LINEAR2 = FieldSpec(
    variable_names=("y", "v"),
    components=((Monomial(1.0, (1, 0)),), (Monomial(2.0, (0, 1)),)),
)

# Fields whose generated code takes fractional powers of a clamped or a raw
# base: k = 1/2 gives fractional powers of the clamped W (parabolic) and of
# the clamped s (directional).  In the "shared" fields and in
# sqrt_coordinate one such power appears in two expressions, so the
# generated step binds it to a local after the line of its base.
CLAMPED_FIELDS = {
    "w_clamp": lambda: build_parabolic_desing(_LINEAR, _HALF_K),
    "s_clamp": lambda: build_directional_desing(
        _LINEAR, _HALF_K, DirectionalChart(htype=_HALF_K, i0=0, sign=1)
    ),
    "sqrt_coordinate": _sqrt_coordinate,
    "w_clamp_shared": lambda: build_parabolic_desing(_LINEAR2, _HALF_K2),
    "s_clamp_shared": lambda: build_directional_desing(
        _LINEAR2, _HALF_K2, DirectionalChart(htype=_HALF_K2, i0=0, sign=1)
    ),
}
