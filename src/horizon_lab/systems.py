"""Built-in example systems with known blow-up/quenching behaviour.

Each builder writes the config document of one analysis -- the field, its
homogeneity type, the chart that hosts the interesting dynamics and a
default run in original coordinates -- and returns the AnalysisConfig that
parse_config gives for it.  The four models:

- painleve1: u'' = 6u^2 + t, the nonautonomous workhorse with algebraic
  double poles (u ~ (t-t*)^-2).
- kk_dafermos: a 5-dimensional stiff-limit system whose u-components blow up
  while the slow w-components freeze (rates -1 and -2, two sub-polynomial
  directions).
- selfsimilar: the profile equation family u' = u^{1-m} v with m < 0 -- a
  non-integer order example whose horizon equilibria form a line.
- mems: a touchdown/quenching model with negative-direction blow-up, hosted
  on the -w directional chart.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

from .config import SCHEMA_VERSION, AnalysisConfig, canonical_text, parse_config
from .dynamics import IntegratorControls
from .errors import DomainError, UnknownExample

__all__ = [
    "painleve1",
    "kk_dafermos",
    "selfsimilar",
    "mems",
    "EXAMPLES",
    "make_example",
    "example_names",
]


def _num(value):
    """JSON-friendly number: ints stay ints, fractions/floats become floats."""
    if isinstance(value, int):
        return value
    f = float(value)
    return int(f) if f.is_integer() else f


def _m(coeff, *exps) -> dict:
    return {"coeff": float(coeff), "exponents": [_num(e) for e in exps]}


def _config(
    variables, components, nonautonomous, alpha, k, chart, y0, t0=0.0
) -> AnalysisConfig:
    """The parsed config of one system with a single default run.

    The run spells out the integrator's default controls, so the emitted
    config shows every knob a user may turn.
    """
    controls = IntegratorControls()
    doc = {
        "schema": SCHEMA_VERSION,
        "field": {
            "variables": variables,
            "nonautonomous": nonautonomous,
            "components": components,
        },
        "homogeneity": {"alpha": alpha, "k": _num(k)},
        "chart": chart,
        "runs": [
            {
                "y0": y0,
                "t0": t0,
                "tau_max": controls.tau_max,
                "rel_tol": controls.rel_tol,
                "abs_tol": controls.abs_tol,
                "horizon_eps": controls.horizon_eps,
            }
        ],
    }
    return parse_config(canonical_text(doc))


def painleve1() -> AnalysisConfig:
    """First Painlevé equation u'' = 6u^2 + t as (chi, u, v)."""
    v0 = 2.0 * 10.0**1.5  # tangent to the stable horizon approach at u0 = 10
    return _config(
        ("chi", "u", "v"),
        (
            (_m(1.0, 0, 0, 0),),
            (_m(1.0, 0, 0, 1),),
            (_m(6.0, 0, 2, 0), _m(1.0, 1, 0, 0)),
        ),
        nonautonomous=True,
        alpha=(0, 2, 3),
        k=1,
        chart={"type": "parabolic"},
        y0=(0.0, 10.0, v0),
    )


def kk_dafermos(epsilon: float = 0.0) -> AnalysisConfig:
    """Slow-fast Dafermos regularization with blow-up in the fast pair.

    Variables (chi, u1, u2, w1, w2); epsilon is the slow speed, 0 <= eps < 1.
    """
    eps = float(epsilon)
    if not (0.0 <= eps < 1.0):
        raise DomainError(f"epsilon must satisfy 0 <= epsilon < 1, got {eps}")
    comp_chi = (_m(eps, 0, 0, 0, 0, 0),) if eps else ()
    comp_u1 = (
        _m(1.0, 0, 2, 0, 0, 0),
        _m(-1.0, 0, 0, 1, 0, 0),
        _m(-1.0, 1, 1, 0, 0, 0),
        _m(-1.0, 0, 0, 0, 1, 0),
    )
    comp_u2 = (
        _m(1.0 / 3.0, 0, 3, 0, 0, 0),
        _m(-1.0, 0, 1, 0, 0, 0),
        _m(-1.0, 1, 0, 1, 0, 0),
        _m(-1.0, 0, 0, 0, 0, 1),
    )
    comp_w1 = (_m(-eps, 0, 1, 0, 0, 0),) if eps else ()
    comp_w2 = (_m(-eps, 0, 0, 1, 0, 0),) if eps else ()
    return _config(
        ("chi", "u1", "u2", "w1", "w2"),
        (comp_chi, comp_u1, comp_u2, comp_w1, comp_w2),
        nonautonomous=False,
        alpha=(0, 1, 2, 1, 2),
        k=1,
        chart={"type": "directional", "index": 2, "sign": 1},
        y0=(0.0, 3.0, 1.0, 0.0, 0.0),
    )


def selfsimilar(
    m: float = -1.0, beta: float = -1.0, alpha_ss: Optional[float] = None
) -> AnalysisConfig:
    """Self-similar profile system chi' = 1, u' = u^{1-m} v, v' = ...

    Requires m < 0, beta < 0 and alpha_ss != 0; alpha_ss defaults to
    (2*beta + 1)/(1 - m), the similarity exponent balancing the scaling
    relations.
    """
    mf = float(m)
    bf = float(beta)
    if mf >= 0:
        raise DomainError(f"self-similar family needs m < 0, got {m}")
    if bf >= 0:
        raise DomainError(f"self-similar family needs beta < 0, got {beta}")
    a_ss = (2.0 * bf + 1.0) / (1.0 - mf) if alpha_ss is None else float(alpha_ss)
    if a_ss == 0:
        raise DomainError(f"self-similar family needs alpha_ss != 0, got {a_ss}")
    e = 1.0 - mf  # the u-exponent, > 1
    return _config(
        ("chi", "u", "v"),
        (
            (_m(1.0, 0, 0, 0),),
            (_m(1.0, 0, e, 1),),
            (_m(-bf, 1, e, 1), _m(-a_ss, 0, 1, 0)),
        ),
        nonautonomous=True,
        alpha=(0, 1, 1),
        k=e,
        chart={"type": "directional", "index": 1, "sign": 1},
        y0=(0.0, 1.0, 1.0),
    )


def mems(n_dim: int = 3, p: int = 2, q: float = 1.0) -> AnalysisConfig:
    """Quenching model (r, w, v): w'' plus curvature and forcing terms.

    w' = v and v' = -(n_dim-1)/r * v - r^q * w^{p+2} + 2 v^2 / w, with p even
    and positive; the touchdown branch lives in w < 0, so the bundled chart
    is the -w direction.
    """
    if not (float(n_dim).is_integer() and float(p).is_integer()):
        raise DomainError(f"n_dim and p must be integers, got {n_dim} and {p}")
    nd = int(n_dim)
    pi = int(p)
    qf = float(q)
    if nd < 1:
        raise DomainError(f"n_dim must be >= 1, got {n_dim}")
    if pi < 2 or pi % 2:
        raise DomainError(f"p must be a positive even integer, got {p}")
    if qf <= 0:
        raise DomainError(f"q must be positive, got {q}")
    comp_v = [_m(-1.0, qf, pi + 2, 0), _m(2.0, 0, -1, 2)]
    if nd > 1:
        comp_v.insert(0, _m(-(nd - 1.0), -1, 0, 1))
    return _config(
        ("r", "w", "v"),
        ((_m(1.0, 0, 0, 0),), (_m(1.0, 0, 0, 1),), comp_v),
        nonautonomous=True,
        alpha=(0, 2, pi + 3),
        k=pi + 1,
        chart={"type": "directional", "index": 1, "sign": -1},
        y0=(1.0, -1.0, -1.0),
        t0=1.0,
    )


EXAMPLES: Dict[str, Callable[..., AnalysisConfig]] = {
    "painleve1": painleve1,
    "kk_dafermos": kk_dafermos,
    "selfsimilar": selfsimilar,
    "mems": mems,
}


def example_names():
    return sorted(EXAMPLES)


def make_example(name: str, params: Optional[dict] = None) -> AnalysisConfig:
    """Instantiate a built-in example by name with keyword parameters.

    Raises UnknownExample for an unregistered name and DomainError for an
    unknown, out-of-range or non-finite parameter.
    """
    try:
        builder = EXAMPLES[name]
    except KeyError:
        raise UnknownExample(
            f"unknown example '{name}'; available: {', '.join(example_names())}"
        ) from None
    params = dict(params or {})
    for key, value in params.items():
        try:  # None asks for the builder's default
            finite = value is None or math.isfinite(float(value))
        except (TypeError, ValueError, OverflowError):
            finite = False
        if not finite:
            raise DomainError(
                f"parameter '{key}' of example '{name}' must be a finite "
                f"number, got {value!r}"
            )
    try:
        return builder(**params)
    except TypeError as exc:
        raise DomainError(
            f"invalid parameters for example '{name}': {exc}"
        ) from None
