"""Built-in example systems with known blow-up/quenching behaviour.

Each builder returns a SystemBundle: the field, its homogeneity type, the
chart that hosts the interesting dynamics and default runs in original
coordinates.  The four models:

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
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .charts import DirectionalChart, ParabolicChart
from .errors import DomainError, UnknownExample
from .homogeneity import FieldSpec, HomogeneityType, Monomial

__all__ = [
    "SystemBundle",
    "painleve1",
    "kk_dafermos",
    "selfsimilar",
    "mems",
    "EXAMPLES",
    "make_example",
    "example_names",
]


@dataclass(frozen=True)
class SystemBundle:
    """A ready-to-analyze model: field + type + chart + default runs."""

    name: str
    field: FieldSpec
    htype: HomogeneityType
    chart_kind: str  # "parabolic" | "directional"
    chart_index: Optional[int] = None
    chart_sign: int = 1
    default_runs: Tuple[dict, ...] = ()

    def chart(self):
        if self.chart_kind == "parabolic":
            return ParabolicChart(htype=self.htype)
        return DirectionalChart(
            htype=self.htype, i0=self.chart_index, sign=self.chart_sign
        )


def _m(coeff, *exps) -> Monomial:
    return Monomial(coeff=coeff, exponents=tuple(exps))


def painleve1() -> SystemBundle:
    """First Painlevé equation u'' = 6u^2 + t as (chi, u, v)."""
    fs = FieldSpec(
        variable_names=("chi", "u", "v"),
        components=(
            (_m(1.0, 0, 0, 0),),
            (_m(1.0, 0, 0, 1),),
            (_m(6.0, 0, 2, 0), _m(1.0, 1, 0, 0)),
        ),
        nonautonomous=True,
    )
    htype = HomogeneityType(alpha=(0, 2, 3), k=1)
    v0 = 2.0 * 10.0**1.5  # tangent to the stable horizon approach at u0 = 10
    return SystemBundle(
        name="painleve1",
        field=fs,
        htype=htype,
        chart_kind="parabolic",
        default_runs=({"y0": (0.0, 10.0, v0), "t0": 0.0},),
    )


def kk_dafermos(epsilon: float = 0.0) -> SystemBundle:
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
    fs = FieldSpec(
        variable_names=("chi", "u1", "u2", "w1", "w2"),
        components=(comp_chi, comp_u1, comp_u2, comp_w1, comp_w2),
        nonautonomous=False,
    )
    htype = HomogeneityType(alpha=(0, 1, 2, 1, 2), k=1)
    return SystemBundle(
        name="kk_dafermos",
        field=fs,
        htype=htype,
        chart_kind="directional",
        chart_index=2,
        chart_sign=1,
        default_runs=({"y0": (0.0, 3.0, 1.0, 0.0, 0.0), "t0": 0.0},),
    )


def selfsimilar(
    m: float = -1.0, beta: float = -1.0, alpha_ss: Optional[float] = None
) -> SystemBundle:
    """Self-similar profile system chi' = 1, u' = u^{1-m} v, v' = ...

    Requires m < 0 and beta < 0; alpha_ss defaults to (2*beta + 1)/(1 - m),
    the similarity exponent balancing the scaling relations.
    """
    mf = float(m)
    bf = float(beta)
    if mf >= 0:
        raise DomainError(f"self-similar family needs m < 0, got {m}")
    if bf >= 0:
        raise DomainError(f"self-similar family needs beta < 0, got {beta}")
    a_ss = (2.0 * bf + 1.0) / (1.0 - mf) if alpha_ss is None else float(alpha_ss)
    e = 1.0 - mf  # the u-exponent, > 1
    fs = FieldSpec(
        variable_names=("chi", "u", "v"),
        components=(
            (_m(1.0, 0, 0, 0),),
            (_m(1.0, 0, e, 1),),
            (_m(-bf, 1, e, 1), _m(-a_ss, 0, 1, 0)),
        ),
        nonautonomous=True,
    )
    htype = HomogeneityType(alpha=(0, 1, 1), k=e)
    return SystemBundle(
        name="selfsimilar",
        field=fs,
        htype=htype,
        chart_kind="directional",
        chart_index=1,
        chart_sign=1,
        default_runs=({"y0": (0.0, 1.0, 1.0), "t0": 0.0},),
    )


def mems(n_dim: int = 3, p: int = 2, q: float = 1.0) -> SystemBundle:
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
    fs = FieldSpec(
        variable_names=("r", "w", "v"),
        components=(
            (_m(1.0, 0, 0, 0),),
            (_m(1.0, 0, 0, 1),),
            tuple(comp_v),
        ),
        nonautonomous=True,
    )
    htype = HomogeneityType(alpha=(0, 2, pi + 3), k=pi + 1)
    return SystemBundle(
        name="mems",
        field=fs,
        htype=htype,
        chart_kind="directional",
        chart_index=1,
        chart_sign=-1,
        default_runs=({"y0": (1.0, -1.0, -1.0), "t0": 1.0},),
    )


EXAMPLES: Dict[str, Callable[..., SystemBundle]] = {
    "painleve1": painleve1,
    "kk_dafermos": kk_dafermos,
    "selfsimilar": selfsimilar,
    "mems": mems,
}


def example_names():
    return sorted(EXAMPLES)


def make_example(name: str, params: Optional[dict] = None) -> SystemBundle:
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
