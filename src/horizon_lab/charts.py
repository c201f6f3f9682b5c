"""Quasi-parabolic and directional compactification charts.

The parabolic chart wraps phase space onto the bounded domain
``D = {P(x) < 1}`` with horizon ``E = {P = 1}``, where
``P(x) = sum_{i in I_alpha} x_i**(2 beta_i)``.  A phase point y maps to
``x_j = kappa**(-alpha_j) y_j`` where kappa >= 1 solves

    kappa**(2c) - kappa**(2c - 1) = sum_i y_i**(2 beta_i),

and back via ``y_j = kappa**(alpha_j) x_j`` with ``kappa = 1 / (1 - P(x))``.
The horizon gap ``W = 1 - P`` equals ``1/kappa`` exactly, which the embedding
exploits to keep round trips at working precision.

The embedding solves for kappa in scaled units.  With
``m = max(1, max_i |y_i|**(1/alpha_i))``, ``yhat = y / m**alpha`` and
``R = m * P~(yhat)**(1/(2c))``, kappa = R / u where u solves
``phi(u) = u**(2c) + u / R - 1 = 0`` in (0, min(1, R)].  phi increases, is
convex there and is positive at min(1, R), so Newton from that end falls
monotonically onto the root and needs no bracket.  No power of y, kappa or
P~ is formed, so every finite point embeds; the floor of m at 1 keeps
``m**-alpha`` from underflowing.

A directional chart covers one half-space ``sign * y_i0 > 0`` with
``s = (sign * y_i0)**(-1/alpha_i0)`` stored in slot i0 and the remaining
coordinates rescaled by powers of s; its horizon is simply ``{s = 0}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .errors import (
    ChartDomainError,
    ConvergenceError,
    DomainError,
    HorizonError,
    located,
)
from .homogeneity import HomogeneityType

__all__ = [
    "ParabolicChart",
    "DirectionalChart",
    "EmbeddedPoint",
    "embed",
    "project",
]

_KAPPA_RTOL = 1e-14
_KAPPA_MAX_ITER = 200
_TINY = np.finfo(float).tiny


def _times_power(x, base, a):
    """x * base**a for base > 0, elementwise; where base**a leaves the
    normal range, base's binary exponent scales x's instead, so the product
    is lost only where it leaves the range itself."""
    with np.errstate(over="ignore", under="ignore"):
        scale = base ** a
    far = ~((scale >= _TINY) & (scale < np.inf))
    if not far.any():
        return x * scale
    (b_mant, b_exp), (x_mant, x_exp) = np.frexp(base), np.frexp(x)
    e = b_exp * a
    e_int = np.floor(e)
    return np.where(
        far,
        np.ldexp(x_mant * b_mant ** a * 2.0 ** (e - e_int), x_exp + e_int.astype(int)),
        x * np.where(far, 1.0, scale),
    )


class _Chart:
    """What both charts share: the dimension, and the inverse of
    ``embed_array`` from ``unscale`` of every slot at once."""

    @property
    def n(self) -> int:
        return self.htype.n

    def checked(self, y) -> np.ndarray:
        """``y`` as a float array of points with n entries on the last
        axis: ValueError for another count, DomainError where an entry is
        not finite and, on a directional chart, ChartDomainError outside
        its half-space, each ``located`` at y."""
        yv = np.asarray(y, dtype=float)
        if yv.shape[-1:] != (self.n,):
            msg = f"point has shape {yv.shape}, expected (..., {self.n})"
            raise located(ValueError(msg), "y")
        # counted: .all() costs more on the one point per run parse_config
        # checks
        if np.count_nonzero(np.isfinite(yv)) < yv.size:
            raise located(DomainError("phase point is not finite"), "y")
        return yv

    def project_array(self, coords: np.ndarray, gap: np.ndarray) -> np.ndarray:
        """Vectorized inverse of embed_array.

        Takes the horizon gap from the embedding (s on a directional chart):
        recomputing 1 - P(x) near the horizon loses precision to cancellation.
        """
        x = np.asarray(coords, dtype=float)
        gap = np.asarray(gap, dtype=float)
        if np.any(gap < 0):
            raise DomainError("coordinates outside the closed chart domain (gap < 0)")
        if np.any(gap == 0):
            raise HorizonError("cannot project a point on the horizon (gap = 0)")
        return self.unscale(x, gap[..., None], np.arange(self.n))


@dataclass(frozen=True)
class ParabolicChart(_Chart):
    """The global quasi-parabolic chart for a homogeneity type."""

    htype: HomogeneityType

    @property
    def label(self) -> str:
        return "parabolic"

    def horizon_poly(self, coords: np.ndarray) -> np.ndarray:
        """P at one point or a batch (last axis = variables)."""
        x = np.asarray(coords, dtype=float)
        tb = 2 * self.htype.beta_full()
        idx = list(self.htype.i_alpha)
        return (x[..., idx] ** tb[idx]).sum(axis=-1)

    def horizon_gap_of(self, coords: np.ndarray) -> np.ndarray:
        return 1.0 - self.horizon_poly(coords)

    def embed_array(self, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized embed: (m, n) phase points -> (coords, horizon_gap)."""
        coords, kappa = self.embed_kappa(y)
        return coords, 1.0 / kappa

    def embed_kappa(self, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """embed_array with kappa in place of the gap: the scaled Newton
        solve of the module docstring; the origin gives kappa = 1, x = y."""
        yv = self.checked(y)
        idx = list(self.htype.i_alpha)
        alpha = self.htype.alpha_array()
        tc = 2 * self.htype.c
        m = np.maximum(1.0, (np.abs(yv[..., idx]) ** (1.0 / alpha[idx])).max(-1))
        inv_m = 1.0 / m
        yhat = yv * inv_m[..., None] ** alpha
        S = self.horizon_poly(yhat)
        done = S == 0.0
        root = np.where(done, 1.0, S) ** (1.0 / tc)
        R = root / inv_m  # the rounding of inv_m cancels against yhat's
        u = np.minimum(1.0, R)
        for _ in range(_KAPPA_MAX_ITER):
            ut = u ** (tc - 1)
            # a member whose own step fell below the tolerance stops moving
            step = (ut * u + u / R - 1.0) / (tc * ut + 1.0 / R) * ~done
            u = u - step
            done = done | (np.abs(step) <= _KAPPA_RTOL * u)
            if done.all():
                return yhat * (u / root)[..., None] ** alpha, R / u
        raise ConvergenceError(f"kappa did not converge in {_KAPPA_MAX_ITER} steps")

    def unscale(self, x, gap, j):
        """Phase coordinates y_j = kappa**alpha_j x_j, kappa = 1 / gap, of
        the slots ``j`` (one slot, or an integer array that broadcasts with
        ``x`` and ``gap``)."""
        kappa = 1.0 / np.asarray(gap, dtype=float)
        return _times_power(x, kappa, self.htype.alpha_array()[j].astype(float))


@dataclass(frozen=True)
class DirectionalChart(_Chart):
    """One directional chart: covers sign * y_i0 > 0, horizon {s = 0}.

    Coordinate slot i0 stores s; the other slots store the rescaled
    x-hat coordinates.
    """

    htype: HomogeneityType
    i0: int
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (-1, 1):
            msg = f"chart sign must be +1 or -1, got {self.sign}"
            raise located(ChartDomainError(msg), "sign")
        if self.i0 not in self.htype.i_alpha:
            n, i0 = self.htype.n, self.i0
            if 0 <= i0 < n:
                got = f"alpha[{i0}] = {self.htype.alpha[i0]}"
            else:
                got = f"index {i0} is outside the {n} variables"
            msg = f"directional chart requires a positively weighted variable; {got}"
            raise located(ChartDomainError(msg), "i0")

    @property
    def label(self) -> str:
        tag = "+" if self.sign > 0 else "-"
        return f"directional[{tag}{self.i0}]"

    def horizon_gap_of(self, coords: np.ndarray) -> np.ndarray:
        return np.asarray(coords, dtype=float)[..., self.i0]

    def checked(self, y) -> np.ndarray:
        yv = super().checked(y)
        # yv.T[i0] holds every point's entry i0, a scalar for one point
        if np.count_nonzero(self.sign * yv.T[self.i0] <= 0):
            raise located(ChartDomainError(
                f"point outside chart half-space: requires "
                f"{'+' if self.sign > 0 else '-'}y[{self.i0}] > 0"
            ), "y", self.i0)
        return yv

    def embed_array(self, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        yv = self.checked(y)
        pivot = self.sign * yv[..., self.i0]
        a0 = self.htype.alpha[self.i0]
        s = pivot ** (-1.0 / a0)
        alpha = self.htype.alpha_array().astype(float)
        coords = _times_power(yv, s[..., None], alpha)
        coords[..., self.i0] = s
        return coords, s

    def unscale(self, x, s, j):
        """Phase coordinates y_j = s**(-alpha_j) x_j of the slots ``j`` (one
        slot, or an integer array that broadcasts with ``x`` and ``s``);
        slot i0 gives sign * s**(-alpha_i0) from s alone."""
        x = np.where(j == self.i0, float(self.sign), x)
        return _times_power(x, s, -self.htype.alpha_array()[j].astype(float))


Chart = Union[ParabolicChart, DirectionalChart]


@dataclass(frozen=True, eq=False)
class EmbeddedPoint:
    """A point in chart coordinates together with its horizon gap.

    horizon_gap is 1 - P(coords) in the parabolic chart and s in a
    directional chart; zero marks the horizon (image of infinity).
    """

    chart: Chart
    coords: np.ndarray
    horizon_gap: float

    def __post_init__(self):
        object.__setattr__(
            self, "coords", np.asarray(self.coords, dtype=float).copy()
        )
        object.__setattr__(self, "horizon_gap", float(self.horizon_gap))


def embed(chart: Chart, y) -> EmbeddedPoint:
    """Map a phase-space point into chart coordinates.

    Raises ChartDomainError for points outside a directional chart's
    half-space and DomainError for a point that is not finite.

    Round-trip accuracy (project(embed(y)) ~ y to 1e-10 relative or
    better) holds while each rescaled coordinate y_i / kappa^alpha_i is
    a normal double; a component so small relative to the others that
    its rescaling underflows past ~2.2e-308 keeps only the mantissa bits
    subnormals retain.
    """
    yv = np.asarray(y, dtype=float)
    if yv.shape != (chart.n,):
        raise ValueError(f"point has shape {yv.shape}, expected ({chart.n},)")
    coords, gap = chart.embed_array(yv)
    return EmbeddedPoint(chart=chart, coords=coords, horizon_gap=float(gap))


def project(point: EmbeddedPoint) -> np.ndarray:
    """Map an embedded point back to original phase-space coordinates.

    Uses the point's stored horizon gap (exact from the embedding) rather
    than recomputing it, so embed -> project round trips at ~1e-14.
    Raises HorizonError on the horizon: infinity has no phase-space image.
    """
    return point.chart.project_array(
        point.coords, np.asarray(point.horizon_gap, dtype=float)
    )

