"""Generalized-monomial vector fields and asymptotic quasi-homogeneity.

A field is stored as a list of components, each a sum of monomials
``coeff * x_0^{e_0} * ... * x_{n-1}^{e_{n-1}}`` with real (possibly negative
or fractional) exponents.  Closed-form rescaling of such fields is what makes
the compactified dynamics computable without ever evaluating anything at
infinity.

Weighted-degree bookkeeping is exact: degrees are compared in rational
arithmetic whenever every exponent (and the order k) is rational with
denominator at most 10**6, and with a 1e-12 relative tolerance otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, NoTypeFound, NotAQHError, located

__all__ = [
    "Monomial",
    "FieldSpec",
    "HomogeneityType",
    "HomogeneityReport",
    "derive_beta",
    "eval_field",
    "classify_monomials",
    "infer_type",
    "power",
]

Real = Union[int, float, Fraction]

_RATIONAL_DENOM_LIMIT = 10**6
_FLOAT_TOL = 1e-12
_INT64_MAX = 2**63 - 1


def _exactify(x: Real) -> Optional[Fraction]:
    """Return x as a Fraction if it is 'nice', else None.

    Floats convert exactly (binary expansion); the result counts as nice only
    when its denominator stays small, so 0.5 and 1.75 are exact while an
    approximation of 1/3 falls back to float comparisons.
    """
    if isinstance(x, Fraction):
        return x if x.denominator <= _RATIONAL_DENOM_LIMIT else None
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            return None
        frac = Fraction(x)
        return frac if frac.denominator <= _RATIONAL_DENOM_LIMIT else None
    return None


def power(base: float, exponent: Real) -> float:
    """Evaluate base**exponent with real-analysis domain rules.

    - exponent 0 gives 1.0 (including at base 0);
    - integer exponents allow any base (0 with a negative exponent raises);
    - fractional exponents require base >= 0.

    Raises DomainError instead of returning complex values or inf.
    """
    e = float(exponent)
    if e == 0.0:
        return 1.0
    if float(e).is_integer():
        if base == 0.0 and e < 0:
            raise DomainError("zero base with negative exponent")
        try:
            return float(base) ** int(e)
        except OverflowError as exc:
            raise DomainError(f"overflow in {base}**{int(e)}") from exc
    if base < 0.0:
        raise DomainError(
            f"fractional exponent {e} applied to negative base {base}"
        )
    if base == 0.0:
        if e < 0:
            raise DomainError("zero base with negative exponent")
        return 0.0
    try:
        return math.pow(base, e)
    except (ValueError, OverflowError) as exc:  # pragma: no cover - guarded above
        raise DomainError(f"cannot evaluate {base}**{e}") from exc


@dataclass(frozen=True)
class Monomial:
    """One term ``coeff * prod_j x_j**exponents[j]`` of a field component."""

    coeff: float
    exponents: Tuple[Real, ...]

    def __post_init__(self):
        if self.coeff == 0:
            raise located(ValueError("monomial coefficient must be nonzero"), "coeff")
        object.__setattr__(self, "coeff", float(self.coeff))
        object.__setattr__(self, "exponents", tuple(self.exponents))

    @property
    def n(self) -> int:
        return len(self.exponents)

    def weighted_degree(self, alpha: Sequence[int]) -> Real:
        """<m, alpha> = sum_j exponents[j] * alpha[j], exact when possible."""
        exact_terms = []
        for e, a in zip(self.exponents, alpha):
            if a == 0:
                continue
            fe = _exactify(e)
            if fe is None:
                # left to right: sum() compensates exact floats from 3.12 on
                total = 0.0
                for e2, a2 in zip(self.exponents, alpha):
                    total += float(e2) * a2
                return float(total)
            exact_terms.append(fe * a)
        return sum(exact_terms, Fraction(0))

    def evaluate(self, point: Sequence[float]) -> float:
        value = self.coeff
        for base, expo in zip(point, self.exponents):
            if expo == 0:
                continue
            value *= power(float(base), expo)
        return value


@dataclass(frozen=True)
class FieldSpec:
    """A vector field y' = f(y) given by monomials per component.

    When ``nonautonomous`` is true, variable 0 is the time variable t and
    component 0 must be the constant monomial 1 (i.e. t' = 1).  Each
    rule's ValueError is ``located`` at the element it checked.
    """

    variable_names: Tuple[str, ...]
    components: Tuple[Tuple[Monomial, ...], ...]
    nonautonomous: bool = False

    def __post_init__(self):
        names = tuple(str(s) for s in self.variable_names)
        object.__setattr__(self, "variable_names", names)
        comps = tuple(tuple(ms) for ms in self.components)
        object.__setattr__(self, "components", comps)
        n = len(names)
        if len(set(names)) != n:
            raise located(ValueError("variable names must be unique"), "variable_names")
        if len(comps) != n:
            msg = f"field has {len(comps)} components for {n} variables"
            raise located(ValueError(msg), "components")
        for i, ms in enumerate(comps):
            for j, m in enumerate(ms):
                if m.n != n:
                    msg = f"monomial has {m.n} exponents for {n} variables"
                    raise located(ValueError(msg), "components", i, j, "exponents")
        if self.nonautonomous:
            c0 = comps[0]
            ok = (
                len(c0) == 1
                and c0[0].coeff == 1.0
                and all(e == 0 for e in c0[0].exponents)
            )
            if not ok:
                msg = "nonautonomous fields must have t' = 1 as component 0"
                raise located(ValueError(msg), "components", 0)

    @property
    def n(self) -> int:
        return len(self.variable_names)

    def check_weights(self, alpha: Sequence[int]) -> None:
        """Weights ``alpha`` give one weight per variable (ValueError) and
        weight 0 to a nonautonomous field's time variable (DomainError)."""
        if len(alpha) != self.n:
            msg = f"alpha has {len(alpha)} entries for {self.n} variables"
            raise located(ValueError(msg), "alpha")
        if self.nonautonomous and alpha[0] != 0:
            raise located(DomainError("time variable must have weight 0"), "alpha", 0)


@dataclass(frozen=True)
class HomogeneityType:
    """An asymptotic quasi-homogeneity type: weights alpha and order k + 1.

    Derived data: ``i_alpha`` (indices with positive weight), ``beta``
    (beta_i = c / alpha_i over i_alpha, in i_alpha order) and
    ``c = lcm {alpha_i : i in i_alpha}``.  Raises what ``derive_beta``
    raises for alpha, and DomainError unless k > 0 and every alpha_i and
    every 2 beta_i fits in int64, each ``located`` at alpha or k.
    """

    alpha: Tuple[int, ...]
    k: Real
    i_alpha: Tuple[int, ...] = dc_field(init=False)
    beta: Tuple[int, ...] = dc_field(init=False)
    c: int = dc_field(init=False)

    def __post_init__(self):
        beta, c = derive_beta(self.alpha)
        alpha = tuple(int(a) for a in self.alpha)
        kf = float(self.k)
        if not (math.isfinite(kf) and kf > 0):
            msg = f"homogeneity order k must be positive, got {self.k}"
            raise located(DomainError(msg), "k")
        object.__setattr__(self, "alpha", alpha)
        # alpha and the W power 2 beta are evaluated as int64 arrays
        if max(alpha) > _INT64_MAX or 2 * max(beta) > _INT64_MAX:
            raise located(DomainError(
                f"weights too large: every alpha_i and 2 beta_i = "
                f"2 lcm(alpha)/alpha_i must be at most 2**63 - 1, got "
                f"alpha = {alpha}"
            ), "alpha")
        object.__setattr__(self, "i_alpha", tuple(i for i, a in enumerate(alpha) if a > 0))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return len(self.alpha)

    @property
    def k_float(self) -> float:
        return float(self.k)

    def k_exact(self) -> Optional[Fraction]:
        return _exactify(self.k)

    def beta_of(self, index: int) -> int:
        """beta for an original-variable index in i_alpha."""
        try:
            pos = self.i_alpha.index(index)
        except ValueError:
            raise DomainError(f"variable {index} has zero weight; no beta") from None
        return self.beta[pos]

    def beta_full(self) -> np.ndarray:
        """Length-n integer array with beta_i at i_alpha and 0 elsewhere."""
        out = np.zeros(self.n, dtype=np.int64)
        for pos, i in enumerate(self.i_alpha):
            out[i] = self.beta[pos]
        return out

    def alpha_array(self) -> np.ndarray:
        return np.asarray(self.alpha, dtype=np.int64)

    def degree_deficit(self, component: int, monomial: Monomial) -> Real:
        """k + alpha_i - <m, alpha> for a monomial m of component i: 0 when
        principal, > 0 when residual, < 0 when it breaks the type, and the
        W (or s) exponent m carries after the rescaling.  Exact when both
        sides are; a degree within 1e-12 relative of k + alpha_i gives 0."""
        ke = self.k_exact()
        ai = self.alpha[component]
        target = ke + ai if ke is not None else float(self.k) + ai
        degree = monomial.weighted_degree(self.alpha)
        if _degree_cmp(degree, target) == 0:
            return 0
        if isinstance(target, Fraction) and isinstance(degree, Fraction):
            return target - degree
        return float(target) - float(degree)

    def blowup_exponent(self, index: int) -> Real:
        """Predicted type-I rate exponent -alpha_i / k for one variable."""
        ke = self.k_exact()
        if ke is not None:
            return -Fraction(self.alpha[index]) / ke
        return -self.alpha[index] / float(self.k)

    @cached_property
    def predicted_exponents(self) -> Tuple[float, ...]:
        """``float(blowup_exponent(i))`` for every variable i, formed once
        per type."""
        return tuple(float(self.blowup_exponent(i)) for i in range(self.n))


def derive_beta(alpha: Sequence[int]) -> Tuple[Tuple[int, ...], int]:
    """Return (beta, c): c = lcm of the positive weights, beta_i = c/alpha_i.

    beta is ordered like i_alpha (indices of positive weights).  Satisfies
    alpha_i * beta_i = c exactly.  Raises ValueError, ``located`` at alpha,
    for an entry that is not a nonnegative integer or no positive entry.
    """
    for i, a in enumerate(alpha):
        if int(a) != a or a < 0:
            msg = "alpha entries must be nonnegative integers"
            raise located(ValueError(msg), "alpha", i)
    positive = [int(a) for a in alpha if a > 0]
    if not positive:
        msg = "alpha must have at least one positive entry"
        raise located(ValueError(msg), "alpha")
    c = math.lcm(*positive)
    beta = tuple(c // a for a in positive)
    return beta, c


def eval_field(field: FieldSpec, point: Sequence[float]) -> np.ndarray:
    """Evaluate f at a point. Raises DomainError on 0**neg or neg**frac."""
    x = np.asarray(point, dtype=float)
    if x.shape != (field.n,):
        raise ValueError(f"point has shape {x.shape}, expected ({field.n},)")
    out = np.zeros(field.n)
    for i, monomials in enumerate(field.components):
        acc = 0.0
        for m in monomials:
            acc += m.evaluate(x)
        out[i] = acc
    return out


@dataclass(frozen=True)
class HomogeneityReport:
    """Partition of each component's monomials by weighted degree.

    ``principal[i]`` / ``residual[i]`` hold monomial indices of component i
    with <m, alpha> equal to / below k + alpha_i.  ``violations`` lists
    (component, monomial) pairs exceeding the bound; a nonempty list means
    the field is not asymptotically quasi-homogeneous of this type (the
    classifier raises, carrying this report on the exception).
    """

    htype: HomogeneityType
    principal: Tuple[Tuple[int, ...], ...]
    residual: Tuple[Tuple[int, ...], ...]
    violations: Tuple[Tuple[int, int], ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def _degree_cmp(degree: Real, target: Real) -> int:
    """-1/0/+1 for degree </==/> target, exact when both sides are nice."""
    d_ex = _exactify(degree)
    t_ex = _exactify(target)
    if d_ex is not None and t_ex is not None:
        return (d_ex > t_ex) - (d_ex < t_ex)
    d = float(degree)
    t = float(target)
    tol = _FLOAT_TOL * max(1.0, abs(t))
    if abs(d - t) <= tol:
        return 0
    return 1 if d > t else -1


def classify_monomials(field: FieldSpec, htype: HomogeneityType) -> HomogeneityReport:
    """Split monomials into principal / residual for the given type.

    A monomial of component i with weighted degree <m, alpha> is principal
    when it equals k + alpha_i, residual when below, and a violation when
    above.  Violations mean the field is not AQH of this type, so the
    function raises NotAQHError (the report rides along on the exception).
    Weights that do not fit the field raise what ``field.check_weights``
    raises.
    """
    field.check_weights(htype.alpha)
    principal = []
    residual = []
    violations = []
    for i, monomials in enumerate(field.components):
        p_i = []
        r_i = []
        for j, m in enumerate(monomials):
            deficit = htype.degree_deficit(i, m)
            if deficit == 0:
                p_i.append(j)
            elif deficit > 0:
                r_i.append(j)
            else:
                violations.append((i, j))
        principal.append(tuple(p_i))
        residual.append(tuple(r_i))
    report = HomogeneityReport(
        htype=htype,
        principal=tuple(principal),
        residual=tuple(residual),
        violations=tuple(violations),
    )
    if violations:
        err = NotAQHError(
            f"{len(violations)} monomial(s) exceed weighted degree k + alpha_i "
            f"for type alpha={htype.alpha}, k={htype.k}: {violations}",
            violations=violations,
        )
        err.report = report
        raise err
    return report


@dataclass(frozen=True, eq=False)
class _RankedTypes(Sequence):
    """Candidate types in rank order, each built only when it is read from
    its flat index into the weight grid ``shape`` and its order in ``ks``."""

    shape: Tuple[int, ...]
    flat: np.ndarray
    ks: np.ndarray
    k_of: Callable

    def __len__(self) -> int:
        return len(self.flat)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        alpha = np.unravel_index(self.flat[i], self.shape)
        return HomogeneityType(tuple(int(a) for a in alpha), self.k_of(self.ks[i]))


def infer_type(field: FieldSpec, alpha_max: int) -> Sequence[HomogeneityType]:
    """Search integer weight vectors recovering an AQH type for the field.

    Enumerates alpha in [0, alpha_max]^n (alpha_0 pinned to 0 for
    nonautonomous fields), computes the smallest admissible order
    k = max_i max_m (<m, alpha> - alpha_i), and keeps candidates with k > 0.
    Sorted by k descending, ties by smaller |alpha|_1 then lexicographic.

    One NumPy pass over the weight grid sums each monomial's degree slot by
    slot: exactly, in integers scaled by the exponents' common denominator,
    when every exponent is nice, else in floats left to right as
    ``Monomial.weighted_degree`` does.  k is an int for int exponents, a
    Fraction for other nice ones and a float otherwise.
    """
    if alpha_max < 1:
        raise ValueError("alpha_max must be >= 1")
    if not any(field.components):
        raise NoTypeFound("field has no monomials; no homogeneity type exists")
    monos = [(i, m.exponents) for i, ms in enumerate(field.components) for m in ms]
    exact = [[_exactify(e) for e in es] for _, es in monos]
    if any(None in fs for fs in exact):
        scale, k_of, dtype = 1, float, float
        weights = [[float(e) for e in es] for _, es in monos]
    else:
        scale = math.lcm(*(f.denominator for fs in exact for f in fs))
        weights = [[int(f * scale) for f in fs] for fs in exact]
        all_int = all(isinstance(e, int) for _, es in monos for e in es)
        k_of = int if all_int else (lambda v: Fraction(int(v), scale))
        # int64 and the ranking's k / scale are exact below 2**53
        bound = alpha_max * max(sum(map(abs, w)) + scale for w in weights)
        dtype = np.int64 if bound < 2**53 else object
    n = field.n
    shape = (1 if field.nonautonomous else alpha_max + 1,) + (alpha_max + 1,) * (n - 1)
    axes = np.indices(shape, sparse=True)
    grid = [a.astype(dtype) for a in axes]
    ks = None
    for (i, _), w in zip(monos, weights):
        terms = (w[j] * grid[j] for j in np.flatnonzero(w))
        deg = sum(terms, np.zeros(shape, dtype)) - scale * grid[i]
        ks = deg if ks is None else np.maximum(ks, deg, out=ks)
    flat = np.flatnonzero(ks > 0)
    if not len(flat):
        raise NoTypeFound(
            f"no weight vector in [0, {alpha_max}]^{n} admits a positive order"
        )
    ks = ks.ravel()[flat]
    # the grid's C order is alpha's lexicographic order and lexsort is
    # stable, so ties in k and |alpha|_1 keep alpha's order
    order = np.lexsort((sum(axes).ravel()[flat], np.asarray(ks / -scale, dtype=float)))
    return _RankedTypes(shape, flat[order], ks[order], k_of)
