"""Exact construction of desingularized vector fields on compactified charts.

Given an asymptotically quasi-homogeneous field f and its type, the rescaled
field extends smoothly to the horizon after multiplying the time
parametrization by a vanishing factor.  In the parabolic chart the result is

    g(x) = q(x) f~(x) - G(x) Lambda_alpha x,        dt/dtau = q(x) W(x)**k,

with q = 1 - (2c-1)/(2c) * W, f~_i = sum coeff * W**(k + alpha_i - <m,alpha>)
* prod x**m, and G = sum_{j in I_alpha} x_j**(2 beta_j - 1)/alpha_j * f~_j.
In a directional chart over sign * y_i0 > 0,

    ds/dtau   = -(sign/alpha_i0) * s * f^_i0,
    dx^_i/dtau = f^_i - sign * (alpha_i/alpha_i0) * x^_i * f^_i0,
    dt/dtau   = s**k,

where f^ folds sign**(m_i0) into each rescaled monomial.  Both constructions
happen symbolically on sparse exponent dictionaries, so the field is evaluated
in closed form: nothing is ever computed at infinity, and powers of the
horizon functions W and s appear with provably nonnegative exponents.

Evaluation compiles each field once into plain Python expressions (value,
Jacobian, time factor); the Jacobian is the exact term-wise derivative,
including the chain rule through W.  The same compilation emits one
Dormand-Prince 5(4) step per field, with the stages, the tableau and the
state dimension unrolled around those expressions (each distinct power and
expression evaluated once per stage), and array versions of
the value and the Jacobian that evaluate a whole batch of points with NumPy
(the batched equilibrium search uses them): where the scalar code raises a
domain error, the array code leaves non-finite entries in that point's row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .charts import DirectionalChart, ParabolicChart
from .errors import (
    AlreadyExtendedError,
    ChartDomainError,
    DomainError,
    NegativeWExponentError,
)
from .homogeneity import (
    ExtendedFieldSpec,
    FieldSpec,
    HomogeneityType,
    Monomial,
    power,
)

__all__ = [
    "DesingField",
    "extend_nonautonomous",
    "build_parabolic_desing",
    "build_directional_desing",
    "evaluate_desing",
]

Real = Union[int, float, Fraction]

# A polynomial in (chart coords, W): {(exps, w_exp): coeff}.  In directional
# charts the s-powers live in the i0 slot of exps and w_exp stays 0.
TermKey = Tuple[Tuple[Real, ...], Real]
Poly = Dict[TermKey, float]


def _canon_e(e: Real) -> Real:
    """Canonicalize an exponent: integral values become ints."""
    if isinstance(e, bool):  # pragma: no cover - defensive
        raise TypeError("boolean exponent")
    if isinstance(e, int):
        return e
    if isinstance(e, Fraction):
        return int(e) if e.denominator == 1 else e
    if isinstance(e, float) and e.is_integer():
        return int(e)
    return e


def _eadd(a: Real, b: Real) -> Real:
    if type(a) is int and type(b) is int:  # the usual case, kept cheap
        return a + b
    if isinstance(a, float) or isinstance(b, float):
        return _canon_e(float(a) + float(b))
    return _canon_e(
        (a if isinstance(a, (int, Fraction)) else Fraction(a))
        + (b if isinstance(b, (int, Fraction)) else Fraction(b))
    )


def _padd(dst: Poly, key: TermKey, coeff: float) -> None:
    cur = dst.get(key, 0.0) + coeff
    if cur == 0.0:
        dst.pop(key, None)
    else:
        dst[key] = cur


def _pscale(p: Poly, c: float) -> Poly:
    if c == 0.0:
        return {}
    return {k: v * c for k, v in p.items()}


def _pmul_var(p: Poly, j: int, e: Real) -> Poly:
    """Multiply a polynomial by x_j**e."""
    out: Poly = {}
    for (exps, w), coeff in p.items():
        new = list(exps)
        new[j] = _eadd(new[j], e)
        _padd(out, (tuple(new), w), coeff)
    return out


def _pmul_w(p: Poly, e: Real) -> Poly:
    out: Poly = {}
    for (exps, w), coeff in p.items():
        _padd(out, (exps, _eadd(w, e)), coeff)
    return out


def _pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for (ea, wa), ca in a.items():
        for (eb, wb), cb in b.items():
            exps = tuple(_eadd(x, y) for x, y in zip(ea, eb))
            _padd(out, (exps, _eadd(wa, wb)), ca * cb)
    return out


def _pdiff_var(p: Poly, j: int) -> Poly:
    """Formal d/dx_j treating W as an independent symbol."""
    out: Poly = {}
    for (exps, w), coeff in p.items():
        e = exps[j]
        if e == 0:
            continue
        new = list(exps)
        new[j] = _eadd(e, -1)
        _padd(out, (tuple(new), w), coeff * float(e))
    return out


def _pdiff_w(p: Poly) -> Poly:
    out: Poly = {}
    for (exps, w), coeff in p.items():
        if w == 0:
            continue
        _padd(out, (exps, _eadd(w, -1)), coeff * float(w))
    return out


def _zero_exps(n: int) -> Tuple[Real, ...]:
    return (0,) * n


# --------------------------------------------------------------------------
# code generation


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _emit_power(sym: str, e: Real, clamped_sym: Optional[str] = None) -> str:
    e = _canon_e(e)
    if isinstance(e, int):
        if e == 1:
            return sym
        return f"{sym}**({e})" if e < 0 else f"{sym}**{e}"
    target = clamped_sym if clamped_sym is not None else sym
    return f"_pw({target}, {_fmt_float(float(e))})"


class _Emitter:
    """Shared expression emitter for one desingularized field.

    Expressions come out as templates: each power other than a first power
    is a ``{p<k>}`` field, one name per distinct power text; ``powers``
    maps the text to (name, base symbol) and ``texts`` the name to the
    text.  ``inline`` fills every field with its text; the generated step
    binds a power it uses more than once to its name instead.
    """

    def __init__(self, n: int, parabolic: bool, two_beta: np.ndarray,
                 i_alpha: Tuple[int, ...], gap_slot: Optional[int]):
        self.n = n
        self.parabolic = parabolic
        self.two_beta = two_beta
        self.i_alpha = i_alpha
        self.gap_slot = gap_slot  # directional: slot index of s
        self.needs_w_clamp = False
        self.needs_s_clamp = False
        # coordinates read by the emitted expressions or by W
        self.used = set(i_alpha) if parabolic else set()
        self.powers: Dict[str, Tuple[str, str]] = {}
        self.texts: Dict[str, str] = {}  # power name -> text

    def var(self, j: int) -> str:
        return f"x{j}"

    def power(self, sym: str, e: Real, clamped_sym: Optional[str] = None) -> str:
        text = _emit_power(sym, e, clamped_sym)
        if text == sym:
            return text
        if text not in self.powers:
            fractional = not isinstance(_canon_e(e), int)
            base = clamped_sym if fractional and clamped_sym else sym
            self.powers[text] = (f"p{len(self.powers)}", base)
            self.texts[self.powers[text][0]] = text
        return "{" + self.powers[text][0] + "}"

    def inline(self, template: str) -> str:
        return template.format_map(self.texts)

    def term(self, exps: Tuple[Real, ...], w: Real, coeff: float) -> str:
        factors = []
        for j, e in enumerate(exps):
            if e == 0:
                continue
            self.used.add(j)
            clamp = None
            if self.gap_slot is not None and j == self.gap_slot and not isinstance(_canon_e(e), int):
                clamp = f"x{j}c"
                self.needs_s_clamp = True
            factors.append(self.power(self.var(j), e, clamp))
        if w != 0:
            if not isinstance(_canon_e(w), int):
                self.needs_w_clamp = True
                factors.append(self.power("W", w, "Wc"))
            else:
                factors.append(self.power("W", w))
        if not factors:
            return _fmt_float(coeff)
        if coeff == 1.0:
            return "*".join(factors)
        if coeff == -1.0:
            return "-" + "*".join(factors)
        return "*".join([_fmt_float(coeff)] + factors)

    def poly(self, p: Poly) -> str:
        if not p:
            return "0.0"
        # deterministic source: sort terms by exponent signature
        items = sorted(p.items(), key=lambda kv: (tuple(map(float, kv[0][0])),
                                                  float(kv[0][1])))
        parts = [self.term(exps, w, coeff) for (exps, w), coeff in items]
        expr = parts[0]
        for piece in parts[1:]:
            expr += (" - " + piece[1:]) if piece.startswith("-") else (" + " + piece)
        return expr

    def derived(self, indent: str, vector: bool = False) -> list:
        """(symbol, template) pairs computing W and the clamped bases from
        the x{j} locals; ``vector`` clamps whole arrays with ``_max``."""
        def clamp(sym):
            return f"_max({sym}, 0.0)" if vector else f"{sym} if {sym} > 0.0 else 0.0"

        lines = []
        if self.parabolic:
            terms = [
                self.power(f"x{j}", int(self.two_beta[j])) for j in self.i_alpha
            ]
            lines.append(("W", f"{indent}W = 1.0 - ({' + '.join(terms)})"))
            if self.needs_w_clamp:
                lines.append(("Wc", f"{indent}Wc = {clamp('W')}"))
        elif self.needs_s_clamp:
            j = self.gap_slot
            lines.append((f"x{j}c", f"{indent}x{j}c = {clamp(f'x{j}')}"))
        return lines

    def preamble(self) -> str:
        loads = [f"    x{j} = z[{j}]" for j in range(self.n)]
        return "\n".join(loads + [self.inline(t) for _, t in self.derived("    ")])


# Dormand-Prince 5(4) pair (Hairer, Norsett & Wanner, Solving ODEs I,
# Sec. II.5): row s - 2 of _DP_A weights k1..k{s-1} for stage s = 2..7.  The
# last row holds the 5th-order weights, so stage 7 is evaluated at the new
# state and reused as the next step's k1 (FSAL); _DP_E = b5 - b4.
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)
_DP_E = tuple(b5 - b4 for b5, b4 in zip(_DP_A[-1] + (0.0,), _DP_B4))


def _combo(coeffs) -> str:
    """``0.0 + c1*k1_{0} + c2*k2_{0} + ...``, to be formatted with a slot."""
    return "0.0 + " + " + ".join(
        f"{_fmt_float(c)}*k{j}_{{0}}" for j, c in enumerate(coeffs, start=1)
    )


_DP_A_SUMS = tuple(_combo(row) for row in _DP_A)
_DP_E_SUM = _combo(_DP_E)


def _emit_step(em: _Emitter, templates, dim: int) -> str:
    """Source of ``_step(z, k1, h, atol, rtol)``.

    Returns ``(z_new, err_norm, k7, guard, gap)``: the new state, the RMS
    error norm, the derivative there, ``max |z_new_i|`` over every state
    slot and the horizon gap at the new state (stage 7's W on a parabolic
    chart, s on a directional one).  A step whose new state or error norm
    is not finite returns None instead, and a stage that fails to evaluate
    raises DomainError, as in rhs_values.

    ``templates`` are ``em``'s templates of the field's n components plus
    its time factor, so stage s binds k{s}_0 .. k{s}_n; the state has
    ``dim`` slots (n, or n + 1 with t when the field is autonomous).  A
    stage evaluates each distinct expression once and copies it where a
    sum reads the copy (the time factor of a nonautonomous field equals
    component 0 and no sum reads it), and each distinct power once: a power
    the stage uses twice is bound to a local right after the line that
    defines its base.  Each weighted sum is written ``0.0 + c1*k1_i +
    c2*k2_i + ...``, added left to right with every tableau entry, zeros
    included, so the step equals bit for bit the list form that adds
    ``c[j] * k[j][i]`` to the integer 0 in the same order, which the tests
    keep as its reference.  Stages 2-6 only compute the coordinates the
    expressions read, so a step fails exactly where a full field evaluation
    does.
    """
    first: Dict[str, int] = {}
    body = [(i, first.setdefault(t, i), t) for i, t in enumerate(templates)]
    body = [(i, j, t) for i, j, t in body if j == i or i < dim]
    derived = em.derived("        ")
    text = "".join([t for _, t in derived] + [t for i, j, t in body if j == i])
    fill = {}
    defs: Dict[str, list] = {}  # base -> lines binding its shared powers
    for ptext, (name, base) in em.powers.items():
        shared = text.count("{" + name + "}") > 1
        fill[name] = name if shared else ptext
        if shared:
            defs.setdefault(base, []).append(f"        {name} = {ptext}")

    stage = []
    for sym, t in derived:
        stage += [t.format_map(fill)] + defs.get(sym, [])
    body = [(i, j, t.format_map(fill)) for i, j, t in body]
    slots = range(dim)
    lines = [
        "def _step(z, k1, h, atol, rtol):",
        "    " + "".join(f"z{i}, " for i in slots) + "= z",
        "    " + "".join(f"k1_{i}, " for i in slots) + "= k1",
        "    try:",
    ]
    for s, combo in enumerate(_DP_A_SUMS, start=2):
        for i in (slots if s == 7 else sorted(em.used)):
            lines.append(f"        x{i} = z{i} + h * ({combo.format(i)})")
            lines += defs.get(f"x{i}", [])
        lines += stage
        lines += [
            f"        k{s}_{i} = " + (expr if j == i else f"k{s}_{j}")
            for i, j, expr in body
        ]
    lines += [
        "    except (ZeroDivisionError, ValueError, OverflowError) as exc:",
        "        raise DomainError('field evaluation failed in a step: '"
        " + str(exc)) from exc",
    ]
    lines += [
        f"    q{i} = h * ({_DP_E_SUM.format(i)})"
        f" / (atol + rtol * max(abs(z{i}), abs(x{i})))"
        for i in slots
    ]
    squares = " + ".join(f"q{i}*q{i}" for i in slots)
    # x - x is 0.0 for a finite x and NaN otherwise
    nonfinite = " + ".join([f"(x{i} - x{i})" for i in slots] + ["(err - err)"])
    absolutes = ", ".join(f"abs(x{i})" for i in slots)
    gap = "W" if em.parabolic else f"x{em.gap_slot}"
    lines += [
        f"    err = _sqrt((0.0 + {squares}) / {dim})",
        f"    if {nonfinite} != 0.0:",
        "        return None",
        "    return ("
        + "".join(f"x{i}, " for i in slots)
        + "), err, ("
        + "".join(f"k7_{i}, " for i in slots)
        + f"), {f'max({absolutes})' if dim > 1 else absolutes}, {gap}",
    ]
    return "\n".join(lines) + "\n"


def _emit_vector(em: _Emitter, exprs, jac_exprs) -> str:
    """Source of ``_rhs_v(Z) -> (m, n + 1)`` and ``_jac_v(Z) -> (m, n, n)``.

    Row i evaluates the field's n components and its time factor (resp. the
    Jacobian) at point ``Z[i]``, from the same expressions as ``_rhs`` and
    ``_jac``; each entry is written into a preallocated array, so constant
    entries broadcast and zero Jacobian entries are never written.  Where
    the scalar code raises (``_pw`` of a negative base or of zero with a
    negative exponent, an integer power of zero below zero, an overflow),
    NumPy gives NaN or inf instead; the expressions only add and multiply,
    so that entry stays non-finite and the other rows are unaffected.
    """
    n = em.n
    pre = ["    " + "".join(f"x{j}, " for j in range(n)) + "= Z.T"]
    pre += [em.inline(t) for _, t in em.derived("    ", vector=True)]
    lines = ["def _rhs_v(Z):"] + pre + [f"    out = _empty((len(Z), {n + 1}))"]
    lines += [f"    out[:, {i}] = {expr}" for i, expr in enumerate(exprs)]
    lines += ["    return out", "", "def _jac_v(Z):"] + pre
    lines += [f"    out = _zeros((len(Z), {n}, {n}))"]
    lines += [
        f"    out[:, {i}, {j}] = {expr}"
        for i, row in enumerate(jac_exprs)
        for j, expr in enumerate(row)
        if expr != "0.0"
    ]
    lines += ["    return out"]
    return "\n".join(lines) + "\n"


def _compile_field(n: int, parabolic: bool, two_beta, i_alpha, gap_slot,
                   components: Tuple[Poly, ...], time_factor: Poly,
                   jac_rows: Tuple[Tuple[Poly, ...], ...], nonautonomous: bool):
    em = _Emitter(n, parabolic, two_beta, i_alpha, gap_slot)
    templates = [em.poly(p) for p in components + (time_factor,)]
    jac_exprs = [[em.inline(em.poly(p)) for p in row] for row in jac_rows]
    exprs = [em.inline(t) for t in templates]
    # preamble emitted last: clamping needs are discovered while emitting
    pre = em.preamble()
    g_body = ",\n        ".join(exprs)
    j_body = ",\n        ".join(
        "(" + ", ".join(row) + ("," if len(row) == 1 else "") + ")"
        for row in jac_exprs
    )
    src = (
        f"def _rhs(z):\n{pre}\n    return (\n        {g_body},\n    )\n\n"
        f"def _jac(z):\n{pre}\n    return (\n        {j_body},\n    )\n\n"
        + _emit_step(em, templates, n if nonautonomous else n + 1)
    )
    ns: dict = {"_pw": power, "math": math, "_sqrt": math.sqrt,
                "DomainError": DomainError}
    exec(compile(src, "<desing-field>", "exec"), ns)
    vsrc = _emit_vector(em, exprs, jac_exprs)
    vns: dict = {"_pw": np.power, "_max": np.maximum, "_empty": np.empty,
                 "_zeros": np.zeros}
    exec(compile(vsrc, "<desing-field-array>", "exec"), vns)
    return (ns["_rhs"], ns["_jac"], ns["_step"], vns["_rhs_v"],
            vns["_jac_v"], src + "\n" + vsrc)


@dataclass(frozen=True, eq=False)
class DesingField:
    """A desingularized field on a chart, stored as extended monomials.

    ``components[i]`` and ``time_factor`` map (coordinate exponents,
    W-exponent) to coefficients; W is recomputed from the coordinates at
    evaluation time, which keeps the horizon exact.  Evaluation goes through
    expressions compiled once at construction.

    ``step(z, k1, h, atol, rtol)`` is the field's compiled Dormand-Prince
    5(4) step: from state ``z`` (the coordinates, then t for an autonomous
    field) and its derivative ``k1`` it returns the new state, the RMS error
    norm, the derivative there, the largest |slot| of the new state and its
    horizon gap in the step's own arithmetic (Python's ``**``, where
    ``horizon_gap`` goes through NumPy and may differ in the last bit), or
    None when the new state or the error norm is not finite.
    ``rhs_array`` and ``jacobian_array`` evaluate a batch of points at once.
    ``source_code`` holds all the generated source.
    """

    chart: Union[ParabolicChart, DirectionalChart]
    htype: HomogeneityType
    source: FieldSpec
    components: Tuple[Poly, ...]
    time_factor: Poly

    def __post_init__(self):
        parabolic = isinstance(self.chart, ParabolicChart)
        jac_rows = tuple(
            tuple(self._component_partial(i, j) for j in range(self.n))
            for i in range(self.n)
        )
        rhs, jac, step, rhs_v, jac_v, src = _compile_field(
            self.n,
            parabolic,
            2 * self.htype.beta_full(),
            self.htype.i_alpha,
            None if parabolic else self.chart.i0,
            self.components,
            self.time_factor,
            jac_rows,
            self.nonautonomous,
        )
        object.__setattr__(self, "_rhs", rhs)
        object.__setattr__(self, "_jac", jac)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "_rhs_v", rhs_v)
        object.__setattr__(self, "_jac_v", jac_v)
        object.__setattr__(self, "source_code", src)

    @property
    def n(self) -> int:
        return self.htype.n

    @property
    def nonautonomous(self) -> bool:
        return self.source.nonautonomous

    def _component_partial(self, i: int, j: int) -> Poly:
        """Exact d g_i / d x_j including the chain rule through W."""
        p = self.components[i]
        out = _pdiff_var(p, j)
        if isinstance(self.chart, ParabolicChart) and j in self.htype.i_alpha:
            tb = int(2 * self.htype.beta_of(j))
            dw = _pdiff_w(p)
            if dw:
                chain = _pmul_var(dw, j, tb - 1)
                for key, coeff in _pscale(chain, -float(tb)).items():
                    _padd(out, key, coeff)
        return out

    # -- evaluation ------------------------------------------------------

    def rhs_values(self, coords) -> Tuple[float, ...]:
        """(g_0, ..., g_{n-1}, dt_dtau) in one compiled call."""
        z = [float(v) for v in coords]
        try:
            return self._rhs(z)
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise DomainError(f"field evaluation failed at {z}: {exc}") from exc

    def g(self, coords) -> np.ndarray:
        return np.asarray(self.rhs_values(coords)[:-1], dtype=float)

    def time_scale(self, coords) -> float:
        return float(self.rhs_values(coords)[-1])

    def jacobian(self, coords) -> np.ndarray:
        z = [float(v) for v in coords]
        try:
            rows = self._jac(z)
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise DomainError(f"jacobian evaluation failed at {z}: {exc}") from exc
        return np.asarray(rows, dtype=float)

    def rhs_array(self, coords) -> np.ndarray:
        """``rhs_values`` at each row of an (m, n) array, as (m, n + 1).

        A row where the scalar evaluation raises DomainError holds
        non-finite values instead; the other rows are unaffected.
        """
        with np.errstate(all="ignore"):
            return self._rhs_v(np.asarray(coords, dtype=float))

    def jacobian_array(self, coords) -> np.ndarray:
        """``jacobian`` at each row of an (m, n) array, as (m, n, n), with
        non-finite entries in rows outside the domain."""
        with np.errstate(all="ignore"):
            return self._jac_v(np.asarray(coords, dtype=float))

    def horizon_gap(self, coords) -> float:
        return float(self.chart.horizon_gap_of(np.asarray(coords, dtype=float)))


def evaluate_desing(dfield: DesingField, coords) -> Tuple[np.ndarray, np.ndarray, float]:
    """Evaluate (g, Jacobian, dt/dtau) at chart coordinates.

    Coordinates must lie in the closed chart domain (a 1e-9 grace below the
    horizon absorbs roundoff); on the horizon of a nonautonomous field the
    returned dt/dtau is exactly zero.
    """
    x = np.asarray(coords, dtype=float)
    if x.shape != (dfield.n,):
        raise ValueError(f"coords shape {x.shape}, expected ({dfield.n},)")
    gap = dfield.horizon_gap(x)
    if not math.isfinite(gap) or gap < -1e-9:
        raise DomainError(
            f"coordinates outside the closed chart domain (gap = {gap})"
        )
    values = dfield.rhs_values(x)
    return (
        np.asarray(values[:-1], dtype=float),
        dfield.jacobian(x),
        float(values[-1]),
    )


# --------------------------------------------------------------------------
# constructions


def extend_nonautonomous(
    field: FieldSpec, htype: HomogeneityType
) -> Tuple[ExtendedFieldSpec, HomogeneityType]:
    """Prepend the time variable (weight 0, equation t' = 1) to a field.

    Fields already marked nonautonomous (variable 0 is t) are rebranded in
    place after checking the weights; autonomous fields gain a fresh
    decoupled t.  Applying the extension twice raises AlreadyExtendedError.
    """
    if isinstance(field, ExtendedFieldSpec):
        raise AlreadyExtendedError("field already carries the time extension")
    if field.nonautonomous:
        if htype.n == field.n - 1:
            htype = HomogeneityType(alpha=(0,) + htype.alpha, k=htype.k)
        _check_type(field, htype)
        extended = ExtendedFieldSpec(
            variable_names=field.variable_names,
            components=field.components,
            nonautonomous=True,
        )
        return extended, htype
    _check_type(field, htype)
    t_name = "t"
    while t_name in field.variable_names:
        t_name += "_"
    names = (t_name,) + field.variable_names
    shifted = tuple(
        tuple(
            Monomial(coeff=m.coeff, exponents=(0,) + m.exponents)
            for m in comp
        )
        for comp in field.components
    )
    n_new = field.n + 1
    components = ((Monomial(coeff=1.0, exponents=(0,) * n_new),),) + shifted
    extended = ExtendedFieldSpec(
        variable_names=names, components=components, nonautonomous=True
    )
    new_htype = HomogeneityType(alpha=(0,) + htype.alpha, k=htype.k)
    return extended, new_htype


def _check_type(field: FieldSpec, htype: HomogeneityType) -> None:
    """The type has the field's arity and gives a nonautonomous field's
    time variable (slot 0) weight 0."""
    if htype.n != field.n:
        raise ValueError(
            f"type arity {htype.n} does not match field arity {field.n}"
        )
    if field.nonautonomous and htype.alpha[0] != 0:
        raise DomainError("time variable must have weight 0")


def _rescale_exponent(htype: HomogeneityType, comp_index: int, m: Monomial) -> Real:
    """W/s exponent k + alpha_i - <m, alpha>; negative means not AQH."""
    w = htype.degree_deficit(comp_index, m)
    if w < 0:
        raise NegativeWExponentError(
            f"monomial {m} in component {comp_index} has weighted degree "
            f"{m.weighted_degree(htype.alpha)} > k + alpha_i = "
            f"{_eadd(htype.k, htype.alpha[comp_index])}; "
            f"the field is not asymptotically quasi-homogeneous of this type"
        )
    return _canon_e(w)


def build_parabolic_desing(field: FieldSpec, htype: HomogeneityType) -> DesingField:
    """Desingularize a field on the global parabolic chart.

    Raises NegativeWExponentError when the type bound fails, and DomainError
    when a monomial has a negative or fractional exponent on a positively
    weighted variable -- those cross zero inside this chart, so a directional
    chart must be used instead -- or on a weighted time variable.
    """
    _check_type(field, htype)
    n = field.n
    for i, comp in enumerate(field.components):
        for m in comp:
            for j in htype.i_alpha:
                e = _canon_e(m.exponents[j])
                if not isinstance(e, int) or e < 0:
                    raise DomainError(
                        f"component {i}: exponent {m.exponents[j]} on "
                        f"positively weighted variable "
                        f"'{field.variable_names[j]}' is not valid on the "
                        f"parabolic chart (the variable crosses zero); use a "
                        f"directional chart"
                    )
    zero = _zero_exps(n)
    ftilde = []
    for i, comp in enumerate(field.components):
        p: Poly = {}
        for m in comp:
            w = _rescale_exponent(htype, i, m)
            _padd(p, (tuple(_canon_e(e) for e in m.exponents), w), m.coeff)
        ftilde.append(p)
    tc = 2 * htype.c
    q: Poly = {(zero, 0): 1.0, (zero, 1): -(tc - 1) / tc}
    G: Poly = {}
    for pos, j in enumerate(htype.i_alpha):
        tbj = 2 * htype.beta[pos]
        scaled = _pmul_var(_pscale(ftilde[j], 1.0 / htype.alpha[j]), j, tbj - 1)
        for key, coeff in scaled.items():
            _padd(G, key, coeff)
    components = []
    for i in range(n):
        gi = _pmul(q, ftilde[i])
        ai = htype.alpha[i]
        if ai:
            for key, coeff in _pscale(_pmul_var(G, i, 1), -float(ai)).items():
                _padd(gi, key, coeff)
        components.append(gi)
    time_factor = _pmul_w(q, htype.k)
    return DesingField(
        chart=ParabolicChart(htype=htype),
        htype=htype,
        source=field,
        components=tuple(components),
        time_factor=time_factor,
    )


def build_directional_desing(
    field: FieldSpec, htype: HomogeneityType, chart: DirectionalChart
) -> DesingField:
    """Desingularize a field on one directional chart.

    The chart sign is folded into each rescaled monomial as sign**(m_i0); for
    the - chart the sign also flips the s-equation and the coupling terms,
    which is exactly what conjugating by y_i0 = -s**(-alpha_i0) produces.
    Cross-chart trajectory agreement is the correctness oracle for the -
    chart (tested), not trust in any one printed formula.  Raises
    DomainError on a weighted time variable.
    """
    _check_type(field, htype)
    if chart.htype.alpha != htype.alpha:
        raise ChartDomainError("chart was built for a different type")
    n = field.n
    i0 = chart.i0
    sigma = chart.sign
    a0 = htype.alpha[i0]
    for i, comp in enumerate(field.components):
        for m in comp:
            e0 = _canon_e(m.exponents[i0])
            if sigma < 0 and not isinstance(e0, int):
                raise ChartDomainError(
                    f"component {i}: fractional exponent {m.exponents[i0]} on "
                    f"the chart variable of a negative chart is complex-valued"
                )
            for j in htype.i_alpha:
                if j == i0:
                    continue
                e = _canon_e(m.exponents[j])
                if not isinstance(e, int):
                    raise DomainError(
                        f"component {i}: fractional exponent {m.exponents[j]} "
                        f"on variable '{field.variable_names[j]}', which "
                        f"crosses zero inside this chart"
                    )
    fhat = []
    for i, comp in enumerate(field.components):
        p: Poly = {}
        for m in comp:
            s_exp = _rescale_exponent(htype, i, m)
            e0 = _canon_e(m.exponents[i0])
            if sigma < 0 and isinstance(e0, int) and (e0 % 2):
                coeff = -m.coeff
            else:
                coeff = m.coeff
            exps = [_canon_e(e) for e in m.exponents]
            exps[i0] = s_exp
            _padd(p, (tuple(exps), 0), coeff)
        fhat.append(p)
    components = []
    for i in range(n):
        if i == i0:
            gi = _pscale(_pmul_var(fhat[i0], i0, 1), -float(sigma) / a0)
        else:
            gi = dict(fhat[i])
            ai = htype.alpha[i]
            if ai:
                coupling = _pscale(
                    _pmul_var(fhat[i0], i, 1), -float(sigma) * ai / a0
                )
                for key, coeff in coupling.items():
                    _padd(gi, key, coeff)
        components.append(gi)
    zero = list(_zero_exps(n))
    zero[i0] = _canon_e(htype.k)
    time_factor: Poly = {(tuple(zero), 0): 1.0}
    return DesingField(
        chart=chart,
        htype=htype,
        source=field,
        components=tuple(components),
        time_factor=time_factor,
    )
