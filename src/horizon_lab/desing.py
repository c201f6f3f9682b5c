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
horizon functions W and s appear with provably nonnegative exponents.  A term
is keyed by one exponent tuple whose slot ``gap_slot`` holds the power of the
horizon gap: s's own slot i0 on a directional chart, an extra slot n after the
coordinates for W on the parabolic one.

The integrator and the equilibrium search evaluate generated Python code,
compiled once per distinct generated source per process (bounded LRU);
fields with the same source share the stateless compiled functions.  The
source holds the time factor and one DOP853 step per field, with the
stages, the tableau and the state dimension unrolled around the field's
expressions (each distinct power and expression evaluated once per
stage).  An accepted step also
forms its dense output's coefficients once, samples it by the sampling
rule this module owns (``max_step`` apart in tau, 0.1 decade apart in the
horizon gap), appends the samples to a flat list and returns the longest
next step this module's cut allows, so a step costs one call.

A field is stored as the paper writes it on both charts (``DesingField``):
each component's rest, q f~_i or f^_i, and the normal rate G of the
horizon gap, G = (sign/alpha_i0) f^_i0 on a directional chart.  One rule
forms the components from them: g_i = rest_i - alpha_i x_i G in a weighted
slot, rest_i in a weight-0 slot, and ds/dtau = -s G in s's.

The step's state (``DesingField.start``) carries the horizon gap in slot
``gap_slot``.  On the parabolic chart that is W, dW/dtau = -G W (since
dP/dtau = G W where P + W = 1), so W = 0 is invariant; a point given by
its chart coordinates alone forms W = 1 - P.  On a directional chart it
is L = ln s, dL/dtau = -G; a stage binds s = exp(L) and its powers from
it, so an error in L is a relative error in the gap and s = 0 is L =
-inf.  The step's rates read the stored form on both charts: a stage
binds G once, the gap's slot reads -G W, or -G, and weighted slot i reads
its rest less alpha_i x_i G.  A state off the surface P + W = 1 lies
outside the flow, so the parabolic step's rates there are free: with F =
(2c - 1)/(2c) and D = P + W - 1, its weighted slots read Gs = G (1 - F
D), bound once, in place of G.  Each gains F G D alpha_i x_i,
which vanishes on the surface and slows D' from -2c G D to G D ((2c - 1)
P - 2c), about the gap's own -G D near the horizon, so that DOP853's
stability no longer sizes the steps there.  A directional chart's time
factor is s**k, so a step whose s**k decays by more than 0.1 e-fold at
its starting log-rate rho integrates u = t - s**k / rho in the time slot
and forms t back from the stage's own s**k: near a hyperbolic horizon
equilibrium L is almost linear in tau, u' almost 0, and the time
increments keep their relative accuracy over long steps.

On the horizon W = 0 (resp. s = 0), so there only the terms with no power
of the gap act: the principal part of the field.  The source also holds
array evaluators of the system the batched equilibrium search solves, for
a batch of points with NumPy: that restriction's nonempty components, with
P(x) - 1 on the parabolic chart, and their partials in the slots solved
for; and the field's Jacobian at gap 0, where the search linearizes, at a
batch of rows with W as a column of its own: only its terms with no
positive power of the gap, since the others vanish there.  Where a scalar
evaluation would raise a domain error, they leave non-finite entries in
that point's row.  ``DesingField.rhs_values`` and ``jacobian`` run no
generated code: they evaluate the field's own terms in the code's
arithmetic (``_evaluate``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple, Union

import numpy as np

from .charts import DirectionalChart, ParabolicChart
from .errors import ChartDomainError, DomainError, NegativeWExponentError, located
from .homogeneity import (
    FieldSpec,
    HomogeneityType,
    Monomial,
    power,
)

__all__ = [
    "DesingField",
    "build_parabolic_desing",
    "build_directional_desing",
    "build_desing",
]

Real = Union[int, float, Fraction]

# A polynomial as {exps: coeff}.  The exponent tuple has a slot per chart
# coordinate and, on the parabolic chart, one more slot n for W; the slot of
# the horizon gap (W, or s = x_i0 on a directional chart) is the field's
# gap_slot.
Poly = Dict[Tuple[Real, ...], float]


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


def _padd(dst: Poly, key: Tuple[Real, ...], coeff: float) -> None:
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
    """Multiply a polynomial by the symbol of slot j to the power e."""
    out: Poly = {}
    for exps, coeff in p.items():
        new = list(exps)
        new[j] = _eadd(new[j], e)
        _padd(out, tuple(new), coeff)
    return out


def _pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _padd(out, tuple(_eadd(x, y) for x, y in zip(ea, eb)), ca * cb)
    return out


def _pdiff_var(p: Poly, j: int) -> Poly:
    """Formal d/d(slot j), every slot an independent symbol."""
    out: Poly = {}
    for exps, coeff in p.items():
        e = exps[j]
        if e == 0:
            continue
        new = list(exps)
        new[j] = _eadd(e, -1)
        _padd(out, tuple(new), coeff * float(e))
    return out


# --------------------------------------------------------------------------
# term evaluation


def _ordered(p: Poly) -> list:
    """``p``'s items by exponent signature, the order in which the
    generated code and ``_evaluate`` add them."""
    return sorted(p.items(), key=lambda kv: tuple(map(float, kv[0])))


def _term_list(p: Poly, n: int) -> tuple:
    """``p`` as ``_evaluate`` reads it: each term's coefficient and its
    factors (slot, exponent), an int or a float; a fractional power of W
    (slot n) reads W's clamp, in slot n + 1."""
    return tuple(
        (coeff, tuple((j, e) if isinstance(e, int) else (j + (j == n), float(e))
                      for j, e in enumerate(map(_canon_e, exps)) if e != 0))
        for exps, coeff in _ordered(p)
    )


def _evaluate(terms: tuple, point: list) -> float:
    """A term list's value at ``point`` in the generated code's arithmetic:
    each term its coefficient times its factors (``**`` or ``power``), the
    terms added, all left to right.  The code drops a coefficient of +-1
    and subtracts a negative term, which gives the same bits."""
    total = None
    for coeff, factors in terms:
        v = coeff
        for j, e in factors:
            x = point[j]
            v *= x if e == 1 else x ** e if isinstance(e, int) else power(x, e)
        total = v if total is None else total + v
    return 0.0 if total is None else total


# --------------------------------------------------------------------------
# code generation


def _fmt_float(x: float) -> str:
    return repr(float(x))


class _Emitter:
    """Shared expression emitter for one desingularized field.

    Slot j of a term key is the local ``x{j}``, W for j = n on the
    parabolic chart (``gap_slot == n``).  A fractional power of W reads its
    clamp ``x{n}c`` (W, or 0 below the horizon), bound only when some term
    needs it.  A directional chart's s needs no clamp: the step forms it as
    exp(ln s), and elsewhere s < 0 is outside the chart.

    Expressions come out as templates: each power other than a first power
    is a ``{p<k>}`` field, one name per distinct power text; ``powers``
    maps the text to (name, base symbol) and ``texts`` the name to the
    text.  ``inline`` fills every field with its text; the generated step
    binds a power it uses more than once to its name instead.
    """

    def __init__(self, n: int, two_beta: np.ndarray, i_alpha: Tuple[int, ...],
                 gap_slot: int):
        self.n = n
        self.parabolic = gap_slot == n
        self.two_beta = two_beta
        self.i_alpha = i_alpha
        self.gap_slot = gap_slot
        self.needs_clamp = False
        self.step_locals: list = []  # (symbol, template): G, Gs if parabolic
        self.used = set()  # the slots the emitted expressions read
        self.powers: Dict[str, Tuple[str, str]] = {}
        self.texts: Dict[str, str] = {}  # power name -> text

    def power(self, sym: str, e: Real) -> str:
        e = _canon_e(e)
        if e == 1:
            return sym
        if isinstance(e, int):
            text = f"{sym}**({e})" if e < 0 else f"{sym}**{e}"
        else:
            text = f"_pw({sym}, {_fmt_float(float(e))})"
        if text not in self.powers:
            self.powers[text] = (f"p{len(self.powers)}", sym)
            self.texts[self.powers[text][0]] = text
        return "{" + self.powers[text][0] + "}"

    def inline(self, template: str) -> str:
        return template.format_map(self.texts)

    def term(self, exps: Tuple[Real, ...], coeff: float) -> str:
        factors = []
        for j, e in enumerate(exps):
            if e == 0:
                continue
            sym = f"x{j}"
            self.used.add(j)
            if j == self.n and not isinstance(_canon_e(e), int):
                self.needs_clamp = True
                sym += "c"
            factors.append(self.power(sym, e))
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
        parts = [self.term(exps, coeff) for exps, coeff in _ordered(p)]
        expr = parts[0]
        for piece in parts[1:]:
            expr += (" - " + piece[1:]) if piece.startswith("-") else (" + " + piece)
        return expr

    def horizon_poly(self) -> str:
        """The template of P = sum x_j**(2 beta_j), summed in i_alpha order."""
        return " + ".join(
            self.power(f"x{j}", int(self.two_beta[j])) for j in self.i_alpha
        )

    def clamp(self, indent: str) -> list:
        """The (symbol, line) pair binding W's clamp, where a term needs it."""
        n = self.n
        return [(f"x{n}c", f"{indent}x{n}c = x{n} if x{n} > 0.0 else 0.0")
                ] if self.needs_clamp else []

    def derived(self, indent: str) -> list:
        """(symbol, template) pairs binding W's clamp, then the
        ``step_locals``."""
        return self.clamp(indent) + [
            (sym, f"{indent}{sym} = {t}") for sym, t in self.step_locals
        ]

    def preamble(self) -> str:
        """Lines binding the x{j} locals from a step's state ``z`` (W in
        slot n, ln s in s's), then the derived ones."""
        loads = [
            f"    x{j} = _exp(z[{j}])" if j == self.gap_slot < self.n
            else f"    x{j} = z[{j}]"
            for j in range(self.n + self.parabolic)
        ]
        return "\n".join(loads + [self.inline(t) for _, t in self.derived("    ")])


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.5-II.6, with
# the constants of Hairer's dop853.f).  Keys are stage numbers: _DOP_A[s]
# holds the nonzero weights of the stages that stage s reads, for the step's
# stages 2..12 and for the dense output's extra stages 14..16.  _DOP_B are
# the 8th-order weights; stage 13 is the derivative at the new state, which
# the next step reuses as its stage 1 (FSAL).  _DOP_E5 weights the
# 5th-order error estimate; the 3rd-order one is the difference of the
# 8th-order weights and the 3rd-order weights _DOP_BHH, formed as in
# dop853.f from the sum b . k.  _DOP_D[r] gives the dense output's
# coefficient r + 3 (the step itself gives coefficients 0..2).
_DOP_A = {
    2: {1: 5.26001519587677318785587544488e-2},
    3: {1: 1.97250569845378994544595329183e-2,
        2: 5.91751709536136983633785987549e-2},
    4: {1: 2.95875854768068491816892993775e-2,
        3: 8.87627564304205475450678981324e-2},
    5: {1: 2.41365134159266685502369798665e-1,
        3: -8.84549479328286085344864962717e-1,
        4: 9.24834003261792003115737966543e-1},
    6: {1: 3.7037037037037037037037037037e-2,
        4: 1.70828608729473871279604482173e-1,
        5: 1.25467687566822425016691814123e-1},
    7: {1: 3.7109375e-2, 4: 1.70252211019544039314978060272e-1,
        5: 6.02165389804559606850219397283e-2, 6: -1.7578125e-2},
    8: {1: 3.70920001185047927108779319836e-2,
        4: 1.70383925712239993810214054705e-1,
        5: 1.07262030446373284651809199168e-1,
        6: -1.53194377486244017527936158236e-2,
        7: 8.27378916381402288758473766002e-3},
    9: {1: 6.24110958716075717114429577812e-1,
        4: -3.36089262944694129406857109825,
        5: -8.68219346841726006818189891453e-1,
        6: 2.75920996994467083049415600797e1,
        7: 2.01540675504778934086186788979e1,
        8: -4.34898841810699588477366255144e1},
    10: {1: 4.77662536438264365890433908527e-1,
         4: -2.48811461997166764192642586468,
         5: -5.90290826836842996371446475743e-1,
         6: 2.12300514481811942347288949897e1,
         7: 1.52792336328824235832596922938e1,
         8: -3.32882109689848629194453265587e1,
         9: -2.03312017085086261358222928593e-2},
    11: {1: -9.3714243008598732571704021658e-1,
         4: 5.18637242884406370830023853209,
         5: 1.09143734899672957818500254654,
         6: -8.14978701074692612513997267357,
         7: -1.85200656599969598641566180701e1,
         8: 2.27394870993505042818970056734e1,
         9: 2.49360555267965238987089396762,
         10: -3.0467644718982195003823669022},
    12: {1: 2.27331014751653820792359768449,
         4: -1.05344954667372501984066689879e1,
         5: -2.00087205822486249909675718444,
         6: -1.79589318631187989172765950534e1,
         7: 2.79488845294199600508499808837e1,
         8: -2.85899827713502369474065508674,
         9: -8.87285693353062954433549289258,
         10: 1.23605671757943030647266201528e1,
         11: 6.43392746015763530355970484046e-1},
    14: {1: 5.61675022830479523392909219681e-2,
         7: 2.53500210216624811088794765333e-1,
         8: -2.46239037470802489917441475441e-1,
         9: -1.24191423263816360469010140626e-1,
         10: 1.5329179827876569731206322685e-1,
         11: 8.20105229563468988491666602057e-3,
         12: 7.56789766054569976138603589584e-3, 13: -8.298e-3},
    15: {1: 3.18346481635021405060768473261e-2,
         6: 2.83009096723667755288322961402e-2,
         7: 5.35419883074385676223797384372e-2,
         8: -5.49237485713909884646569340306e-2,
         11: -1.08347328697249322858509316994e-4,
         12: 3.82571090835658412954920192323e-4,
         13: -3.40465008687404560802977114492e-4,
         14: 1.41312443674632500278074618366e-1},
    16: {1: -4.28896301583791923408573538692e-1,
         6: -4.69762141536116384314449447206,
         7: 7.68342119606259904184240953878,
         8: 4.06898981839711007970213554331,
         9: 3.56727187455281109270669543021e-1,
         13: -1.39902416515901462129418009734e-3,
         14: 2.9475147891527723389556272149,
         15: -9.15095847217987001081870187138},
}
_DOP_B = {1: 5.42937341165687622380535766363e-2,
          6: 4.45031289275240888144113950566,
          7: 1.89151789931450038304281599044,
          8: -5.8012039600105847814672114227,
          9: 3.1116436695781989440891606237e-1,
          10: -1.52160949662516078556178806805e-1,
          11: 2.01365400804030348374776537501e-1,
          12: 4.47106157277725905176885569043e-2}
_DOP_E5 = {1: 0.1312004499419488073250102996e-1,
           6: -0.1225156446376204440720569753e+1,
           7: -0.4957589496572501915214079952,
           8: 0.1664377182454986536961530415e+1,
           9: -0.3503288487499736816886487290,
           10: 0.3341791187130174790297318841,
           11: 0.8192320648511571246570742613e-1,
           12: -0.2235530786388629525884427845e-1}
_DOP_BHH = {1: 0.244094488188976377952755905512,
            9: 0.733846688281611857341361741547,
            12: 0.220588235294117647058823529412e-1}
_DOP_D = (
    {1: -0.84289382761090128651353491142e+1,
     6: 0.56671495351937776962531783590,
     7: -0.30689499459498916912797304727e+1,
     8: 0.23846676565120698287728149680e+1,
     9: 0.21170345824450282767155149946e+1,
     10: -0.87139158377797299206789907490,
     11: 0.22404374302607882758541771650e+1,
     12: 0.63157877876946881815570249290,
     13: -0.88990336451333310820698117400e-1,
     14: 0.18148505520854727256656404962e+2,
     15: -0.91946323924783554000451984436e+1,
     16: -0.44360363875948939664310572000e+1},
    {1: 0.10427508642579134603413151009e+2,
     6: 0.24228349177525818288430175319e+3,
     7: 0.16520045171727028198505394887e+3,
     8: -0.37454675472269020279518312152e+3,
     9: -0.22113666853125306036270938578e+2,
     10: 0.77334326684722638389603898808e+1,
     11: -0.30674084731089398182061213626e+2,
     12: -0.93321305264302278729567221706e+1,
     13: 0.15697238121770843886131091075e+2,
     14: -0.31139403219565177677282850411e+2,
     15: -0.93529243588444783865713862664e+1,
     16: 0.35816841486394083752465898540e+2},
    {1: 0.19985053242002433820987653617e+2,
     6: -0.38703730874935176555105901742e+3,
     7: -0.18917813819516756882830838328e+3,
     8: 0.52780815920542364900561016686e+3,
     9: -0.11573902539959630126141871134e+2,
     10: 0.68812326946963000169666922661e+1,
     11: -0.10006050966910838403183860980e+1,
     12: 0.77771377980534432092869265740,
     13: -0.27782057523535084065932004339e+1,
     14: -0.60196695231264120758267380846e+2,
     15: 0.84320405506677161018159903784e+2,
     16: 0.11992291136182789328035130030e+2},
    {1: -0.25693933462703749003312586129e+2,
     6: -0.15418974869023643374053993627e+3,
     7: -0.23152937917604549567536039109e+3,
     8: 0.35763911791061412378285349910e+3,
     9: 0.93405324183624310003907691704e+2,
     10: -0.37458323136451633156875139351e+2,
     11: 0.10409964950896230045147246184e+3,
     12: 0.29840293426660503123344363579e+2,
     13: -0.43533456590011143754432175058e+2,
     14: 0.96324553959188282948394950600e+2,
     15: -0.39177261675615439165231486172e+2,
     16: -0.14972683625798562581422125276e+3},
)
# on a directional chart, a step whose time factor s**k decays by more
# than this many e-folds at its starting rate integrates t - s**k / rho
_SPLIT_EFOLDS = 0.1
# a step's samples keep consecutive horizon gaps within this many decades
_GAP_DECADES = 0.1
# the step cuts the next one so that, at its own rate, that one changes W
# by at most this many decades (h G <= 0.69): below the absolute tolerance
# W would otherwise lose the relative accuracy the fits read.  With the
# deviation from P + W = 1 slowed to about G, this cut, not DOP853's
# stability (h |eigenvalue| <= 6.39), sizes the steps near the horizon
_STEP_DECADES = 0.3
# ln s keeps that accuracy itself, so a directional step cuts the next one
# only to keep s**k within this many decades: a sample's time increment,
# a difference of the step's running times, keeps about 16 - 4 digits
_STEP_TIME_DECADES = 4.0
# a gap level is log10 of the gap; on a directional chart L * _LOG10_E with
# L = ln s.  It must be 1/ln 10 = 0.43429448190325176, not log10(e) =
# 0.4342944819032518: the levels set the sampling and, through the
# controller's cut, the step sizes, so that one ulp moves them
_LOG10_E = 1.0 / math.log(10.0)
# W's level is NaN below the smallest normal float: a subnormal W loses
# relative precision, down to steps of 5e-324 more than 0.1 decade apart
_W_MIN = 2.0 ** -1022


def _combo(row, stage: str) -> str:
    """``c1*k1_i + c6*k6_i + ...`` over a row's weights, in stage order;
    ``stage`` names stage j's value once formatted with j."""
    return " + ".join(
        f"{_fmt_float(c)}*{stage.format(j)}" for j, c in sorted(row.items())
    )


# the sums as templates of the slot, rendered once
_A_SUMS = {s: _combo(row, "k{}_{{0}}") for s, row in _DOP_A.items()}
_B_SUM = _combo(_DOP_B, "k{}_{{0}}")
_E5_SUM = _combo(_DOP_E5, "k{}_{{0}}")
_BHH_DIFF = "".join(
    f" - {_fmt_float(c)}*k{j}_{{0}}" for j, c in sorted(_DOP_BHH.items())
)
# the dense output's coefficients 3..6 as templates of the slot
_D_SUMS = tuple(_combo(row, "k{}_{{0}}") for row in _DOP_D)


def _emit_dop853(em: _Emitter, templates, dim: int, t_slot: int,
                 k: float) -> str:
    """Source of ``_step(z, k1, h, tau, tau_end, out, atol, rtol,
    max_step)``: one attempted DOP853 step over [tau, tau_end], its dense
    output, the samples it records and the cut on the next step.

    The state ``z`` is ``DesingField.start``'s: the chart coordinates,
    then W on the parabolic chart, then t for an autonomous field.  On a
    directional chart its slot i0 holds L = ln s instead of s.  A stage
    binds s = exp(L) once (exp(-inf) = 0 is the horizon), then each
    distinct power of s, so s >= 0 needs no clamp.  There the time slot's t' = s**k, the time factor,
    is split by the step's own rho = k L'(0): with q = 1/rho (0 when rho h
    >= -_SPLIT_EFOLDS, which keeps t itself), the tableau integrates u = t
    - s**k q, u' = t' (1 - k L' q), and t = t0 + (u - u0)
    + (s**k - k1_t) q at every stage, at the new state and in the dense
    output, with k1_t = s**k at the step's start; u's increment is ``du``.

    The step returns None when its new state (read as s in slot i0, so L =
    -inf passes), its error norm or a dense-output coefficient is not
    finite, or when W changes sign at its end or at a sample (W = 0 is
    invariant), and the error norm alone (Hairer's DOP853: the 5th-order
    estimate, damped by the 3rd-order one) when that exceeds 1.  A stage
    that fails to evaluate raises DomainError, as in rhs_values.  An
    accepted step returns ``(z_new, err, k13, guard, gap, h_cut)``: the
    new state, the error norm, the derivative there, ``max |x_i|`` over
    the new state's slots (s, not L, in slot i0), the horizon gap there
    (its W or s) and the longest next step, h cut / d with d the
    difference of its end levels (inf where d is NaN or 0): the cut is
    ``_STEP_DECADES`` of W, or ``_STEP_TIME_DECADES / k`` of s.

    It also appends its samples to the flat list ``out``.  A gap level is
    log10 of the gap, ``L * _LOG10_E`` on a directional chart and log10 W
    on the parabolic one (NaN below ``_W_MIN``); ``lv``, the level at
    ``z``, is the step's own.  It takes m = ceil(h / max_step), raised to
    ceil(d / _GAP_DECADES) when its end levels lie d > _GAP_DECADES apart.
    For m > 1 it evaluates the extra stages 14..16, forms the 7th-order
    interpolant's coefficients once and samples it at theta = j/m, j = 1 ..
    m-1.  While two consecutive levels of the sequence z, samples, new
    state lie more than _GAP_DECADES apart (a NaN difference counts as
    none), it drops its samples and samples again at m = ceil(m d /
    _GAP_DECADES) + 1, d the largest difference.  Each sample, then the new
    state, is appended as its state with s in slot i0, its tau (tau + h
    theta, then tau_end) and its physical time increment from the sample
    before.  A sample's time is slot ``t_slot`` of the interpolant without
    its base term, so the increments are differences of the step's own
    running times.  Where a sample's s fails to evaluate, the step removes
    its samples and raises DomainError.

    ``templates`` are ``em``'s templates of the step's coordinate rates
    (``_step_rates``), with the gap slot's rate (-G W, or -G = dL/dtau) in
    slot ``gap_slot``, then the time factor, t's derivative; the state has
    their ``dim`` slots (all but the time factor when the field is
    nonautonomous).  Every stage, the dense output's too, binds
    ``em.derived``'s locals (W's clamp, G, Gs) after its coordinates, as
    ``_deriv`` does.  A stage
    evaluates each distinct expression once and copies it where a
    sum reads the copy (the time factor of a nonautonomous field equals
    component 0 and no sum reads it), and each distinct power once: a power
    the stage uses twice is bound to a local right after the line that
    defines its base.  Each weighted sum is written ``c1*k1_i + c6*k6_i +
    ...`` over the tableau's nonzero entries, added left to right, so the
    step equals bit for bit the list form that folds the same products in
    the same order, which the tests keep as its reference.  The increments
    are formed once, d_i = h * (b . k_i), and z_new_i = z_i + d_i.  Every
    stage but 13 (the new state) only computes the coordinates the
    expressions read, so a step fails exactly where a full field evaluation
    does.
    """
    ln = None if em.parabolic else em.gap_slot
    T = t_slot
    kk = _fmt_float(k)
    gd = _fmt_float(_GAP_DECADES)
    cut = _fmt_float(_STEP_DECADES if ln is None else _STEP_TIME_DECADES / k)
    # the time factor s**k, with the stage's shared powers, and inline
    tf_text, tf_inline = templates[-1], em.inline(templates[-1])
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
    common = []
    for sym, t in derived:
        common += [t.format_map(fill)] + defs.get(sym, [])
    body = [(i, j, t.format_map(fill)) for i, j, t in body]
    tf_text = tf_text.format_map(fill)

    def col(i):  # the stage derivatives slot i's sums read: k{s}_{col}
        return "u" if ln is not None and i == T else i

    def ku_line(s):  # the split time slot's derivative at stage s
        return [f"        k{s}_u = k{s}_{T} * (1.0 - w * k{s}_{ln})"] \
            if ln is not None else []

    def stage(s, points):
        lines = []
        for i, point in points:
            lines.append(f"        x{i} = {point}")
            lines += defs.get(f"x{i}", [])
        return lines + common + [
            f"        k{s}_{i} = " + (expr if j == i else f"k{s}_{j}")
            for i, j, expr in body
        ] + ku_line(s)

    def inner(s):  # stage s at the coordinates the expressions read
        points = []
        # s first: a time coordinate reads it
        for i in sorted(em.used, key=lambda i: (i != ln, i)):
            point = f"z{i} + h * ({_A_SUMS[s].format(col(i))})"
            if i == ln:
                point = f"_exp({point})"
            elif ln is not None and i == T:
                point += f" + ({tf_text} - k1_{T}) * q"
            points.append((i, point))
        return stage(s, points)

    def fails(what):
        return [
            "    except (ZeroDivisionError, ValueError, OverflowError) as exc:",
            f"        raise DomainError('field evaluation failed in {what}: '"
            " + str(exc)) from exc",
        ]

    slots = range(dim)
    # the new state's slots: L itself in the ln slot, whose x is s
    new = [f"l{i}" if i == ln else f"x{i}" for i in slots]
    # the increment each slot's interpolant starts from: u's for the time
    dname = [f"d{col(i)}" for i in slots]
    absolutes = ", ".join(f"abs(x{i})" for i in slots)

    def level(v):  # the gap level of a state whose gap slot holds ``v``
        return (f"_log10({v}) if {v} >= {_W_MIN!r} else _nan" if ln is None
                else f"{v} * {_fmt_float(_LOG10_E)}")

    # the new state's gap and gap level, kept while the dense output runs
    gap = f"x{em.gap_slot}"
    end_level = level(new[em.gap_slot])
    # W = 0 is invariant, so a W that changes sign is the step's error
    flip = f"({gap} < 0.0) != (z{em.gap_slot} < 0.0)" if ln is None else ""
    kept = "".join(f"e{i}, " for i in slots)

    lines = [
        "def _step(z, k1, h, tau, tau_end, out, atol, rtol, max_step):",
        "    " + "".join(f"z{i}, " for i in slots) + "= z",
        "    " + "".join(f"k1_{i}, " for i in slots) + "= k1",
        f"    lv = {level(f'z{em.gap_slot}')}",
        "    try:",
    ]
    if ln is not None:
        # u = t - s**k / rho, with rho the time factor's log-rate at the
        # step's start, takes the time factor's exponential decay out of
        # the quadrature; a rate slower than _SPLIT_EFOLDS e-folds over
        # the step keeps u = t (q = 0)
        lines += [
            f"        rho = {kk} * k1_{ln}",
            f"        q = 1.0 / rho if rho * h < -{_fmt_float(_SPLIT_EFOLDS)}"
            " else 0.0",
            f"        w = {kk} * q",
        ] + ku_line(1)
    for s in range(2, 13):
        lines += inner(s)
    lines += [f"        g{i} = {_B_SUM.format(col(i))}" for i in slots]
    lines += [f"        {dname[i]} = h * g{i}" for i in slots]
    if ln is None:
        lines += stage(13, [(i, f"z{i} + d{i}") for i in slots])
    else:
        # s first: the time reads it
        lines.append(f"        l{ln} = z{ln} + d{ln}")
        lines += stage(13, [(ln, f"_exp(l{ln})")] + [
            (i, f"z{i} + d{i}") for i in slots if i != ln
        ])
        # the time's increment reads s**k, bound with s above its point
        at = lines.index(f"        x{T} = z{T} + d{T}")
        lines.insert(at, f"        d{T} = du + ({tf_text} - k1_{T}) * q")
    lines += fails("a step")
    for i in slots:
        lines += [
            f"    sk{i} = atol + rtol * max(abs(z{i}), abs({new[i]}))",
            f"    u{i} = ({_E5_SUM.format(col(i))}) / sk{i}",
            f"    v{i} = (g{i}{_BHH_DIFF.format(col(i))}) / sk{i}",
        ]
    # x - x is 0.0 for a finite x and NaN otherwise; so is den - den, and
    # a finite den keeps sqrt(den) and the error norm finite
    nonfinite = " + ".join([f"(x{i} - x{i})" for i in slots] + ["(den - den)"])
    ends = "".join(f"x{i}, " for i in slots)
    lines += [
        "    s5 = " + " + ".join(f"u{i}*u{i}" for i in slots),
        "    s3 = " + " + ".join(f"v{i}*v{i}" for i in slots),
        "    den = s5 + 0.01 * s3",
        f"    if {nonfinite} != 0.0{flip and ' or ' + flip}:",
        "        return None",
        f"    err = h * s5 / (_sqrt(den) * {_fmt_float(math.sqrt(dim))})"
        " if den > 0.0 else 0.0",
        "    if err > 1.0:",
        "        return err",
        f"    lv1 = {end_level}",
        "    ret = (" + "".join(f"{v}, " for v in new) + "), err, ("
        + "".join(f"k13_{i}, " for i in slots)
        + f"), {f'max({absolutes})' if dim > 1 else absolutes}, {gap}, "
        f"h * {cut} / dec if (dec := abs(lv1 - lv)) > 0.0 else _inf",
        "    m = _ceil(h / max_step)",
        f"    if dec > {gd}:",
        f"        m = max(m, _ceil(dec / {gd}))",
        "    if m <= 1:",
        f"        out += ({ends}tau_end, d{T})",
        "        return ret",
        # the dense output rebinds the new state's locals
        f"    {kept[:-2]} = {ends[:-2]}",
        "    try:",
    ]
    for s in (14, 15, 16):
        lines += inner(s)
    lines += fails("dense output")
    for i in slots:
        c, d = col(i), dname[i]
        lines += [
            f"    c1_{i} = h * k1_{c} - {d}",
            f"    c2_{i} = 2.0 * {d} - h * (k13_{c} + k1_{c})",
        ] + [
            f"    c{r}_{i} = h * ({row.format(c)})"
            for r, row in enumerate(_D_SUMS, start=3)
        ]
    # finite exactly when every coefficient is, but for an overflow of the
    # sum itself
    total = " + ".join(
        "(" + " + ".join(f"c{r}_{i}" for r in range(1, 7)) + ")" for i in slots
    )
    pad = " " * 16

    def poly(i):
        d = dname[i]
        return (
            f"th * ({d} + y * (c1_{i} + th * (c2_{i} + y * (c3_{i} + th * "
            f"(c4_{i} + y * (c5_{i} + th * c6_{i}))))))"
        )

    lines += [
        f"    total = {total}",
        "    if total - total != 0.0:",
        "        return None",
        "    base = len(out)",
        "    while True:",
        "        worst = 0.0",
        "        prev = lv",
        "        dtp = 0.0",
        "        try:",
        "            for j in range(1, m):",
        f"{pad}th = j / m",
        f"{pad}y = 1.0 - th",
    ]
    if ln is not None:  # s first: the time reads it
        lines += [f"{pad}l{ln} = z{ln} + {poly(ln)}", f"{pad}x{ln} = _exp(l{ln})"]
    for i in slots:
        if i == T:
            split_t = "" if ln is None else f" + ({tf_inline} - k1_{T}) * q"
            lines += [f"{pad}dt = {poly(i)}{split_t}", f"{pad}x{i} = z{i} + dt"]
        elif i != ln:
            lines.append(f"{pad}x{i} = z{i} + {poly(i)}")
    if flip:
        lines += [f"{pad}if {flip}:", f"{pad}    del out[base:]", f"{pad}    return None"]
    lines += [
        f"{pad}out += ({ends}tau + h * th, dt - dtp)",
        f"{pad}cur = {end_level}",
        f"{pad}dec = abs(cur - prev)",
        f"{pad}if dec > worst:",
        f"{pad}    worst = dec",
        f"{pad}prev = cur",
        f"{pad}dtp = dt",
        "        except (ZeroDivisionError, ValueError, OverflowError) as exc:",
        "            del out[base:]",
        "            raise DomainError('field evaluation failed in dense output: '"
        " + str(exc)) from exc",
        "        dec = abs(lv1 - prev)",
        "        if dec > worst:",
        "            worst = dec",
        f"        if worst <= {gd}:",
        "            break",
        "        del out[base:]",
        f"        m = _ceil(m * worst / {gd}) + 1",
        f"    out += ({kept}tau_end, d{T} - dtp)",
        "    return ret",
    ]
    return "\n".join(lines) + "\n"


def _emit_horizon(em: _Emitter, horizon: Tuple[Poly, ...],
                  free: Tuple[int, ...], jac: list) -> str:
    """Source of ``_horizon_rhs(Z) -> (m, p + c)`` and ``_horizon_jac(Z) ->
    (m, p + c, f)``, the system a horizon search solves at each point
    ``Z[i]``, written into preallocated arrays: the p polynomials
    ``horizon`` and, on the parabolic chart only (c = 1), the row P(x) - 1
    with P summed as in W, and their partials in the ``free`` slots (zero
    partials never).  No row carries a power of the horizon gap, so no W,
    clamp or chain rule through W.  Where the scalar code would raise
    (``_pw`` of a negative base or of zero with a negative exponent, an
    integer power of zero below zero, an overflow), NumPy gives NaN or inf,
    and since the expressions only add and multiply, it stays in that
    point's row.  Then ``_jac(Z) -> (m, n, n)`` at rows laid out as
    ``DesingField.jacobian_array`` reads them, from ``jac``, the templates
    (i, j, t) of the nonzero entries of the Jacobian at gap 0; W's clamp,
    where one of them reads it, is ``_maximum``.
    """
    n, polys = em.n, list(horizon)
    rows = [em.poly(q) for q in polys]
    if em.parabolic:
        rows.append(f"({em.horizon_poly()}) - 1.0")
        tb = em.two_beta
        polys.append({tuple(int(tb[j]) if i == j else 0 for i in range(n + 1)): 1.0
                      for j in em.i_alpha})
    pre = "    " + "".join(f"x{j}, " for j in range(n)) + "= Z.T"
    lines = ["def _horizon_rhs(Z):", pre, f"    out = _empty((len(Z), {len(rows)}))"]
    lines += [f"    out[:, {i}] = {em.inline(r)}" for i, r in enumerate(rows)]
    lines += ["    return out", "", "def _horizon_jac(Z):", pre,
              f"    out = _zeros((len(Z), {len(rows)}, {len(free)}))"]
    for i, q in enumerate(polys):
        for c, j in enumerate(free):
            d = _pdiff_var(q, j)
            if d:
                lines.append(f"    out[:, {i}, {c}] = {em.inline(em.poly(d))}")
    body = [f"    out[:, {i}, {j}] = {em.inline(t)}" for i, j, t in jac]
    lines += ["    return out", "", "def _jac(Z):",
              "    " + "".join(f"x{j}, " for j in range(n + em.parabolic)) + "= Z.T"]
    if f"x{n}c" in "".join(body):
        lines.append(f"    x{n}c = _maximum(x{n}, 0.0)")
    lines += [f"    out = _zeros((len(Z), {n}, {n}))"] + body + ["    return out"]
    return "\n".join(lines) + "\n"


def _step_rates(em: _Emitter, df: "DesingField") -> list:
    """The templates of the step's coordinate rates by the one rule of both
    charts (module docstring), the gap's in slot ``em.gap_slot``.

    ``em.step_locals`` bind G, the field's ``normal_rate``, then on the
    parabolic chart Gs = G (1 - F D), which its weighted slots read in
    place of G.  Weighted slot i reads ``rest[i]`` less alpha_i x_i G, a
    weight-0 slot its rest alone.  Since grad P . Lambda x = 2c P, D' = G D
    ((2c - 1) P - 2c).
    """
    htype = df.htype
    n, par, tc = em.n, em.parabolic, 2 * htype.c
    em.step_locals = [("G", em.poly(df.normal_rate))]
    if par:  # Gs = G (1 - F D), D = P + W - 1
        em.used.update(htype.i_alpha + (n,))
        f, d = _fmt_float((tc - 1) / tc), f"({em.horizon_poly()}) - 1.0 + x{n}"
        em.step_locals.append(("Gs", f"G * (1.0 - {f} * ({d}))"))
    rates = []
    for i, rest in enumerate(df.rest):
        ai = float(htype.alpha[i])
        if i == em.gap_slot or not ai:  # dL/dtau = -G, or weight 0
            rates.append("-G" if ai else em.poly(rest))
            continue
        g = em.term(tuple(int(j == i) for j in range(n + par)), -ai)
        g += "*Gs" if par else "*G"
        rates.append(f"{em.poly(rest)} - {g[1:]}" if rest else g)
    return rates + ([f"-G*x{n}"] if par else [])


def _compile_field(df: "DesingField"):
    """``_compiled``'s functions, then the source, of ``df``; the step's
    rates on either chart come from ``_step_rates``."""
    n, gap = df.n, df.gap_slot
    em = _Emitter(n, 2 * df.htype.beta_full(), df.htype.i_alpha, gap)
    templates = [em.poly(p) for p in df.components + (df.time_factor,)]
    # the Jacobian at gap 0, where a term with a positive power of the gap
    # vanishes
    jac = [(i, j, em.poly(p)) for i in range(n) for j in range(n)
           if (p := {e: c for e, c in df._component_partial(i, j).items()
                     if e[gap] <= 0})]
    time_factor_expr = em.inline(templates[-1])
    templates[:n] = _step_rates(em, df)
    # preambles emitted last: clamping needs are discovered while emitting
    clamp = "".join(f"{t}\n" for _, t in em.clamp("    "))
    # ``_deriv`` gives the first k1 from the step's own expressions
    d_body = ",\n        ".join(em.inline(t) for t in templates[:df.state_dim])
    parts = (
        f"def _time_factor(x{gap}):\n{clamp}    return {time_factor_expr}\n",
        f"def _deriv(z):\n{em.preamble()}\n    return (\n        {d_body},\n    )\n",
        _emit_dop853(em, templates, df.state_dim, df.time_slot, df.htype.k_float),
    )
    # the part of each horizon row that acts on the horizon
    horizon = tuple({e: c for e, c in df.components[i].items() if e[gap] == 0}
                    for i in df.horizon_rows)
    hsrc = _emit_horizon(em, horizon, df.free_slots, jac)
    return _compiled(parts, hsrc) + ("\n".join(parts) + "\n" + hsrc,)


@functools.lru_cache(maxsize=32)
def _compiled(parts: Tuple[str, ...], hsrc: str):
    """``(_time_factor, _deriv, _step, _horizon_rhs, _horizon_jac, _jac)``
    compiled from the generated source, once per distinct source, like
    ``re``'s pattern cache.

    The functions hold no state (their globals are ``power``, ``math``,
    ``DomainError`` and NumPy functions), so fields whose source matches
    byte for byte share them; keying on the source makes a hit exact.
    """
    ns: dict = {"_pw": power, "math": math, "_sqrt": math.sqrt,
                "_exp": math.exp, "_ceil": math.ceil, "_log10": math.log10,
                "_nan": math.nan, "_inf": math.inf, "DomainError": DomainError}
    # one compile per part keeps the compiler's peak memory to the largest
    for part in parts:
        exec(compile(part, "<desing-field>", "exec"), ns)
    hns: dict = {"_pw": np.power, "_empty": np.empty, "_zeros": np.zeros,
                 "_maximum": np.maximum}
    exec(compile(hsrc, "<desing-field-horizon>", "exec"), hns)
    return (ns["_time_factor"], ns["_deriv"], ns["_step"],
            hns["_horizon_rhs"], hns["_horizon_jac"], hns["_jac"])


@dataclass(frozen=True, eq=False)
class DesingField:
    """A desingularized field on a chart, stored as extended monomials.

    ``rest[i]``, ``normal_rate`` and ``time_factor`` map exponent tuples to
    coefficients.  A tuple has one slot per chart coordinate and, on the
    parabolic chart, a slot n for W; ``gap_slot`` is the horizon gap's slot
    (n for W, i0 for a directional chart's s).  The field is g_i = rest_i
    - alpha_i x_i G, with G = ``normal_rate`` the normal rate of the
    horizon gap: ``rest[i]`` is q f~_i on the parabolic chart and f^_i on
    a directional one, where ``rest[i0]`` is empty and ds/dtau = -s G.
    ``components``, g_0 .. g_{n-1}, is derived from them by that one rule
    (a weight-0 slot is its rest); every evaluator but the step reads it.
    The gap's own slot in the integrator's state has the rate -G W for W,
    so W = 0 is invariant like s = 0, and -G for a directional chart's L =
    ln s.  The integrator and
    the search call expressions compiled once per distinct generated
    source per process (bounded LRU); fields with the same source share
    the stateless compiled functions.

    ``rhs_values(coords)`` (g_0, ..., g_{n-1}, dt/dtau) and
    ``jacobian(coords)`` (the exact Jacobian, with the chain rule through
    W) evaluate these terms at chart coordinates (s included; W = 1 - P)
    in the generated code's arithmetic, with no generated code; they raise
    DomainError where an evaluation fails or, for ``jacobian``, an entry is
    not finite.  ``jacobian_array(Z)`` is the generated ``_jac``, the
    Jacobian (m, n, n) at each row of ``Z`` laid out as ``start``'s row
    without t, read at gap 0 alone: it holds only the terms with no
    positive power of the gap.

    ``time_factor_at(gap)`` is the generated dt/dtau, ``rhs_values``' last
    entry, a polynomial in the gap alone (s**k, or q(W) W**k), with no
    check: a failed evaluation raises what Python raises.

    The field owns the integrator's state and what the step decides on
    it.  ``start(coords, t0)`` lays the state out: the coordinates, with
    ln s in place of s on a directional chart, then W on the parabolic
    one, then t (slot ``time_slot``) for an autonomous field.  ``step(z,
    k1, h, tau, tau_end, out, atol, rtol, max_step)`` is the field's
    compiled DOP853 step (``_emit_dop853``), and this module owns the
    sampling rule and the step cut it carries out.  Each weighted slot's
    rate reads the gap's normal rate G, bound once per stage, and on the
    parabolic chart gains F G D alpha_i x_i, which vanishes on P + W = 1
    (``_step_rates``).  From state ``z`` and its derivative ``k1``
    (``state_derivative``) it returns None for a non-finite result or a W
    that changes sign, the error norm alone for a step it rejects, and for
    an accepted one the new state, the error norm, the derivative there,
    the largest |slot| of the new state (s, not ln s), its horizon gap and
    the longest next step the cut allows; an accepted step first appends
    its dense-output samples, at most ``max_step`` apart in tau and 0.1
    decade in the gap, then the new state, to the flat list ``out``.
    ``dynamics.integrate`` owns the rest: the step-size controller, the
    domain retry, the stops and the step budget.

    On the horizon only the terms with no power of the horizon gap act (W on
    the parabolic chart, s on a directional one): those with a zero
    exponent in ``gap_slot``.  ``horizon_rows`` lists the components that
    keep such a term and ``free_slots`` the weighted slots but
    ``gap_slot``.  ``horizon_rhs_array(Z)`` and ``horizon_jacobian_array(Z)``
    are the generated ``_horizon_rhs`` and ``_horizon_jac``: at each row of
    an (m, n) float array they give those rows, then P(x) - 1 on the
    parabolic chart (c = 1), as (m, p + c), and their partials in
    ``free_slots``, as (m, p + c, f): the system a horizon search solves.
    A row outside the domain holds non-finite entries and leaves the other
    rows alone.  They enter no ``np.errstate``: the caller owns it, as the
    search does with one for its whole solve.  ``source_code`` holds all
    the generated source.
    """

    chart: Union[ParabolicChart, DirectionalChart]
    htype: HomogeneityType
    source: FieldSpec
    rest: Tuple[Poly, ...]
    normal_rate: Poly
    time_factor: Poly

    def __post_init__(self):
        gap_slot = (
            self.n if isinstance(self.chart, ParabolicChart) else self.chart.i0
        )
        object.__setattr__(self, "gap_slot", gap_slot)
        # g_i = rest_i - alpha_i x_i G, with alpha_i taken as 1 in s's slot,
        # whose rest is empty: ds/dtau = -s G
        components = []
        for i, rest in enumerate(self.rest):
            a = 1.0 if i == gap_slot else float(self.htype.alpha[i])
            g = dict(rest)
            for key, coeff in _pscale(_pmul_var(self.normal_rate, i, 1), -a).items():
                _padd(g, key, coeff)
            components.append(g)
        object.__setattr__(self, "components", tuple(components))
        # the integrator state's layout (``start``): t' is the time factor
        # of an autonomous field, or slot 0's
        dim = self.n + (gap_slot == self.n) + (not self.nonautonomous)
        object.__setattr__(self, "state_dim", dim)
        object.__setattr__(self, "time_slot", 0 if self.nonautonomous else dim - 1)
        # the components with a term that acts on the horizon
        object.__setattr__(self, "horizon_rows", tuple(
            i for i, p in enumerate(components) if any(e[gap_slot] == 0 for e in p)
        ))
        object.__setattr__(self, "free_slots", tuple(
            i for i in self.htype.i_alpha if i != gap_slot
        ))
        for name, value in zip(("time_factor_at", "_deriv", "step",
                                "horizon_rhs_array", "horizon_jacobian_array",
                                "jacobian_array", "source_code"),
                               _compile_field(self)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.htype.n

    @property
    def nonautonomous(self) -> bool:
        return self.source.nonautonomous

    def _component_partial(self, i: int, j: int) -> Poly:
        """Exact d g_i / d x_j including the chain rule through W, whose
        slot n holds W = 1 - sum_j x_j**(2 beta_j)."""
        p = self.components[i]
        out = _pdiff_var(p, j)
        if self.gap_slot == self.n and j in self.htype.i_alpha:
            tb = int(2 * self.htype.beta_of(j))
            dw = _pdiff_var(p, self.n)
            if dw:
                chain = _pmul_var(dw, j, tb - 1)
                for key, coeff in _pscale(chain, -float(tb)).items():
                    _padd(out, key, coeff)
        return out

    # -- evaluation ------------------------------------------------------

    def _point(self, coords) -> list:
        z = [float(v) for v in coords]
        if len(z) != self.n:
            raise ValueError(f"coords has length {len(z)}, expected {self.n}")
        return z

    @functools.cached_property
    def _terms(self) -> tuple:
        """``_evaluate``'s term lists: P's, summed in i_alpha order as the
        generated code sums it; the components' and the time factor's; the
        Jacobian's entries, row by row."""
        n, tb = self.n, 2 * self.htype.beta_full()
        return (
            tuple((1.0, ((j, int(tb[j])),)) for j in self.htype.i_alpha),
            tuple(_term_list(p, n) for p in self.components + (self.time_factor,)),
            tuple(_term_list(self._component_partial(i, j), n)
                  for i in range(n) for j in range(n)),
        )

    def _evaluated(self, coords, lists) -> list:
        """Each term list of ``lists`` at chart coordinates, after W = 1 - P
        and W's clamp on the parabolic chart."""
        z = self._point(coords)
        try:
            point = z
            if self.gap_slot == self.n:
                w = 1.0 - _evaluate(self._terms[0], z)
                point = z + [w, w if w > 0.0 else 0.0]
            return [_evaluate(t, point) for t in lists]
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise DomainError(f"field evaluation failed at {z}: {exc}") from exc

    def rhs_values(self, coords) -> Tuple[float, ...]:
        """(g_0, ..., g_{n-1}, dt_dtau) at chart coordinates, term by term."""
        return tuple(self._evaluated(coords, self._terms[1]))

    def state_derivative(self, z) -> Tuple[float, ...]:
        """The derivative of an integrator state ``z``, as ``step`` reads
        it for ``k1``: ``z`` holds the coordinates, with ln s in s's slot
        on a directional chart, then W on the parabolic one, then t for an
        autonomous field.  It comes from the step's expressions for that
        state, the gap's slot from ``normal_rate`` (-G W, or -G), so a
        directional chart has no 0/0 at s = 0 (L = -inf), and with the
        step's F G D alpha_i x_i on the parabolic chart."""
        try:
            return self._deriv(z)
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise DomainError(f"field evaluation failed at {z}: {exc}") from exc

    def jacobian(self, coords) -> np.ndarray:
        """d g_i / d x_j at chart coordinates, term by term."""
        n = self.n
        J = np.array(self._evaluated(coords, self._terms[2])).reshape(n, n)
        if not np.isfinite(J).all():
            raise DomainError(f"jacobian not finite at {self._point(coords)}")
        return J

    def horizon_gap(self, coords) -> float:
        return float(self.chart.horizon_gap_of(np.asarray(coords, dtype=float)))

    def start(self, coords, t0: float = 0.0):
        """``(row, z)`` at chart coordinates ``coords``: the state a
        trajectory records first and the step's state.  ``row`` holds the
        coordinates, then W = 1 - P(x) on the parabolic chart, then ``t0``
        for an autonomous field; ``z`` is ``row`` with L = ln s in s's slot
        on a directional chart (-inf for s <= 0, on the horizon).
        ``row[gap_slot]`` is the horizon gap and ``row[time_slot]`` t."""
        x = self._point(coords)
        gap = self.horizon_gap(x)
        row = tuple(x) if self.gap_slot < self.n else (*x, gap)
        if not self.nonautonomous:
            row += (float(t0),)
        if self.gap_slot == self.n:
            return row, row
        ln_s = math.log(gap) if gap > 0.0 else -math.inf
        return row, row[:self.gap_slot] + (ln_s,) + row[self.gap_slot + 1:]


# --------------------------------------------------------------------------
# constructions


def _rescale_exponent(htype: HomogeneityType, i: int, j: int, m: Monomial) -> Real:
    """W/s exponent k + alpha_i - <m, alpha> of monomial j of component i;
    negative means not AQH."""
    w = htype.degree_deficit(i, m)
    if w < 0:
        raise located(NegativeWExponentError(
            f"monomial {m} in component {i} has weighted degree "
            f"{m.weighted_degree(htype.alpha)} > k + alpha_i = "
            f"{_eadd(htype.k, htype.alpha[i])}; "
            f"the field is not asymptotically quasi-homogeneous of this type"
        ), "field", "components", i, j)
    return _canon_e(w)


def build_parabolic_desing(field: FieldSpec, htype: HomogeneityType) -> DesingField:
    """Desingularize a field on the global parabolic chart.

    Raises NegativeWExponentError when the type bound fails, and DomainError
    when a monomial has a negative or fractional exponent on a positively
    weighted variable -- those cross zero inside this chart, so a directional
    chart must be used instead -- or on a weighted time variable.  The
    monomial rules' errors are ``located`` at the field's monomial.
    """
    field.check_weights(htype.alpha)
    n = field.n
    for i, comp in enumerate(field.components):
        for jm, m in enumerate(comp):
            for j in htype.i_alpha:
                e = _canon_e(m.exponents[j])
                if not isinstance(e, int) or e < 0:
                    raise located(DomainError(
                        f"component {i}: exponent {m.exponents[j]} on "
                        f"positively weighted variable "
                        f"'{field.variable_names[j]}' is not valid on the "
                        f"parabolic chart (the variable crosses zero); use a "
                        f"directional chart"
                    ), "field", "components", i, jm, "exponents", j)
    zero = (0,) * n
    ftilde = []
    for i, comp in enumerate(field.components):
        p: Poly = {}
        for j, m in enumerate(comp):
            w = _rescale_exponent(htype, i, j, m)
            _padd(p, tuple(_canon_e(e) for e in m.exponents) + (w,), m.coeff)
        ftilde.append(p)
    tc = 2 * htype.c
    q: Poly = {zero + (0,): 1.0, zero + (1,): -(tc - 1) / tc}
    G: Poly = {}
    for pos, j in enumerate(htype.i_alpha):
        tbj = 2 * htype.beta[pos]
        scaled = _pmul_var(_pscale(ftilde[j], 1.0 / htype.alpha[j]), j, tbj - 1)
        for key, coeff in scaled.items():
            _padd(G, key, coeff)
    return DesingField(
        chart=ParabolicChart(htype=htype),
        htype=htype,
        source=field,
        rest=tuple(_pmul(q, p) for p in ftilde),
        normal_rate=G,
        time_factor=_pmul_var(q, n, htype.k),
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
    DomainError on a weighted time variable, and for each rule on a
    monomial an error ``located`` at it.
    """
    field.check_weights(htype.alpha)
    if chart.htype.alpha != htype.alpha:
        raise ChartDomainError("chart was built for a different type")
    n = field.n
    i0 = chart.i0
    sigma = chart.sign
    a0 = htype.alpha[i0]
    for i, comp in enumerate(field.components):
        for jm, m in enumerate(comp):
            e0 = _canon_e(m.exponents[i0])
            if sigma < 0 and not isinstance(e0, int):
                raise located(ChartDomainError(
                    f"component {i}: fractional exponent {m.exponents[i0]} on "
                    f"the chart variable of a negative chart is complex-valued"
                ), "field", "components", i, jm, "exponents", i0)
            for j in htype.i_alpha:
                if j == i0:
                    continue
                e = _canon_e(m.exponents[j])
                if not isinstance(e, int):
                    raise located(DomainError(
                        f"component {i}: fractional exponent {m.exponents[j]} "
                        f"on variable '{field.variable_names[j]}', which "
                        f"crosses zero inside this chart"
                    ), "field", "components", i, jm, "exponents", j)
    fhat = []
    for i, comp in enumerate(field.components):
        p: Poly = {}
        for j, m in enumerate(comp):
            s_exp = _rescale_exponent(htype, i, j, m)
            e0 = _canon_e(m.exponents[i0])
            if sigma < 0 and isinstance(e0, int) and (e0 % 2):
                coeff = -m.coeff
            else:
                coeff = m.coeff
            exps = [_canon_e(e) for e in m.exponents]
            exps[i0] = s_exp
            _padd(p, tuple(exps), coeff)
        fhat.append(p)
    exps = [0] * n
    exps[i0] = _canon_e(htype.k)
    return DesingField(
        chart=chart,
        htype=htype,
        source=field,
        rest=tuple({} if i == i0 else p for i, p in enumerate(fhat)),
        normal_rate=_pscale(fhat[i0], float(sigma) / a0),
        time_factor={tuple(exps): 1.0},
    )


def build_desing(field: FieldSpec, htype: HomogeneityType, chart) -> DesingField:
    """Desingularize a field on ``chart``, parabolic or directional."""
    if isinstance(chart, ParabolicChart):
        return build_parabolic_desing(field, htype)
    return build_directional_desing(field, htype, chart)
