"""Type classification, weight derivation, and exact degree arithmetic."""

from fractions import Fraction

import numpy as np
import pytest

from horizon_lab import (
    FieldSpec,
    HomogeneityType,
    Monomial,
    NoTypeFound,
    NotAQHError,
    classify_monomials,
    derive_beta,
    eval_field,
    infer_type,
)
from horizon_lab.errors import DomainError
from horizon_lab.homogeneity import power



def m(coeff, *exps):
    return Monomial(coeff=coeff, exponents=tuple(exps))


# ---------------------------------------------------------------------------
# weights


def test_derive_beta_pair():
    beta, c = derive_beta((2, 3))
    assert beta == (3, 2)
    assert c == 6


def test_derive_beta_five_vars():
    # beta is reported for the positively weighted slots, in order
    beta, c = derive_beta((0, 1, 2, 1, 2))
    assert c == 2
    assert beta == (2, 1, 2, 1)


def test_derive_beta_product_identity():
    # alpha_i * beta_i == c exactly on every positively weighted slot
    for alpha in [(1,), (4, 6), (0, 2, 5), (3, 0, 7, 2)]:
        beta, c = derive_beta(alpha)
        weighted = [a for a in alpha if a > 0]
        for a, b in zip(weighted, beta):
            assert a * b == c


def test_derive_beta_needs_positive_weight():
    with pytest.raises(ValueError):
        derive_beta((0, 0))


def test_htype_derives_weights_and_exponents():
    ht = HomogeneityType(alpha=(0, 2, 5), k=3)
    assert ht.c == 10
    assert ht.beta == (5, 2)
    assert list(ht.beta_full()) == [0, 5, 2]
    assert ht.i_alpha == (1, 2)
    # type-I exponents -alpha_i/k stay exact rationals
    assert ht.blowup_exponent(1) == Fraction(-2, 3)
    assert ht.blowup_exponent(2) == Fraction(-5, 3)


def test_htype_rejects_bad_weights():
    with pytest.raises(ValueError):
        HomogeneityType(alpha=(0, 0), k=1)
    with pytest.raises(ValueError):
        HomogeneityType(alpha=(-1, 2), k=1)
    with pytest.raises(DomainError):
        HomogeneityType(alpha=(1,), k=0)
    with pytest.raises(ValueError):
        HomogeneityType(alpha=(1.5,), k=1)


@pytest.mark.parametrize(
    "alpha",
    [(2**63,), (0, 2, 2**62 + 3)],
    ids=["alpha_beyond_int64", "two_beta_beyond_int64"],
)
def test_htype_rejects_weights_beyond_int64(alpha):
    # 2 * beta_full() of (0, 2, 2**62 + 3) would wrap to a negative W power
    with pytest.raises(DomainError, match="2\\*\\*63 - 1"):
        HomogeneityType(alpha=alpha, k=1)


def test_htype_keeps_weights_at_the_int64_bound():
    ht = HomogeneityType(alpha=(2**63 - 1,), k=1)
    assert list(2 * ht.beta_full()) == [2]
    ht = HomogeneityType(alpha=(2, 2**62 - 1), k=1)  # odd: c = 2**63 - 2
    assert list(2 * ht.beta_full()) == [2**63 - 2, 4]


# ---------------------------------------------------------------------------
# guarded power


def test_power_basic():
    assert power(2.0, 3) == 8.0
    assert power(-2.0, 2) == 4.0
    assert power(0.0, 1.5) == 0.0


def test_power_rejects_negative_base_fractional_exponent():
    with pytest.raises(DomainError):
        power(-8.0, Fraction(1, 3))


def test_power_rejects_zero_to_negative():
    with pytest.raises(DomainError):
        power(0.0, -1)


# ---------------------------------------------------------------------------
# monomials


def test_monomial_weighted_degree_exact():
    mono = m(1.0, 2, 1)
    # <m, alpha> with alpha=(2,3) is 2*2 + 1*3 = 7, exactly
    assert mono.weighted_degree((2, 3)) == 7


def test_monomial_fractional_exponents_stay_rational():
    mono = Monomial(coeff=1.0, exponents=(Fraction(3, 2),))
    assert mono.weighted_degree((2,)) == Fraction(3, 1)


def test_monomial_float_weighted_degree_sums_left_to_right():
    # a compensated sum (Python 3.12's builtin sum) would give 1.0
    mono = Monomial(1.0, (0.1,) * 10)
    assert mono.weighted_degree((1,) * 10) == 0.9999999999999999


def test_field_spec_validates_shapes():
    with pytest.raises(ValueError):
        FieldSpec(variable_names=("x", "x"), components=((), ()))
    with pytest.raises(ValueError):
        FieldSpec(variable_names=("x", "y"), components=((m(1.0, 2),), ()))


def test_eval_field_matches_hand_value():
    # f = (y1*y2, 3*y1^2 - y2) at (2, 5)
    fs = FieldSpec(
        variable_names=("y1", "y2"),
        components=((m(1.0, 1, 1),), (m(3.0, 2, 0), m(-1.0, 0, 1))),
    )
    out = eval_field(fs, [2.0, 5.0])
    assert out == pytest.approx([10.0, 7.0], abs=0.0)


# ---------------------------------------------------------------------------
# classification fixtures: the four systems with published types


def painleve_spec():
    return FieldSpec(
        variable_names=("chi", "u", "v"),
        components=(
            (m(1.0, 0, 0, 0),),
            (m(1.0, 0, 0, 1),),
            (m(6.0, 0, 2, 0), m(1.0, 1, 0, 0)),
        ),
        nonautonomous=True,
    )


def test_classify_painleve():
    rep = classify_monomials(painleve_spec(), HomogeneityType(alpha=(0, 2, 3), k=1))
    assert rep.valid
    assert rep.principal == ((), (0,), (0,))  # v in u', 6u^2 in v'
    assert rep.residual == ((0,), (), (1,))   # dt/dt=1 and the bare t term


def test_classify_kk():
    fs = FieldSpec(
        variable_names=("chi", "u1", "u2", "w1", "w2"),
        components=(
            (),
            (m(1.0, 0, 2, 0, 0, 0), m(-1.0, 0, 0, 1, 0, 0), m(-1.0, 1, 1, 0, 0, 0), m(-1.0, 0, 0, 0, 1, 0)),
            (m(1.0 / 3.0, 0, 3, 0, 0, 0), m(-1.0, 0, 1, 0, 0, 0), m(-1.0, 1, 0, 1, 0, 0), m(-1.0, 0, 0, 0, 0, 1)),
            (),
            (),
        ),
    )
    rep = classify_monomials(fs, HomogeneityType(alpha=(0, 1, 2, 1, 2), k=1))
    assert rep.valid
    # u1^2 and u2 are top degree in u1'; u1^3/3 is top degree in u2'
    assert rep.principal[1] == (0, 1)
    assert rep.principal[2] == (0,)
    assert rep.residual[1] == (2, 3)


def test_classify_selfsimilar_noninteger_order():
    m_par = -1.0
    fs = FieldSpec(
        variable_names=("chi", "u", "v"),
        components=(
            (m(1.0, 0, 0, 0),),
            (m(1.0, 0, 1 - m_par, 1),),
            (m(-1.0, 0, 1, 0), m(-1.0, 1, 0, 1)),
        ),
        nonautonomous=True,
    )
    ht = HomogeneityType(alpha=(0, 1, 1), k=1 - m_par)
    rep = classify_monomials(fs, ht)
    assert rep.valid
    assert rep.principal[1] == (0,)  # u^{1-m} v scales exactly at order k + 1


def test_classify_mems():
    p, q = 2, 1.0
    fs = FieldSpec(
        variable_names=("r", "w", "v"),
        components=(
            (m(1.0, 0, 0, 0),),
            (m(1.0, 0, 0, 1),),
            (m(-2.0, -1, 0, 1), m(-1.0, q, p + 2, 0), m(2.0, 0, -1, 2)),
        ),
        nonautonomous=True,
    )
    rep = classify_monomials(fs, HomogeneityType(alpha=(0, 2, p + 3), k=p + 1))
    assert rep.valid
    # w' = v is principal; in v' both the forcing and 2v^2/w are principal
    assert rep.principal[1] == (0,)
    assert 2 in rep.principal[2]


def test_classification_violation_raises_with_report():
    fs = FieldSpec(
        variable_names=("y",),
        components=((m(1.0, 2), m(1.0, 5)),),
    )
    with pytest.raises(NotAQHError) as exc_info:
        classify_monomials(fs, HomogeneityType(alpha=(1,), k=1))
    err = exc_info.value
    assert err.violations == ((0, 1),)
    assert err.report.violations == ((0, 1),)


@pytest.mark.parametrize("alpha, error, path", [
    ((2, 3), ValueError, ("alpha",)),       # two weights for three variables
    ((1, 2, 3), DomainError, ("alpha", 0)),  # a weighted time variable
], ids=["a weight per variable", "a zero time weight"])
def test_classification_checks_the_weights_against_the_field(alpha, error, path):
    # the field states its weight rules once (FieldSpec.check_weights), and
    # classifying under weights that break one raises its located error
    with pytest.raises(error) as exc_info:
        classify_monomials(painleve_spec(), HomogeneityType(alpha=alpha, k=1))
    assert type(exc_info.value) is error
    assert exc_info.value.path == path


def test_linear_field_is_residual_everywhere():
    # f(y) = y against alpha=(1), k=2: degree 1 < k + alpha = 3, so no
    # violation, but nothing principal either: the term is residual.
    fs = FieldSpec(variable_names=("y",), components=((m(1.0, 1),),))
    rep = classify_monomials(fs, HomogeneityType(alpha=(1,), k=2))
    assert rep.valid
    assert rep.principal == ((),)
    assert rep.residual == ((0,),)


def test_principal_monomials_scale_exactly():
    """Principal terms obey f_m(s^alpha * x) = s^(k+alpha_i) f_m(x)."""
    fs = painleve_spec()
    ht = HomogeneityType(alpha=(0, 2, 3), k=1)
    rep = classify_monomials(fs, ht)
    rng = np.random.default_rng(3)
    x = rng.uniform(0.5, 1.5, size=3)
    alpha = np.array(ht.alpha, dtype=float)
    for i, comp in enumerate(fs.components):
        for j in rep.principal[i]:
            mono = comp[j]
            base = mono.coeff * np.prod(x ** np.array(mono.exponents, float))
            for s in (2.0, 10.0, 100.0):
                scaled_x = s**alpha * x
                scaled = mono.coeff * np.prod(
                    scaled_x ** np.array(mono.exponents, float)
                )
                target = s ** (ht.k_float + alpha[i]) * base
                assert scaled == pytest.approx(target, rel=1e-10)


# ---------------------------------------------------------------------------
# type inference


def test_infer_scalar_quadratic():
    fs = FieldSpec(variable_names=("y",), components=((m(1.0, 2),),))
    cands = infer_type(fs, alpha_max=6)
    assert HomogeneityType(alpha=(1,), k=1) in cands
    # sorted by k descending
    ks = [float(c.k) for c in cands]
    assert ks == sorted(ks, reverse=True)


def test_infer_first_candidate_classifies_cleanly():
    fs = painleve_spec()
    cands = infer_type(fs, alpha_max=6)
    rep = classify_monomials(fs, cands[0])
    assert rep.violations == ()


def test_infer_recovers_painleve():
    cands = infer_type(painleve_spec(), alpha_max=6)
    match = [c for c in cands if c.alpha == (0, 2, 3)]
    assert match and float(match[0].k) == 1.0


def test_infer_nonautonomous_pins_time_weight():
    cands = infer_type(painleve_spec(), alpha_max=4)
    assert all(c.alpha[0] == 0 for c in cands)


def test_infer_no_candidate():
    # a constant field admits no positive order
    fs = FieldSpec(variable_names=("y",), components=((m(1.0, 0),),))
    with pytest.raises(NoTypeFound):
        infer_type(fs, alpha_max=3)
