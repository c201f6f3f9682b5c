"""Type inference's one NumPy pass against the per-vector reference.

``_reference_infer_type`` is the implementation the ranked NumPy pass
replaced, kept here verbatim: an int64 matrix product for fields whose
exponents are all ints, and a per-vector loop over
``Monomial.weighted_degree`` for every other field.  Both build and sort a
``HomogeneityType`` per admissible weight vector.
"""

import itertools
import tracemalloc
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest

from horizon_lab import FieldSpec, HomogeneityType, Monomial, NoTypeFound, infer_type
from horizon_lab.homogeneity import Real, _degree_cmp, _exactify
from horizon_lab.systems import EXAMPLES, selfsimilar


def _reference_infer_type(field: FieldSpec, alpha_max: int) -> list:
    if alpha_max < 1:
        raise ValueError("alpha_max must be >= 1")
    n = field.n
    has_monomials = any(field.components)
    if not has_monomials:
        raise NoTypeFound("field has no monomials; no homogeneity type exists")
    ranges = [range(alpha_max + 1)] * n
    if field.nonautonomous:
        ranges[0] = range(1)

    monos = []
    comp_of = []
    for i, monomials in enumerate(field.components):
        for m in monomials:
            monos.append(m)
            comp_of.append(i)
    all_int = all(isinstance(e, int) for m in monos for e in m.exponents)

    found = []
    if all_int:
        # every candidate order is max <m, alpha> - alpha_i over monomials,
        # which one matrix product yields for the whole weight grid at once
        E = np.asarray([m.exponents for m in monos], dtype=np.int64)
        comp = np.asarray(comp_of, dtype=np.int64)
        A = np.asarray(list(itertools.product(*ranges)), dtype=np.int64)
        A = A[A.any(axis=1)]
        ks = (A @ E.T - A[:, comp]).max(axis=1)
        keep = ks > 0
        for row, k in zip(A[keep], ks[keep]):
            found.append(
                HomogeneityType(alpha=tuple(int(v) for v in row), k=int(k))
            )
    else:
        for alpha in itertools.product(*ranges):
            if not any(alpha):
                continue
            k: Optional[Real] = None
            for i, m in zip(comp_of, monos):
                cand = m.weighted_degree(alpha)
                cand = (
                    cand - alpha[i]
                    if isinstance(cand, Fraction)
                    else float(cand) - alpha[i]
                )
                if k is None or _degree_cmp(cand, k) > 0:
                    k = cand
            if k is None or float(k) <= 0:
                continue
            found.append(HomogeneityType(alpha=alpha, k=k))
    if not found:
        raise NoTypeFound(
            f"no weight vector in [0, {alpha_max}]^{n} admits a positive order"
        )
    found.sort(key=lambda h: (-h.k_float, sum(h.alpha), h.alpha))
    return found


# exponent pools, one per kind the inference distinguishes
_POOLS = {
    "int": [0, 0, 1, 2, 3, -1, 4],
    "rational": [0, 1, 2, Fraction(1, 3), Fraction(5, 2), Fraction(-2, 7), 3],
    "nice_float": [0.0, 1.0, 2.0, 0.5, 1.75, -0.25, 3],
    "float": [0, 1, 2, 0.1, 1.0 / 3.0, 2.3, -0.7],
}


def _random_field(rng, kind, nonautonomous):
    n = int(rng.integers(2 if nonautonomous else 1, 4))
    pool = _POOLS[kind]
    comps = []
    for i in range(n):
        if nonautonomous and i == 0:
            comps.append((Monomial(1.0, (0,) * n),))
            continue
        comps.append(tuple(
            Monomial(
                float(rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0])),
                tuple(pool[int(rng.integers(len(pool)))] for _ in range(n)),
            )
            for _ in range(int(rng.integers(1, 4)))
        ))
    names = tuple(f"x{j}" for j in range(n))
    return FieldSpec(names, tuple(comps), nonautonomous=nonautonomous)


def _assert_same_ranking(field, alpha_max):
    try:
        ref = _reference_infer_type(field, alpha_max)
    except NoTypeFound:
        with pytest.raises(NoTypeFound):
            infer_type(field, alpha_max)
        return
    got = infer_type(field, alpha_max)
    assert len(got) == len(ref)
    assert [h.alpha for h in got] == [h.alpha for h in ref]
    nice = all(
        _exactify(e) is not None
        for ms in field.components for mono in ms for e in mono.exponents
    )
    if nice:
        assert [(h.k, type(h.k)) for h in got] == [(h.k, type(h.k)) for h in ref]
    else:
        for h, r in zip(got, ref):
            assert h.k_float == pytest.approx(r.k_float, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind", sorted(_POOLS))
@pytest.mark.parametrize("nonautonomous", [False, True])
def test_ranking_matches_reference(kind, nonautonomous):
    rng = np.random.default_rng([len(kind), nonautonomous])
    for _ in range(60):
        field = _random_field(rng, kind, nonautonomous)
        _assert_same_ranking(field, int(rng.integers(1, 6)))


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_examples_match_reference(name):
    _assert_same_ranking(EXAMPLES[name]().field, 6)


def test_large_common_denominator_stays_exact():
    # the exponents' common denominator p*q*r is about 1e18, so the scaled
    # exponent 3 + 1/q is about 3e18 and its degree at alpha 4 passes int64
    p, q, r = 999983, 999979, 999961
    field = FieldSpec(("x", "y"), (
        (Monomial(1.0, (Fraction(1, p), 2)),),
        (Monomial(1.0, (3 + Fraction(1, q), Fraction(1, r))),),
    ))
    _assert_same_ranking(field, 4)
    assert infer_type(field, 4)[0] == HomogeneityType(
        alpha=(4, 0), k=12 + Fraction(4, q)
    )


def test_candidates_are_built_when_read():
    field = FieldSpec(("x", "y"), ((Monomial(1.0, (0, 2)),), (Monomial(1.0, (2, 0)),)))
    cands = infer_type(field, 3)
    assert not isinstance(cands, list)
    assert cands[0] == cands[-len(cands)] == list(cands)[0]
    assert cands[1:3] == list(cands)[1:3]
    with pytest.raises(IndexError):
        cands[len(cands)]


# (field, free weights) at parse_config's bound of 10^6 weight vectors
_AT_BOUND = {
    "int": (FieldSpec(("x", "y"), ((Monomial(1.0, (0, 2)),), (Monomial(1.0, (2, 0)),))), 999),
    "nice_float": (selfsimilar().field, 999),
    "float": (selfsimilar(m=-0.3).field, 999),
}


@pytest.mark.parametrize("kind", sorted(_AT_BOUND))
def test_inference_memory_at_the_bound(kind):
    field, alpha_max = _AT_BOUND[kind]
    tracemalloc.start()
    try:
        cands = infer_type(field, alpha_max)
        best, count = cands[0], len(cands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 999_999 and max(best.alpha) == alpha_max
    # 48.0 MB measured for each kind with NumPy 2.4
    assert peak < 60e6, f"traced peak {peak / 1e6:.1f} MB"
