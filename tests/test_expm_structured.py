"""Tests for the closed-form exponential routes, each checked against the
series oracle and, where one exists, an independent second formula."""

import importlib
import math

import numpy as np
import pytest

from structexp import (
    ForcedClassMismatch,
    basis_matrix,
    classify,
    expm_auto,
    expm_series,
    extract_symmetric_rep,
    minimal_poly_skewT,
    rel_error,
)
from structexp.classify import SpecialNormal, SymmetricGeneral, SymToeplitzTridiag
from structexp.expm_structured import (
    exp_bisymmetric_rs,
    exp_ham_sym_persym,
    exp_jordan,
    exp_lie,
    exp_p4_complex,
    exp_perskewsymmetric,
    exp_skew_hamiltonian,
    exp_skew_symmetric,
    exp_so4_complex,
    exp_special_normal,
    exp_structured_class,
    exp_sym_toeplitz_s13,
    exp_sym_toeplitz_tridiag,
    exp_symmetric_general,
)
from structexp.hxh import I22, J4, R4

from conftest import COMPLEX_FAMILY_TAGS, REAL_FAMILY_TAGS, sample_family, u17

COS1 = 0.5403023058681398
SIN1 = 0.8414709848078965
COSH2 = 3.7621956910836305
SINH2 = 3.626860407847018


# ------------------------------------------------------------ individual routes


def test_skew_symmetric_zero_and_quarter_turn():
    assert np.allclose(exp_skew_symmetric((0, 0, 0), (0, 0, 0)), np.eye(4))
    got = exp_skew_symmetric((0, 0, 0), (0, math.pi / 2, 0))
    assert np.linalg.norm(got - J4) < 1e-15


def test_skew_symmetric_lands_in_so4():
    rng = np.random.default_rng(61)
    for _ in range(50):
        g = exp_skew_symmetric(u17(rng, 3), u17(rng, 3))
        assert np.linalg.norm(g.T @ g - np.eye(4)) < 1e-13
        assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-12)


def test_perskewsymmetric_single_rotation():
    got = exp_perskewsymmetric((0, 0, 0), 1.0, (0, 0, 0), 0.0)
    want = COS1 * np.eye(4) + SIN1 * basis_matrix(2, 0)
    assert np.linalg.norm(got - want) < 1e-14


def test_perskewsymmetric_preserves_r4_form():
    rng = np.random.default_rng(62)
    for _ in range(50):
        p = u17(rng, 3)
        p[1] = 0.0
        q = u17(rng, 3)
        q[0] = 0.0
        g = exp_perskewsymmetric(p, u17(rng), q, u17(rng))
        assert np.linalg.norm(g.T @ R4 @ g - R4) < 1e-12


def test_skew_hamiltonian_branches():
    assert np.allclose(exp_skew_hamiltonian(1.0, (0, 0, 0), 0.0, 0.0),
                       math.e * np.eye(4))
    got = exp_skew_hamiltonian(0.0, (0, 0, 0), 1.0, 0.0)
    want = COS1 * np.eye(4) + SIN1 * basis_matrix(0, 1)
    assert np.linalg.norm(got - want) < 1e-14
    # p(x)j squares to +|p|^2, so this side is hyperbolic
    got = exp_skew_hamiltonian(0.0, (2.0, 0.0, 0.0), 0.0, 0.0)
    want = COSH2 * np.eye(4) + SINH2 * basis_matrix(1, 2)
    assert np.linalg.norm(got - want) < 1e-13


def test_jordan_simple_rotation():
    got = exp_jordan(1, 0.0, 1.0, 0.0, (0.0, 0.0, 0.0))
    want = COS1 * np.eye(4) + SIN1 * basis_matrix(0, 1)
    assert np.linalg.norm(got - want) < 1e-14
    assert np.allclose(exp_jordan(3, 0.5, 0.0, 0.0, (0, 0, 0)),
                       math.exp(0.5) * np.eye(4))


def test_jordan_all_classes_match_oracle():
    rng = np.random.default_rng(63)
    for k in range(1, 6):
        for _ in range(50):
            a, b, c = u17(rng), u17(rng), u17(rng)
            vec = u17(rng, 3)
            got = exp_jordan(k, a, b, c, vec)
            from structexp.classify import Jordan
            back = Jordan(k, a, b, c, tuple(vec)).reconstruct()
            assert rel_error(got, expm_series(back)) < 1e-12


def test_lie_identity_and_i22_form():
    assert np.allclose(exp_lie(1, 0.0, 0.0, (0, 0, 0), (0, 0, 0)), np.eye(4))
    rng = np.random.default_rng(64)
    for _ in range(50):
        p = u17(rng, 3)
        p[0] = 0.0
        q = u17(rng, 3)
        q[0] = 0.0
        g = exp_lie(1, u17(rng), u17(rng), p, q)
        assert np.linalg.norm(g.T @ I22 @ g - I22) < 1e-12


def test_lie_all_classes_match_oracle():
    rng = np.random.default_rng(65)
    from structexp.classify import LIE_FORMS, Lie
    for k in LIE_FORMS:
        for _ in range(50):
            x, y = LIE_FORMS[k]
            p = u17(rng, 3)
            p[x - 1] = 0.0
            q = u17(rng, 3)
            q[y - 1] = 0.0
            a, b = u17(rng), u17(rng)
            got = exp_lie(k, a, b, p, q)
            back = Lie(k, a, b, tuple(p), tuple(q)).reconstruct()
            assert rel_error(got, expm_series(back)) < 1e-11


def test_ham_sym_persym_pure_beta():
    got = exp_ham_sym_persym(2.0, 0.0, 0.0)
    assert np.linalg.norm(got - (COSH2 * np.eye(4) + SINH2 * R4)) < 1e-13


def test_ham_sym_persym_is_spd():
    rng = np.random.default_rng(66)
    for _ in range(50):
        g = exp_ham_sym_persym(u17(rng), u17(rng), u17(rng))
        assert np.linalg.norm(g - g.T) < 1e-13
        assert np.min(np.linalg.eigvalsh((g + g.T) / 2.0)) > 0.0


def _tridiag_eigen_exp(a, b):
    # classical spectrum of the symmetric tridiagonal Toeplitz matrix
    ks = np.arange(1, 5)
    lam = a + 2.0 * b * np.cos(ks * math.pi / 5.0)
    v = np.array([[math.sin(j * k * math.pi / 5.0) for k in ks]
                  for j in range(1, 5)])
    v /= np.linalg.norm(v, axis=0)
    return v @ np.diag(np.exp(lam)) @ v.T


def test_tridiag_scalar_and_eigen_oracle():
    assert np.allclose(exp_sym_toeplitz_tridiag(0.7, 0.0),
                       math.exp(0.7) * np.eye(4))
    for a, b in ((0.0, 1.0), (0.3, -0.8), (-0.5, 2.0)):
        got = exp_sym_toeplitz_tridiag(a, b)
        assert np.linalg.norm(got - _tridiag_eigen_exp(a, b)) < 1e-12


def test_s13_zero_variant():
    assert np.allclose(exp_sym_toeplitz_s13(0.4, 0.0, 0.0),
                       math.exp(0.4) * np.eye(4))
    a, b, c = 0.0, 1.0, 2.0
    got = exp_sym_toeplitz_s13(a, b, c)
    from structexp.classify import SymToeplitzS13Zero
    back = SymToeplitzS13Zero(a, b, c).reconstruct()
    assert rel_error(got, expm_series(back)) < 1e-12


def test_special_normal_zero_skew_left():
    # s = 0 subcase: the rank-one symmetric block may pair any left factor
    inst = SpecialNormal(0.3, (0.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                         (0.0, 1.2, 0.0), (0.7, -0.4, 0.2))
    a = inst.reconstruct()
    assert np.linalg.norm(a @ a.T - a.T @ a) < 1e-12
    assert any(i.tag == "SpecialNormal" for i in classify(a))
    assert rel_error(exp_special_normal(inst), expm_series(a)) < 1e-11


def test_special_normal_generic_and_normality():
    rng = np.random.default_rng(67)
    for _ in range(50):
        a = sample_family("SpecialNormal", rng)
        inst = next(i for i in classify(a) if i.tag == "SpecialNormal")
        e = exp_special_normal(inst)
        assert rel_error(e, expm_series(a)) < 1e-10
        assert np.linalg.norm(e @ e.T - e.T @ e) < 1e-11 * (1 + np.linalg.norm(e)) ** 2


def test_bisymmetric_pure_scalar_factor():
    from structexp.classify import BisymmetricRS
    inst = BisymmetricRS(0.7, 0.0, 0.0, 0.0, 0.0, 0.0)
    got = exp_bisymmetric_rs(inst)
    want = math.cosh(0.7) * np.eye(4) + math.sinh(0.7) * R4
    assert np.linalg.norm(got - want) < 1e-14


def test_bisymmetric_random_stays_bisymmetric():
    rng = np.random.default_rng(68)
    for _ in range(50):
        a = sample_family("BisymmetricRS", rng)
        inst = next(i for i in classify(a) if i.tag == "BisymmetricRS")
        e = exp_bisymmetric_rs(inst)
        assert rel_error(e, expm_series(a)) < 1e-10
        assert np.linalg.norm(e - e.T) < 1e-12 * (1 + np.linalg.norm(e))
        assert np.linalg.norm(R4 @ e @ R4 - e.T) < 1e-12 * (1 + np.linalg.norm(e))


def test_bisymmetric_agrees_with_general_symmetric_route():
    rng = np.random.default_rng(69)
    for _ in range(25):
        a = sample_family("BisymmetricRS", rng)
        inst = next(i for i in classify(a) if i.tag == "BisymmetricRS")
        via_rs = exp_bisymmetric_rs(inst)
        via_sym = exp_symmetric_general(*extract_symmetric_rep(a))
        assert np.linalg.norm(via_rs - via_sym) < 1e-11 * (1 + np.linalg.norm(via_rs))


def test_symmetric_general_scalar_and_spd():
    assert np.allclose(exp_symmetric_general(0.9, (0, 0, 0), (0, 0, 0), (0, 0, 0)),
                       math.exp(0.9) * np.eye(4))
    rng = np.random.default_rng(70)
    for _ in range(50):
        m = rng.uniform(-1.0, 1.0, (4, 4))
        s = m + m.T
        e = exp_symmetric_general(*extract_symmetric_rep(s))
        assert rel_error(e, expm_series(s)) < 1e-10
        assert np.linalg.norm(e - e.T) < 1e-11 * (1 + np.linalg.norm(e))
        assert np.min(np.linalg.eigvalsh((e + e.T) / 2.0)) > 0.0


def _orthogonal(rng, det):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * (det * np.sign(np.linalg.det(q)))


# pure blocks [p|q|r] where the spectral sum has no slack: zero and
# rank-deficient blocks, repeated singular values, and both signs of
# det U det V (the sign of det [p|q|r] when it is invertible)
SYMMETRIC_GENERAL_BLOCKS = {
    "zero": lambda rng: np.zeros((3, 3)),
    "rank_one": lambda rng: np.outer(rng.uniform(-1.5, 1.5, 3), rng.uniform(-1.5, 1.5, 3)),
    "rank_two": lambda rng: _orthogonal(rng, 1.0) @ np.diag([1.5, 0.7, 0.0])
    @ _orthogonal(rng, 1.0).T,
    "repeated_sigma_det_plus": lambda rng: 1.3 * _orthogonal(rng, 1.0),
    "repeated_sigma_det_minus": lambda rng: 1.3 * _orthogonal(rng, -1.0),
    "det_plus": lambda rng: _orthogonal(rng, 1.0) @ np.diag([2.0, 1.0, 0.4])
    @ _orthogonal(rng, 1.0).T,
    "det_minus": lambda rng: _orthogonal(rng, -1.0) @ np.diag([2.0, 1.0, 0.4])
    @ _orthogonal(rng, 1.0).T,
}


@pytest.mark.parametrize("scale", [1, 30])
@pytest.mark.parametrize("block", list(SYMMETRIC_GENERAL_BLOCKS))
def test_symmetric_general_degenerate_blocks_match_oracle(block, scale):
    rng = np.random.default_rng(80)
    for _ in range(10):
        b = SYMMETRIC_GENERAL_BLOCKS[block](rng)
        if block.startswith("det_") or block.startswith("repeated_"):
            assert np.sign(np.linalg.det(b)) == (1.0 if block.endswith("plus") else -1.0)
        a = scale * SymmetricGeneral(rng.uniform(-1.0, 1.0), *map(tuple, b.T)).reconstruct()
        r = expm_auto(a, method="SymmetricGeneral")
        assert r.route == "SymmetricGeneral"
        assert rel_error(r.value, expm_series(a)) < 1e-10, (block, scale)


def test_complex_routes_specialize_to_real():
    assert np.allclose(exp_so4_complex(0, 0, 0, 0, 0, 0), np.eye(4))
    rng = np.random.default_rng(71)
    p = u17(rng, 3)
    q = u17(rng, 3)
    real = exp_skew_symmetric(p, q)
    cplx = exp_so4_complex(*(p + 0j), *(q + 0j))
    assert np.linalg.norm(cplx - real) < 1e-12

    p2 = u17(rng, 3)
    p2[1] = 0.0
    q2 = u17(rng, 3)
    q2[0] = 0.0
    al, be = u17(rng), u17(rng)
    real = exp_perskewsymmetric(p2, al, q2, be)
    cplx = exp_p4_complex(p2 + 0j, complex(al), q2 + 0j, complex(be))
    assert np.linalg.norm(cplx - real) < 1e-12


def test_complex_routes_match_oracle():
    rng = np.random.default_rng(72)
    for tag in COMPLEX_FAMILY_TAGS:
        for _ in range(50):
            a = sample_family(tag, rng)
            inst = next(i for i in classify(a) if i.tag == tag)
            assert rel_error(exp_structured_class(inst), expm_series(a)) < 1e-10


# -------------------------------------------------------- annihilating quartic


def _skew_pair_matrix(s, t):
    from structexp.classify import SkewSymmetric
    return SkewSymmetric(tuple(s), tuple(t)).reconstruct()


def test_minimal_poly_examples():
    mp = minimal_poly_skewT((1, 0, 0), (0, 0, 0))
    assert mp.coefficients == (1.0, 0.0, 2.0, 0.0, 1.0)
    assert mp.degree == 2
    mp = minimal_poly_skewT((1, 0, 0), (0, 1, 0))
    assert mp.coefficients == (1.0, 0.0, 4.0, 0.0, 0.0)
    assert mp.degree == 3
    mp = minimal_poly_skewT((2, 0, 0), (0, 1, 0))
    assert mp.coefficients == (1.0, 0.0, 10.0, 0.0, 9.0)
    assert mp.degree == 4
    assert minimal_poly_skewT((0, 0, 0), (0, 0, 0)).degree == 1


def test_minimal_poly_annihilates():
    rng = np.random.default_rng(73)
    for _ in range(50):
        s, t = u17(rng, 3), u17(rng, 3)
        m = _skew_pair_matrix(s, t)
        c = minimal_poly_skewT(s, t).coefficients
        m2 = m @ m
        res = m2 @ m2 + c[2] * m2 + c[4] * np.eye(4)
        assert np.linalg.norm(res) < 1e-12 * (1.0 + np.linalg.norm(m) ** 4)


# ------------------------------------------------------------------- dispatcher


def test_every_family_route_matches_oracle():
    rng = np.random.default_rng(74)
    for tag in REAL_FAMILY_TAGS:
        for _ in range(50):
            a = sample_family(tag, rng)
            inst = next(i for i in classify(a) if i.tag == tag)
            assert rel_error(exp_structured_class(inst), expm_series(a)) < 1e-10, tag


SCALES = (1, 5, 10, 20, 30)


@pytest.mark.parametrize("tag", REAL_FAMILY_TAGS + COMPLEX_FAMILY_TAGS)
def test_forced_route_matches_oracle_at_scale(tag):
    # the conftest samplers keep parameter norms below 3; scaled up to x30
    rng = np.random.default_rng(76)
    for scale in SCALES:
        for _ in range(20):
            a = scale * sample_family(tag, rng)
            got = expm_auto(a, method=tag).value
            assert rel_error(got, expm_series(a)) < 1e-10, (tag, scale)


def test_exp_structured_class_rejects_unknown():
    with pytest.raises(TypeError):
        exp_structured_class(object())


def test_semigroup_on_doubled_member():
    rng = np.random.default_rng(75)
    for tag in REAL_FAMILY_TAGS:
        a = sample_family(tag, rng)
        e1 = expm_auto(a).value
        e2 = expm_auto(2.0 * a).value
        assert rel_error(e1 @ e1, e2) < 1e-10, tag


# -------------------------------------------------------------------- expm_auto


def test_expm_auto_picks_skew_symmetric():
    th = 0.6
    r = expm_auto(th * J4)
    assert r.route == "SkewSymmetric"
    want = math.cos(th) * np.eye(4) + math.sin(th) * J4
    assert np.linalg.norm(r.value - want) < 1e-13
    assert r.verified is None


def test_expm_auto_dense_falls_back_to_oracle():
    rng = np.random.default_rng(76)
    a = rng.uniform(-1.0, 1.0, (4, 4))
    r = expm_auto(a, verify=True)
    assert r.route == "oracle"
    assert isinstance(r.verified, float)
    assert r.verified == 0.0


def test_expm_auto_priority_on_tridiagonal():
    a = sample_family("SymToeplitzTridiag", np.random.default_rng(77))
    r = expm_auto(a, verify=True)
    assert r.route == "SymToeplitzTridiag"
    assert r.verified < 1e-11


def test_expm_auto_forced_route():
    a = sample_family("Perskewsymmetric", np.random.default_rng(78))
    r = expm_auto(a, method="Perskewsymmetric", verify=True)
    assert r.route == "Perskewsymmetric"
    assert r.verified < 1e-11
    with pytest.raises(ForcedClassMismatch) as exc:
        expm_auto(a, method="SymToeplitzTridiag")
    assert exc.value.tag == "SymToeplitzTridiag"
    assert exc.value.residual > 1e-3


def test_expm_auto_oracle_method_and_validation():
    a = sample_family("SkewSymmetric", np.random.default_rng(79))
    assert expm_auto(a, method="oracle").route == "oracle"
    with pytest.raises(ValueError):
        expm_auto(a, method="NoSuchClass")
    with pytest.raises(ValueError):
        expm_auto(np.eye(3))


class _HandWrittenExtractorRan(Exception):
    pass


def test_auto_runs_no_hand_written_extractor_before_a_table_match(monkeypatch):
    cls_mod = importlib.import_module("structexp.classify")

    def refuse(*args):
        raise _HandWrittenExtractorRan

    monkeypatch.setattr(cls_mod, "REAL_REGISTRY", [
        (tag, refuse if tag in ("SpecialNormal", "BisymmetricRS") else extract)
        for tag, extract in cls_mod.REAL_REGISTRY])
    rng = np.random.default_rng(78)
    # every family dispatched before the hand-written fits
    table_first = [tag for tag in REAL_FAMILY_TAGS + COMPLEX_FAMILY_TAGS
                   if tag not in ("SpecialNormal", "BisymmetricRS", "SymmetricGeneral")]
    for tag in table_first:
        for _ in range(5):
            a = sample_family(tag, rng)
            assert expm_auto(a).route in cls_mod.FAMILIES, tag
    # the stubs are live: a matrix in no table family reaches them
    with pytest.raises(_HandWrittenExtractorRan):
        expm_auto(rng.standard_normal((4, 4)))
