"""Tests for the closed-form exponential routes, each checked against the
series oracle and, where one exists, an independent second formula."""

import contextlib
import functools
import importlib
import io
import json
import math
import operator
import warnings

import numpy as np
import pytest

from structexp import (
    COVERING_ALGEBRAS,
    ForcedClassMismatch,
    NotInAlgebra,
    basis_matrix,
    classify,
    exp_via_covering,
    expm_auto,
    expm_series,
    extract_symmetric_rep,
    minimal_poly_skewT,
    rel_error,
)
from structexp import cli
from structexp.classify import (_FORCED, DEFAULT_TOL, SpecialNormal, SymmetricGeneral,
                                SymToeplitzTridiag, _forced)
from structexp.expm_structured import (
    _FORMS,
    _PLANS,
    _exp_member,
    _routes,
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
from structexp.hxh import _BASIS_ROWS, I22, J4, R4
from structexp.smalllin import _SAFE_NORM, frobenius

from conftest import (COMPLEX_FAMILY_TAGS, REAL_FAMILY_TAGS, covering_member, sample_family,
                      u17)

COS1 = 0.5403023058681398
SIN1 = 0.8414709848078965
COSH2 = 3.7621956910836305
SINH2 = 3.626860407847018


def _forced_member(tag, a, tol=DEFAULT_TOL):
    """(member, |A|_F, tol_abs) of A forced onto family `tag`, by its entry
    of the membership kernel; ForcedClassMismatch when it refuses A."""
    return _forced(a, tol, _FORCED[tag])


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


@pytest.mark.parametrize("inst", [
    # the block s_hat(x)t_hat is not along s_hat(x)t
    SpecialNormal(0.5, (2.0, 0.0, 0.0), (0.0, 0.0, 0.7), (0.0, 1.0, 0.0), (2.0, 0.0, 0.0)),
    # s_hat is not parallel to s
    SpecialNormal(0.5, (2.0, 0.0, 0.0), (0.0, 0.0, 0.5), (0.0, 0.0, 0.7), (0.0, 2.0, 0.0)),
])
def test_special_normal_instance_off_the_family_is_refused(inst):
    # each was exponentiated as its projection onto the family, 0.69 and
    # 0.42 relative from the series of its own matrix
    assert "SpecialNormal" not in [i.tag for i in classify(inst.reconstruct())]
    for exp in (exp_special_normal, exp_structured_class):
        with pytest.raises(ForcedClassMismatch) as info:
            exp(inst)
        assert info.value.tag == "SpecialNormal" and info.value.residual > 1.0


def test_special_normal_instance_is_exponentiated_as_its_fit():
    # s_hat = 2 s and t_hat halved give the same block as s_hat = s
    inst = SpecialNormal(0.5, (2.0, 0.0, 0.0), (0.0, 0.25, 0.0), (0.0, 0.7, 0.0),
                         (4.0, 0.0, 0.0))
    a = inst.reconstruct()
    assert rel_error(exp_special_normal(inst), expm_series(a)) < 1e-12


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


# ------------------------------------------- the two four-scalar closed forms


def _member_matrix(member):
    return (member @ _BASIS_ROWS).reshape(4, 4)


def _close_to_series(value, a) -> bool:
    """Within 1e-13 of the series of A, relative, and 1e-15 |A| past |A| =
    100, where rounding A itself moves exp(A) by about eps |A|."""
    return rel_error(value, expm_series(a)) <= max(1e-13, 1e-15 * np.linalg.norm(a))


@pytest.mark.parametrize("tag", ["SpecialNormal", "BisymmetricRS"])
@pytest.mark.parametrize("scale", [0.1, 1.0, 3.0, 10.0, 30.0])
def test_rank_one_closed_forms_match_the_series(tag, scale):
    rng = np.random.default_rng(90)
    for _ in range(20):
        member, norm, tol_abs = _forced_member(tag, scale * sample_family(tag, rng))
        a = _member_matrix(member)
        e = _exp_member(tag, member, norm, tol_abs)
        assert _close_to_series(e, a), (tag, scale)
        # the group invariants: normal, or symmetric and persymmetric
        bound = 1e-14 * np.linalg.norm(e)
        if tag == "SpecialNormal":
            assert np.linalg.norm(e @ e.T - e.T @ e) <= bound * np.linalg.norm(e)
        else:
            assert np.linalg.norm(e - e.T) <= bound
            assert np.linalg.norm(R4 @ e @ R4 - e.T) <= bound


def _special_normal(a, s, t, block):
    c = np.zeros((4, 4))
    c[0, 0], c[1:, 0], c[0, 1:], c[1:, 1:] = a, s, t, block
    return c.reshape(16)


def _bisymmetric_rs(eps, a, block):
    c = np.zeros((4, 4))
    c[0, 0], c[2, 1], c[1::2, 2:] = eps, a, block
    return c.reshape(16)


@pytest.mark.parametrize("member", [
    # s = 0: the block pairs t_hat with any left factor
    _special_normal(0.3, [0.0, 0.0, 0.0], [0.0, 1.2, 0.0], np.outer([0.7, -0.4, 0.2], [0, 1, 0])),
    _special_normal(-0.2, [0.0, 0.0, 0.0], [0.6, -0.8, 1.1],
                    np.outer([-1.3, 0.5, 0.9], [0.6, -0.8, 1.1])),
    # t = 0: the block pairs s_hat with any right factor
    _special_normal(0.1, [0.4, 1.5, -0.3], [0.0, 0.0, 0.0],
                    np.outer([0.4, 1.5, -0.3], [0.2, 0.9, -1.4])),
    # mu = 0, with and without a zero skew part
    _special_normal(0.5, [1.0, -0.5, 0.2], [0.3, 0.1, 0.4], np.zeros((3, 3))),
    _special_normal(0.5, [0.0, 0.0, 0.0], [0.3, 0.1, 0.4], np.zeros((3, 3))),
    # no skew part: the rank-one block alone, as the public edge builds it
    _special_normal(0.2, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], np.outer([1.0, 2.0, -0.5], [0.3, -1, 2])),
    # the hyperbolic factor near and past _SAFE_NORM
    _special_normal(-100.0, [1.0, 2.0, 2.0], [0.0, 0.6, 0.8], 100.0 * np.outer([1, 2, 2], [0, 0.6, 0.8]) / 3),
    _special_normal(-300.0, [3.0, 0.0, 4.0], [0.0, 1.0, 0.0], 310.0 * np.outer([0.6, 0, 0.8], [0, 1, 0])),
], ids=["s0", "s0-any", "t0", "mu0", "mu0-s0", "no-skew", "safe-norm", "past-safe-norm"])
def test_special_normal_closed_form_edge_cases(member):
    a = _member_matrix(member)
    assert np.linalg.norm(a @ a.T - a.T @ a) <= 1e-13 * np.linalg.norm(a) ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = _exp_member("SpecialNormal", member, 2.0 * frobenius(member), 0.0)
    assert _close_to_series(e, a)


@pytest.mark.parametrize("member", [
    # nu = 0, and nu at and below the phi functions' series cutoff
    _bisymmetric_rs(0.3, -1.1, np.zeros((2, 2))),
    _bisymmetric_rs(0.3, -1.1, np.outer([1e-4, 0.0], [0.0, 1.0])),
    _bisymmetric_rs(0.3, -1.1, np.outer([3e-9, 4e-9], [0.6, -0.8])),
    # a = 0, and the scalar part alone
    _bisymmetric_rs(-0.4, 0.0, np.outer([1.2, -0.7], [0.3, 1.9])),
    _bisymmetric_rs(0.7, 0.0, np.zeros((2, 2))),
    # growth near and past _SAFE_NORM, with a and nu of either sign of eps
    _bisymmetric_rs(-100.0, 60.0, 90.0 * np.outer([0.6, 0.8], [0.8, -0.6])),
    _bisymmetric_rs(-400.0, -250.0, 200.0 * np.outer([0.0, 1.0], [1.0, 0.0])),
], ids=["nu0", "nu-cutoff", "nu-tiny", "a0", "scalar", "safe-norm", "past-safe-norm"])
def test_bisymmetric_rs_closed_form_edge_cases(member):
    a = _member_matrix(member)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = _exp_member("BisymmetricRS", member, 2.0 * frobenius(member), 0.0)
    assert _close_to_series(e, a)
    assert np.array_equal(e, e.T)


@pytest.mark.parametrize("tag", ["SpecialNormal", "BisymmetricRS"])
@pytest.mark.parametrize("norm", [0.999 * _SAFE_NORM, _SAFE_NORM, 2.0 * _SAFE_NORM])
def test_rank_one_closed_forms_at_and_past_the_safe_norm(tag, norm):
    # one path at every scale: the growth is folded below _SAFE_NORM too
    rng = np.random.default_rng(92)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(10):
            member = _forced_member(tag, sample_family(tag, rng))[0]
            member = member * (norm / np.linalg.norm(member))
            a = _member_matrix(member)
            try:
                ref = expm_series(a)
            except OverflowError:
                with pytest.raises(OverflowError):
                    _exp_member(tag, member, 2.0 * frobenius(member), 0.0)
                continue
            e = _exp_member(tag, member, 2.0 * frobenius(member), 0.0)
            assert rel_error(e, ref) <= 1e-15 * np.linalg.norm(a)


@pytest.mark.parametrize("tag", ["SpecialNormal", "BisymmetricRS"])
def test_rank_one_closed_forms_raise_overflow_where_exp_overflows(tag):
    # exp(A) is past the float64 range at 1000 times a member whose growth
    # is positive; the CLI reports that as exit 4
    rng = np.random.default_rng(91)
    while True:
        a = sample_family(tag, rng)
        if np.linalg.eigvals(a).real.max() > 1.0:
            break
    a = 1000.0 * a
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            expm_auto(a, method=tag)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            text = " ".join(repr(x) for x in a.ravel().tolist())
            assert cli.run(["expm", "--method", tag, text]) == 4
    assert "the closed form overflows" in err.getvalue()


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


@pytest.mark.parametrize("tag, real_tag", [("ComplexSO4", "SkewSymmetric"),
                                           ("ComplexPerskew", "Perskewsymmetric")])
def test_a_real_input_forced_onto_a_complex_family_stays_real(tag, real_tag):
    # the forced route walks a float64 copy of the complex registry's
    # kernel, so a real member is neither cast nor given an imaginary part:
    # its value is the real family's, bit for bit
    rng = np.random.default_rng(73)
    for scale in (1e-3, 1.0, 30.0):
        for _ in range(10):
            a = scale * sample_family(real_tag, rng)
            got, want = expm_auto(a, method=tag), expm_auto(a, method=real_tag)
            assert got.route == tag
            assert got.value.dtype == np.float64
            assert got.value.tobytes() == want.value.tobytes(), (tag, scale)


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


@pytest.mark.parametrize("s, t", [
    ((1e200, 0, 0), (0, 0, 0)),
    ((1e160, 0, 0), (1e160, 1, 0)),
], ids=["one-side", "equal-norms"])
def test_minimal_poly_raises_where_a_coefficient_overflows(s, t):
    # |s|^2 + |t|^2 is past the float64 range; neither inf nor NaN comes back
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="beyond the float64 range"):
            minimal_poly_skewT(s, t)


def test_minimal_poly_norms_neither_overflow_nor_underflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # |s| = |t| to rounding, with squares near 1e200: degree 3, constant 0
        mp = minimal_poly_skewT((1e100, 0, 0), (1e100, 1, 0))
        assert mp.coefficients == (1.0, 0.0, 4e200, 0.0, 0.0)
        assert mp.degree == 3
        # |s|^2 underflows, |s| does not: s is not 0
        mp = minimal_poly_skewT((1e-200, 0, 0), (0, 0, 0))
        assert mp.coefficients == (1.0, 0.0, 0.0, 0.0, 0.0)
        assert mp.degree == 2


@pytest.mark.parametrize("s, t", [
    ((math.inf, 0, 0), (0, 0, 0)),
    ((1, 0, 0), (0, math.nan, 0)),
    ((1j, 0, 0), (0, 0, 0)),
    ((1, 0, 0, 0), (0, 1, 0)),
    (1.0, (0, 1, 0)),
    ((1, 0, 0), (0, 1)),
], ids=["inf", "nan", "imaginary", "4-vector", "scalar", "2-vector"])
def test_minimal_poly_refuses_all_but_two_finite_real_3_vectors(s, t):
    with pytest.raises(ValueError, match="^s and t must each hold 3 finite real entries$"):
        minimal_poly_skewT(s, t)


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


def test_verify_runs_the_series_once_on_every_route(monkeypatch):
    # on the oracle route, auto or forced, the value is the series itself,
    # 0.0 from itself; a closed form is compared with one series call
    es = importlib.import_module("structexp.expm_structured")
    calls = []
    monkeypatch.setattr(es, "expm_series", lambda a: calls.append(a) or expm_series(a))
    rng = np.random.default_rng(76)
    dense = rng.uniform(-1.0, 1.0, (4, 4))
    member = sample_family("Perskewsymmetric", rng)
    for a, method, route in ((dense, "auto", "oracle"), (dense, "oracle", "oracle"),
                             (member, "auto", "Perskewsymmetric"),
                             (member, "Perskewsymmetric", "Perskewsymmetric")):
        calls.clear()
        r = expm_auto(a, method=method, verify=True)
        assert r.route == route and len(calls) == 1, method
        assert r.verified == rel_error(r.value, expm_series(a)), method
        assert (r.verified == 0.0) == (route == "oracle")


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
    # 2x2, 3x3 and 4x4 are taken; every other shape is refused
    for shape in ((5, 5), (2, 3), (4,)):
        with pytest.raises(ValueError, match="expected a 2x2, 3x3 or 4x4 matrix"):
            expm_auto(np.zeros(shape))


class _HandWrittenExtractorRan(Exception):
    pass


def test_auto_runs_no_hand_written_extractor_before_a_table_match(monkeypatch):
    cls_mod = importlib.import_module("structexp.classify")

    def refuse(*args):
        raise _HandWrittenExtractorRan

    # the walk calls the fit its route carries
    routes, kernel, incidence = cls_mod._REAL4
    routes = tuple((tag, rows, refuse if cls_mod.EXTRACTORS.get(tag) is not None else rule)
                   for tag, rows, rule in routes)
    monkeypatch.setitem(cls_mod._KERNELS, (4, False),
                        ((routes, kernel, incidence), cls_mod._KERNELS[4, False][1]))
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


# ------------------------------------------------------------------ one path


@pytest.mark.parametrize("scale", [1, 30])
@pytest.mark.parametrize("tag", REAL_FAMILY_TAGS + COMPLEX_FAMILY_TAGS)
def test_auto_forced_and_verify_routes_take_one_path(tag, scale):
    rng = np.random.default_rng(81)
    for _ in range(10):
        a = scale * sample_family(tag, rng)
        forced = expm_auto(a, method=tag).value
        auto = expm_auto(a)
        # every family but HamSymPersym (always Lie8 first) is its own first match
        if auto.route == tag:
            assert np.array_equal(auto.value, forced), tag
        routes = dict(_routes(a, DEFAULT_TOL, False))
        assert np.array_equal(routes[tag], forced), tag
        # the public edge: instance -> coefficients -> the same closed form
        inst = next(i for i in classify(a) if i.tag == tag)
        assert rel_error(exp_structured_class(inst), forced) <= 1e-13, tag


def test_auto_forces_a_covering_algebra():
    result = expm_auto(J4, method="covering:so4")
    assert result.route == "covering:so4"
    assert np.array_equal(result.value, exp_via_covering(COVERING_ALGEBRAS["so4"], J4))
    with pytest.raises(NotInAlgebra):
        expm_auto(np.diag([1.0, 1.0, -1.0, -1.0]), method="covering:so4")
    with pytest.raises(ValueError, match="unknown covering algebra"):
        expm_auto(J4, method="covering:nope")


def _cli_expm(a, method):
    """(route, value) that `structexp expm --method <method> --json` prints."""
    text = cli.format_document_json(cli.MatrixDocument.of_matrix(a))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.run(["expm", text, "--method", method, "--json"]) == 0
    doc = json.loads(out.getvalue())
    return doc["route"], cli.MatrixDocument(doc["n"], doc["kind"], tuple(doc["entries"])).matrix()


def test_auto_takes_2x2_and_3x3_matrices():
    # a real and a complex 2x2, and members of the three 3x3 algebras, auto
    # and forced onto their route: the library, `_dispatch` and the CLI's
    # `expm` give the same route and value bytes
    rng = np.random.default_rng(86)
    cases = [(rng.standard_normal((2, 2)), "expm2"),
             (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)), "expm2")]
    cases += [(covering_member(COVERING_ALGEBRAS[name], rng), f"covering:{name}")
              for name in ("so3", "p3r", "so21r")]
    for a, route in cases:
        for method in ("auto", route):
            got = expm_auto(a, method=method)
            assert got.route == route, method
            dispatched = es_mod._dispatch(a, method, DEFAULT_TOL)
            for other in (dispatched, _cli_expm(a, method)):
                assert (other[0], other[1].tobytes()) == (route, got.value.tobytes()), method
            assert rel_error(got.value, expm_series(a)) <= 1e-12, route
    with pytest.raises(NotInAlgebra):
        expm_auto(np.diag([1.0, 0.0, -1.0]), method="covering:so3")


def test_forced_expm2_takes_only_a_2x2():
    for a in (J4, np.eye(3)):
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            expm_auto(a, method="expm2")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert cli.run(["expm", "--method", "expm2", "0 0 1 0  0 0 0 1  -1 0 0 0  0 -1 0 0"]) == 2
    assert "expected a 2x2 matrix" in err.getvalue()


def test_forced_expm2_refuses_an_unadmitted_2x2_as_outside_its_domain():
    # every 2x2 of finite entries and norm is on the expm2 route, so one with
    # a non-finite entry or an overflowing norm is outside its domain: a
    # ValueError, exit 2, as auto's series oracle gives the overflowing
    # norm, and not a class refusal (exit 3)
    for a in (np.diag([1e200, 1e200]), np.array([[np.nan, 0.0], [0.0, 1.0]])):
        with pytest.raises(ValueError, match="non-finite entries or an overflowing norm") as info:
            expm_auto(a, method="expm2")
        assert not isinstance(info.value, ForcedClassMismatch)
    for method in ("expm2", "auto"):
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.run(["expm", "--method", method, "1e200 0 0 1e200"]) == 2, method


class _DataclassBuilt(Exception):
    pass


def test_routes_build_no_dataclass(monkeypatch):
    def refuse(*args):
        raise _DataclassBuilt

    cls_mod = importlib.import_module("structexp.classify")
    monkeypatch.setattr(cls_mod.Family, "instance", refuse)
    monkeypatch.setattr(cls_mod, "instance", refuse, raising=False)
    rng = np.random.default_rng(82)
    for tag in REAL_FAMILY_TAGS + COMPLEX_FAMILY_TAGS:
        a = sample_family(tag, rng)
        assert expm_auto(a).route in cls_mod.EXTRACTORS, tag
        assert expm_auto(a, method=tag).route == tag
        text = cli.format_document_json(cli.MatrixDocument.of_matrix(a))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.run(["verify", text]) == 0, tag
        assert f"\n{tag} " in out.getvalue()
    # the stubs are live
    with pytest.raises(_DataclassBuilt):
        classify(J4)


class _CoefficientTableBuilt(Exception):
    pass


def test_table_family_routes_build_no_coefficient_table(monkeypatch):
    # a table family reads the flat matrix through its rows of the one map,
    # and the fits, auto or forced, take c from the same product, so no
    # route projects A onto the basis a second time
    def refuse(*args):
        raise _CoefficientTableBuilt

    cls_mod = importlib.import_module("structexp.classify")
    monkeypatch.setattr(cls_mod, "_coefficient_table", refuse)
    rng = np.random.default_rng(85)
    for tag in cls_mod.FAMILIES:
        for _ in range(5):
            a = sample_family(tag, rng)
            assert expm_auto(a).route in cls_mod.FAMILIES, tag
            assert expm_auto(a, method=tag).route == tag
    for tag in ("SpecialNormal", "BisymmetricRS"):
        assert expm_auto(sample_family(tag, rng), method=tag).route == tag
    # the stub is live: extract_symmetric_rep projects A
    with pytest.raises(_CoefficientTableBuilt):
        extract_symmetric_rep(np.eye(4))


# ------------------------------------------------------------------- overflow


@pytest.mark.parametrize("tag", REAL_FAMILY_TAGS + COMPLEX_FAMILY_TAGS)
def test_no_value_overflows_below_the_safe_norm(tag):
    # the closed forms skip the overflow check below |c| = _SAFE_NORM: up to
    # just under it, with every coefficient on the family's own slots, no
    # value on the way may leave the float64 range, and the value is exp(A)
    # to roundoff that grows with |A| (the series' own error dominates: its
    # largest over these samples is 1.6e-14 |c|, at 0.999 _SAFE_NORM)
    rng = np.random.default_rng(83)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (0.5, 5.0, 50.0, 0.999 * _SAFE_NORM):
            for _ in range(20):
                member = _forced_member(tag, sample_family(tag, rng))[0]
                member = member * (scale / np.linalg.norm(member))
                value = _FORMS[tag](member)
                assert np.isfinite(value).all()
                ref = expm_series((member @ _BASIS_ROWS).reshape(4, 4))
                assert rel_error(value, ref) <= 5e-14 * max(1.0, scale), scale


def test_growth_past_the_safe_norm_is_folded_into_one_exponent():
    # exp(A) is finite for these, near 1e260 and 1e154, but the group
    # product before the factor exp(c00) is not (and Jordan1's cosh
    # overflows): applying every growth as one exponent gives exp(A)
    for tag, seed in (("BisymmetricRS", 3), ("Jordan1", 11)):
        a = 300.0 * sample_family(tag, np.random.default_rng(seed))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = expm_series(a)
            assert np.isfinite(ref).all()
            assert rel_error(expm_auto(a, method=tag).value, ref) <= 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # 1000 exp(1) is past the float64 range itself
        with pytest.raises(OverflowError):
            expm_auto(1000.0 * np.eye(4), method="SymmetricGeneral")


def test_group_growth_is_applied_on_the_coefficients_and_the_matrix():
    # -600 I + 650 i(x)j: cosh 650 and e^-600 are each past the float64
    # range, exp(A) = e^50 (I + B) / 2 to roundoff is not
    b = basis_matrix(1, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = expm_auto(-600.0 * np.eye(4) + 650.0 * b)
    assert result.route == "SkewHamiltonian"
    assert rel_error(result.value, math.exp(50.0) / 2.0 * (np.eye(4) + b)) <= 1e-13
    # e^1200 is past the float64 range itself
    with pytest.raises(OverflowError):
        expm_auto(1200.0 * np.eye(4) + 0.5 * b)


# the flat slots of each group of a closed form: those of every plan, and
# SpecialNormal's ns X, nt Y and mu XY and BisymmetricRS's a J and block P
_GROUP_SLOTS = {tag: [[i for i, _ in g] for g in plan[0]] for tag, plan in _PLANS.items()}
_GROUP_SLOTS.update(SpecialNormal=[[4, 8, 12], [1, 2, 3], [5, 6, 7, 9, 10, 11, 13, 14, 15]],
                    BisymmetricRS=[[9], [6, 7, 14, 15]])


@pytest.mark.parametrize("tag", sorted(_GROUP_SLOTS))
def test_folded_growth_agrees_with_the_plain_product(tag):
    # every circular or hyperbolic closed form takes the product on the
    # coefficients and folds the growth of each hyperbolic group into one
    # exponent at every norm; below _SAFE_NORM, where the plain product
    # exp(c00) prod_g (c_g I + s_g G_g), c_g = cosh sqrt(mu_g) and s_g =
    # sinh(sqrt(mu_g)) / sqrt(mu_g), is finite, they must give it to roundoff
    rng = np.random.default_rng(84)
    for scale in (1e-3, 0.5, 5.0, 30.0, 50.0, 0.999 * _SAFE_NORM):
        for _ in range(5):
            member = _forced_member(tag, sample_family(tag, rng))[0]
            member = member * (scale / np.linalg.norm(member))
            plain = np.exp(member[0]) * np.eye(4)
            for group in _GROUP_SLOTS[tag]:
                g = sum(member[i] * _BASIS_ROWS[i] for i in group).reshape(4, 4)
                r = np.sqrt(complex((g @ g)[0, 0]))
                plain = plain @ (np.cosh(r) * np.eye(4) + (np.sinh(r) / r if r else 1.0) * g)
            if not np.iscomplexobj(member):
                plain = plain.real
            assert rel_error(_FORMS[tag](member), plain) <= 1e-13, scale


def test_symmetric_general_is_finite_where_its_largest_weight_is():
    # lambda_max = 710.5: e^lambda_max is past the float64 range, but
    # exp(A) = I + (e^lambda_max - 1) / 4 * ones is not, so the weight's 1/4
    # must not be applied after the exponential
    a = np.full((4, 4), 177.625)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = expm_auto(a, method="SymmetricGeneral").value
        assert rel_error(value, expm_series(a)) <= 1e-12


# --------------------------- straight-line closed forms, bit for bit as before
# The closed forms are written as straight-line code, with no comprehension
# or generator (each is a frame of its own on CPython <= 3.11).  These are
# the comprehension forms they replaced, kept as the reference: every float
# operation and its order are the same, so the values must be bitwise equal.
es_mod = importlib.import_module("structexp.expm_structured")

def _comprehension_exp_grouped(plan, member):
    groups, cross = plan
    c = member.tolist()
    # sum() as it adds floats on CPython <= 3.11, from int 0 left to right
    # (3.12 compensates the sum)
    mus = [functools.reduce(operator.add, [sq * c[i] * c[i] for i, sq in g], 0)
           for g in groups]
    cs, ss, h = es_mod._factors(c[0], mus)
    (c1, c2, *_), (s1, s2, *_) = (*cs, 1.0, 1.0), (*ss, 0.0, 0.0)
    out = [0.0] * 16
    out[0] = h * c1 * c2
    for group, w in zip(groups, (h * s1 * c2, h * c1 * s2)):
        for i, _ in group:
            out[i] = w * c[i]
    t = h * s1 * s2
    for i, j, k, sign in cross:
        out[k] = sign * t * c[i] * c[j]
    return np.array(out).dot(_BASIS_ROWS).reshape(4, 4) * h


def _comprehension_exp_special_normal(member):
    a, s, t, b = es_mod._special_normal_parts(member.tolist())
    ns, nt = math.hypot(*s), math.hypot(*t)
    if ns or nt:
        (u0, u1, u2), (v0, v1, v2), mu = es_mod._special_normal_frame(s, t, b, ns, nt)
        w = [x * y for x in (u0, u1, u2) for y in (v0, v1, v2)]
    else:
        u0 = u1 = u2 = v0 = v1 = v2 = 0.0
        mu = math.hypot(*b)
        w = [x / mu for x in b] if mu else b
    (cx, cy, ch), (sx, sy, sh), h = es_mod._factors(a, (-ns * ns, -nt * nt, mu * mu))
    sx, sy, sh = sx * ns, sy * nt, sh * mu
    alpha, delta = h * (cx * cy * ch + sx * sy * sh), h * (sx * sy * ch + cx * cy * sh)
    beta, gamma = h * (sx * cy * ch - cx * sy * sh), h * (cx * sy * ch - sx * cy * sh)
    d = [delta * x for x in w]
    coefs = [alpha, gamma * v0, gamma * v1, gamma * v2, beta * u0, d[0], d[1], d[2],
             beta * u1, d[3], d[4], d[5], beta * u2, d[6], d[7], d[8]]
    return np.array(coefs).dot(_BASIS_ROWS).reshape(4, 4) * h


def _comprehension_exp_symmetric_general(member):
    u, sigma, vh = es_mod._svd3(member.reshape(4, 4)[1:, 1:])
    d = 1.0 if es_mod._det3(u) * es_mod._det3(vh) > 0.0 else -1.0
    a = float(member[0])
    s1, s2, s3 = (d * x for x in sigma)
    w0, w1, w2, w3 = (math.exp(a + x - es_mod._LOG4) for x in
                      (s1 + s2 + s3, s1 - s2 - s3, -s1 + s2 - s3, -s1 - s2 + s3))
    t = [d * (w0 + w1 - w2 - w3), d * (w0 - w1 + w2 - w3), d * (w0 - w1 - w2 + w3)]
    value = (u * t).dot(vh).reshape(9).dot(es_mod._PURE_ROWS)
    value[::5] += w0 + w1 + w2 + w3
    return value.reshape(4, 4)


def _reference_form(tag):
    if tag == "SpecialNormal":
        return _comprehension_exp_special_normal
    if tag == "SymmetricGeneral":
        return _comprehension_exp_symmetric_general
    return lambda member: _comprehension_exp_grouped(_PLANS[tag], member)


def _bitwise_equal(x, y) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


_STRAIGHT_LINE_TAGS = [t for t in REAL_FAMILY_TAGS + COMPLEX_FAMILY_TAGS if t != "BisymmetricRS"]


@pytest.mark.parametrize("tag", _STRAIGHT_LINE_TAGS)
def test_straight_line_closed_forms_are_bitwise_the_comprehension_forms(tag):
    rng = np.random.default_rng(27)
    form, reference = _FORMS[tag], _reference_form(tag)
    for _ in range(12):
        member = _forced_member(tag, sample_family(tag, rng))[0]
        members = [member]
        if tag in _PLANS:
            # a complex member of a real family's plan takes the complex rows
            members.append(member * (1.0 + 0.5j))
        for m in members:
            for scale in (1e-3, 1.0, 30.0):
                assert _bitwise_equal(form(m * scale), reference(m * scale)), (tag, scale)


@pytest.mark.parametrize("member", [
    # no skew part, where the block alone is exponentiated; and a zero block
    _special_normal(0.5, (0, 0, 0), (0, 0, 0), np.outer((0.6, 0.0, 0.8), (0.0, 1.0, 0.0))),
    _special_normal(-0.5, (0, 0, 0), (0, 0, 0), np.zeros((3, 3))),
    # one skew part zero
    _special_normal(0.25, (0.3, -1.2, 0.4), (0, 0, 0), np.outer((0.3, -1.2, 0.4), (1, 2, 2)) / 1.3),
    _special_normal(0.25, (0, 0, 0), (1.0, 0.5, -0.5), np.outer((2, 1, 2), (1.0, 0.5, -0.5)) / 3.0),
])
def test_special_normal_edge_members_are_bitwise_the_comprehension_form(member):
    for scale in (1e-3, 1.0, 30.0):
        assert _bitwise_equal(es_mod._exp_special_normal(member * scale),
                              _comprehension_exp_special_normal(member * scale))


@pytest.mark.parametrize("support", [[(0, 0)], [(0, 0), (2, 0), (1, 0)]])
def test_group_plans_of_no_or_one_group_are_bitwise_the_comprehension_form(support):
    plan = es_mod._group_plan(support)
    rng = np.random.default_rng(5)
    for _ in range(5):
        member = np.zeros(16)
        for a, b in support:
            member[4 * a + b] = u17(rng)
        for m in (member, member * (0.5 - 1.0j)):
            assert _bitwise_equal(es_mod._exp_grouped(plan, m), _comprehension_exp_grouped(plan, m))


def _first_route_rule(a, tol):
    """The auto rule as the first of `_routes`, or the series oracle."""
    route, value = next(_routes(a, tol), ("oracle", None))
    return route, expm_series(a) if value is None else value


def _outcome(fn, *args):
    try:
        route, value = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return route, str(value.dtype), value.shape, value.tobytes()


def test_auto_dispatch_is_the_first_route_rule_bit_for_bit():
    rng = np.random.default_rng(27)
    inputs = []
    for tag in REAL_FAMILY_TAGS + COMPLEX_FAMILY_TAGS:
        for scale in (1e-3, 1.0, 30.0):
            inputs.append(sample_family(tag, rng) * scale)
    for _ in range(6):
        inputs.append(rng.standard_normal((4, 4)))
        inputs.append(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    inputs.append(np.array([[0.5, -1.0], [2.0, 0.25]]))
    inputs.append(np.array([[0.0, -0.3, 0.2], [0.3, 0.0, -0.1], [-0.2, 0.1, 0.0]]))
    with_inf = np.eye(4)
    with_inf[1, 2] = np.inf
    inputs.append(with_inf)
    for a in inputs:
        for tol in (DEFAULT_TOL, 1e-6):
            assert _outcome(es_mod._dispatch, a, "auto", tol) == _outcome(_first_route_rule, a, tol)
