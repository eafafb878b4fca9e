"""Tests for the small closed-form kernels: phi functions, expm2, sym_eig3, svd3."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from structexp import expm2, expm_series, phi_c, phi_s, rel_error, svd3, sym_eig3
from structexp.smalllin import _factors


# ---------------------------------------------------------------- phi functions


def test_phi_at_zero():
    assert phi_c(0.0) == 1.0
    assert phi_s(0.0) == 1.0


def test_phi_known_values():
    assert phi_c(math.pi ** 2) == pytest.approx(-1.0)
    assert phi_s(math.pi ** 2) == pytest.approx(0.0, abs=1e-15)
    assert phi_c((math.pi / 2) ** 2) == pytest.approx(0.0, abs=1e-15)
    assert phi_s((math.pi / 2) ** 2) == pytest.approx(2.0 / math.pi)
    assert phi_c(-1.0) == pytest.approx(math.cosh(1.0))
    assert phi_s(-4.0) == pytest.approx(math.sinh(2.0) / 2.0)


def test_phi_real_in_real_out():
    for x in (2.0, -3.0, 0.0, 1e-12):
        assert isinstance(phi_c(x), float)
        assert isinstance(phi_s(x), float)
    assert isinstance(phi_c(1.0 + 0.0j), complex)
    assert isinstance(phi_s(1.0 + 0.0j), complex)
    for phi in (phi_c, phi_s):
        got = phi(np.float32(-2.25))
        assert type(got) is float and got == phi(-2.25)
        got = phi(np.complex64(-2.25 + 0.5j))
        assert type(got) is complex and got == phi(-2.25 + 0.5j)


def test_phi_series_branch_agrees_with_direct_formula():
    # straddle the Taylor cutoff from both sides
    for x in (9.9e-9, -9.9e-9, 1.1e-8, -1.1e-8):
        r = cmath.sqrt(complex(x))
        assert phi_c(x) == pytest.approx(cmath.cos(r).real, abs=1e-15)
        assert phi_s(x) == pytest.approx((cmath.sin(r) / r).real, abs=1e-15)


@given(st.floats(min_value=-100.0, max_value=100.0))
def test_phi_pythagorean_identity(x):
    c = phi_c(x)
    s = phi_s(x)
    scale = 1.0 + c * c + abs(x) * s * s
    assert abs(c * c + x * s * s - 1.0) < 1e-12 * scale


def test_phi_complex_identity():
    for z in (1.0 + 2.0j, -3.0 + 0.5j, 0.25j, -7.0 - 4.0j):
        assert phi_c(z) ** 2 + z * phi_s(z) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert phi_c(1.0 + 0.0j) == pytest.approx(phi_c(1.0))


def test_phi_overflows_where_cosh_does():
    # sqrt(1e6) = 1000: cosh(1000) and sinh(1000) / 1000 are past the float64
    # range, so the growth e^1000 must not come back as inf
    for phi in (phi_c, phi_s):
        with pytest.raises(OverflowError):
            phi(-1e6)
        with pytest.raises(OverflowError):
            phi(complex(-1e6, 0.0))
        assert math.isfinite(phi(-5e5))


# ---------------------------------------------------------- group factors


def _reference(scalar, mu):
    """exp(scalar) cos(r) and exp(scalar) sin(r) / r, r = sqrt(-mu), by cmath."""
    r = cmath.sqrt(-complex(mu))
    return (cmath.exp(scalar) * cmath.cos(r),
            cmath.exp(scalar) * (cmath.sin(r) / r if r else 1.0))


_ABOVE_ONE = math.nextafter(1.0, 2.0)
# |mu| + Re mu = 2 exactly (0.75^2 + 1 = 1.25^2), and 2 -+ 2e-15
_ON_THE_FOLD = (complex(0.75, 1.0), complex(0.75 - 1e-15, 1.0),
                complex(0.75 + 1e-15, 1.0))


@pytest.mark.parametrize("scalar, mu, folded", [
    (0.0, 9.9e-9, False), (0.0, -9.9e-9, False),    # the Taylor polynomials
    (0.0, 1.1e-8, False), (0.0, -1.1e-8, False),    # cosh and cos
    (0.3, complex(9.9e-9, 1e-10), False), (0.3, complex(-1.1e-8, 1e-10), False),
    (0.0, 1.0, False), (0.0, -1.0, False), (0.0, _ABOVE_ONE, True),
    (-700.0, 700.0 ** 2, True), (-0.25, -700.0 ** 2, False),
    (0.0, _ON_THE_FOLD[0], False), (0.0, _ON_THE_FOLD[1], False),
    (0.0, _ON_THE_FOLD[2], True),
    (0.5, complex(-4.0, 0.0), False), (0.5, complex(-4.0, -0.0), False),
    (1j, complex(9.0, 0.0), True),
])
def test_factors_at_each_branch_edge(scalar, mu, folded):
    # h^2 cs and h^2 ss against cmath's cos and sin of sqrt(-mu), which share
    # no code with _factors; the growth is folded into h exactly when
    # Re sqrt(mu) > 1 (|mu| + Re mu > 2)
    (c,), (s,), h = _factors(scalar, (mu,))
    want_c, want_s = _reference(scalar, mu)
    assert abs(c * h * h - want_c) <= 4e-16 * abs(want_c)
    assert abs(s * h * h - want_s) <= 4e-16 * abs(want_s)
    assert (abs(h) != abs(cmath.exp(scalar / 2.0))) == folded
    if isinstance(mu, float):
        assert type(c) is type(s) is type(h) is float


# ----------------------------------------------------------------------- expm2


def test_expm2_zero_is_identity():
    assert np.array_equal(expm2(np.zeros((2, 2))), np.eye(2))


def test_expm2_rotation_generator():
    th = math.pi / 3
    got = expm2(np.array([[0.0, th], [-th, 0.0]]))
    want = np.array([[0.5, math.sqrt(3) / 2], [-math.sqrt(3) / 2, 0.5]])
    assert np.linalg.norm(got - want) < 1e-15


def test_expm2_hyperbolic_generator():
    got = expm2(np.array([[0.0, 2.0], [2.0, 0.0]]))
    c, s = math.cosh(2.0), math.sinh(2.0)
    assert np.linalg.norm(got - np.array([[c, s], [s, c]])) < 1e-13


def test_expm2_shear():
    # traceless nilpotent part: exp([[a,1],[0,a]]) = e^a [[1,1],[0,1]]
    got = expm2(np.array([[0.7, 1.0], [0.0, 0.7]]))
    want = math.exp(0.7) * np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.linalg.norm(got - want) < 1e-14


def test_expm2_matches_series_real():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a = rng.uniform(-2.5, 2.5, (2, 2))
        assert rel_error(expm2(a), expm_series(a)) < 1e-13


def test_expm2_matches_series_complex():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        a = rng.uniform(-1.2, 1.2, (2, 2)) + 1j * rng.uniform(-1.2, 1.2, (2, 2))
        assert rel_error(expm2(a), expm_series(a)) < 1e-13


def test_expm2_rejects_wrong_shape():
    with pytest.raises(ValueError):
        expm2(np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_expm2_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite"):
        expm2(np.array([[bad, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        expm2(np.array([[0.0, 1.0], [bad, 0.0]], dtype=complex))


@pytest.mark.parametrize("a", [
    [[800.0, 0.0], [0.0, 0.0]],          # cosh(400) * exp(400)
    [[0.0, 1e200], [1e200, 0.0]],        # det A0 = -inf: cosh(inf) * inf
    [[0.0, 1e200], [-1e200, 0.0]],       # det A0 = inf: cos(inf)
    [[2000.0, 0.0], [0.0, 2000.0]],      # exp(tr/2) alone
])
def test_expm2_overflow_raises_without_a_warning(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            expm2(np.array(a))
        with pytest.raises(OverflowError):
            expm2(np.array(a, dtype=complex))


def test_expm2_is_finite_past_the_safe_norm():
    # A = A0 - r I with A0 traceless and r = sqrt(-det A0), real or complex:
    # cosh(r) and sinh(r) near 1e65, and past the float64 range with A0
    # scaled by 1000, exp(A) of order one; the checked branch returns it, to
    # roundoff that grows with |A|
    rng = np.random.default_rng(9)
    draws = [150.0 * rng.uniform(-1.0, 1.0, (2, 2)) for _ in range(50)]
    draws += [150.0 * (rng.uniform(-1.0, 1.0, (2, 2)) + 1j * rng.uniform(-1.0, 1.0, (2, 2)))
              for _ in range(50)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a0 in draws:
            a0 = a0 - np.trace(a0) / 2.0 * np.eye(2)
            for scale in (1.0, 1000.0):
                det = np.linalg.det(scale * a0)
                r = cmath.sqrt(-det) if np.iscomplexobj(a0) else math.sqrt(max(-det, 0.0))
                a = scale * a0 - r * np.eye(2)
                assert rel_error(expm2(a), expm_series(a)) < 1e-12 * scale
        rot = np.array([[0.0, 300.0], [-300.0, 0.0]])
        assert rel_error(expm2(rot), expm_series(rot)) < 1e-12


# -------------------------------------------------------------------- sym_eig3


def test_sym_eig3_identity():
    e = sym_eig3(np.eye(3))
    assert np.array_equal(e.eigenvalues, np.ones(3))
    assert np.array_equal(e.q, np.eye(3))


def test_sym_eig3_diagonal_is_sorted():
    e = sym_eig3(np.diag([1.0, 3.0, 2.0]))
    assert np.array_equal(e.eigenvalues, np.array([3.0, 2.0, 1.0]))
    s = e.q @ np.diag(e.eigenvalues) @ e.q.T
    assert np.linalg.norm(s - np.diag([1.0, 3.0, 2.0])) < 1e-15


def test_sym_eig3_random_reconstruction():
    rng = np.random.default_rng(21)
    for _ in range(400):
        m = rng.uniform(-2.0, 2.0, (3, 3))
        s = m + m.T
        e = sym_eig3(s)
        assert np.linalg.norm(e.q.T @ e.q - np.eye(3)) < 1e-12
        back = e.q @ np.diag(e.eigenvalues) @ e.q.T
        assert np.linalg.norm(back - s) < 1e-11 * (1.0 + np.linalg.norm(s))
        assert e.eigenvalues[0] >= e.eigenvalues[1] - 1e-12
        assert e.eigenvalues[1] >= e.eigenvalues[2] - 1e-12


def test_sym_eig3_matches_characteristic_roots():
    # independent check: eigenvalues against np.roots on the characteristic cubic
    rng = np.random.default_rng(22)
    for _ in range(200):
        m = rng.uniform(-2.0, 2.0, (3, 3))
        s = m + m.T
        tr = np.trace(s)
        m2 = 0.5 * (tr ** 2 - np.trace(s @ s))
        roots = np.roots([1.0, -tr, m2, -np.linalg.det(s)])
        roots = np.sort(roots.real)[::-1]
        scale = 1.0 + np.max(np.abs(roots))
        assert np.max(np.abs(sym_eig3(s).eigenvalues - roots)) < 1e-9 * scale


def test_sym_eig3_repeated_eigenvalue():
    rng = np.random.default_rng(23)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    s = q @ np.diag([2.0, 2.0, -1.0]) @ q.T
    e = sym_eig3(s)
    assert np.max(np.abs(e.eigenvalues - np.array([2.0, 2.0, -1.0]))) < 1e-13
    assert np.linalg.norm(e.q.T @ e.q - np.eye(3)) < 1e-12
    back = e.q @ np.diag(e.eigenvalues) @ e.q.T
    assert np.linalg.norm(back - s) < 1e-11


def test_sym_eig3_rank_one():
    v = np.array([1.0, -2.0, 2.0]) / 3.0
    e = sym_eig3(9.0 * np.outer(v, v))
    assert np.max(np.abs(e.eigenvalues - np.array([9.0, 0.0, 0.0]))) < 1e-13
    assert abs(abs(e.q[:, 0] @ v) - 1.0) < 1e-13


def test_sym_eig3_rank_two():
    rng = np.random.default_rng(24)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    s = 4.0 * np.outer(q[:, 0], q[:, 0]) + np.outer(q[:, 1], q[:, 1])
    e = sym_eig3(s)
    assert np.max(np.abs(e.eigenvalues - np.array([4.0, 1.0, 0.0]))) < 1e-13
    back = e.q @ np.diag(e.eigenvalues) @ e.q.T
    assert np.linalg.norm(back - s) < 1e-12


def test_sym_eig3_triple_eigenvalue():
    e = sym_eig3(-0.3 * np.eye(3))
    assert np.array_equal(e.eigenvalues, np.full(3, -0.3))
    assert np.array_equal(e.q, np.eye(3))


def test_sym_eig3_rejects_bad_input():
    with pytest.raises(ValueError):
        sym_eig3(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError):
        sym_eig3(np.eye(4))


@pytest.mark.parametrize("exponent", range(-300, 301, 50))
def test_sym_eig3_at_every_scale(exponent):
    scale = 10.0 ** exponent
    rng = np.random.default_rng(25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(20):
            m = rng.uniform(-2.0, 2.0, (3, 3))
            s = (m + m.T) * scale
            e = sym_eig3(s)
            assert np.linalg.norm(e.q.T @ e.q - np.eye(3)) < 1e-13
            back = (e.q * e.eigenvalues) @ e.q.T
            assert np.abs(back - s).max() <= 1e-13 * scale
            assert e.eigenvalues[0] >= e.eigenvalues[1] >= e.eigenvalues[2]


@pytest.mark.parametrize("scale", [1.0, 1e160, 1e300, 1e-300])
def test_sym_eig3_symmetry_test_is_scale_invariant(scale):
    # a Frobenius-norm test overflowed to inf > 1e-12 * inf, which is false
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not symmetric"):
            sym_eig3(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]) * scale)


# ------------------------------------------------------------------------ svd3


def test_svd3_zero_matrix():
    d = svd3(np.zeros((3, 3)))
    assert np.array_equal(d.sigma, np.zeros(3))
    assert np.linalg.norm(d.u.T @ d.u - np.eye(3)) < 1e-15
    assert np.linalg.norm(d.v.T @ d.v - np.eye(3)) < 1e-15


def test_svd3_diagonal_with_signs():
    m = np.diag([2.0, -3.0, 1.0])
    d = svd3(m)
    assert np.max(np.abs(d.sigma - np.array([3.0, 2.0, 1.0]))) < 1e-14
    assert np.linalg.norm(d.u @ np.diag(d.sigma) @ d.v.T - m) < 1e-13


def test_svd3_rank_one():
    s = np.array([2.0, -1.0, 2.0])
    t_hat = np.array([0.0, 1.0, 0.0])
    d = svd3(np.outer(s, t_hat))
    assert d.sigma[0] == pytest.approx(3.0)
    assert np.max(np.abs(d.sigma[1:])) < 1e-13
    assert abs(abs(d.u[:, 0] @ s) - 3.0) < 1e-13
    assert abs(abs(d.v[:, 0] @ t_hat) - 1.0) < 1e-13
    assert np.linalg.norm(d.u @ np.diag(d.sigma) @ d.v.T - np.outer(s, t_hat)) < 1e-12


def test_svd3_dense_rank_one_reports_exact_zeros():
    rng = np.random.default_rng(34)
    m = np.outer(rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0, 3))
    d = svd3(m)
    assert d.sigma[1] == 0.0 and d.sigma[2] == 0.0
    assert np.linalg.norm(d.u @ np.diag(d.sigma) @ d.v.T - m) < 1e-13


def test_svd3_random():
    rng = np.random.default_rng(31)
    for _ in range(400):
        m = rng.uniform(-2.0, 2.0, (3, 3))
        d = svd3(m)
        assert np.linalg.norm(d.u.T @ d.u - np.eye(3)) < 1e-11
        assert np.linalg.norm(d.v.T @ d.v - np.eye(3)) < 1e-12
        assert d.sigma[0] >= d.sigma[1] >= d.sigma[2] >= 0.0
        back = d.u @ np.diag(d.sigma) @ d.v.T
        assert np.linalg.norm(back - m) < 1e-11 * (1.0 + np.linalg.norm(m))


def test_svd3_matches_lapack_singular_values():
    rng = np.random.default_rng(32)
    for _ in range(200):
        m = rng.uniform(-2.0, 2.0, (3, 3))
        ref = np.linalg.svd(m, compute_uv=False)
        assert np.max(np.abs(svd3(m).sigma - ref)) < 1e-10 * (1.0 + ref[0])


def test_svd3_orthogonal_input():
    rng = np.random.default_rng(33)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    d = svd3(q)
    assert np.max(np.abs(d.sigma - 1.0)) < 1e-12
    assert np.linalg.norm(d.u @ np.diag(d.sigma) @ d.v.T - q) < 1e-12


def test_svd3_rejects_wrong_shape():
    with pytest.raises(ValueError):
        svd3(np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_svd3_and_sym_eig3_reject_non_finite(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for slot in range(9):
            m = np.eye(3)
            m.flat[slot] = bad
            with pytest.raises(ValueError, match="non-finite"):
                svd3(m)
            m.T.flat[slot] = bad
            with pytest.raises(ValueError, match="non-finite"):
                sym_eig3(m)


@pytest.mark.parametrize("decompose", [svd3, sym_eig3], ids=["svd3", "sym_eig3"])
def test_complex_input_is_refused_unless_its_imaginary_part_is_zero(decompose):
    s = np.array([[2.0, 1.0, 0.0], [1.0, -3.0, 0.5], [0.0, 0.5, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.eye(3) * (1 + 1j), s + 1e-300j * np.eye(3)):
            with pytest.raises(ValueError, match="^matrix is not real$"):
                decompose(bad)
        want = decompose(s)
        for same in (s.astype(complex), s.tolist(), s + 0j * np.eye(3)):
            got = decompose(same)
            assert all(np.array_equal(getattr(got, f), getattr(want, f))
                       for f in want.__dataclass_fields__)
