import numpy as np
import pytest

from structexp.hxh import (BASIS_NAMES, I22, J4, R4, HxHElement, basis_matrix,
                           from_matrix, hxh_mul, scalar_square, to_matrix)


def test_basis_matrix_constants():
    assert np.array_equal(basis_matrix(0, 0), np.eye(4))
    assert np.array_equal(basis_matrix(2, 1), R4)
    assert np.array_equal(basis_matrix(0, 2), J4)
    assert np.array_equal(basis_matrix(1, 1), I22)
    assert np.array_equal(R4, np.eye(4)[::-1])


def test_basis_matrices_orthogonal_norm_two():
    for a in range(4):
        for b in range(4):
            m = basis_matrix(a, b)
            assert np.allclose(m.T @ m, np.eye(4), atol=1e-15)
            assert abs(np.linalg.norm(m) - 2.0) <= 1e-15


def test_basis_pairwise_frobenius_orthogonal():
    # <M_ab, M_cd> = 4 delta_ac delta_bd
    mats = [basis_matrix(a, b) for a in range(4) for b in range(4)]
    gram = np.array([[np.sum(x * y) for y in mats] for x in mats])
    assert np.allclose(gram, 4.0 * np.eye(16), atol=1e-14)


def test_from_matrix_identity_and_r4():
    c = from_matrix(np.eye(4)).c
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(c, expected, atol=1e-15)

    c = from_matrix(R4).c
    expected = np.zeros((4, 4))
    expected[2, 1] = 1.0
    assert np.allclose(c, expected, atol=1e-15)


def test_from_matrix_against_linear_solve():
    # independent extraction: solve the 16x16 system over the raveled basis
    rng = np.random.default_rng(21)
    basis_cols = np.column_stack(
        [basis_matrix(a, b).ravel() for a in range(4) for b in range(4)])
    for _ in range(25):
        a = rng.standard_normal((4, 4))
        coeffs = np.linalg.solve(basis_cols, a.ravel()).reshape(4, 4)
        assert np.allclose(from_matrix(a).c, coeffs, atol=1e-13)
        a = a + 1j * rng.standard_normal((4, 4))
        coeffs = np.linalg.solve(basis_cols, a.ravel()).reshape(4, 4)
        assert np.allclose(from_matrix(a).c, coeffs, atol=1e-13)


def test_to_matrix_left_multiplication_by_i():
    # column j of M_{i(x)1} is the quaternion product i * e_j
    from structexp.quat import Quaternion, quat_mul

    u = HxHElement.zero()
    u.c[1, 0] = 1.0
    m = u.to_matrix()
    i = Quaternion(0.0, 1.0, 0.0, 0.0)
    basis = [Quaternion(1, 0, 0, 0), Quaternion(0, 1, 0, 0),
             Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1)]
    expected = np.column_stack([quat_mul(i, e).components for e in basis])
    assert np.allclose(m, expected, atol=1e-15)
    assert np.allclose(m, -m.T, atol=1e-15)


def test_round_trips():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = rng.standard_normal((4, 4))
        assert np.linalg.norm(to_matrix(from_matrix(a)) - a) <= 1e-14 * (
            1.0 + np.linalg.norm(a))
    u = HxHElement.zero()
    u.c[:] = rng.standard_normal((4, 4))
    v = from_matrix(to_matrix(u))
    assert np.allclose(v.c, u.c, atol=1e-14)


def test_mul_examples():
    r = HxHElement.basis(2, 1)
    j = HxHElement.basis(0, 2)
    one = HxHElement.one()
    assert np.allclose(hxh_mul(r, r).c, one.c, atol=1e-15)
    assert np.allclose(hxh_mul(j, j).c, -one.c, atol=1e-15)

    p = HxHElement.zero()
    p.c[1:, 0] = (0.3, -1.0, 2.0)
    q = HxHElement.zero()
    q.c[0, 1:] = (0.5, 0.7, -0.2)
    prod = hxh_mul(p, q)
    expected = np.outer(p.c[1:, 0], q.c[0, 1:])
    assert np.allclose(prod.c[1:, 1:], expected, atol=1e-14)
    assert np.allclose(prod.c[0, :], 0.0, atol=1e-14)
    assert np.allclose(prod.c[:, 0], 0.0, atol=1e-14)


def test_mul_is_matrix_homomorphism():
    rng = np.random.default_rng(4)
    for _ in range(300):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        lhs = to_matrix(hxh_mul(from_matrix(a), from_matrix(b)))
        assert np.linalg.norm(lhs - a @ b) <= 1e-12 * (
            1.0 + np.linalg.norm(a) * np.linalg.norm(b))


def test_mul_associative_unit():
    rng = np.random.default_rng(14)
    u, v, w = (from_matrix(rng.standard_normal((4, 4))) for _ in range(3))
    lhs = hxh_mul(hxh_mul(u, v), w)
    rhs = hxh_mul(u, hxh_mul(v, w))
    assert np.allclose(lhs.c, rhs.c, atol=1e-12)
    one = HxHElement.one()
    assert np.allclose(hxh_mul(one, u).c, u.c, atol=1e-15)
    assert np.allclose(hxh_mul(u, one).c, u.c, atol=1e-15)


def test_scalar_square_examples():
    r = HxHElement.basis(2, 1)
    assert scalar_square(r) == pytest.approx(1.0, abs=1e-15)

    i_left = HxHElement.basis(1, 0)
    assert scalar_square(i_left) == pytest.approx(-1.0, abs=1e-15)

    # (b/2)(i x j) + b(k x j) squares to (5/4) b^2, not (5/16) b^2
    b = 2.0
    u = HxHElement.zero()
    u.c[1, 2] = b / 2.0
    u.c[3, 2] = b
    assert scalar_square(u) == pytest.approx(5.0, abs=1e-12)


def test_scalar_square_takes_a_tolerance_whose_square_overflows():
    # the bound squares to inf, which accepts any finite off-scalar part
    u = HxHElement.basis(1, 0)
    u.c[2, 0] = 1.0
    u.c[0, 1] = 1.0
    assert scalar_square(u) is None
    assert scalar_square(u, 1e160) == pytest.approx(-3.0, abs=1e-15)


def test_scalar_square_rejects_nonscalar():
    u = HxHElement.zero()
    u.c[1, 0] = 1.0
    u.c[0, 0] = 1.0  # 1 + i has square 2i, not scalar
    assert scalar_square(u) is None


def test_scalar_square_complex():
    u = HxHElement.zero(complex_scalars=True)
    u.c[1, 0] = 1.0 + 1.0j
    mu = scalar_square(u)
    assert mu is not None
    assert mu == pytest.approx(-(1.0 + 1.0j) ** 2, abs=1e-14)


def test_skew_and_symmetric_support():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 4))
    skew = a - a.T
    c = from_matrix(skew).c
    assert np.linalg.norm(c[1:, 1:]) <= 1e-14 * (1 + np.linalg.norm(skew))
    assert abs(c[0, 0]) <= 1e-14

    sym = a + a.T
    c = from_matrix(sym).c
    assert np.linalg.norm(c[1:, 0]) <= 1e-14 * (1 + np.linalg.norm(sym))
    assert np.linalg.norm(c[0, 1:]) <= 1e-14 * (1 + np.linalg.norm(sym))


def test_basis_names():
    assert BASIS_NAMES == ("1", "i", "j", "k")


def test_bad_basis_indexes_and_tables_raise():
    with pytest.raises(ValueError, match="unknown basis name 'x'"):
        basis_matrix("x", "1")
    with pytest.raises(ValueError, match="0..3"):
        basis_matrix(4, 0)
    with pytest.raises(ValueError, match="4x4"):
        HxHElement(np.zeros((3, 3)))


def test_repr_lists_the_nonzero_terms():
    assert repr(HxHElement.zero()) == "HxHElement(0)"
    assert repr(HxHElement.basis("i", "j")) == "HxHElement(1.0*(i(x)j))"


def test_norm_is_the_frobenius_norm_of_the_table():
    c = np.random.default_rng(5).standard_normal((4, 4))
    assert HxHElement(c).norm() == np.linalg.norm(c)
