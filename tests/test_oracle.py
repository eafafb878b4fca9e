"""Tests for the series-based reference exponential and the error metric."""

import math

import numpy as np
import pytest

from structexp import basis_matrix, expm2, expm_series, rel_error


def test_zero_is_identity():
    for n in (2, 3, 4):
        assert np.array_equal(expm_series(np.zeros((n, n))), np.eye(n))


def test_diagonal_known_values():
    got = expm_series(np.diag([1.0, 2.0, 3.0, 4.0]))
    want = np.diag([math.exp(k) for k in (1, 2, 3, 4)])
    assert rel_error(got, want) < 1e-13
    assert np.max(np.abs(got - np.diag(np.diag(got)))) == 0.0


def test_nilpotent_square_zero():
    e12 = np.zeros((4, 4))
    e12[0, 1] = 1.0
    assert np.array_equal(expm_series(e12), np.eye(4) + e12)


def test_full_jordan_block():
    n = np.diag(np.ones(3), 1)
    want = np.eye(4) + n + n @ n / 2.0 + n @ n @ n / 6.0
    assert np.max(np.abs(expm_series(n) - want)) < 1e-14


def test_rotation_half_turn():
    a = np.array([[0.0, math.pi], [-math.pi, 0.0]])
    assert np.linalg.norm(expm_series(a) + np.eye(2)) < 1e-13


def test_complex_diagonal():
    got = expm_series(np.diag([1j * math.pi, -1j * math.pi]))
    assert np.linalg.norm(got + np.eye(2)) < 1e-13


def test_matches_eigendecomposition_on_symmetric():
    rng = np.random.default_rng(42)
    for _ in range(200):
        m = rng.uniform(-2.0, 2.0, (4, 4))
        s = m + m.T
        lam, q = np.linalg.eigh(s)
        want = q @ np.diag(np.exp(lam)) @ q.T
        assert rel_error(expm_series(s), want) < 1e-13


def test_large_norm_accuracy():
    # scaling and squaring keeps working well past norm 10
    rng = np.random.default_rng(43)
    m = rng.uniform(-1.0, 1.0, (4, 4))
    s = m + m.T
    s *= 30.0 / np.linalg.norm(s)
    lam, q = np.linalg.eigh(s)
    want = q @ np.diag(np.exp(lam)) @ q.T
    assert rel_error(expm_series(s), want) < 1e-12


def test_inverse_pairs():
    rng = np.random.default_rng(44)
    for _ in range(100):
        a = rng.uniform(-2.5, 2.5, (4, 4))
        p = expm_series(a) @ expm_series(-a)
        assert np.linalg.norm(p - np.eye(4)) < 1e-12


def test_transpose_commutes():
    rng = np.random.default_rng(45)
    for _ in range(100):
        a = rng.uniform(-2.0, 2.0, (4, 4))
        assert np.linalg.norm(expm_series(a.T) - expm_series(a).T) < 1e-13


def test_agrees_with_expm2():
    rng = np.random.default_rng(46)
    for _ in range(100):
        a = rng.uniform(-2.0, 2.0, (2, 2))
        assert rel_error(expm_series(a), expm2(a)) < 1e-13
        z = a + 1j * rng.uniform(-2.0, 2.0, (2, 2))
        assert rel_error(expm_series(z), expm2(z)) < 1e-13


def test_overflow_raises():
    with pytest.raises(OverflowError):
        expm_series(np.diag([1000.0, 1000.0, 1000.0, 1000.0]))
    bad = np.zeros((3, 3))
    bad[0, 0] = np.inf
    with pytest.raises(OverflowError):
        expm_series(bad)


def test_scaling_cap_raises_instead_of_clamping():
    # exp(t * (i (x) 1)) is a rotation, but 1e13 needs 45 squarings
    with pytest.raises(ValueError, match="cap of 40"):
        expm_series(1e13 * basis_matrix(1, 0))
    # 5e11 needs exactly 40, the cap itself
    assert np.isfinite(expm_series(5e11 * basis_matrix(1, 0))).all()


def test_rejects_bad_shapes():
    for bad in (np.eye(5), np.eye(1), np.ones((2, 3)), np.ones(4)):
        with pytest.raises(ValueError):
            expm_series(bad)


def _rel_error_reference(a, b):
    num = 0.0
    den = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            num += abs(a[i, j] - b[i, j]) ** 2
            den += abs(b[i, j]) ** 2
    return math.sqrt(num) / (1.0 + math.sqrt(den))


def test_rel_error_examples():
    assert rel_error(np.eye(4), np.eye(4)) == 0.0
    # ||I - 2I|| = 2, 1 + ||2I|| = 5 for size 4
    assert rel_error(np.eye(4), 2.0 * np.eye(4)) == 0.4
    r3 = math.sqrt(3.0) / (1.0 + 2.0 * math.sqrt(3.0))
    assert rel_error(np.eye(3), 2.0 * np.eye(3)) == pytest.approx(r3, rel=1e-15)


def test_rel_error_matches_reference():
    rng = np.random.default_rng(47)
    for _ in range(50):
        a = rng.uniform(-3.0, 3.0, (4, 4))
        b = rng.uniform(-3.0, 3.0, (4, 4))
        assert rel_error(a, b) == pytest.approx(_rel_error_reference(a, b), rel=1e-14)
    z = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
    w = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
    assert rel_error(z, w) == pytest.approx(_rel_error_reference(z, w), rel=1e-14)
