"""Tests for the series-based reference exponential and the error metric."""

import math
import warnings

import numpy as np
import pytest

from structexp import basis_matrix, expm2, expm_series, oracle, rel_error


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


@pytest.mark.parametrize("entry", [5e307, 1.7e308])
def test_a_finite_norm_whose_ratio_overflows_is_over_the_cap(entry):
    # finite entries: the 1-norm 1e308 is finite but its ratio to the
    # scaling threshold is not, and the 1-norm 3.4e308 is itself past the
    # float64 range; both are over the cap, not an OverflowError of ceil
    with pytest.raises(ValueError, match="cap of 40"):
        expm_series(np.full((2, 2), entry))


def _plain_series(a):
    """expm_series as a plain Horner loop of new arrays, to pin it bit for bit."""
    a = np.asarray(a)
    dtype = np.complex128 if np.iscomplexobj(a) else np.float64
    a = a.astype(dtype)
    norm = 4.0 * float(np.abs(a / 4.0).sum(axis=0).max())
    s = math.ceil(math.log2(norm / 0.5)) if norm > 0.5 else 0
    b = a / (2.0 ** s)
    eye = np.eye(a.shape[0], dtype=dtype)
    r = eye.copy()
    for k in range(18, 0, -1):
        r = eye + (b @ r) / k
    for _ in range(s):
        r = r @ r
    return r, s


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_series_equals_the_plain_horner_loop_bit_for_bit(n, kind):
    # generators of rotations (skew or skew-Hermitian) stay finite at any
    # scale, so the norms reach 13 squarings; dense ones stay small
    rng = np.random.default_rng(40 + n)
    squarings = set()
    for exponent in range(-3, 14):
        for skew in (True, False):
            if not skew and exponent > 2:
                continue
            m = rng.standard_normal((n, n))
            if kind == "complex":
                m = m + 1j * rng.standard_normal((n, n))
            if skew:
                m = m - m.conj().T
            a = m * (0.4 * 2.0 ** exponent / np.abs(m).sum(axis=0).max())
            expected, s = _plain_series(a)
            got = expm_series(a)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected), (exponent, skew)
            squarings.add(s)
    assert min(squarings) == 0 and max(squarings) >= 12
    # inputs that grow as fast as their 1-norm c allows, e^c in one entry or
    # spread over all: below the bound under which the squarings run with no
    # overflow guard, and above it where e^c is still finite
    dtype = complex if kind == "complex" else float
    for c in (699.0, 699.99, np.nextafter(oracle._SAFE_NORM, 0.0), 700.0, 709.0):
        one = np.zeros((n, n), dtype)
        one[0, 0] = c
        for a in (one, np.full((n, n), c / n, dtype)):
            expected, _ = _plain_series(a)
            assert np.array_equal(expm_series(a), expected), (c, a[0, 1])


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_series_of_non_c_ordered_input_equals_the_plain_loop_bit_for_bit(n, kind):
    # the Horner products run on B, which keeps A's layout: transposed,
    # Fortran-ordered, strided and reversed views
    rng = np.random.default_rng(50 + n)
    for exponent in range(-3, 10):
        m = rng.standard_normal((n, n))
        if kind == "complex":
            m = m + 1j * rng.standard_normal((n, n))
        if exponent > 2:
            m = m - m.conj().T
        a = m * (0.4 * 2.0 ** exponent / np.abs(m).sum(axis=0).max())
        wide = np.zeros((2 * n, 3 * n), a.dtype)
        wide[::2, ::3] = a
        views = (a.T, np.asfortranarray(a), wide[::2, ::3], a[::-1], a[:, ::-1])
        for view in views:
            assert not view.flags.c_contiguous
            expected, _ = _plain_series(view)
            assert np.array_equal(expm_series(view), expected), (exponent, view.strides)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_result_is_a_fresh_writable_array(n):
    first = expm_series(np.zeros((n, n)))
    assert first.flags.writeable and first.flags.owndata
    first[...] = 7.0
    assert np.array_equal(expm_series(np.zeros((n, n))), np.eye(n))
    # the same holds after squarings and for complex input
    scaled = expm_series(np.full((n, n), 3.0 + 1j))
    scaled[...] = 0.0
    assert np.array_equal(expm_series(np.zeros((n, n), dtype=complex)), np.eye(n))
    assert expm_series(np.full((n, n), 3.0 + 1j))[0, 0] != 0.0


def test_cached_identities_are_read_only():
    assert len(oracle._EYES) == 6
    for (n, dtype), eye in oracle._EYES.items():
        assert not eye.flags.writeable
        assert eye.dtype == dtype and np.array_equal(eye, np.eye(n))
        with pytest.raises(ValueError):
            eye[0, 0] = 2.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_integer_bool_and_float32_input_is_its_float64_copy(n):
    rng = np.random.default_rng(49 + n)
    inputs = [rng.integers(-3, 4, (n, n)), rng.integers(0, 2, (n, n)).astype(bool),
              np.eye(n, dtype=np.int8), (rng.standard_normal((n, n)) * 2).astype(np.float32),
              rng.integers(0, 5, (n, n), dtype=np.uint16)]
    for a in inputs:
        want = expm_series(a.astype(np.float64))
        got = expm_series(a)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes(), a.dtype


def test_series_errors_are_unchanged():
    with pytest.raises(OverflowError, match="^non-finite entries in input$"):
        expm_series(np.array([[0.0, np.nan], [0.0, 0.0]]))
    with pytest.raises(OverflowError, match="^overflow while squaring$"):
        expm_series(np.diag([1000.0, 1000.0, 1000.0, 1000.0]))
    # just past e^c overflowing, over the bound of the unguarded squarings
    for dtype in (float, complex):
        with pytest.raises(OverflowError, match="^overflow while squaring$"):
            expm_series(np.diag(np.array([710.0, 0.0], dtype)))
    # overflows at squaring 11 of 21, and its zeros turn to NaN after
    with pytest.raises(OverflowError, match="^overflow while squaring$"):
        expm_series(np.diag([1e6, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match=r"^1-norm 1\.000e\+13 needs 45 squarings, "
                                         r"over the cap of 40$"):
        expm_series(1e13 * basis_matrix(1, 0))


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


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_rel_error_of_huge_matrices(scale):
    # their squared norms overflow; the reference sums in units of the scale
    rng = np.random.default_rng(48)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(20):
            a = rng.uniform(-3.0, 3.0, (4, 4))
            b = rng.uniform(-3.0, 3.0, (4, 4))
            want = _rel_error_reference(a, b) * (1.0 + np.linalg.norm(b))
            want /= 1.0 / scale + np.linalg.norm(b)
            assert rel_error(a * scale, b * scale) == pytest.approx(want, rel=1e-14)


def test_one_norm_past_the_float64_range_is_over_the_cap():
    # each entry is finite, but a column sums to more than 1.8e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (2, 3, 4):
            with pytest.raises(ValueError, match="cap of 40"):
                expm_series(np.full((n, n), 1e308))
