import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from structexp.quat import Quaternion, quat_exp, quat_mul

ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def close(a: Quaternion, b: Quaternion, tol=1e-12) -> bool:
    return all(abs(x - y) <= tol for x, y in
               zip(a.components, b.components))


def test_hamilton_table():
    assert close(quat_mul(I, J), K)
    assert close(quat_mul(J, K), I)
    assert close(quat_mul(K, I), J)
    assert close(quat_mul(I, I), Quaternion(-1.0, 0.0, 0.0, 0.0))


def test_identity():
    q = Quaternion(0.3, -1.2, 0.5, 2.0)
    assert close(quat_mul(ONE, q), q)
    assert close(quat_mul(q, ONE), q)


@given(quats, quats)
def test_conj_antihomomorphism(a, b):
    lhs = quat_mul(a, b).conj()
    rhs = quat_mul(b.conj(), a.conj())
    scale = 1.0 + a.norm() * b.norm()
    assert all(abs(x - y) <= 1e-12 * scale
               for x, y in zip(lhs.components, rhs.components))


@given(quats)
def test_conj_times_self_is_norm_squared(q):
    r = quat_mul(q.conj(), q)
    n2 = q.norm() ** 2
    assert abs(r.w - n2) <= 1e-12 * (1.0 + n2)
    assert abs(r.x) <= 1e-12 * (1.0 + n2)
    assert abs(r.y) <= 1e-12 * (1.0 + n2)
    assert abs(r.z) <= 1e-12 * (1.0 + n2)


def test_pure_square_is_minus_norm_squared():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = Quaternion.pure(rng.standard_normal(3))
        sq = quat_mul(p, p)
        assert abs(sq.w + p.norm() ** 2) <= 1e-12 * (1.0 + p.norm() ** 2)
        assert abs(sq.x) + abs(sq.y) + abs(sq.z) <= 1e-12 * (1.0 + p.norm() ** 2)


def test_exp_zero_and_scalar():
    assert close(quat_exp(Quaternion(0.0, 0.0, 0.0, 0.0)), ONE)
    e = quat_exp(Quaternion(2.0, 0.0, 0.0, 0.0))
    assert close(e, Quaternion(math.exp(2.0), 0.0, 0.0, 0.0), tol=1e-12)


def test_exp_half_pi_i():
    assert close(quat_exp(Quaternion(0.0, math.pi / 2, 0.0, 0.0)), I, tol=1e-15)


def test_exp_generic_frozen():
    # series exponential of the left-multiplication matrix of 1+2i+3j-k,
    # first column read back as a quaternion
    e = quat_exp(Quaternion(1.0, 2.0, 3.0, -1.0))
    expected = (-2.243395443483464, -0.8204934026179022,
                -1.2307401039268528, 0.4102467013089503)
    assert all(abs(x - y) <= 1e-12 for x, y in zip(e.components, expected))


def test_exp_pure_has_unit_norm():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = Quaternion.pure(rng.uniform(-4.0, 4.0, 3))
        assert abs(quat_exp(p).norm() - 1.0) <= 1e-14


def test_exp_inverse():
    rng = np.random.default_rng(6)
    for _ in range(200):
        v = rng.uniform(-1.0, 1.0, 3)
        v *= rng.uniform(0.0, 10.0) / max(np.linalg.norm(v), 1e-9)
        p = Quaternion.pure(v)
        r = quat_mul(quat_exp(p), quat_exp(-p))
        assert close(r, ONE, tol=1e-13)


def test_exp_additive_on_commuting():
    # scalar plus parallel pure parts commute
    rng = np.random.default_rng(7)
    for _ in range(100):
        v = rng.standard_normal(3)
        a = Quaternion(rng.normal(), *(rng.normal() * v))
        b = Quaternion(rng.normal(), *(rng.normal() * v))
        lhs = quat_exp(a + b)
        rhs = quat_mul(quat_exp(a), quat_exp(b))
        scale = 1.0 + lhs.norm()
        assert all(abs(x - y) <= 1e-12 * scale
                   for x, y in zip(lhs.components, rhs.components))


def test_exp_small_pure_series_branch():
    # below the sinc cutoff the series branch must still give unit norm
    # and match cos/sin to full precision
    for eps in (0.0, 1e-9, 1e-6, 9.9e-5):
        e = quat_exp(Quaternion(0.0, eps, 0.0, 0.0))
        assert abs(e.w - math.cos(eps)) <= 1e-16
        assert abs(e.x - math.sin(eps)) <= 1e-16
        assert abs(e.norm() - 1.0) <= 1e-15


def test_value_type_operators():
    q = Quaternion(0.5, -1.25, 2.0, 3.5)
    assert q.vector == (-1.25, 2.0, 3.5)
    assert 2 * q == q * 2 == Quaternion(1.0, -2.5, 4.0, 7.0)
    assert q - q == Quaternion()
    assert (-q).components == (-0.5, 1.25, -2.0, -3.5)
    assert eval(repr(q)) == q
    assert (q == "x") is False
    for op in (lambda: q * "x", lambda: object() * q,
               lambda: q + "x", lambda: q - "x"):
        with pytest.raises(TypeError):
            op()
