"""Small dense kernels: phi functions, 2x2 exponentials and the 3x3
symmetric eigendecomposition in closed form, and a LAPACK-backed 3x3 SVD.

phi_c(x) = cos(sqrt(x)) and phi_s(x) = sin(sqrt(x))/sqrt(x) are even entire
functions of sqrt(x), so they are well defined for every real or complex x;
negative real arguments land on the cosh/sinh branch automatically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

_TAYLOR_CUTOFF = 1e-8
_EPS = float(np.finfo(float).eps)


def _phi_c_series(x):
    return 1.0 - x / 2.0 + x * x / 24.0 - x ** 3 / 720.0


def _phi_s_series(x):
    return 1.0 - x / 6.0 + x * x / 120.0 - x ** 3 / 5040.0


def phi_c(x):
    """cos(sqrt(x)); equals cosh(sqrt(-x)) for x < 0. Real in, real out."""
    if isinstance(x, (complex, np.complexfloating)):
        x = complex(x)
        if abs(x) < _TAYLOR_CUTOFF:
            return _phi_c_series(x)
        return cmath.cos(cmath.sqrt(x))
    x = float(x)
    if abs(x) < _TAYLOR_CUTOFF:
        return float(_phi_c_series(x))
    if x > 0.0:
        return math.cos(math.sqrt(x))
    return math.cosh(math.sqrt(-x))


def phi_s(x):
    """sin(sqrt(x))/sqrt(x); equals sinh(sqrt(-x))/sqrt(-x) for x < 0."""
    if isinstance(x, (complex, np.complexfloating)):
        x = complex(x)
        if abs(x) < _TAYLOR_CUTOFF:
            return _phi_s_series(x)
        r = cmath.sqrt(x)
        return cmath.sin(r) / r
    x = float(x)
    if abs(x) < _TAYLOR_CUTOFF:
        return float(_phi_s_series(x))
    if x > 0.0:
        r = math.sqrt(x)
        return math.sin(r) / r
    r = math.sqrt(-x)
    return math.sinh(r) / r


def expm2(a) -> np.ndarray:
    """Closed-form exponential of a real or complex 2x2 matrix.

    Split off half the trace: A = (tr/2) I + A0 with A0 traceless, so
    A0^2 = -det(A0) I by Cayley-Hamilton and

        exp(A) = exp(tr/2) (phi_c(det A0) I + phi_s(det A0) A0).
    """
    a = np.asarray(a)
    if a.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    is_cplx = np.iscomplexobj(a)
    a = a.astype(np.complex128 if is_cplx else np.float64)
    half_tr = (a[0, 0] + a[1, 1]) / 2.0
    a0 = a - half_tr * np.eye(2, dtype=a.dtype)
    d = a0[0, 0] * a0[1, 1] - a0[0, 1] * a0[1, 0]
    scale = cmath.exp(complex(half_tr)) if is_cplx else math.exp(float(half_tr))
    return scale * (phi_c(d) * np.eye(2, dtype=a.dtype) + phi_s(d) * a0)


@dataclass(frozen=True)
class SymEig3:
    """Eigenvalues in descending order and an orthogonal eigenvector matrix."""
    eigenvalues: np.ndarray
    q: np.ndarray


@dataclass(frozen=True)
class Svd3:
    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def _drop_axis(v: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to unit v, via the least-aligned axis."""
    k = int(np.argmin(np.abs(v)))
    e = np.zeros(3)
    e[k] = 1.0
    w = e - v * v[k]
    return w / np.linalg.norm(w)


def sym_eig3(s) -> SymEig3:
    """Closed-form eigendecomposition of a symmetric 3x3 matrix.

    Eigenvalues come from the trigonometric solution of the characteristic
    cubic (acos argument clamped to [-1, 1]).  The eigenvector of the most
    isolated eigenvalue is the largest-magnitude cross product of rows of
    (S - lambda I); the remaining pair is resolved by an exact 2x2 rotation
    inside the orthogonal complement, which stays stable through repeated
    eigenvalues.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    nrm = np.linalg.norm(s)
    if np.linalg.norm(s - s.T) > 1e-12 * max(1.0, nrm):
        raise ValueError("matrix is not symmetric")
    s = (s + s.T) / 2.0

    off = s[0, 1] ** 2 + s[0, 2] ** 2 + s[1, 2] ** 2
    diag = np.diag(s)
    if off == 0.0:
        order = np.argsort(-diag, kind="stable")
        return SymEig3(diag[order].copy(), np.eye(3)[:, order])

    q_mean = diag.sum() / 3.0
    p2 = float(((diag - q_mean) ** 2).sum() + 2.0 * off)
    p = math.sqrt(p2 / 6.0)
    b = (s - q_mean * np.eye(3)) / p
    r = np.linalg.det(b) / 2.0
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    lam_hi = q_mean + 2.0 * p * math.cos(phi)
    lam_lo = q_mean + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    lam_mid = 3.0 * q_mean - lam_hi - lam_lo
    lams = np.array([lam_hi, lam_mid, lam_lo])

    gaps = [min(abs(lams[i] - lams[j]) for j in range(3) if j != i) for i in range(3)]
    m = int(np.argmax(gaps))
    scale = float(np.max(np.abs(lams)))

    c = s - lams[m] * np.eye(3)
    crosses = [np.cross(c[0], c[1]), np.cross(c[0], c[2]), np.cross(c[1], c[2])]
    norms = [np.linalg.norm(x) for x in crosses]
    best = int(np.argmax(norms))
    if norms[best] <= (1e-14 * scale) ** 2:
        # numerically a triple eigenvalue; any orthonormal frame serves
        return SymEig3(np.sort(lams)[::-1].copy(), np.eye(3))
    v = crosses[best] / norms[best]

    w1 = _drop_axis(v)
    w2 = np.cross(v, w1)
    t00 = float(w1 @ s @ w1)
    t01 = float(w1 @ s @ w2)
    t11 = float(w2 @ s @ w2)
    theta = 0.5 * math.atan2(2.0 * t01, t00 - t11)
    ct, st = math.cos(theta), math.sin(theta)
    mu1 = ct * ct * t00 + 2.0 * ct * st * t01 + st * st * t11
    mu2 = st * st * t00 - 2.0 * ct * st * t01 + ct * ct * t11
    u1 = ct * w1 + st * w2
    u2 = -st * w1 + ct * w2

    triples = sorted([(lams[m], v), (mu1, u1), (mu2, u2)], key=lambda t: -t[0])
    values = np.array([t[0] for t in triples])
    q = np.column_stack([t[1] for t in triples])
    return SymEig3(values, q)


def svd3(m) -> Svd3:
    """SVD of a real 3x3 matrix, m = u @ diag(sigma) @ v.T, from LAPACK.

    sigma_1 >= sigma_2 >= sigma_3 >= 0 and u, v are orthogonal.  Singular
    values at or below 3 * eps * sigma_1 (numpy's matrix_rank cutoff) are
    rounding noise of a rank-deficient input and are reported as exact zeros.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    u, sigma, vh = np.linalg.svd(m)
    sigma[sigma <= 3.0 * _EPS * sigma[0]] = 0.0
    return Svd3(u, sigma, vh.T)
