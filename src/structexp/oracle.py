"""Independent reference exponential via scaling and squaring of a Taylor sum.

This module intentionally shares no code with the closed-form routes: it sees
only a dense numpy array, so it can serve as an oracle for all of them.
Degree-18 Taylor on a matrix scaled below norm 1/2 leaves a truncation error
well under 1e-13 for sizes up to 4.
"""

from __future__ import annotations

import math

import numpy as np

_ALLOWED_SIZES = (2, 3, 4)
_TAYLOR_DEGREE = 18
_SCALING_THRESHOLD = 0.5
_MAX_SQUARINGS = 40


def expm_series(a) -> np.ndarray:
    """exp(A) by squaring exp(A / 2^s), the latter summed as a Horner Taylor
    polynomial. Raises OverflowError if the input or result is not finite,
    and ValueError if the 1-norm is over 0.5 * 2^_MAX_SQUARINGS (5.5e11).
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in _ALLOWED_SIZES:
        raise ValueError("expected a square matrix of size 2, 3 or 4")
    dtype = np.complex128 if np.iscomplexobj(a) else np.float64
    a = a.astype(dtype)
    if not np.isfinite(a).all():
        raise OverflowError("non-finite entries in input")

    # a column has at most four entries, so a quarter of the 1-norm is finite
    norm = 4.0 * float(np.abs(a / 4.0).sum(axis=0).max())
    s = 0
    if norm > _SCALING_THRESHOLD:
        s = math.ceil(math.log2(norm / _SCALING_THRESHOLD)) if norm < math.inf else norm
        if s > _MAX_SQUARINGS:
            raise ValueError(f"1-norm {norm:.3e} needs {s} squarings, over the "
                             f"cap of {_MAX_SQUARINGS}")
    b = a / (2.0 ** s)

    # r = eye + (b @ r) / k for k = 18, ..., 1, in two buffers
    eye = np.eye(a.shape[0], dtype=dtype)
    r, t = eye.copy(), np.empty_like(eye)
    for k in range(_TAYLOR_DEGREE, 0, -1):
        np.matmul(b, r, out=t)
        np.divide(t, k, out=t)
        np.add(eye, t, out=r)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            r = r @ r
    # a non-finite r_ij stays non-finite in every later square, through its
    # r_ii * r_ij term, so one check after the loop sees any overflow
    if s and not np.isfinite(r).all():
        raise OverflowError("overflow while squaring")
    return r


def _norm(x) -> float:
    """Frobenius norm, not finite (and no warning) when its square overflows."""
    return math.sqrt(np.vdot(x, x).real)


def rel_error(a, b) -> float:
    """Frobenius distance normalized by 1 + ||b||_F."""
    a = np.asarray(a)
    b = np.asarray(b)
    num, den = _norm(a - b), 1.0 + _norm(b)
    if not (num < math.inf and den < math.inf):
        big = max(np.abs(a).max(), np.abs(b).max())
        if big < math.inf:
            # a squared norm overflowed: take both in units of the largest entry
            num, den = _norm(a / big - b / big), 1.0 / big + _norm(b / big)
    return num / den
