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
    if not np.all(np.isfinite(a)):
        raise OverflowError("non-finite entries in input")

    norm = np.linalg.norm(a, 1)
    s = 0
    if norm > _SCALING_THRESHOLD:
        s = int(math.ceil(math.log2(norm / _SCALING_THRESHOLD)))
        if s > _MAX_SQUARINGS:
            raise ValueError(f"1-norm {norm:.3e} needs {s} squarings, over the "
                             f"cap of {_MAX_SQUARINGS}")
    b = a / (2.0 ** s)

    eye = np.eye(a.shape[0], dtype=dtype)
    r = eye.copy()
    for k in range(_TAYLOR_DEGREE, 0, -1):
        r = eye + (b @ r) / k
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            r = r @ r
            if not np.all(np.isfinite(r)):
                raise OverflowError("overflow while squaring")
    return r


def rel_error(a, b) -> float:
    """Frobenius distance normalized by 1 + ||b||_F."""
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b)))
