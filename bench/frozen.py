"""Frozen reference exponential: the calibration clock and correctness reference.

A verbatim copy of the scaling-and-squaring Taylor algorithm that
`structexp.oracle.expm_series` used when this benchmark was written:
degree-18 Horner Taylor sum, scaling to 1-norm <= 1/2, squarings capped at 40.
It is owned by the benchmark and never changes, so a later speed-up of the
library's own oracle shows as a gain instead of moving the baseline.
"""

import math

import numpy as np

TAYLOR_DEGREE = 18
SCALING_THRESHOLD = 0.5
MAX_SQUARINGS = 40

# the failure threshold of an op: structexp's CLI VERIFY_TOL
FAIL_TOL = 1e-10


def expm_series(a) -> np.ndarray:
    """exp(A) by squaring exp(A / 2^s). Raises OverflowError if the input or
    the result is not finite, as the library oracle did."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 3, 4):
        raise ValueError("expected a square matrix of size 2, 3 or 4")
    dtype = np.complex128 if np.iscomplexobj(a) else np.float64
    a = a.astype(dtype)
    if not np.all(np.isfinite(a)):
        raise OverflowError("non-finite entries in input")

    norm = np.linalg.norm(a, 1)
    s = 0
    if norm > SCALING_THRESHOLD:
        s = int(math.ceil(math.log2(norm / SCALING_THRESHOLD)))
        s = min(s, MAX_SQUARINGS)
    b = a / (2.0 ** s)

    eye = np.eye(a.shape[0], dtype=dtype)
    r = eye.copy()
    for k in range(TAYLOR_DEGREE, 0, -1):
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
