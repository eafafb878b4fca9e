"""Independent reference exponential via scaling and squaring of a Taylor sum.

This module intentionally shares no code with the closed-form routes: it sees
only a dense numpy array, so it can serve as an oracle for all of them.
Degree-18 Taylor on a matrix scaled below norm 1/2 leaves a truncation error
well under 1e-13 for sizes up to 4.

The Horner loop r = I + (B r) / k, k = 18, ..., 1 (Moler and Van Loan,
"Nineteen Dubious Ways to Compute the Exponential of a Matrix, Twenty-Five
Years Later", SIAM Review 45(1), 2003) is run with as few numpy calls as its
floating-point operations allow, and every result is bit for bit that of
the plain loop of new arrays:
- the identity of each size and dtype is built once, read-only, at import;
- each divisor k is a read-only 0-d float64 array, which numpy divides by
  with less dispatch than by a Python number (to the same float: the
  quotient is unchanged);
- the first step is I + B / 18, since B @ I is B exactly (a zero term can
  differ in sign only, and adding I makes every zero +0.0), and the last
  step, k = 1, has no divide, since T / 1 is T (a complex quotient can
  differ in the sign of a zero only, which adding I also removes);
- the loop and the squarings write into two C-ordered buffers, the layout
  of the plain loop's new arrays, and a result is never one of the cached
  identities;
- each product is ndarray.dot with an output buffer: for 2-d operands it
  calls the same BLAS gemm as the @ operator with less dispatch, and the
  1-norm and the finiteness checks call the ufunc reductions that
  ndarray.sum, .max and .all call.
"""

from __future__ import annotations

import math

import numpy as np

_ALLOWED_SIZES = (2, 3, 4)
_TAYLOR_DEGREE = 18
_SCALING_THRESHOLD = 0.5
_MAX_SQUARINGS = 40


def _read_only(x: np.ndarray) -> np.ndarray:
    x.setflags(write=False)
    return x


# the divisors of the Horner steps between the first and the last, k = 17,
# ..., 2
_DIVISORS = tuple(_read_only(np.array(float(k)))
                  for k in range(_TAYLOR_DEGREE - 1, 1, -1))
_EYES = {(n, np.dtype(dtype)): _read_only(np.eye(n, dtype=dtype))
         for n in _ALLOWED_SIZES for dtype in (np.float64, np.complex128)}
_SHAPES = frozenset((n, n) for n in _ALLOWED_SIZES)


def expm_series(a) -> np.ndarray:
    """exp(A) by squaring exp(A / 2^s), the latter summed as a Horner Taylor
    polynomial. Raises OverflowError if the input or result is not finite,
    ValueError if the 1-norm is over 0.5 * 2^_MAX_SQUARINGS (5.5e11), and
    TypeError unless the entries are bool, integer, float or complex (the
    routes' rule, written here apart). The result is a new writable array.
    """
    a = np.asarray(a)
    if a.shape not in _SHAPES:
        raise ValueError("expected a square matrix of size 2, 3 or 4")
    if a.dtype.kind not in "biufc":
        raise TypeError("matrix entries must be bool, integer, float or complex numbers")
    dtype = np.dtype(np.complex128 if a.dtype.kind == "c" else np.float64)
    a = a.astype(dtype, copy=False)
    # ahead of the norm: np.abs warns on a complex inf
    if not np.logical_and.reduce(np.isfinite(a), None):
        raise OverflowError("non-finite entries in input")

    # a column has at most four entries, so a quarter of the 1-norm is finite
    norm = 4.0 * float(np.maximum.reduce(np.add.reduce(np.abs(a / 4.0), 0), None))
    s = 0
    if norm > _SCALING_THRESHOLD:
        s = math.ceil(math.log2(norm / _SCALING_THRESHOLD)) if norm < math.inf else norm
        if s > _MAX_SQUARINGS:
            raise ValueError(f"1-norm {norm:.3e} needs {s} squarings, over the "
                             f"cap of {_MAX_SQUARINGS}")
    b = a / (2.0 ** s)

    # r = I + (b @ r) / k for k = 18, ..., 1, in two buffers
    eye = _EYES[a.shape[0], dtype]
    r = np.divide(b, float(_TAYLOR_DEGREE), order="C")
    np.add(eye, r, out=r)
    t = np.empty_like(r)
    for k in _DIVISORS:
        b.dot(r, out=t)
        np.divide(t, k, out=t)
        np.add(eye, t, out=r)
    # k = 1
    b.dot(r, out=t)
    np.add(eye, t, out=r)
    if not s:
        return r
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            r.dot(r, out=t)
            r, t = t, r
    # a non-finite r_ij stays non-finite in every later square, through its
    # r_ii * r_ij term, so one check after the loop sees any overflow
    if not np.logical_and.reduce(np.isfinite(r), None):
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
