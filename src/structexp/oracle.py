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
- a float64 or complex128 input is recognised by the identity of its dtype
  and taken as it is; any other is converted once with astype;
- the identity of each size and dtype is built once, read-only, at import;
- each divisor k is a read-only 0-d array of the input's dtype, which numpy
  divides by with less dispatch than by a Python number, and with no cast
  of a float divisor to the complex loop (k + 0j, the value the cast
  makes: the quotient is unchanged);
- the first step is I + B / 18, since B @ I is B exactly (a zero term can
  differ in sign only, and adding I makes every zero +0.0), and the last
  step, k = 1, has no divide, since T / 1 is T (a complex quotient can
  differ in the sign of a zero only, which adding I also removes);
- the loop and the squarings write into two C-ordered buffers, the layout
  of the plain loop's new arrays, and a result is never one of the cached
  identities;
- each product is ndarray.dot, and each ufunc call too, takes its output
  buffer as a positional argument, which numpy parses with less dispatch
  than a keyword; for 2-d operands ndarray.dot calls the same BLAS gemm as
  the @ operator, and the 1-norm and the finiteness checks call the ufunc
  reductions that ndarray.sum, .max and .all call;
- the 1-norm is four times the largest column sum of |A / 4|; a column has
  at most four entries, so that quarter is finite exactly when every entry
  is, and for real input it is the finiteness test of the input as well
  (twice the norm, the ratio to the scaling threshold, can overflow for
  finite entries near 1e308, so it is no such test). Complex input is
  scanned with isfinite first, since np.abs can warn on a complex inf;
- below a 1-norm of _SAFE_NORM (700) the squarings run with no np.errstate
  frame and no finiteness scan after them, since they cannot overflow.
  With ||B||_1 <= 1/2 the Horner sum has ||r_0||_1 <= e^||B||_1, and
  ||r r||_1 <= ||r||_1^2, so after s squarings ||r_s||_1 <=
  e^(2^s ||B||_1) = e^||A||_1 < e^700 = 1.0e304. Every entry of a square,
  and every partial sum of its products (sum_k |r_ik| |r_kj| <=
  ||r||_1^2), is below that bound. Rounding adds a relative error of order
  2^s n u < 1e-11 to it (2^s < 4 ||A||_1 < 2800), far short of the factor
  1.8e4 left up to the float64 maximum 1.8e308. So no square holds an inf
  or a NaN, and none can raise a floating-point warning. At or above the
  bound the squarings ignore overflow, and one isfinite scan of the result
  raises OverflowError.
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


_FLOAT64 = np.dtype(np.float64)
_COMPLEX128 = np.dtype(np.complex128)
# the divisors of the Horner steps between the first and the last, k = 17,
# ..., 2, of each dtype
_DIVISORS = {dtype: tuple(_read_only(np.array(float(k), dtype))
                          for k in range(_TAYLOR_DEGREE - 1, 1, -1))
             for dtype in (_FLOAT64, _COMPLEX128)}
_EYES = {(n, dtype): _read_only(np.eye(n, dtype=dtype))
         for n in _ALLOWED_SIZES for dtype in (_FLOAT64, _COMPLEX128)}
_SHAPES = frozenset((n, n) for n in _ALLOWED_SIZES)
# below this 1-norm no square can overflow (see the module docstring)
_SAFE_NORM = 700.0


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
    dtype = a.dtype
    if dtype is not _FLOAT64 and dtype is not _COMPLEX128:
        if dtype.kind not in "biufc":
            raise TypeError("matrix entries must be bool, integer, float or complex numbers")
        dtype = _COMPLEX128 if dtype.kind == "c" else _FLOAT64
        a = a.astype(dtype, copy=False)
    if dtype is _COMPLEX128:
        # ahead of the norm: np.abs can warn on a complex inf
        if not np.logical_and.reduce(np.isfinite(a), None):
            raise OverflowError("non-finite entries in input")
        quarter = np.absolute(a / 4.0)
    else:
        quarter = a / 4.0
        np.absolute(quarter, quarter)
    # a column has at most four entries, so a quarter of the 1-norm is finite
    # exactly when every entry is: the finiteness test of real input
    quarter = float(np.maximum.reduce(np.add.reduce(quarter, 0), None))
    if not quarter < math.inf:
        raise OverflowError("non-finite entries in input")
    norm = 4.0 * quarter
    s = 0
    if norm > _SCALING_THRESHOLD:
        ratio = norm / _SCALING_THRESHOLD  # inf from a 1-norm of 9e307: over the cap
        s = math.ceil(math.log2(ratio)) if ratio < math.inf else ratio
        if s > _MAX_SQUARINGS:
            raise ValueError(f"1-norm {norm:.3e} needs {s} squarings, over the "
                             f"cap of {_MAX_SQUARINGS}")
    b = a / (2.0 ** s)

    # r = I + (b @ r) / k for k = 18, ..., 1, in two buffers
    eye = _EYES[a.shape[0], dtype]
    r = np.divide(b, float(_TAYLOR_DEGREE), order="C")
    np.add(eye, r, r)
    t = np.empty(a.shape, dtype)
    for k in _DIVISORS[dtype]:
        b.dot(r, t)
        np.divide(t, k, t)
        np.add(eye, t, r)
    # k = 1
    b.dot(r, t)
    np.add(eye, t, r)
    if norm < _SAFE_NORM:
        return _square(r, t, s)
    with np.errstate(over="ignore", invalid="ignore"):
        r = _square(r, t, s)
    # a non-finite r_ij stays non-finite in every later square, through its
    # r_ii * r_ij term, so one check after the loop sees any overflow
    if not np.logical_and.reduce(np.isfinite(r), None):
        raise OverflowError("overflow while squaring")
    return r


def _square(r: np.ndarray, t: np.ndarray, s: int) -> np.ndarray:
    """r squared s times, through the two buffers r and t."""
    for _ in range(s):
        r.dot(r, t)
        r, t = t, r
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
