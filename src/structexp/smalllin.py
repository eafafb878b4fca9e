"""Small dense kernels: `_factors`, the one evaluation of the cos, sin, cosh,
sinh and growth of every circular or hyperbolic closed form, with the phi
functions over it; 2x2 exponentials in closed form; and the 3x3 symmetric
eigendecomposition and SVD from LAPACK.

phi_c(x) = cos(sqrt(x)) and phi_s(x) = sin(sqrt(x))/sqrt(x) are even entire
functions of sqrt(x), so they are well defined for every real or complex x;
negative real arguments land on the cosh/sinh branch automatically.

Every route at every size admits its input through one gate, `_admit`,
the one reader of tol, which gives the bound tol_abs of every route and
rule, and is decided by its entry of a membership kernel (see `classify`)
on `_residuals`: by `_claim`, with `_member`, in the walk and auto, and by
`_forced` for a forced route, which calls a fit once for its member and
its residual.

`Record` is the base of every record class of the package: it holds the
methods that `@dataclass(frozen=True)` would generate for each, written once.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields

import numpy as np

DEFAULT_TOL = 1e-9

_TAYLOR_CUTOFF = 1e-8
_EPS = float(np.finfo(float).eps)


def frobenius(x) -> float:
    """The Frobenius norm of an array, as np.linalg.norm(x) but without its
    per-call overhead; bitwise equal to it on real input in C order (numpy
    sums other layouts in memory order)."""
    return math.sqrt(np.vdot(x, x).real)


def _real_if_possible(a, norm: float):
    """A complex A without its imaginary part when every |Im A| is at most
    1e-14 max(1, norm), for A of Frobenius norm `norm`; A otherwise."""
    if np.maximum.reduce(np.abs(a.imag), None) <= 1e-14 * max(1.0, norm):
        return a.real.copy()
    return a


_COMPLEX = np.dtype(np.complex128)
_DOUBLES = (np.dtype(np.float64), _COMPLEX)
# the dtype kinds of a matrix: bool, signed and unsigned integer, floating
# and complex; every other dtype (object, str, bytes, datetime64,
# timedelta64, void) raises TypeError with this message
_NUMERIC_KINDS = "biufc"
_NOT_NUMERIC = "matrix entries must be bool, integer, float or complex numbers"


def _admit(a_matrix, tol: float, n: int = 4):
    """(A, |A|_F, tol_abs) for an n x n input, or None when A is on no
    closed-form route: an entry is not finite or |A|_F overflows (above
    about 1.3e154, where tol_abs would be inf and accept anything).  A is
    taken as float64 if integer, bool or of another floating kind, as
    complex128 if of another complex kind, and as real if its imaginary part
    vanishes (classify.as_real_if_possible); any other dtype raises
    TypeError.  |A|_F is taken on A as given, so a huge imaginary part is
    never dropped against an infinite scale.
    tol_abs = tol max(1, |A|_F), 0 < tol < inf, is every route's one bound."""
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    a = np.asarray(a_matrix)
    if a.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix")
    if a.dtype not in _DOUBLES:
        if a.dtype.kind not in _NUMERIC_KINDS:
            raise TypeError(_NOT_NUMERIC)
        # integer squares wrap in the norm, bool ones saturate, and the
        # coefficients are read as pairs of float64s; an entry past the
        # float64 range becomes inf, which no route admits
        with np.errstate(over="ignore"):
            a = a.astype(np.complex128 if a.dtype.kind == "c" else np.float64)
    norm = frobenius(a)
    if not norm < math.inf:
        return None
    return ((_real_if_possible(a, norm) if a.dtype is _COMPLEX else a), norm,
            tol * max(1.0, norm))


def _residuals(kernel, incidence, vec):
    """(y, squares) of a kernel's Y and W on vec A: y = Y vec A and the
    array W (y o y)."""
    y = kernel.dot(vec)
    # a complex y is squared as pairs of floats
    pairs = y.view(np.float64) if y.dtype is _COMPLEX else y
    return y, incidence.dot(pairs * pairs)


def _member(route, a, vec, y, tol_abs: float):
    """The member of the admitted A on a kernel entry (name, rows, rule)
    whose square is within the bound, or None: rows vec A, or the member
    that rule(A, c, tol_abs), c = y[:16], returns with a residual."""
    _, rows, rule = route
    if rows is not None:
        return rows.dot(vec)
    return rule(a, y[:16], tol_abs)[0]


def _claim(routes, squares, start: int, a, vec, y, tol_abs: float):
    """(f, member) of the first entry f >= start of a kernel that claims the
    admitted A, from its `squares`, read as floats, and `y`, or None: an
    entry whose square exceeds (tol_abs/2)^2, or is NaN, is skipped."""
    half = 0.5 * tol_abs  # squared by a product: ** raises past 1.3e154
    bound = half * half
    for f in range(start, len(squares)):
        if squares[f] <= bound:
            member = _member(routes[f], a, vec, y, tol_abs)
            if member is not None:
                return f, member
    return None


def _forced(a_matrix, tol: float, route):
    """(member, |A|_F, tol_abs) of A on a forced route (n, refuse, entries):
    entries[0] for a real A and entries[1] for a complex one, each (kernel,
    f), entry f of a kernel of n x n matrices as _claim takes it, or None.
    It refuses by raising refuse(residual): inf for an A _admit puts on no
    route, |Im A| for a complex A with no entry, 2 sqrt(squares[f]) over
    the bound, or the residual of a rule that returns no member, from the
    one call of that rule."""
    n, refuse, entries = route
    admitted = _admit(a_matrix, tol, n)
    if admitted is None:
        raise refuse(math.inf)
    a, norm, tol_abs = admitted
    entry = entries[a.dtype.kind == "c"]
    if entry is None:
        raise refuse(frobenius(a.imag))
    (routes, kernel, incidence), f = entry
    vec = a.ravel()
    y, squares = _residuals(kernel, incidence, vec)
    half = 0.5 * tol_abs
    if not squares[f] <= half * half:
        raise refuse(2.0 * math.sqrt(squares[f]))
    _, rows, rule = routes[f]
    if rows is not None:
        return rows.dot(vec), norm, tol_abs
    member, residual = rule(a, y[:16], tol_abs)
    if member is None:
        raise refuse(residual)
    return member, norm, tol_abs


def _factors(scalar, mus):
    """(cs, ss, h) with exp(scalar) prod_g (cos r_g I + sin(r_g)/r_g G_g) =
    h^2 prod_g (cs[g] I + ss[g] G_g), r_g = sqrt(-mu_g), over commuting G_g
    with G_g @ G_g = mu_g I, for a real or complex scalar; real mus give
    real cs and ss.  One square root a group: below |mu| = 1e-8 the cubic
    Taylor polynomials in x = -mu, for a real mu < 0 cos and sin of
    sqrt(-mu), else cosh and sinh of r = sqrt(mu), whose growth e^r, when
    Re r > 1 (|mu| + Re mu > 2), goes to h = e^((scalar + sum r) / 2) by
    cosh r = e^r (1 + e^(-2r)) / 2 and sinh(r) / r = e^r (1 - e^(-2r)) /
    (2r).  The caller applies h twice, to the scalars and to the result, so
    nothing overflows before exp(A)."""
    cs, ss, growth = [], [], 0.0
    for mu in mus:
        x = -mu
        lib = cmath if isinstance(mu, complex) else math
        if abs(mu) < _TAYLOR_CUTOFF:
            c = 1.0 - x / 2.0 + x * x / 24.0 - x ** 3 / 720.0
            s = 1.0 - x / 6.0 + x * x / 120.0 - x ** 3 / 5040.0
        elif lib is math and mu < 0.0:
            r = math.sqrt(x)
            c, s = math.cos(r), math.sin(r) / r
        elif abs(mu) + mu.real > 2.0:
            r = lib.sqrt(mu)
            growth += r
            e2 = lib.exp(-2.0 * r)
            c, s = (1.0 + e2) / 2.0, (1.0 - e2) / (2.0 * r)
        else:
            r = lib.sqrt(mu)
            c, s = lib.cosh(r), lib.sinh(r) / r
        cs.append(c)
        ss.append(s)
    x = (scalar + growth) / 2.0
    return cs, ss, (cmath if isinstance(x, complex) else math).exp(x)


def _phi(x, which: int):
    """phi_c (which 0) or phi_s (1) of x by _factors; OverflowError where
    the value of a finite x is beyond the float64 range, as math.cosh's."""
    x = complex(x) if isinstance(x, (complex, np.complexfloating)) else float(x)
    *scalars, h = _factors(0.0, (-x,))
    value = scalars[which][0] * h * h
    if not cmath.isfinite(value) and cmath.isfinite(x):
        raise OverflowError("math range error")
    return value


def phi_c(x):
    """cos(sqrt(x)); equals cosh(sqrt(-x)) for x < 0. Real in, real out."""
    return _phi(x, 0)


def phi_s(x):
    """sin(sqrt(x))/sqrt(x); equals sinh(sqrt(-x))/sqrt(-x) for x < 0."""
    return _phi(x, 1)


# below this norm no value on the way to a closed form overflows: each takes
# its growth h^2 from one _factors call, one exponent of at most 2|c| for a
# 4x4 member c (|A|_F in expm2), below e^300 < 1e131, applied to at most
# three factors, each below 1.6 (1 + 2|c|); in a covering route h = e^((r_g +
# r_h) / 2) <= e^|x| for the lift x (r^2 = |det g| <= |x|^2), so each
# coordinate of h times a factor exponential is at most 1.6 e^|x| max(1, |x|),
# products below 1.2e135
_SAFE_NORM = 150.0


def _overflow_checked(norm: float, what: str, fn, *args):
    """fn(*args) for an input of norm `norm`.  At _SAFE_NORM or more it runs
    under np.errstate and raises OverflowError unless the result is finite;
    a ValueError there (the cosine of an infinite argument) counts as one,
    and so does math.exp's own OverflowError."""
    if norm < _SAFE_NORM:
        return fn(*args)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            value = fn(*args)
        except (ValueError, OverflowError):
            value = None
    if value is None or not np.isfinite(value).all():
        raise OverflowError(f"{what} overflows")
    return value


def expm2(a) -> np.ndarray:
    """Closed-form exponential of a real or complex 2x2 matrix.

    Split off half the trace: A = (tr/2) I + A0 with A0 traceless, so
    A0^2 = -det(A0) I by Cayley-Hamilton and

        exp(A) = exp(tr/2) (phi_c(det A0) I + phi_s(det A0) A0),

    by _factors.  A non-finite entry raises ValueError, a dtype of no
    numeric kind TypeError (see _admit).  At
    |A|_F >= _SAFE_NORM it runs under np.errstate and raises OverflowError
    unless the result is finite: only where exp(A) is not.
    """
    a = np.asarray(a)
    if a.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if a.dtype.kind not in _NUMERIC_KINDS:
        raise TypeError(_NOT_NUMERIC)
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)
    norm = frobenius(a)
    if not norm < _SAFE_NORM and not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return _expm2(a, norm)


def _expm2(a, norm: float) -> np.ndarray:
    """expm2 of an A and its Frobenius norm as `_admit` gives them."""
    # in Python scalars, which neither overflow in the trace nor warn
    (p, q), (r, s) = a.tolist()
    return _overflow_checked(norm, "the 2x2 exponential", _exp2, p / 2.0 + s / 2.0,
                             p / 2.0 - s / 2.0, q, r)


def _exp2(half, d, q, r) -> np.ndarray:
    """exp(half) exp(A0) for A0 = [[d, q], [r, -d]], as four Python scalars."""
    (c,), (s,), h = _factors(half, (d * d + q * r,))
    c, s = c * h, s * h
    return np.array([[c + s * d, s * q], [s * r, c - s * d]]) * h


_setattr = object.__setattr__


@functools.cache
def _names(cls, flag: str) -> tuple[str, ...]:
    """The fields of a record class whose `flag` (repr or compare) is set."""
    return tuple(f.name for f in fields(cls) if getattr(f, flag))


def _compared(record) -> tuple:
    """The values of the compared fields of a record, in order."""
    return tuple(getattr(record, name) for name in _names(type(record), "compare"))


def _arguments(cls, names, args, kwargs) -> list:
    """The values of the init fields `names` of a record class, in order,
    from the positional and keyword arguments of a call and the fields'
    defaults (a default_factory counts as none); TypeError for a missing,
    extra, repeated or unknown argument."""
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} positional "
                        f"arguments but {len(args)} were given")
    values = dict(zip(names, args))
    for name in kwargs:
        if name not in names or name in values:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated "
                            f"argument {name!r}")
    values.update(kwargs)
    for name in names[len(args):]:
        if name not in values:
            values[name] = cls.__dataclass_fields__[name].default
            if values[name] is MISSING:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
    return [values[name] for name in names]


class Record:
    """A frozen record.  A class on this base, declared with
    @dataclass(init=False, repr=False, eq=False), has its fields registered
    by dataclass, so that `dataclasses.fields`, `astuple`, `replace` and
    `is_dataclass` read it, and takes from here what @dataclass(frozen=True)
    would compile for it: __init__ (positional and keyword arguments,
    defaults, then __post_init__), __repr__, __eq__ and __hash__ over its
    fields, FrozenInstanceError on assignment and deletion, and pickle and
    copy state, restored past the frozen __setattr__."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.__match_args__
        if kwargs or len(args) != len(names):
            args = _arguments(cls, names, args, kwargs)
        for name, value in zip(names, args):
            _setattr(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """What a record class derives once its init fields are set."""

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in _names(type(self), "repr")) + ")"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _compared(self) == _compared(other)

    def __hash__(self) -> int:
        return hash(_compared(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: dict):
        for name, value in state.items():
            _setattr(self, name, value)


@dataclass(init=False, repr=False, eq=False)
class SymEig3(Record):
    """Eigenvalues in descending order and an orthogonal eigenvector matrix."""
    eigenvalues: np.ndarray
    q: np.ndarray


@dataclass(init=False, repr=False, eq=False)
class Svd3(Record):
    """m = u @ diag(sigma) @ v.T (see svd3)."""
    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def _real_3x3(m) -> np.ndarray:
    """m as a real 3x3 float array, or ValueError or TypeError (see svd3)."""
    m = np.asarray(m)
    if m.dtype.kind not in _NUMERIC_KINDS:
        raise TypeError(_NOT_NUMERIC)
    if np.iscomplexobj(m):
        # np.asarray(m, dtype=float) would only warn, and drop m.imag
        if m.imag.any():
            raise ValueError("matrix is not real")
        m = m.real
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def sym_eig3(s) -> SymEig3:
    """Eigendecomposition of a symmetric 3x3 matrix, s = q diag(eigenvalues)
    q.T, from LAPACK (np.linalg.eigh), eigenvalues sorted descending, stably.

    s is symmetric when every entry of |s - s.T| is at most 1e-12 max|s|,
    tested on s / 2, which overflows at no scale.  s is checked as in svd3.
    """
    s = _real_3x3(s)
    half = s / 2.0
    if np.abs(half - half.T).max() > 0.5e-12 * np.abs(s).max():
        raise ValueError("matrix is not symmetric")
    w, q = np.linalg.eigh(half + half.T)
    order = np.argsort(-w, kind="stable")
    return SymEig3(w[order], q[:, order])


def _svd3(m):
    """(u, sigma, vh) of a finite 3x3 matrix from LAPACK, sigma as three
    descending floats with those at or below 3 * eps * sigma_1 set to zero."""
    u, sigma, vh = np.linalg.svd(m)
    s1, s2, s3 = sigma.tolist()
    cut = 3.0 * _EPS * s1
    return u, [s1, s2 if s2 > cut else 0.0, s3 if s3 > cut else 0.0], vh


def svd3(m) -> Svd3:
    """SVD of a real 3x3 matrix, m = u @ diag(sigma) @ v.T, from LAPACK.

    sigma_1 >= sigma_2 >= sigma_3 >= 0 and u, v are orthogonal.  Singular
    values at or below 3 * eps * sigma_1 (numpy's matrix_rank cutoff) are
    rounding noise of a rank-deficient input and are reported as exact zeros.
    A complex m whose imaginary part is zero is read as real.  ValueError
    for a nonzero imaginary part, another shape or a non-finite entry;
    TypeError for a dtype of no numeric kind (see _admit).
    """
    u, sigma, vh = _svd3(_real_3x3(m))
    return Svd3(u, np.array(sigma), vh.T)
