"""Exponentials through covering homomorphisms: a 3x3 or 4x4 exponential as
one precomputed real bilinear map of one or two 2x2 ones.

Each algebra is packaged with a representation space V of 2x2 matrices
identified with R^3 or R^4, and a group action (two-sided X -> G X H^{-1}, or
conjugation) preserving a bilinear form whose Gram matrix in the chosen basis
is the algebra's defining form.  Differentiating the action gives a linear
isomorphism psi from the upstairs factors (su(2) or sl(2,R)) onto the target
algebra.  psi is inverted with the pseudo-inverse of its precomputed matrix,
which gives the lift x: g = sum_m x_m P_m over the factor's generators P_m,
and h from x[3:] (or h = g for conjugation).

A traceless 2x2 g squares to -det(g) I, so exp(g) = phi_c(d) I + phi_s(d) g
with d = det g = x^T Q x, Q the determinant form on the generators.  Over
E = (I, P1, P2, P3), exp(g) has the real coordinates a = (phi_c(d_g),
phi_s(d_g) x_g) and exp(-h) has b = (phi_c(d_h), -phi_s(d_h) x_h), and the
action of the pair on V is bilinear in them:

    vec exp(A) = T @ kron(a, b),

where T[dim i + j, 4p + q] is coordinate i of E_p v_j E_q, a real dim^2 x 16
table (kept as dim^2 x 4 x 4, so the product is T @ b @ a).  T and
Q are built once per algebra at import (`_TABLES`), each with one einsum; a
user-built algebra gets its own on each call.

At |x| of 150 (`smalllin._SAFE_NORM`) or more the map runs under np.errstate
and raises OverflowError unless exp(A) is finite.  `_lifts` tests an
admitted A against every built-in algebra of its size with one product of
the stacked defining-relation maps, and solves only those that contain it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .classify import _admit
from .smalllin import _overflow_checked, frobenius, phi_c, phi_s

I2 = np.eye(2)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
E21 = np.array([[0.0, 0.0], [1.0, 0.0]])
E22 = np.array([[0.0, 0.0], [0.0, 1.0]])

_SU2 = (1j * SIGMA_X, 1j * SIGMA_Y, 1j * SIGMA_Z)
_SL2 = (E12, E21, SIGMA_Z)


class NotInAlgebra(ValueError):
    def __init__(self, name: str, residual: float):
        super().__init__(f"matrix fails the defining relation of {name} "
                         f"(residual {residual:.3e})")
        self.name = name
        self.residual = residual


@dataclass(frozen=True)
class CoveringAlgebra:
    name: str
    dim: int
    basis: tuple                 # V, identified with R^dim
    params: tuple                # generators of each upstairs factor
    two_factor: bool             # X -> gX - Xh if set, else adjoint
    form: np.ndarray             # Gram matrix of the preserved form
    coord_pinv: np.ndarray       # solves for V-coordinates, see _coords
    psi_matrix: np.ndarray       # dim^2 x (3 or 6), columns = vec(psi(generator))


def _stack8(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    return np.concatenate([x.real.ravel(), x.imag.ravel()])


def _coords(alg: CoveringAlgebra, x: np.ndarray) -> np.ndarray:
    return alg.coord_pinv @ _stack8(x)


def psi(alg: CoveringAlgebra, g: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
    """Matrix of X -> gX - Xh (or the commutator with g in the adjoint
    cases) in the algebra's V basis."""
    right = g if h is None else h
    return np.column_stack([_coords(alg, g @ v - v @ right) for v in alg.basis])


class _Tables:
    """An algebra and what a covering route needs of it beyond its fields:
    the relation map vec A -> vec(A^T M + M A), M the form, the
    pseudo-inverse of psi_matrix (A -> x), and T and Q (see the module
    docstring), T as dim^2 x 4 x 4 and Q as nested lists."""
    __slots__ = ("alg", "relation", "psi_pinv", "exp_map", "det_form")

    def __init__(self, alg: CoveringAlgebra):
        n = alg.dim
        # column k is vec(U^T M + M U) for the k-th unit matrix U
        units = np.eye(n * n).reshape(n * n, n, n)
        self.relation = (units.transpose(0, 2, 1) @ alg.form
                         + alg.form @ units).reshape(n * n, -1).T
        self.psi_pinv = np.linalg.pinv(alg.psi_matrix)
        e = np.stack([I2, *alg.params]).astype(complex)
        # coordinate i of a 2x2 X is Re sum_ad k[i, a, d] X[a, d]
        k = (alg.coord_pinv[:, :4] - 1j * alg.coord_pinv[:, 4:]).reshape(n, 2, 2)
        self.exp_map = np.einsum("iad,pab,jbc,qcd->ijpq", k, e, np.stack(alg.basis),
                                 e).real.reshape(n * n, 4, 4)
        # det g = -tr(g @ g) / 2 for a traceless 2x2 g
        self.det_form = (-np.einsum("mab,nba->mn", e[1:], e[1:]).real / 2.0).tolist()
        self.alg = alg


# the tables of each built-in algebra, whose psi_matrix is made read-only so
# that they stay valid
_TABLES = {}


def _make(name, dim, basis, params, two_factor, form) -> CoveringAlgebra:
    coord_pinv = np.linalg.pinv(np.column_stack([_stack8(v) for v in basis]))
    alg = CoveringAlgebra(name, dim, tuple(basis), tuple(params), two_factor,
                          form, coord_pinv, None)
    zero = np.zeros((2, 2))
    pairs = [(g, zero if two_factor else None) for g in params]
    if two_factor:
        pairs += [(zero, h) for h in params]
    alg = dataclasses.replace(alg, psi_matrix=np.column_stack(
        [psi(alg, g, h).ravel() for g, h in pairs]))
    alg.psi_matrix.setflags(write=False)
    _TABLES[name] = _Tables(alg)
    return alg


SO3 = _make("so3", 3, (SIGMA_X, SIGMA_Y, SIGMA_Z), _SU2, False, np.eye(3))
SO4 = _make("so4", 4, (I2, 1j * SIGMA_X, 1j * SIGMA_Y, 1j * SIGMA_Z), _SU2,
            True, np.eye(4))
P4R = _make("p4r", 4, (E11, E12, -E21, E22), _SL2, True, np.eye(4)[::-1].copy())
SO22R = _make("so22r", 4, (I2, E12 - E21, SIGMA_X, SIGMA_Z), _SL2, True,
              np.diag([1.0, 1.0, -1.0, -1.0]))
P3R = _make("p3r", 3, (E12, SIGMA_Z / math.sqrt(2.0), E21), _SL2, False,
            np.eye(3)[::-1].copy())
SO21R = _make("so21r", 3, (SIGMA_X, SIGMA_Z, E12 - E21), _SL2, False,
              np.diag([1.0, 1.0, -1.0]))

COVERING_ALGEBRAS: dict[str, CoveringAlgebra] = {
    a.name: a for a in (SO3, SO4, P4R, SO22R, P3R, SO21R)
}


def _tables(alg: CoveringAlgebra) -> _Tables:
    """The tables of alg: built at import for a built-in algebra, and on
    each call for any other."""
    tables = _TABLES.get(alg.name)
    return tables if tables is not None and tables.alg is alg else _Tables(alg)


# for each size, the tables of its built-in algebras in registry order and
# their stacked relation maps
_RELATIONS = {}
for _n in (3, 4):
    _sized = tuple(t for t in _TABLES.values() if t.alg.dim == _n)
    _RELATIONS[_n] = (_sized, np.vstack([t.relation for t in _sized]))


def _solve(t: _Tables, a, norm: float, tol: float):
    """The lift x of an admitted real A whose defining-relation residual is
    within tol * (1 + |A|).  Raises NotInAlgebra when the back-check
    psi_matrix @ x - A is above that bound."""
    x = t.psi_pinv @ a.ravel()
    # psi is linear in (g, h): psi(alg, g, h) is psi_matrix @ x
    res_back = frobenius(t.alg.psi_matrix @ x - a.ravel())
    if res_back > max(1e-12 * (1.0 + norm), tol * (1.0 + norm)):
        raise NotInAlgebra(t.alg.name, res_back)
    return x


def _lift(t: _Tables, a_matrix, tol: float):
    """The lift x of A, admitted through `classify._admit`: NotInAlgebra
    with residual inf when the gate admits no A, and the norm of the
    imaginary part when A keeps one (these are algebras of real matrices)."""
    admitted = _admit(a_matrix, tol, t.alg.dim)
    if admitted is None:
        raise NotInAlgebra(t.alg.name, math.inf)
    a, norm = admitted
    if np.iscomplexobj(a):
        raise NotInAlgebra(t.alg.name, frobenius(a.imag))
    res = frobenius(t.relation @ a.ravel())
    if res > tol * (1.0 + norm):
        raise NotInAlgebra(t.alg.name, res)
    return _solve(t, a, norm, tol)


def _lifts(a, norm: float, tol: float):
    """(tables, x) for each built-in algebra of A's size that contains the
    admitted A of norm `norm` (see `classify._admit`), lazily in registry
    order.  One product with the stacked relation maps gives every
    residual, and only an algebra whose residual is within tol * (1 + norm)
    is solved, so an algebra that fails its relation raises nothing."""
    n = a.shape[0]
    if n not in _RELATIONS or np.iscomplexobj(a):
        return
    sized, relations = _RELATIONS[n]
    residuals = (relations @ a.ravel()).reshape(len(sized), n * n)
    bound = tol * (1.0 + norm)
    for t, res in zip(sized, residuals):
        if frobenius(res) > bound:
            continue
        try:
            x = _solve(t, a, norm, tol)
        except NotInAlgebra:
            continue
        yield t, x


def _factor(det_form, x0: float, x1: float, x2: float, sign: float) -> np.ndarray:
    """Coordinates over (I, P1, P2, P3) of exp(sign * sum_m x_m P_m)."""
    (q00, q01, q02), (_, q11, q12), (_, _, q22) = det_form
    d = (q00 * x0 * x0 + q11 * x1 * x1 + q22 * x2 * x2
         + 2.0 * (q01 * x0 * x1 + q02 * x0 * x2 + q12 * x1 * x2))
    s = sign * phi_s(d)
    return np.array([phi_c(d), s * x0, s * x1, s * x2])


def _bilinear(t: _Tables, x) -> np.ndarray:
    """sum_pq T[:, p, q] a_p b_q over the coordinates a of exp(g) and b of
    exp(-h)."""
    xs = x.tolist()
    a = _factor(t.det_form, *xs[:3], 1.0)
    b = _factor(t.det_form, *xs[3:] if t.alg.two_factor else xs, -1.0)
    return (t.exp_map @ b @ a).reshape(t.alg.dim, t.alg.dim)


def _exp_lift(t: _Tables, x) -> np.ndarray:
    """exp(A) from its lift x.  Raises OverflowError when it is beyond the
    float64 range."""
    return _overflow_checked(frobenius(x), "the covering exponential", _bilinear, t, x)


def psi_inverse(alg: CoveringAlgebra, a_matrix, tol: float = 1e-9):
    """Traceless upstairs factor(s) mapping to A; (g, None) for the adjoint
    algebras.  A is admitted through `classify._admit`; raises NotInAlgebra
    when the gate admits no A (residual inf), when A keeps an imaginary part
    (residual its norm) or when A fails A^T M + M A = 0."""
    x = _lift(_tables(alg), a_matrix, tol)
    g = sum(x[m] * alg.params[m] for m in range(3))
    h = sum(x[3 + m] * alg.params[m] for m in range(3)) if alg.two_factor else None
    return g, h


def exp_via_covering(alg: CoveringAlgebra, a_matrix, tol: float = 1e-9) -> np.ndarray:
    """exp(A) as the action matrix of (exp(g), exp(h)) on V, by the bilinear
    map of the lift.  Raises NotInAlgebra as psi_inverse does, and
    OverflowError when exp(A) is beyond the float64 range."""
    t = _tables(alg)
    return _exp_lift(t, _lift(t, a_matrix, tol))
