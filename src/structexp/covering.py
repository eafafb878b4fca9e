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

A traceless 2x2 g squares to -det(g) I, det g = x^T Q x with Q the
determinant form on the generators.  Over E = (I, P1, P2, P3), exp(g) has
the real coordinates a = w (c_g, s_g x_g) and exp(-h) has b = w (c_h,
-s_h x_h), c, s and w (w^2 the growth of both) from one call of
`smalllin._factors` on mu = -det, and the action of the pair on V is
bilinear in them:

    vec exp(A) = T @ kron(a, b),

where T[dim i + j, 4p + q] is coordinate i of E_p v_j E_q, a real dim^2 x 16
table (kept as dim^2 x 4 x 4, so the product is T @ b @ a).  A
`CoveringAlgebra` is built from its six defining fields: construction takes
T and Q with one einsum each, and psi's matrix, its columns the images of
the generators, is read off T, so an algebra built outside the registry
has every table a route reads.

A is in the algebra when its distance |(I - psi psi^+) vec A| = |A - P|_F,
|A^T M + M A|_F / 2 for every built-in form M (orthogonal and symmetric),
is within tol_abs = tol max(1, |A|_F) (`smalllin._admit`), as for a
family; each built-in algebra is an entry of its kind's kernel
(`_ENTRIES`), which the walk and its forced route (`psi_inverse`,
`exp_via_covering`) both read.  At |x| of 150 (`smalllin._SAFE_NORM`) or
more the map runs under np.errstate and raises OverflowError unless exp(A)
is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .smalllin import DEFAULT_TOL, Record, _factors, _forced, _overflow_checked, frobenius

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


def _stack8(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    return np.concatenate([x.real.ravel(), x.imag.ravel()])


@dataclass(init=False, repr=False, eq=False)
class CoveringAlgebra(Record):
    """A covering algebra from its six defining fields.  Construction
    derives the rest, each array read-only: coord_pinv (see _coords), T as
    exp_map and Q as det_form (see the module docstring), psi_matrix with
    the pseudo-inverse psi_pinv (A -> x).
    Membership is the image of psi, which preserves `form` and, for every
    built-in algebra, is the whole algebra of that form.  Equality and hash
    are by identity, since arrays have no fieldwise truth value."""
    name: str
    dim: int
    basis: tuple                 # V, identified with R^dim
    params: tuple                # generators of each upstairs factor
    two_factor: bool             # X -> gX - Xh if set, else adjoint
    form: np.ndarray             # Gram matrix of the preserved form
    coord_pinv: np.ndarray = field(init=False, repr=False)
    exp_map: np.ndarray = field(init=False, repr=False)
    det_form: tuple = field(init=False, repr=False)
    psi_matrix: np.ndarray = field(init=False, repr=False)
    psi_pinv: np.ndarray = field(init=False, repr=False)

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self):
        n = self.dim
        coord_pinv = np.linalg.pinv(np.column_stack([_stack8(v) for v in self.basis]))
        e = np.stack([I2, *self.params]).astype(complex)
        # coordinate i of a 2x2 X is Re sum_ad k[i, a, d] X[a, d]
        k = (coord_pinv[:, :4] - 1j * coord_pinv[:, 4:]).reshape(n, 2, 2)
        exp_map = np.einsum("iad,pab,jbc,qcd->ijpq", k, e, np.stack(self.basis),
                            e).real.reshape(n * n, 4, 4)
        # column m is vec psi(P_m, 0) = T[:, m, 0] or vec psi(0, P_m) =
        # -T[:, 0, m] (their difference when adjoint); 0.0 - T, not -T,
        # keeps a zero coordinate +0.0, as gX - Xh gives it
        psi_matrix = (np.hstack([exp_map[:, 1:, 0], 0.0 - exp_map[:, 0, 1:]])
                      if self.two_factor else exp_map[:, 1:, 0] - exp_map[:, 0, 1:])
        psi_pinv = np.linalg.pinv(psi_matrix)
        derived = {"coord_pinv": coord_pinv, "exp_map": exp_map,
                   "psi_matrix": psi_matrix, "psi_pinv": psi_pinv}
        for attr, array in derived.items():
            array.setflags(write=False)
            object.__setattr__(self, attr, array)
        # det g = -tr(g @ g) / 2 for a traceless 2x2 g
        det_form = -np.einsum("mab,nba->mn", e[1:], e[1:]).real / 2.0
        object.__setattr__(self, "det_form", tuple(map(tuple, det_form.tolist())))


def _coords(alg: CoveringAlgebra, x: np.ndarray) -> np.ndarray:
    return alg.coord_pinv @ _stack8(x)


def psi(alg: CoveringAlgebra, g: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
    """Matrix of X -> gX - Xh (or the commutator with g in the adjoint
    cases) in the algebra's V basis."""
    right = g if h is None else h
    return np.column_stack([_coords(alg, g @ v - v @ right) for v in alg.basis])


SO3 = CoveringAlgebra("so3", 3, (SIGMA_X, SIGMA_Y, SIGMA_Z), _SU2, False, np.eye(3))
SO4 = CoveringAlgebra("so4", 4, (I2, 1j * SIGMA_X, 1j * SIGMA_Y, 1j * SIGMA_Z), _SU2,
                      True, np.eye(4))
P4R = CoveringAlgebra("p4r", 4, (E11, E12, -E21, E22), _SL2, True,
                      np.eye(4)[::-1].copy())
SO22R = CoveringAlgebra("so22r", 4, (I2, E12 - E21, SIGMA_X, SIGMA_Z), _SL2, True,
                        np.diag([1.0, 1.0, -1.0, -1.0]))
P3R = CoveringAlgebra("p3r", 3, (E12, SIGMA_Z / math.sqrt(2.0), E21), _SL2, False,
                      np.eye(3)[::-1].copy())
SO21R = CoveringAlgebra("so21r", 3, (SIGMA_X, SIGMA_Z, E12 - E21), _SL2, False,
                        np.diag([1.0, 1.0, -1.0]))

COVERING_ALGEBRAS: dict[str, CoveringAlgebra] = {
    a.name: a for a in (SO3, SO4, P4R, SO22R, P3R, SO21R)
}

def _kernel(algebras) -> tuple:
    """The covering kernel (routes, Y, W) of algebras of one size (see
    `classify`): entry g is algebra g's route ("covering:<name>", psi^+,
    None), its rows (I - psi psi^+)/2 in Y and ones on them in W."""
    n2 = algebras[0].dim ** 2
    return (tuple((f"covering:{alg.name}", alg.psi_pinv, None) for alg in algebras),
            np.vstack([(np.eye(n2) - alg.psi_matrix @ alg.psi_pinv) / 2.0 for alg in algebras]),
            np.repeat(np.eye(len(algebras)), n2, axis=1))


# the 3x3 covering kernel, and each built-in algebra's (kernel, entry): a
# 4x4 algebra's is of the real 4x4 kernel, which `classify` adds on import
_ALGEBRAS3 = [alg for alg in COVERING_ALGEBRAS.values() if alg.dim == 3]
_COVER3 = _kernel(_ALGEBRAS3)
_ENTRIES = {alg: (_COVER3, f) for f, alg in enumerate(_ALGEBRAS3)}


def _lift(alg: CoveringAlgebra, a_matrix, tol: float):
    """The lift x of A forced onto the algebra (`smalllin._forced`) by its
    entry, one of a kernel of its own outside the registry, or NotInAlgebra."""
    entry = _ENTRIES.get(alg) or (_kernel([alg]), 0)
    return _forced(a_matrix, tol, (alg.dim, partial(NotInAlgebra, alg.name), (entry, None)))[0]


def _det(det_form, x0: float, x1: float, x2: float) -> float:
    """det of sum_m x_m P_m, x^T Q x."""
    (q00, q01, q02), (_, q11, q12), (_, _, q22) = det_form
    return (q00 * x0 * x0 + q11 * x1 * x1 + q22 * x2 * x2
            + 2.0 * (q01 * x0 * x1 + q02 * x0 * x2 + q12 * x1 * x2))


def _bilinear(alg: CoveringAlgebra, x) -> np.ndarray:
    """sum_pq T[:, p, q] a_p b_q over the coordinates a of exp(g) and b of
    exp(-h), each times w (see the module docstring)."""
    xs = x.tolist()
    xg, xh = xs[:3], xs[3:] if alg.two_factor else xs
    (cg, ch), (sg, sh), w = _factors(0.0, (-_det(alg.det_form, *xg),
                                           -_det(alg.det_form, *xh)))
    sg, sh = w * sg, -w * sh
    a = np.array([w * cg, sg * xg[0], sg * xg[1], sg * xg[2]])
    b = np.array([w * ch, sh * xh[0], sh * xh[1], sh * xh[2]])
    # the 3-d product stays a matmul: ndarray.dot rounds it differently
    return (alg.exp_map @ b).dot(a).reshape(alg.dim, alg.dim)


def _exp_lift(alg: CoveringAlgebra, x) -> np.ndarray:
    """exp(A) from its lift x.  Raises OverflowError when it is beyond the
    float64 range."""
    return _overflow_checked(frobenius(x), "the covering exponential", _bilinear, alg, x)


def psi_inverse(alg: CoveringAlgebra, a_matrix, tol: float = DEFAULT_TOL):
    """Traceless upstairs factor(s) mapping to A; (g, None) for the adjoint
    algebras.  A is admitted through `smalllin._admit`; raises NotInAlgebra
    when the gate admits no A (residual inf), when A keeps an imaginary part
    (residual its norm) or when its distance |A - P|_F is over tol_abs."""
    x = _lift(alg, a_matrix, tol)
    g = sum(x[m] * alg.params[m] for m in range(3))
    h = sum(x[3 + m] * alg.params[m] for m in range(3)) if alg.two_factor else None
    return g, h


def exp_via_covering(alg: CoveringAlgebra, a_matrix,
                     tol: float = DEFAULT_TOL) -> np.ndarray:
    """exp(A) as the action matrix of (exp(g), exp(h)) on V, by the bilinear
    map of the lift.  Raises NotInAlgebra as psi_inverse does, and
    OverflowError when exp(A) is beyond the float64 range."""
    return _exp_lift(alg, _lift(alg, a_matrix, tol))
