"""Exponentials through covering homomorphisms: one or two 2x2 exponentials
replace a 3x3 or 4x4 one.

Each algebra is packaged with a representation space V of 2x2 matrices
identified with R^3 or R^4, and a group action (two-sided X -> G X H^{-1}, or
conjugation) preserving a bilinear form whose Gram matrix in the chosen basis
is the algebra's defining form.  Differentiating the action gives a linear
isomorphism psi from the upstairs factors (su(2) or sl(2,R)) onto the target
algebra; psi is inverted with the pseudo-inverse of its precomputed matrix
(computed once for each built-in algebra), the factors are exponentiated with
expm2, and the action matrix of the resulting group pair is exp of the input.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .classify import _admit
from .smalllin import expm2, frobenius

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


def _make(name, dim, basis, params, two_factor, form) -> CoveringAlgebra:
    coord_pinv = np.linalg.pinv(np.column_stack([_stack8(v) for v in basis]))
    alg = CoveringAlgebra(name, dim, tuple(basis), tuple(params), two_factor,
                          form, coord_pinv, None)
    zero = np.zeros((2, 2))
    pairs = [(g, zero if two_factor else None) for g in params]
    if two_factor:
        pairs += [(zero, h) for h in params]
    return dataclasses.replace(alg, psi_matrix=np.column_stack(
        [psi(alg, g, h).ravel() for g, h in pairs]))


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

# the pseudo-inverse of each built-in algebra's psi_matrix, which is made
# read-only so that the pair stays valid
_PSI_PINV = {}
for _alg in COVERING_ALGEBRAS.values():
    _alg.psi_matrix.setflags(write=False)
    _PSI_PINV[_alg.name] = (_alg.psi_matrix, np.linalg.pinv(_alg.psi_matrix))


def _psi_pinv(alg: CoveringAlgebra) -> np.ndarray:
    """The pseudo-inverse of alg.psi_matrix: the least-squares solve of psi."""
    matrix, pinv = _PSI_PINV.get(alg.name, (None, None))
    return pinv if matrix is alg.psi_matrix else np.linalg.pinv(alg.psi_matrix)


def psi_inverse(alg: CoveringAlgebra, a_matrix, tol: float = 1e-9):
    """Traceless upstairs factor(s) mapping to A; (g, None) for the adjoint
    algebras.  A is admitted through `classify._admit`; raises NotInAlgebra
    when the gate admits no A (residual inf), when A keeps an imaginary part
    (residual its norm) or when A fails A^T M + M A = 0."""
    admitted = _admit(a_matrix, tol, alg.dim)
    if admitted is None:
        raise NotInAlgebra(alg.name, math.inf)
    a, norm = admitted
    if np.iscomplexobj(a):
        # these are algebras of real matrices
        raise NotInAlgebra(alg.name, frobenius(a.imag))
    res = frobenius(a.T @ alg.form + alg.form @ a)
    if res > tol * (1.0 + norm):
        raise NotInAlgebra(alg.name, res)

    x = _psi_pinv(alg) @ a.ravel()
    g = sum(x[m] * alg.params[m] for m in range(3))
    h = sum(x[3 + m] * alg.params[m] for m in range(3)) if alg.two_factor else None

    # psi is linear in (g, h): psi(alg, g, h) is psi_matrix @ x
    res_back = frobenius(alg.psi_matrix @ x - a.ravel())
    if res_back > max(1e-12 * (1.0 + norm), tol * (1.0 + norm)):
        raise NotInAlgebra(alg.name, res_back)
    return g, h


def exp_via_covering(alg: CoveringAlgebra, a_matrix, tol: float = 1e-9) -> np.ndarray:
    """exp(A) as the action matrix of (exp(g), exp(h)) on V."""
    g, h = psi_inverse(alg, a_matrix, tol)
    big_g = expm2(g)
    big_h_inv = expm2(-(g if h is None else h))
    cols = [_coords(alg, big_g @ v @ big_h_inv) for v in alg.basis]
    return np.column_stack(cols)
