"""Closed-form exponentials for the structured 4x4 families.

There is one closed form.  Every family splits into a scalar part and groups
that commute with each other, each group squaring to a scalar multiple of
the identity, G @ G = mu I, so

    exp(A) = exp(scalar) * prod_g (phi_c(-mu_g) I + phi_s(-mu_g) G_g).

Since H (x) H is isomorphic to the algebra of 4x4 real matrices, the
product is taken on the group matrices directly (`_exp_groups`).  The phi
functions pick cos/cosh branches from the sign of mu, so no formula
hard-codes a trigonometric choice; when a family hands over a group whose
square is not scalar, that is a defect, not an input error.  The groups of
the table families are the slot sets of their `classify.FAMILIES` entry;
SymmetricGeneral (rotated out by `svd3`), SpecialNormal and BisymmetricRS
(rank-one supports) build theirs from the instance (`_INSTANCE_GROUPS`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .classify import (COMPLEX_REGISTRY, DEFAULT_TOL, EXTRACTORS, FAMILIES,
                       BisymmetricRS, ComplexPerskew, ComplexSO4, HamSymPersym,
                       Jordan, Lie, Perskewsymmetric, SkewHamiltonian,
                       SkewSymmetric, SpecialNormal, SymmetricGeneral,
                       SymToeplitzS13Zero, SymToeplitzTridiag, _matches,
                       as_real_if_possible)
from .hxh import _BASIS_ROWS, R4, from_matrix, matrix_scalar_square
from .oracle import expm_series, rel_error
from .smalllin import phi_c, phi_s, svd3


class ClosedFormDefect(RuntimeError):
    """A group element whose square should be scalar is not: the caller's
    decomposition violated its own constraints."""


class ForcedClassMismatch(ValueError):
    def __init__(self, tag: str, residual: float):
        super().__init__(f"matrix is not in class {tag} (residual {residual:.3e})")
        self.tag = tag
        self.residual = residual


@dataclass(frozen=True)
class ExpResult:
    value: np.ndarray
    route: str
    verified: Optional[float] = None


# slots of p (x) 1, of 1 (x) q and of the pure-pure block, each p, q pure
_LEFT, _RIGHT, _PURE = [4, 8, 12], [1, 2, 3], [5, 6, 7, 9, 10, 11, 13, 14, 15]


def _matrix(coeffs, slots) -> np.ndarray:
    """The matrix of the element with these coefficients on these slots."""
    return (np.ravel(coeffs) @ _BASIS_ROWS[slots]).reshape(4, 4)


def _group_rows(fam) -> np.ndarray:
    """c @ rows[g] is the flat matrix of group g of a table family, c its
    flat coefficient table: one product gives every group."""
    rows = np.zeros((len(fam.slots), 16, 16))
    for g, slots in enumerate(fam.slots):
        rows[g, slots] = _BASIS_ROWS[slots]
    return rows


_TABLE_GROUP_ROWS = {tag: _group_rows(fam) for tag, fam in FAMILIES.items()}


def _exp_groups(scalar, groups) -> np.ndarray:
    """exp(scalar) * prod_g (phi_c(-mu_g) I + phi_s(-mu_g) G_g) over commuting
    group matrices G_g with G_g @ G_g = mu_g I."""
    value = None
    for g in groups:
        mu = matrix_scalar_square(g)
        if mu is None:
            raise ClosedFormDefect("group square is not a multiple of the identity")
        e = phi_s(-mu) * g
        e.flat[::5] += phi_c(-mu)
        value = e if value is None else value @ e
    # only real families have the scalar slot
    return math.exp(scalar) * value if scalar else value


def _symmetric_general_groups(inst):
    """Rotate [p|q|r] to diagonal via its SVD: the matrix becomes a sum of
    three commuting rank-one terms sigma_i u_i(x)v_i, each scalar-square."""
    f = svd3(np.column_stack([inst.p, inst.q, inst.r]))
    return inst.a, [_matrix(f.sigma[i] * np.outer(f.u[:, i], f.v[:, i]), _PURE)
                    for i in range(3)]


def _special_normal_groups(sn):
    """The symmetric rank-one part s_hat(x)t_hat and the two halves s(x)1,
    1(x)t of the skew part."""
    return sn.a, [_matrix(np.outer(sn.s_hat, sn.t_hat), _PURE),
                  _matrix(sn.s, _LEFT), _matrix(sn.t, _RIGHT)]


def _bisymmetric_rs_groups(b):
    """A = R4 S = eps I + a R4 + R4 Y with Y = (alpha i + beta k)(x)
    (gamma j + delta k): R4^2 = I and R4 commutes with Y, so a R4 and R4 Y
    are commuting groups."""
    y = _matrix(np.outer((b.alpha, 0.0, b.beta), (0.0, b.gamma, b.delta)), _PURE)
    return b.eps, [b.a * R4, R4 @ y]


# the families whose groups depend on the instance, not only on table slots
_INSTANCE_GROUPS = {
    SymmetricGeneral: _symmetric_general_groups,
    SpecialNormal: _special_normal_groups,
    BisymmetricRS: _bisymmetric_rs_groups,
}


def exp_skew_symmetric(p, q) -> np.ndarray:
    return exp_structured_class(SkewSymmetric(p, q))


def exp_perskewsymmetric(p, alpha, q, beta) -> np.ndarray:
    """p _|_ j (no j component), q _|_ i; result G satisfies G^T R4 G = R4."""
    return exp_structured_class(Perskewsymmetric(p, alpha, q, beta))


def exp_lie(k: int, a, b, p, q) -> np.ndarray:
    return exp_structured_class(Lie(k, a, b, p, q))


def exp_skew_hamiltonian(b, p, c, d) -> np.ndarray:
    return exp_structured_class(SkewHamiltonian(b, p, c, d))


def exp_jordan(k: int, a, b, c, vec) -> np.ndarray:
    return exp_structured_class(Jordan(k, a, b, c, vec))


def exp_ham_sym_persym(beta, gamma, delta) -> np.ndarray:
    return exp_structured_class(HamSymPersym(beta, gamma, delta))


def exp_sym_toeplitz_tridiag(a, b) -> np.ndarray:
    return exp_structured_class(SymToeplitzTridiag(a, b))


def exp_sym_toeplitz_s13(a, b, c) -> np.ndarray:
    return exp_structured_class(SymToeplitzS13Zero(a, b, c))


def exp_special_normal(sn: SpecialNormal) -> np.ndarray:
    return exp_structured_class(sn)


def exp_bisymmetric_rs(params: BisymmetricRS) -> np.ndarray:
    return exp_structured_class(params)


def exp_symmetric_general(a, p, q, r) -> np.ndarray:
    return exp_structured_class(SymmetricGeneral(a, p, q, r))


def exp_so4_complex(a1, b1, g1, a2, b2, g2) -> np.ndarray:
    return exp_structured_class(ComplexSO4((a1, b1, g1), (a2, b2, g2)))


def exp_p4_complex(p, alpha, q, beta) -> np.ndarray:
    return exp_structured_class(ComplexPerskew(p, alpha, q, beta))


@dataclass(frozen=True)
class MinimalPolySkew:
    coefficients: tuple[float, float, float, float, float]
    degree: int


def minimal_poly_skewT(s, t) -> MinimalPolySkew:
    """Annihilating quartic of T = s(x)1 + 1(x)t (both slots pure):
    x^4 + 2(|s|^2+|t|^2) x^2 + (|s|^2-|t|^2)^2, with the degree of the true
    minimal polynomial reported alongside (drops at s=0, t=0, |s|=|t|)."""
    ns = float(np.linalg.norm(s))
    nt = float(np.linalg.norm(t))
    coeffs = (1.0, 0.0, 2.0 * (ns * ns + nt * nt), 0.0,
              (ns * ns - nt * nt) ** 2)
    if ns == 0.0 and nt == 0.0:
        degree = 1
    elif ns == 0.0 or nt == 0.0:
        degree = 2
    elif abs(ns - nt) <= 1e-12 * max(ns, nt):
        degree = 3
    else:
        degree = 4
    return MinimalPolySkew(coeffs, degree)


def exp_structured_class(inst) -> np.ndarray:
    """Dispatch a classified instance to the closed form of its groups."""
    groups_of = _INSTANCE_GROUPS.get(type(inst))
    if groups_of is not None:
        return _exp_groups(*groups_of(inst))
    fam = FAMILIES.get(getattr(inst, "tag", None))
    if fam is None or type(inst) is not fam.cls:
        raise TypeError(f"unknown structure class {type(inst).__name__}")
    c = fam.coefficients(inst).reshape(16)
    return _exp_groups(c[0], (c @ _TABLE_GROUP_ROWS[fam.tag]).reshape(-1, 4, 4))


_COMPLEX_TAGS = frozenset(tag for tag, _ in COMPLEX_REGISTRY)


def expm_auto(a_matrix, method: str = "auto", tol: float = DEFAULT_TOL,
              verify: bool = False) -> ExpResult:
    """Exponential with route selection.

    method="auto" takes the highest-priority structured family, falling back
    to the series oracle when nothing matches; a class tag forces that route
    or raises ForcedClassMismatch; "oracle" skips classification.
    """
    a = np.asarray(a_matrix)
    if a.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")

    if method == "oracle":
        value, route = expm_series(a), "oracle"
    elif method == "auto":
        inst = next(_matches(a, tol), None)
        if inst is None:
            value, route = expm_series(a), "oracle"
        else:
            value, route = exp_structured_class(inst), inst.tag
    else:
        if method not in EXTRACTORS:
            raise ValueError(f"unknown method {method!r}")
        if not np.isfinite(a).all():
            # a non-finite matrix is in no family: its distance to one is not finite
            raise ForcedClassMismatch(method, math.inf)
        ar = as_real_if_possible(a)
        if np.iscomplexobj(ar) and method not in _COMPLEX_TAGS:
            # a real family has no imaginary part: all of it is off the family
            raise ForcedClassMismatch(method, float(np.linalg.norm(ar.imag)))
        inst, residual = EXTRACTORS[method](ar, from_matrix(ar), tol,
                                            tol * max(1.0, float(np.linalg.norm(ar))))
        if inst is None:
            raise ForcedClassMismatch(method, residual)
        value, route = exp_structured_class(inst), inst.tag

    verified = rel_error(value, expm_series(a)) if verify else None
    return ExpResult(value, route, verified)
