"""Closed-form exponentials for the structured 4x4 families.

Every formula here follows one pattern: split the element into groups that
commute with each other while the members inside a group pairwise
anticommute, so each group squares to a scalar multiple of 1(x)1 and

    exp(u) = phi_c(-mu) (1(x)1) + phi_s(-mu) u,    mu = scalar_square(u).

The phi functions pick cos/cosh branches from the sign of mu, so no formula
hard-codes a trigonometric choice; when an extraction hands us a group whose
square is not scalar, that is a defect, not an input error.  The groups of
each family are data in its `classify.FAMILIES` entry (`_exp_groups`); four
families keep bespoke closed forms (`_BESPOKE`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .classify import (DEFAULT_TOL, EXTRACTORS, FAMILIES, BisymmetricRS,
                       ComplexPerskew, ComplexSO4, Family, HamSymPersym,
                       Jordan, Lie, Perskewsymmetric, SkewHamiltonian,
                       SkewSymmetric, SpecialNormal, SymmetricGeneral,
                       SymToeplitzS13Zero, SymToeplitzTridiag,
                       as_real_if_possible, classify)
from .hxh import R4, HxHElement, from_matrix, hxh_mul, scalar_square
from .oracle import expm_series, rel_error
from .quat import Quaternion, quat_exp
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


def _exp_scalar_square(u: HxHElement) -> HxHElement:
    mu = scalar_square(u)
    if mu is None:
        raise ClosedFormDefect("group square is not a multiple of the identity")
    one = HxHElement.one(u.scalar_kind == "complex")
    return phi_c(-mu) * one + phi_s(-mu) * u


def exp_skew_symmetric(p, q) -> np.ndarray:
    """exp of the skew-symmetric matrix with support p(x)1 + 1(x)q: the two
    slots commute, and each exponentiates to a unit quaternion.  This
    quaternion-pair form is about 15 times faster than the group product."""
    x = quat_exp(Quaternion.pure(p))
    y = quat_exp(Quaternion.pure(q))
    return HxHElement.from_pair(x.components, y.components).to_matrix()


def _exp_groups(fam: Family, inst) -> np.ndarray:
    """exp(c00) * prod_g (phi_c(-mu_g) 1 + phi_s(-mu_g) g) over the commuting
    groups g of the family's table entry."""
    c = fam.coefficients(inst)
    value = reduce(hxh_mul, [_exp_scalar_square(HxHElement(c * mask))
                             for mask in fam.masks]).to_matrix()
    # only real families have the scalar slot
    return math.exp(c[0, 0]) * value if c[0, 0] else value


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
    """Three commuting factors: the symmetric rank-one part, then the two
    halves of the skew part as left/right unit-quaternion actions."""
    sym = HxHElement.zero()
    sym.c[1:, 1:] = np.outer(sn.s_hat, sn.t_hat)
    f1 = math.exp(sn.a) * _exp_scalar_square(sym)
    left = quat_exp(Quaternion.pure(sn.s))
    right = quat_exp(Quaternion.pure(sn.t))
    f2 = HxHElement.from_pair(left.components, (1.0, 0.0, 0.0, 0.0))
    f3 = HxHElement.from_pair((1.0, 0.0, 0.0, 0.0), right.components)
    return (f1 * f2 * f3).to_matrix()


def exp_bisymmetric_rs(params: BisymmetricRS) -> np.ndarray:
    """A = R4 S: since R4 commutes with S and squares to I,
    exp(A) = exp(a R4) (cosh(S0) + R4 sinh(S0)) with S0 the trace-free part
    of S, split into commuting scalar-square pieces X and Y."""
    x = HxHElement.zero()
    x.c[2, 1] = params.eps
    y = HxHElement.zero()
    y.c[1:, 1:] = np.outer((params.alpha, 0.0, params.beta),
                           (0.0, params.gamma, params.delta))
    mu_x = scalar_square(x)
    mu_y = scalar_square(y)
    if mu_x is None or mu_y is None:
        raise ClosedFormDefect("bisymmetric factor square is not scalar")

    one = HxHElement.one()
    cosh_part = (phi_c(-mu_x) * phi_c(-mu_y)) * one \
        + (phi_s(-mu_x) * phi_s(-mu_y)) * (x * y)
    sinh_part = (phi_s(-mu_x) * phi_c(-mu_y)) * x \
        + (phi_s(-mu_y) * phi_c(-mu_x)) * y
    # exp(a R4) = cosh(a) I + sinh(a) R4, since (a R4)^2 = a^2 I
    f1 = math.cosh(params.a) * np.eye(4) + math.sinh(params.a) * R4
    f2 = cosh_part.to_matrix() + R4 @ sinh_part.to_matrix()
    return f1 @ f2


def exp_symmetric_general(a, p, q, r) -> np.ndarray:
    """Rotate [p|q|r] to diagonal via its SVD: the matrix becomes a sum of
    three commuting rank-one terms sigma_i u_i(x)v_i, each scalar-square."""
    f = svd3(np.column_stack([p, q, r]))
    acc = HxHElement.one()
    for i in range(3):
        term = HxHElement.zero()
        term.c[1:, 1:] = f.sigma[i] * np.outer(f.u[:, i], f.v[:, i])
        acc = acc * _exp_scalar_square(term)
    return math.exp(a) * acc.to_matrix()


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


# the families whose closed form is not the table's group product
_BESPOKE = {
    SkewSymmetric: lambda inst: exp_skew_symmetric(inst.p, inst.q),
    SpecialNormal: exp_special_normal,
    BisymmetricRS: exp_bisymmetric_rs,
    SymmetricGeneral: lambda inst: exp_symmetric_general(inst.a, inst.p, inst.q, inst.r),
}


def exp_structured_class(inst) -> np.ndarray:
    """Dispatch a classified instance to its closed form."""
    bespoke = _BESPOKE.get(type(inst))
    if bespoke is not None:
        return bespoke(inst)
    fam = FAMILIES.get(getattr(inst, "tag", None))
    if fam is None or type(inst) is not fam.cls:
        raise TypeError(f"unknown structure class {type(inst).__name__}")
    return _exp_groups(fam, inst)


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
        matches = classify(a, tol)
        if matches:
            value, route = exp_structured_class(matches[0]), matches[0].tag
        else:
            value, route = expm_series(a), "oracle"
    else:
        if method not in EXTRACTORS:
            raise ValueError(f"unknown method {method!r}")
        ar = as_real_if_possible(a)
        inst, residual = EXTRACTORS[method](ar, from_matrix(ar), tol,
                                            tol * max(1.0, float(np.linalg.norm(ar))))
        if inst is None:
            raise ForcedClassMismatch(method, residual)
        value, route = exp_structured_class(inst), inst.tag

    verified = rel_error(value, expm_series(a)) if verify else None
    return ExpResult(value, route, verified)
