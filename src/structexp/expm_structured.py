"""Closed-form exponentials for the structured 4x4 families, and route
selection for 2x2, 3x3 and 4x4 input.

A family member arrives as its flat coefficient vector c in the tensor basis
(see `classify`), and `_exp_member` is the one closed form for all of them.
A table family's groups are not declared but read off its support: they are
the connected parts of the support, less the scalar slot, under
anticommutation (`_group_plan`).  When there are at most two and the slots
of each pairwise anticommute, each group squares to a scalar, G @ G = mu I,
the groups commute, and

    exp(A) = exp(c00) * prod_g (cos r_g I + sin(r_g)/r_g G_g),  r_g = sqrt(-mu_g).

mu is read off c, since (e_a (x) e_b)^2 = +-1, and since (p (x) q)(r (x) s)
= (pr) (x) (qs), the product of two groups is a signed scatter of their
slot products (`_exp_grouped`).  Each plan, the group slots and squares
and that cross table, is built once, at import, for every table family
without a hand-written form; a support that does not split so raises
ClosedFormDefect.  SymmetricGeneral is the one table family whose support
does not: its pure block is one part whose slots do not all anticommute.

The two fitted families have rank-one blocks, and their exponentials are
four scalars each on two commuting elements that square to -1 or +1:
SpecialNormal, a + ns X + nt Y + mu XY with X = s_hat(x)1 and Y = 1(x)t_hat
(`_exp_special_normal`), and BisymmetricRS, eps + a J + P with J = j(x)i
and the block P (`_exp_bisymmetric_rs`), so they are group forms of three
and two groups.  All these are taken on the coefficients as plain floats,
turned into the matrix with one product with the basis rows.

The one route that needs spectral information is SymmetricGeneral: a LAPACK
SVD (the core of `smalllin.svd3`) rotates its pure block to three commuting
involutions, and the exponential sums their four joint sign patterns
(`_exp_symmetric_general`).  Their product would amplify roundoff by up to
exp(2 sigma_3).

The structure classes, records on `smalllin.Record`, are the public edge
only: `exp_structured_class` and the `exp_*` adapters turn an instance into
its member, forcing the matrix of a SpecialNormal or BisymmetricRS instance
onto its route.  Every closed form but SymmetricGeneral takes its scalars
from one `smalllin._factors` call, which folds exp(c00) and every hyperbolic
growth into one exponent, so it raises OverflowError only where exp(A) is
beyond the float64 range.

Route selection at every size is made here once, from one table of each
route's closed form by name (_ROUTES): `_routes` gives the routes of
`classify._walk` their closed forms, and `_dispatch`, which `expm_auto` and
the CLI's `expm` call, takes the walk's first claim for auto (by
`smalllin._residuals` and `_claim`, the walk's own body) or forces a route
by its entry of the same kernels (`classify._FORCED`, `smalllin._forced`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations
from typing import Optional

import numpy as np

from .classify import (_FORCED, _KERNELS, FAMILIES, BisymmetricRS,
                       ComplexPerskew, ComplexSO4, ForcedClassMismatch, HamSymPersym,
                       Jordan, Lie, Perskewsymmetric, SkewHamiltonian,
                       SkewSymmetric, SpecialNormal, SymmetricGeneral,
                       SymToeplitzS13Zero, SymToeplitzTridiag, _special_normal_frame,
                       _special_normal_parts, _walk, coefficients)
from .covering import COVERING_ALGEBRAS, _exp_lift
from .hxh import _BASIS_ROWS, _MUL_IDX, _MUL_SGN
from .oracle import expm_series, rel_error
from .smalllin import (_SAFE_NORM, DEFAULT_TOL, Record, _admit, _claim, _expm2, _factors,
                       _forced, _overflow_checked, _residuals, _setattr, _svd3, frobenius)


class ClosedFormDefect(RuntimeError):
    """A table family's support does not split into at most two groups that
    each square to a scalar, so the family has no group closed form."""


@dataclass(init=False, repr=False, eq=False, slots=True)
class ExpResult(Record):
    """exp(A), the route that gave it and, when verified, its relative
    error from the series oracle."""
    value: np.ndarray
    route: str
    verified: Optional[float] = None

    # every expm_auto call builds one: three assignments, no argument binding
    def __init__(self, value, route, verified=None):
        _setattr(self, "value", value)
        _setattr(self, "route", route)
        _setattr(self, "verified", verified)


def _anticommute(s, t) -> bool:
    """Whether the slots s and t anticommute, by the Hamilton table."""
    (a, b), (c, d) = s, t
    return _MUL_SGN[a, c] * _MUL_SGN[b, d] != _MUL_SGN[c, a] * _MUL_SGN[d, b]


def _group_plan(support):
    """(groups, cross) of the closed form of a family of support `support`,
    its (a, b) slots: the groups are the connected parts of the support less
    the scalar slot under anticommutation, the one holding the lowest slot
    last, each as its (slot 4a + b, square) pairs, the square +1 when a and
    b are both 0 or both pure and -1 otherwise; of two groups the cross
    table (i, j, k, sign), slot i of one times slot j of the other being
    sign times slot k, as (p(x)q)(r(x)s) = (pr)(x)(qs) in the Hamilton
    table.  ClosedFormDefect unless there are at most two groups and the
    slots of each pairwise anticommute, so that each squares to a scalar.

    Slots of different parts commute by construction, and each coefficient
    is one term: slot 0, the group slots and the cross slots all differ.
    For s1, s2 in one group and t1, t2 in the other, e_s1 e_t1 ~ e_u with u
    in either group would make s1 and t1 anticommute, and e_s1 e_t1 ~
    e_s2 e_t2 with s1 != s2 would make e_s2 e_s1, which commutes with e_t1,
    equal up to sign to e_t2 e_t1, which anticommutes with it."""
    parts = []
    for s in sorted(set(support) - {(0, 0)}):
        near = [p for p in parts if any(_anticommute(s, t) for t in p)]
        parts = [p for p in parts if p not in near] + [sorted([s, *chain(*near)])]
    lists = sorted(parts, reverse=True)
    if len(lists) > 2 or not all(_anticommute(s, t) for g in lists
                                 for s, t in combinations(g, 2)):
        raise ClosedFormDefect(f"groups {lists} are not at most two scalar squares")
    pairs = [(s, t) for g, h in combinations(lists, 2) for s in g for t in h]
    cross = tuple((4 * a + b, 4 * c + d, int(4 * _MUL_IDX[a, c] + _MUL_IDX[b, d]),
                   float(_MUL_SGN[a, c] * _MUL_SGN[b, d])) for (a, b), (c, d) in pairs)
    return tuple(tuple((4 * a + b, 1.0 if (a == 0) == (b == 0) else -1.0) for a, b in g)
                 for g in lists), cross


_COMPLEX_BASIS_ROWS = _BASIS_ROWS.astype(np.complex128)  # a complex member's product
# the slots of the pure-pure block
_PURE_ROWS = _BASIS_ROWS[[4 * a + b for a in (1, 2, 3) for b in (1, 2, 3)]]
# the weights' 1/4 is taken in the exponent, so that it does not overflow
# where exp(A) does not
_LOG4 = math.log(4.0)


def _det3(m) -> float:
    """det of a 3x3 matrix in plain floats (a LAPACK call costs more)."""
    (a, b, c), (d, e, f), (g, h, i) = m.tolist()
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _exp_symmetric_general(member) -> np.ndarray:
    """exp of a(1(x)1) + sum_i sigma_i M_i, with [p|q|r] = U diag(sigma) V^T
    and M_i the matrix of u_i(x)v_i.  The M_i are commuting involutions with
    M1 M2 M3 = d I, d = det U det V, so their joint eigenvalues are the four
    sign patterns s with s1 s2 s3 = d, with projectors (I + sum_i s_i M_i)/4:

        exp(A) = sum_s exp(a + s.sigma) (I + sum_i s_i M_i) / 4.

    Every weight is positive, so nothing cancels at any scale, and the sum
    holds for sigma_3 = 0 and repeated sigma alike.  The patterns for d are
    d times those for d = 1, (1,1,1), (1,-1,-1), (-1,1,-1), (-1,-1,1), which
    are taken on d sigma here."""
    # a member is finite, so the checks of the public svd3 are not needed
    u, sigma, vh = _svd3(member.reshape(4, 4)[1:, 1:])
    d = 1.0 if _det3(u) * _det3(vh) > 0.0 else -1.0
    a = float(member[0])
    s1, s2, s3 = d * sigma[0], d * sigma[1], d * sigma[2]
    w0, w1 = math.exp(a + (s1 + s2 + s3) - _LOG4), math.exp(a + (s1 - s2 - s3) - _LOG4)
    w2, w3 = math.exp(a + (-s1 + s2 - s3) - _LOG4), math.exp(a + (-s1 - s2 + s3) - _LOG4)
    t = [d * (w0 + w1 - w2 - w3), d * (w0 - w1 + w2 - w3), d * (w0 - w1 - w2 + w3)]
    value = (u * t).dot(vh).reshape(9).dot(_PURE_ROWS)
    value[::5] += w0 + w1 + w2 + w3
    return value.reshape(4, 4)


def _exp_special_normal(member) -> np.ndarray:
    """exp of a(1(x)1) + ns X + nt Y + mu XY with X = u(x)1 and Y = 1(x)v
    for the unit vectors u, v of classify._special_normal_frame.  X and Y
    commute and X^2 = Y^2 = -1, so XY squares to +1 and

        exp(A) = e^a (cos ns + sin ns X)(cos nt + sin nt Y)(cosh mu + sinh mu XY)
               = e^a (alpha + beta X + gamma Y + delta XY),

    by `smalllin._factors` of the squares -ns^2, -nt^2 and mu^2.  Without a
    skew part the block W alone is exponentiated, mu = |W|."""
    a, s, t, b = _special_normal_parts(member.tolist())
    ns, nt = math.hypot(*s), math.hypot(*t)
    if ns or nt:
        (u0, u1, u2), (v0, v1, v2), mu = _special_normal_frame(s, t, b, ns, nt)
        w0, w1, w2, w3, w4, w5, w6, w7, w8 = (u0 * v0, u0 * v1, u0 * v2, u1 * v0, u1 * v1,
                                              u1 * v2, u2 * v0, u2 * v1, u2 * v2)
    else:
        u0 = u1 = u2 = v0 = v1 = v2 = 0.0
        mu = math.hypot(*b)
        w0, w1, w2, w3, w4, w5, w6, w7, w8 = [x / mu for x in b] if mu else b
    (cx, cy, ch), (sx, sy, sh), h = _factors(a, (-ns * ns, -nt * nt, mu * mu))
    sx, sy, sh = sx * ns, sy * nt, sh * mu
    alpha, delta = h * (cx * cy * ch + sx * sy * sh), h * (sx * sy * ch + cx * cy * sh)
    beta, gamma = h * (sx * cy * ch - cx * sy * sh), h * (cx * sy * ch - sx * cy * sh)
    coefs = [alpha, gamma * v0, gamma * v1, gamma * v2, beta * u0, delta * w0, delta * w1,
             delta * w2, beta * u1, delta * w3, delta * w4, delta * w5, beta * u2, delta * w6,
             delta * w7, delta * w8]
    return np.array(coefs).dot(_BASIS_ROWS).reshape(4, 4) * h


def _exp_bisymmetric_rs(member) -> np.ndarray:
    """exp of eps(1(x)1) + a J + P with J = j(x)i and P the rank-one block
    x(x)y = [[p, q], [r, t]] (rows i, k, columns j, k).  J^2 = 1, P^2 = nu^2
    with nu = |P|, and J commutes with P, so

        exp(A) = e^eps (cosh a + sinh a J)(cosh nu + sinh(nu)/nu P),

    where JP = (jx)(x)(iy) is the block P' = [[-t, r], [q, -p]], by
    `smalllin._factors` of the squares a^2 and nu^2."""
    eps, _, _, _, _, _, p, q, _, a, _, _, _, _, r, t = member.tolist()
    nu = math.hypot(p, q, r, t)
    (cha, chn), (sha, shc), h = _factors(eps, (a * a, nu * nu))
    sha, chn, shc = sha * a, h * chn, h * shc
    coefs = [cha * chn, 0.0, 0.0, 0.0, 0.0, 0.0, shc * (cha * p - sha * t),
             shc * (cha * q + sha * r), 0.0, sha * chn, 0.0, 0.0, 0.0, 0.0,
             shc * (cha * r + sha * q), shc * (cha * t - sha * p)]
    return np.array(coefs).dot(_BASIS_ROWS).reshape(4, 4) * h


def _exp_grouped(plan, member) -> np.ndarray:
    """The group closed form on the coefficients as plain floats, by the
    family's plan (see _group_plan): of two groups, exp(A) = e^c00 (c1 c2 +
    s1 c2 G1 + c1 s2 G2 + s1 s2 G1 G2), G1 G2 putting sign c_i c_j on each
    cross slot k.  The growth h of `smalllin._factors` is applied to these
    scalars and again to the matrix, which one product with the basis rows
    gives, complex for a complex member.  No comprehension or generator:
    on CPython <= 3.11 each runs in a frame of its own, which costs more
    than a small group's arithmetic."""
    groups, cross = plan
    c = member.tolist()
    mus = []
    for group in groups:
        mu = 0.0
        for i, sq in group:
            mu += sq * c[i] * c[i]
        mus.append(mu)
    cs, ss, h = _factors(c[0], mus)
    # a missing group is a factor of 1
    c1, s1 = (cs[0], ss[0]) if cs else (1.0, 0.0)
    c2, s2 = (cs[1], ss[1]) if len(cs) == 2 else (1.0, 0.0)
    out = [0.0] * 16
    out[0] = h * c1 * c2
    w = h * s1 * c2  # then c1 s2 for the second group
    for group in groups:
        for i, _ in group:
            out[i] = w * c[i]
        w = h * c1 * s2
    t = h * s1 * s2
    for i, j, k, sign in cross:
        out[k] = sign * t * c[i] * c[j]
    rows = _BASIS_ROWS if member.dtype.kind != "c" else _COMPLEX_BASIS_ROWS
    return np.array(out).dot(rows).reshape(4, 4) * h


# every family's closed form, of its member: the hand-written ones, and the
# group form of every other table family by the plan of its support
_FORMS = dict(SpecialNormal=_exp_special_normal, BisymmetricRS=_exp_bisymmetric_rs,
              SymmetricGeneral=_exp_symmetric_general)
_PLANS = {tag: _group_plan(divmod(s, 4)
                           for s in fam.basis.any(axis=1).nonzero()[0].tolist())
          for tag, fam in FAMILIES.items() if tag not in _FORMS}
_FORMS.update((tag, partial(_exp_grouped, plan)) for tag, plan in _PLANS.items())


def _exp_member(tag: str, member, norm: float, tol_abs: float) -> np.ndarray:
    """exp of the member of family `tag`, given as its flat coefficient
    vector, fitted to an A of Frobenius norm `norm` at the bound tol_abs.
    Its overflow gate |A|_F/2 + tol_abs is at least the member's norm, since
    A's table c has norm |A|_F/2 and no member is longer than c.  Raises
    OverflowError when exp(A) is beyond the float64 range; every closed form
    applies its growth as one exponent, so that is the only case."""
    bound = norm / 2.0 + tol_abs
    if bound < _SAFE_NORM:
        return _FORMS[tag](member)
    return _overflow_checked(bound, "the closed form", _FORMS[tag], member)


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


@dataclass(init=False, repr=False, eq=False)
class MinimalPolySkew(Record):
    """The coefficients of the annihilating quartic of T, highest first,
    and the degree of its minimal polynomial (see minimal_poly_skewT)."""
    coefficients: tuple[float, float, float, float, float]
    degree: int


def minimal_poly_skewT(s, t) -> MinimalPolySkew:
    """Annihilating quartic of T = s(x)1 + 1(x)t (both slots pure):
    x^4 + 2(|s|^2+|t|^2) x^2 + ((|s|-|t|)(|s|+|t|))^2, with the degree of
    the true minimal polynomial reported alongside (drops at s=0, t=0,
    |s|=|t|).  |s| and |t| are taken with math.hypot, so they neither
    overflow nor underflow.  ValueError unless s and t each hold 3 finite
    real entries; OverflowError when a coefficient is beyond the float64
    range (an entry above about 1e77 can make the constant term so)."""
    for v in (s, t):
        v = np.asarray(v)
        if v.shape != (3,) or v.dtype.kind not in "iuf" or not np.isfinite(v).all():
            raise ValueError("s and t must each hold 3 finite real entries")
    ns = math.hypot(*map(float, s))
    nt = math.hypot(*map(float, t))
    gap = (ns - nt) * (ns + nt)
    coeffs = (1.0, 0.0, 2.0 * (ns * ns + nt * nt), 0.0, gap * gap)
    if not all(map(math.isfinite, coeffs)):
        raise OverflowError("a coefficient of the annihilating quartic is "
                            "beyond the float64 range")
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
    """The closed form of a classified instance.  A table family's instance
    is a member by construction; one of a hand-written fit can hold data off
    its family, so its matrix is forced onto the family's route at
    DEFAULT_TOL, which raises ForcedClassMismatch when the fit rejects it."""
    tag, member = getattr(inst, "tag", None), coefficients(inst)
    if tag in FAMILIES:
        # the instance's matrix has twice the coefficient norm
        return _exp_member(tag, member, 2.0 * frobenius(member), 0.0)
    return _exp_member(tag, *_forced(inst.reconstruct(), DEFAULT_TOL, _FORCED[tag]))


# every route's closed form by name, (member, |A|_F, tol_abs) -> exp(A); a
# 2x2 is its own member, and it and a covering lift gate their own norms
_ROUTES = {
    "expm2": lambda a, norm, tol_abs: _expm2(a, norm),
    **{tag: partial(_exp_member, tag) for tag in _FORMS},
    **{f"covering:{name}": lambda x, norm, tol_abs, alg=alg: _exp_lift(alg, x)
       for name, alg in COVERING_ALGEBRAS.items()},
}
_SHAPES = frozenset({(2, 2), (3, 3), (4, 4)})


def _routes(a_matrix, tol: float, coverings: bool = False):
    """(route, value) of each route of `classify._walk` on A, lazily."""
    admitted = _admit(a_matrix, tol, len(a_matrix))
    if admitted is None:
        return
    a, norm, tol_abs = admitted
    for route, member in _walk(a, tol_abs, tol, coverings):
        yield route, _ROUTES[route](member, norm, tol_abs)


def _dispatch(a, method: str, tol: float):
    """(route, exp(A)) by `method`: "auto" takes the first route of
    `classify._walk` (without coverings) by the walk's own helpers, in this
    frame, or the series oracle when none claims A; "oracle" skips every
    closed form; a route name forces that route by its entry of the walk: a
    class tag (ForcedClassMismatch), "covering:<name>" (NotInAlgebra) or
    "expm2" (ValueError on a 2x2 of non-finite entries or norm).  A tol
    that is not positive and finite is a ValueError on the oracle too, as
    `smalllin._admit` raises it on every other route."""
    if method == "oracle":
        if not 0.0 < tol < math.inf:
            raise ValueError("tol must be positive and finite")
        return "oracle", expm_series(a)
    if method == "auto":
        admitted = _admit(a, tol, len(a))
        if admitted is None:
            return "oracle", expm_series(a)
        x, norm, tol_abs = admitted
        # a 4x4 algebra never claims first: its twin family ahead of it does
        routes, kernel, incidence = _KERNELS[len(x), x.dtype.kind == "c"][0]
        vec = x.ravel()
        y, squares = _residuals(kernel, incidence, vec)
        claim = _claim(routes, squares.tolist(), 0, x, vec, y, tol, tol_abs)
        if claim is None:
            return "oracle", expm_series(a)
        method, member = routes[claim[0]][0], claim[1]
    elif method in _FORCED:
        member, norm, tol_abs = _forced(a, tol, _FORCED[method])
    elif method.startswith("covering:"):
        raise ValueError(f"unknown covering algebra {method[9:]!r}; choose from "
                         + ", ".join(sorted(COVERING_ALGEBRAS)))
    else:
        raise ValueError(f"unknown method {method!r}")
    return method, _ROUTES[method](member, norm, tol_abs)


def expm_auto(a_matrix, method: str = "auto", tol: float = DEFAULT_TOL,
              verify: bool = False) -> ExpResult:
    """Exponential of a 2x2, 3x3 or 4x4 matrix with route selection.

    method="auto" takes the first route that claims A (expm2 for a 2x2, the
    highest-priority structured family of a 4x4, the first covering algebra
    of a 3x3), falling back to the series oracle when none does; a class tag
    forces that route or raises ForcedClassMismatch; "covering:<name>"
    forces that covering algebra or raises NotInAlgebra; "expm2" forces the
    2x2 route, ValueError if its entries or norm are not finite; "oracle"
    skips classification.
    """
    a = np.asarray(a_matrix)
    if a.shape not in _SHAPES:
        raise ValueError("expected a 2x2, 3x3 or 4x4 matrix")
    route, value = _dispatch(a, method, tol)
    verified = None
    if verify:
        # the oracle's own value is 0.0 from itself, rel_error(x, x)
        verified = 0.0 if route == "oracle" else rel_error(value, expm_series(a))
    return ExpResult(value, route, verified)
