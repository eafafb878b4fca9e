"""Detection of structured 4x4 families, and the one membership walk of
every route at every size.

A family member is its flat coefficient vector c in the tensor basis, and
that vector is what classification hands to the closed forms.  A table
family is one `Family` entry: each parameter of its record is a slot ->
weight pattern in the coefficient table (ties among slots are weights, as in
the Toeplitz cases); `expm_structured` reads its commuting groups off the
support of its patterns.  With B the patterns as columns, the member is c
minus its off-family part (I - B B^+) c, and, the basis matrices being
pairwise orthogonal with Frobenius norm 2, 2 |(I - B B^+) c| is the exact
distance to the family.  Only the rank-one supports of SpecialNormal and
BisymmetricRS need hand-written fits, on the 16 coefficients as plain
floats: SpecialNormal's pure block along s_hat(x)t_hat, the one rank-one
direction that commutes with its skew part s(x)1 + 1(x)t
(`_special_normal_frame`), BisymmetricRS's block {i,k}(x){j,k} by its
larger column.

Squares decide every route.  P_f, the projector off registry entry f, is
I - B B^+ for a table family and, for a fit, the projector off the slots its
member can fill, whose residual it bounds from below; all but the two
Toeplitz families' are diagonal and 0/1, and those keep two and one
orthonormal tie functionals T.  So at import each input kind gets one
kernel Y, with the 0/1 incidence W of its entries on the squares of
y = Y vec A: for a real 4x4, Y = [P; T P] (19 rows, P the coefficient
projection) with the 22 real families, then the 4x4 covering algebras, each
reading its twin family's square (`_TWINS`); for a complex 4x4, that Y over
C, its two families reading their twins' rows; the 3x3 algebras' (27 rows,
in `covering`); and a 2x2's, no rows and one entry, expm2's, whose rule
returns A.  BisymmetricRS fills six slots, so a symmetric or dense A skips
its fit; SpecialNormal fills every slot, so its fit always runs.

An entry is (name, rows, None), member rows: (I - P_f) P for every table
family, psi^+ for a covering algebra; or (name, None, rule), a fit or expm2,
whose rule(A, c, tol_abs) gives a member or None and a residual (`_stack`).
`smalllin._residuals`, `_member` and `_claim` walk one kernel at the bound
tol_abs that `smalllin._admit` makes of tol.  `_walk` yields the claims to
classify and verify, and auto (`expm_structured._dispatch`) takes the first,
for a 4x4 always a family's; classify walks a 4x4's family entries alone,
verify its covering ones too, each from one _residuals call.  A forced
route is its own entry of the same kernels, one for each input kind
(`_FORCED`, `smalllin._forced`), so auto, forced, classify and verify decide
every route alike and give bitwise-equal members.  The structure classes,
frozen records on `smalllin.Record`, are the public view of a
member: `instance` and `coefficients` convert between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from itertools import product
from typing import Callable, ClassVar, Optional

import numpy as np

from .covering import _COVER3, _ENTRIES, COVERING_ALGEBRAS, NotInAlgebra
from .hxh import _BASIS_ROWS, _PROJECTION_ROWS
from .smalllin import (DEFAULT_TOL, Record, _admit, _claim, _forced, _real_if_possible,
                       _residuals, frobenius)

Vec3 = tuple[float, float, float]
CVec3 = tuple[complex, complex, complex]

# pure-basis indexes into the coefficient table (0 is the scalar slot)
_I, _J, _K = 1, 2, 3

# symmetric form e_x (x) e_y backing each Lie-family class
LIE_FORMS = {1: (_I, _I), 2: (_J, _J), 3: (_K, _K), 4: (_K, _I),
             5: (_K, _J), 6: (_I, _J), 7: (_I, _K), 8: (_J, _K)}

# skew form backing each Jordan-family class: ("left", x) is e_x (x) 1,
# ("right", y) is 1 (x) e_y
JORDAN_FORMS = {1: ("right", _K), 2: ("right", _I), 3: ("left", _I),
                4: ("left", _J), 5: ("left", _K)}


class _Instance(Record):
    """reconstruct() for every structure class."""

    def reconstruct(self) -> np.ndarray:
        return (coefficients(self) @ _BASIS_ROWS).reshape(4, 4)


@dataclass(init=False, repr=False, eq=False)
class SkewSymmetric(_Instance):
    """Coefficient support p(x)1 + 1(x)q with p, q pure."""
    tag: ClassVar[str] = "SkewSymmetric"
    p: Vec3
    q: Vec3


@dataclass(init=False, repr=False, eq=False)
class Perskewsymmetric(_Instance):
    """p(x)i + alpha(j(x)1) + j(x)q + beta(1(x)i), p _|_ j, q _|_ i."""
    tag: ClassVar[str] = "Perskewsymmetric"
    p: Vec3
    alpha: float
    q: Vec3
    beta: float


@dataclass(init=False, repr=False, eq=False)
class SkewHamiltonian(_Instance):
    """b(1(x)1) + p(x)j + 1(x)(c i + d k)."""
    tag: ClassVar[str] = "SkewHamiltonian"
    b: float
    p: Vec3
    c: float
    d: float


@dataclass(init=False, repr=False, eq=False)
class Jordan(_Instance):
    """One of five classes self-adjoint for a skew form.

    For a left form e_x(x)1 the element is a(1(x)1) + (b e_u + c e_v)(x)1
    + e_x(x)v with (u, v) the complement pair of x; right forms mirror the
    slots. `vec` is the unconstrained pure factor in either case.
    """
    tag_base: ClassVar[str] = "Jordan"
    k: int
    a: float
    b: float
    c: float
    vec: Vec3

    @property
    def tag(self) -> str:
        return f"Jordan{self.k}"


@dataclass(init=False, repr=False, eq=False)
class Lie(_Instance):
    """One of eight classes skew for a symmetric form e_x(x)e_y.

    Element: a(1(x)e_y) + p(x)e_y + b(e_x(x)1) + e_x(x)q with p _|_ e_x and
    q _|_ e_y. Class 1 is the set of matrices preserving diag(1,1,-1,-1).
    """
    tag_base: ClassVar[str] = "Lie"
    k: int
    a: float
    b: float
    p: Vec3
    q: Vec3

    @property
    def tag(self) -> str:
        return f"Lie{self.k}"


@dataclass(init=False, repr=False, eq=False)
class HamSymPersym(_Instance):
    """beta(j(x)i) + gamma(i(x)k) + delta(k(x)k): simultaneously Hamiltonian,
    symmetric and persymmetric."""
    tag: ClassVar[str] = "HamSymPersym"
    beta: float
    gamma: float
    delta: float


@dataclass(init=False, repr=False, eq=False)
class SymToeplitzTridiag(_Instance):
    """Symmetric tridiagonal Toeplitz: a on the diagonal, b beside it."""
    tag: ClassVar[str] = "SymToeplitzTridiag"
    a: float
    b: float


@dataclass(init=False, repr=False, eq=False)
class SymToeplitzS13Zero(_Instance):
    """a(1(x)1) + b(j(x)i) + c(i(x)j) + b(k(x)j): the variant whose second
    super- and subdiagonal vanish."""
    tag: ClassVar[str] = "SymToeplitzS13Zero"
    a: float
    b: float
    c: float


@dataclass(init=False, repr=False, eq=False)
class SpecialNormal(_Instance):
    """Normal matrix whose skew part splits as s(x)1 + 1(x)t with unequal
    norms; the symmetric part is then forced to a(1(x)1) + s_hat(x)t_hat.

    s_hat equals s whenever s is nonzero; it is kept as a separate field so
    the s = 0 subcase (symmetric part still rank one) stays representable.
    """
    tag: ClassVar[str] = "SpecialNormal"
    a: float
    s: Vec3
    t_hat: Vec3
    t: Vec3
    s_hat: Vec3


@dataclass(init=False, repr=False, eq=False)
class BisymmetricRS(_Instance):
    """A = R4 S with S = a(1(x)1) + eps(j(x)i) + (alpha i + beta k)(x)
    (gamma j + delta k); symmetric, persymmetric, not Toeplitz.  Since R4 is
    j(x)i, A = eps(1(x)1) + a(j(x)i) + (beta i - alpha k)(x)(gamma k - delta j)."""
    tag: ClassVar[str] = "BisymmetricRS"
    a: float
    eps: float
    alpha: float
    beta: float
    gamma: float
    delta: float


@dataclass(init=False, repr=False, eq=False)
class SymmetricGeneral(_Instance):
    """Any symmetric matrix: a(1(x)1) + p(x)i + q(x)j + r(x)k."""
    tag: ClassVar[str] = "SymmetricGeneral"
    a: float
    p: Vec3
    q: Vec3
    r: Vec3


@dataclass(init=False, repr=False, eq=False)
class ComplexSO4(_Instance):
    """Complex skew-symmetric: left(x)1 + 1(x)right with complex triples."""
    tag: ClassVar[str] = "ComplexSO4"
    left: CVec3
    right: CVec3


@dataclass(init=False, repr=False, eq=False)
class ComplexPerskew(_Instance):
    """Complex-coefficient analogue of Perskewsymmetric."""
    tag: ClassVar[str] = "ComplexPerskew"
    p: CVec3
    alpha: complex
    q: CVec3
    beta: complex


StructureClass = (SkewSymmetric | Perskewsymmetric | SkewHamiltonian | Jordan
                  | Lie | HamSymPersym | SymToeplitzTridiag | SymToeplitzS13Zero
                  | SpecialNormal | BisymmetricRS | SymmetricGeneral
                  | ComplexSO4 | ComplexPerskew)

# a slot -> weight map over the coefficient table: the pattern one scalar
# parameter fills
Pattern = dict[tuple[int, int], float]


class Family:
    """One structured family as data.

    `params` maps each field of `cls` (other than the class index k) to its
    patterns, one per scalar: one for a scalar field, three for a 3-vector.
    `basis` holds the patterns as columns, so its nonzero rows are the
    family's support, the slots a member can fill.
    """

    def __init__(self, cls, params: dict[str, tuple[Pattern, ...]], k: Optional[int] = None):
        self.cls, self.k = cls, k
        self.tag = cls.tag if k is None else f"{cls.tag_base}{k}"
        self.params = {f.name: params[f.name] for f in fields(cls) if f.name != "k"}
        flat = [pat for pats in self.params.values() for pat in pats]
        self.basis = np.zeros((16, len(flat)))
        for col, pat in enumerate(flat):
            for (a, b), w in pat.items():
                self.basis[4 * a + b, col] = w
        # disjoint columns: B^+ is B^T scaled by each column's squared norm
        sq = (self.basis ** 2).sum(axis=0)
        self.pinv = self.basis.T / np.where(sq > 0.0, sq, 1.0)[:, None]
        self.projector = np.eye(16) - self.basis @ self.pinv

    def instance(self, member):
        """The record of a member, its parameters B^+ c, complex if it is."""
        vals = (self.pinv @ member).tolist()
        args = [] if self.k is None else [self.k]
        i = 0
        for pats in self.params.values():
            n = len(pats)
            args.append(vals[i] if n == 1 else tuple(vals[i:i + n]))
            i += n
        return self.cls(*args)

    def coefficients(self, inst) -> np.ndarray:
        """The member of an instance, B theta."""
        return self.basis @ np.concatenate([np.ravel(getattr(inst, name))
                                            for name in self.params])


def _one(a: int, b: int) -> tuple[Pattern]:
    """A scalar parameter on the slot e_a (x) e_b."""
    return ({(a, b): 1.0},)


def _col(y: int, skip: int = 0) -> tuple[Pattern, ...]:
    """A 3-vector parameter p on the slots p (x) e_y, component `skip` held
    at zero."""
    return tuple({} if m == skip else {(m, y): 1.0} for m in (_I, _J, _K))


def _row(x: int, skip: int = 0) -> tuple[Pattern, ...]:
    """A 3-vector parameter q on the slots e_x (x) q, component `skip` held
    at zero."""
    return tuple({} if m == skip else {(x, m): 1.0} for m in (_I, _J, _K))


def _skew(cls, left: str, right: str) -> Family:
    """left (x) 1 + 1 (x) right."""
    return Family(cls, {left: _col(0), right: _row(0)})


def _lie(cls, x: int, y: int, k: Optional[int] = None, a: str = "a", b: str = "b") -> Family:
    """a(1(x)e_y) + p(x)e_y + b(e_x(x)1) + e_x(x)q with p _|_ e_x, q _|_ e_y:
    the element skew for the symmetric form e_x (x) e_y."""
    return Family(cls, {a: _one(0, y), b: _one(x, 0), "p": _col(y, skip=x),
                        "q": _row(x, skip=y)}, k)


def _jordan(k: int) -> Family:
    """a(1(x)1) + (b e_u + c e_v)(x)1 + e_x(x)vec for a left form e_x(x)1,
    mirrored for a right one (see Jordan)."""
    side, w = JORDAN_FORMS[k]
    m1, m2 = (m for m in (_I, _J, _K) if m != w)
    if side == "left":
        b, c, vec = _one(m1, 0), _one(m2, 0), _row(w)
    else:
        b, c, vec = _one(0, m1), _one(0, m2), _col(w)
    return Family(Jordan, {"a": _one(0, 0), "b": b, "c": c, "vec": vec}, k)


# every real family but SpecialNormal and BisymmetricRS, in dispatch order
_TABLE = [
    _skew(SkewSymmetric, "p", "q"),
    Family(SkewHamiltonian,
           {"b": _one(0, 0), "p": _col(_J), "c": _one(0, _I), "d": _one(0, _K)}),
    _lie(Perskewsymmetric, _J, _I, a="beta", b="alpha"),
    *(_lie(Lie, *LIE_FORMS[k], k=k) for k in LIE_FORMS),
    *(_jordan(k) for k in JORDAN_FORMS),
    Family(HamSymPersym,
           {"beta": _one(_J, _I), "gamma": _one(_I, _K), "delta": _one(_K, _K)}),
    # b/2 on the two slots i(x)j, j(x)i and b on k(x)j
    Family(SymToeplitzTridiag,
           {"a": _one(0, 0), "b": ({(_J, _I): 0.5, (_I, _J): 0.5, (_K, _J): 1.0},)}),
    Family(SymToeplitzS13Zero,
           {"a": _one(0, 0), "b": ({(_J, _I): 1.0, (_K, _J): 1.0},), "c": _one(_I, _J)}),
    Family(SymmetricGeneral,
           {"a": _one(0, 0), "p": _col(_I), "q": _col(_J), "r": _col(_K)}),
]
# the complex families, each on its real twin's set (see _TWINS)
_COMPLEX_TABLE = [_skew(ComplexSO4, "left", "right"),
                  _lie(ComplexPerskew, _J, _I, a="beta", b="alpha")]

FAMILIES: dict[str, Family] = {fam.tag: fam for fam in _TABLE + _COMPLEX_TABLE}

# the slots, besides the scalar slot, that a member of each hand-written fit
# can fill: SpecialNormal's every one, BisymmetricRS's j(x)i and its block
# {i,k}(x){j,k}
_FIT_SLOTS = {"SpecialNormal": set(product(range(4), range(4))) - {(0, 0)},
              "BisymmetricRS": {(_J, _I)} | set(product((_I, _K), (_J, _K)))}


def _special_normal_parts(flat):
    """(c00, s, t, B) of a flat coefficient list, as lists: the skew part
    s(x)1 + 1(x)t and the pure block B, its nine entries row by row."""
    return flat[0], flat[4::4], flat[1:4], flat[5:8] + flat[9:12] + flat[13:16]


def _special_normal_frame(s, t, b, ns: float, nt: float):
    """(u, v, mu) with mu u(x)v the fit of the pure block B (`b`, its nine
    entries row by row) for the skew part s(x)1 + 1(x)t of norms ns and nt,
    of which at most one is 0: along s_hat(x)t_hat, mu = s_hat^T B t_hat,
    when both are nonzero; x_hat(x)t_hat with x = B t_hat when ns = 0; and
    s_hat(x)y_hat with y = B^T s_hat when nt = 0, mu = |x| or |y| (a zero
    factor for mu = 0).  The unit vectors come from ns and nt, so no square
    underflows or overflows."""
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    if nt:
        v0, v1, v2 = v = (t[0] / nt, t[1] / nt, t[2] / nt)
        x = (b0 * v0 + b1 * v1 + b2 * v2, b3 * v0 + b4 * v1 + b5 * v2,
             b6 * v0 + b7 * v1 + b8 * v2)
        if ns:
            u = (s[0] / ns, s[1] / ns, s[2] / ns)
            return u, v, u[0] * x[0] + u[1] * x[1] + u[2] * x[2]
        mu = math.hypot(*x)
        return ((x[0] / mu, x[1] / mu, x[2] / mu) if mu else x), v, mu
    u0, u1, u2 = u = (s[0] / ns, s[1] / ns, s[2] / ns)
    y = (b0 * u0 + b3 * u1 + b6 * u2, b1 * u0 + b4 * u1 + b7 * u2,
         b2 * u0 + b5 * u1 + b8 * u2)
    mu = math.hypot(*y)
    return u, ((y[0] / mu, y[1] / mu, y[2] / mu) if mu else y), mu


def _x_special_normal(a, c, tol_abs):
    """The fit a(1(x)1) + s(x)1 + 1(x)t + mu s_hat(x)t_hat on the
    coefficients as plain floats (see _special_normal_frame), refused unless
    |ns - nt| k > tol_abs (ns + nt), k = max(1, |A|_F).  The smaller skew
    norm counts as 0 at 1e-12 max(1, |c|) or below: the member drops that
    part, and its block takes the free factor from B."""
    c00, s, t, b = _special_normal_parts(c.reshape(16).tolist())
    # hypot scales, so norms below 1e-154 do not both underflow to 0
    ns, nt = math.hypot(*s), math.hypot(*t)
    norm = 2.0 * math.hypot(c00, ns, nt, *b)
    k = max(1.0, norm)
    if not abs(ns - nt) * k > tol_abs * (ns + nt):
        return None, np.inf
    small = 1e-12 * max(1.0, norm / 2.0)
    fs = ns if ns > small or ns > nt else 0.0
    ft = nt if nt > small or nt > ns else 0.0
    u, v, mu = _special_normal_frame(s, t, b, fs, ft)
    # written out: a comprehension is a frame of its own on CPython <= 3.11
    (u0, u1, u2), (v0, v1, v2), b0, b1, b2, b3, b4, b5, b6, b7, b8 = u, v, *b
    f0, f1, f2, f3, f4, f5, f6, f7, f8 = (mu * u0 * v0, mu * u0 * v1, mu * u0 * v2,
                                          mu * u1 * v0, mu * u1 * v1, mu * u1 * v2,
                                          mu * u2 * v0, mu * u2 * v1, mu * u2 * v2)
    res = 2.0 * math.hypot(b0 - f0, b1 - f1, b2 - f2, b3 - f3, b4 - f4, b5 - f5,
                           b6 - f6, b7 - f7, b8 - f8, ns - fs, nt - ft)
    if not res <= tol_abs:
        return None, res
    # A must be normal: its symmetric and skew parts commute.  With K its
    # skew part, |A^T A - A A^T|_F / 2 = |[B, K]|_F = 4 |D|_F, where column j
    # of D is B[:, j] x s and row i adds B[i, :] x t; here in units of
    # k = max(1, |A|), so that no product overflows, and held to tol k^2:
    # tol_abs in those units
    s1, s2, s3, t1, t2, t3 = s[0] / k, s[1] / k, s[2] / k, t[0] / k, t[1] / k, t[2] / k
    comm = 4.0 * math.hypot(
        b3 * s3 - b6 * s2 + b1 * t3 - b2 * t2, b4 * s3 - b7 * s2 + b2 * t1 - b0 * t3,
        b5 * s3 - b8 * s2 + b0 * t2 - b1 * t1, b6 * s1 - b0 * s3 + b4 * t3 - b5 * t2,
        b7 * s1 - b1 * s3 + b5 * t1 - b3 * t3, b8 * s1 - b2 * s3 + b3 * t2 - b4 * t1,
        b0 * s2 - b3 * s1 + b7 * t3 - b8 * t2, b1 * s2 - b4 * s1 + b8 * t1 - b6 * t3,
        b2 * s2 - b5 * s1 + b6 * t2 - b7 * t1)
    if not comm <= tol_abs:
        return None, max(res, comm * k)
    s1, s2, s3 = s if fs else (0.0, 0.0, 0.0)
    return np.array([c00, *(t if ft else (0.0, 0.0, 0.0)), s1, f0, f1, f2, s2, f3, f4, f5,
                     s3, f6, f7, f8]), res


def _rank_one2(p, q, r, t, scale):
    """(x1, x2, y1, y2) with x y^T a rank-one fit of [[p, q], [r, t]]: x is
    the direction of its larger column and y its transpose applied to x;
    zeros when that column is negligible against scale."""
    x1, x2 = (p, r) if p * p + r * r >= q * q + t * t else (q, t)
    n = math.hypot(x1, x2)
    if not n > 1e-14 * scale:
        return 0.0, 0.0, 0.0, 0.0
    x1, x2 = x1 / n, x2 / n
    return x1, x2, p * x1 + r * x2, q * x1 + t * x2


def _bisymmetric_rs_member(eps, a, x1, x2, y1, y2) -> np.ndarray:
    """eps(1(x)1) + a(j(x)i) + (x1 i + x2 k)(x)(y1 j + y2 k)."""
    return np.array([eps, 0.0, 0.0, 0.0, 0.0, 0.0, x1 * y1, x1 * y2,
                     0.0, a, 0.0, 0.0, 0.0, 0.0, x2 * y1, x2 * y2])


def _x_bisymmetric_rs(a, c, tol_abs):
    """The fit eps(1(x)1) + a(j(x)i) + x(x)y with x in span(i, k), y in
    span(j, k), on the coefficients as plain floats: x y^T is the rank-one
    fit of the block [[p, q], [r, t]] (rows i, k, columns j, k)."""
    flat = c.reshape(16).tolist()
    p, q, r, t = flat[6], flat[7], flat[14], flat[15]
    x1, x2, y1, y2 = _rank_one2(p, q, r, t, max(1.0, math.hypot(*flat)))
    # every slot but 1(x)1, j(x)i and the block is off the member
    res = 2.0 * math.hypot(*flat[1:6], flat[8], *flat[10:14], p - x1 * y1,
                           q - x1 * y2, r - x2 * y1, t - x2 * y2)
    if not res <= tol_abs:
        return None, res
    return _bisymmetric_rs_member(flat[0], flat[9], x1, x2, y1, y2), res


def instance(tag: str, member) -> StructureClass:
    """The record of the member of family `tag`."""
    if tag == "SpecialNormal":
        a, s, t, b = _special_normal_parts(member.tolist())
        ns, nt = math.hypot(*s), math.hypot(*t)
        u, v, mu = _special_normal_frame(s, t, b, ns, nt)
        # s_hat = s when s is nonzero, and the unit x_hat otherwise, so that
        # s_hat(x)t_hat is the block
        s_hat, t_hat = (s, [mu * x / ns for x in v]) if ns else (u, [mu * x for x in v])
        return SpecialNormal(a, tuple(s), tuple(t_hat), tuple(t), tuple(s_hat))
    if tag == "BisymmetricRS":
        flat = member.tolist()
        p, q, r, t = flat[6], flat[7], flat[14], flat[15]
        # the block of S = R4 A is (alpha, beta)(x)(gamma, delta)
        alpha, beta, gamma, delta = _rank_one2(-t, r, q, -p, max(1.0, math.hypot(*flat)))
        return BisymmetricRS(flat[9], flat[0], alpha, beta, gamma, delta)
    return FAMILIES[tag].instance(member)


def coefficients(inst) -> np.ndarray:
    """The member (flat coefficient vector) of a structure-class instance."""
    if type(inst) is SpecialNormal:
        m = np.zeros((4, 4))
        m[0, 0], m[1:, 0], m[0, 1:] = inst.a, inst.s, inst.t
        m[1:, 1:] = np.outer(inst.s_hat, inst.t_hat)
        return m.reshape(16)
    if type(inst) is BisymmetricRS:
        return _bisymmetric_rs_member(inst.eps, inst.a, inst.beta, -inst.alpha,
                                      -inst.delta, inst.gamma)
    fam = FAMILIES.get(getattr(inst, "tag", None))
    if fam is None or type(inst) is not fam.cls:
        raise TypeError(f"unknown structure class {type(inst).__name__}")
    return fam.coefficients(inst)


# (A, its 16 coefficients c, tol_abs) -> (member or None, residual)
Extractor = Callable[[np.ndarray, np.ndarray, float], tuple[Optional[np.ndarray], float]]

# dispatch priority: cheapest and most specific first, the rank-one fits
# next, the svd3-backed symmetric catch-all last; a table family's slot is
# None, since its kernel entry decides it (see _stack)
_real = [(fam.tag, None) for fam in _TABLE]
REAL_REGISTRY: list[tuple[str, Optional[Extractor]]] = _real[:-1] + [
    ("SpecialNormal", _x_special_normal), ("BisymmetricRS", _x_bisymmetric_rs)] + _real[-1:]

COMPLEX_REGISTRY: list[tuple[str, Optional[Extractor]]] = [
    (fam.tag, None) for fam in _COMPLEX_TABLE]

EXTRACTORS: dict[str, Optional[Extractor]] = dict(REAL_REGISTRY + COMPLEX_REGISTRY)


class ForcedClassMismatch(ValueError):
    def __init__(self, tag: str, residual: float):
        super().__init__(f"matrix is not in class {tag} (residual {residual:.3e})")
        self.tag = tag
        self.residual = residual


def as_real_if_possible(a: np.ndarray) -> np.ndarray:
    """Drop a vanishing imaginary part so complex-typed real data takes the
    real classification path."""
    if not np.iscomplexobj(a):
        return a
    return _real_if_possible(a, frobenius(a))


def _off_support(tag: str) -> np.ndarray:
    """The projector off the slots that a member of the hand-written fit
    `tag` can fill: the scalar slot and _FIT_SLOTS[tag]."""
    keep = np.ones(16)
    keep[[0] + [4 * a + b for a, b in _FIT_SLOTS[tag]]] = 0.0
    return np.diag(keep)


def _ties(projector) -> np.ndarray:
    """Orthonormal rows over the 16 slots spanning what `projector` keeps of
    the slots it neither keeps nor drops whole: two for SymToeplitzTridiag,
    one for SymToeplitzS13Zero, none for a diagonal projector."""
    keep = projector.diagonal()
    tied = (keep != 0.0) & (keep != 1.0)
    if not tied.any():
        return np.zeros((0, 16))
    vals, vecs = np.linalg.eigh(projector[np.ix_(tied, tied)])
    rows = np.zeros((16, len(vals)))
    rows[tied] = vecs
    return rows[:, vals > 0.5].T


def _stack(registry):
    """The family kernel (routes, Y, W) of a real registry (see the module
    docstring).  A route is (name, rows, rule): a table family's member rows
    (I - P_f) P, or a fit's extractor as its rule."""
    projs = [FAMILIES[tag].projector if tag in FAMILIES else _off_support(tag)
             for tag, _ in registry]
    ties = [_ties(proj) for proj in projs]
    ends = np.cumsum([0, 16] + [len(tie) for tie in ties])
    w = np.zeros((len(projs), ends[-1]))
    routes = []
    for f, ((tag, extract), proj) in enumerate(zip(registry, projs)):
        w[f, :16], w[f, ends[f + 1]:ends[f + 2]] = proj.diagonal() == 1.0, 1.0
        routes.append((tag, (np.eye(16) - proj) @ _PROJECTION_ROWS, None) if tag in FAMILIES
                      else (tag, None, extract))
    return tuple(routes), np.vstack([np.eye(16), *ties]) @ _PROJECTION_ROWS, w


# the twin of each 4x4 covering algebra and complex family by its entry:
# the real family whose set it is on, and whose square it reads
_TWINS = {name: [tag for tag, _ in REAL_REGISTRY].index(twin) for name, twin in (
    ("so4", "SkewSymmetric"), ("p4r", "Perskewsymmetric"), ("so22r", "Lie1"),
    ("ComplexSO4", "SkewSymmetric"), ("ComplexPerskew", "Perskewsymmetric"))}
# a 4x4 algebra's entry holds its lift rows psi^+; `covering._lift` reads it
_families, _Y, _W = _stack(REAL_REGISTRY)
_ALGEBRAS4 = [alg for alg in COVERING_ALGEBRAS.values() if alg.dim == 4]
_REAL4 = (_families + tuple((f"covering:{alg.name}", alg.psi_pinv, None) for alg in _ALGEBRAS4),
          _Y, np.vstack([_W, _W[[_TWINS[alg.name] for alg in _ALGEBRAS4]]]))
_COMPLEX4 = (tuple((tag, _families[_TWINS[tag]][1].astype(complex), None)
                   for tag, _ in COMPLEX_REGISTRY), _Y.astype(complex),
             np.repeat(_W[[_TWINS[tag] for tag, _ in COMPLEX_REGISTRY]], 2, axis=1))
_ENTRIES.update({alg: (_REAL4, len(_families) + g) for g, alg in enumerate(_ALGEBRAS4)})

# (size, complex) -> (kernel, the number of its entries, from the first,
# that classify walks; verify walks all).  Every 2x2 is its own member, by
# expm2's rule; a complex 3x3's kernel has no rows and no entry
_EXPM2 = ((("expm2", None, lambda a, c, tol_abs: (a, 0.0)),), np.zeros((0, 4)),
          np.zeros((1, 0)))
_KERNELS = {(2, False): (_EXPM2, 1), (2, True): (_EXPM2, 1),
            (3, False): (_COVER3, len(_COVER3[0])),
            (3, True): (((), np.zeros((0, 9)), np.zeros((0, 0))), 0),
            (4, False): (_REAL4, len(_families)), (4, True): (_COMPLEX4, len(_COMPLEX4[0]))}

# every route's forced route of `smalllin._forced`, (n, refuse, (real entry,
# complex entry)) by name, each entry (kernel, f) or None; a real A forced
# onto a complex family reads its twin's entry, and so its member and group
# plan; a 2x2 the gate turns away is outside expm2's domain
_FORCED = {
    **{tag: (4, partial(ForcedClassMismatch, tag), ((_REAL4, f), None))
       for f, (tag, _, _) in enumerate(_families)},
    **{tag: (4, partial(ForcedClassMismatch, tag), ((_REAL4, _TWINS[tag]), (_COMPLEX4, f)))
       for f, (tag, _) in enumerate(COMPLEX_REGISTRY)},
    **{f"covering:{alg.name}": (alg.dim, partial(NotInAlgebra, alg.name), (entry, None))
       for alg, entry in _ENTRIES.items()},
    "expm2": (2, lambda res: ValueError("matrix has non-finite entries or an overflowing norm"),
              ((_EXPM2, 0), (_EXPM2, 0))),
}


def _coefficient_table(a) -> np.ndarray:
    """The 4x4 coefficient table c of an admitted A (see _admit)."""
    return _PROJECTION_ROWS.dot(a.reshape(16)).reshape(4, 4)


def _walk(a, tol_abs: float, coverings: bool):
    """(route, member) of each route that claims the admitted A (see
    `smalllin._admit`), lazily in route order: a 4x4's structured families
    in dispatch order, then, when `coverings` is set, its covering algebras;
    a 3x3's covering algebras; expm2 for a 2x2.  Auto takes the first claim
    by the same _residuals and _claim, in `expm_structured._dispatch`."""
    (routes, kernel, incidence), walked = _KERNELS[len(a), a.dtype.kind == "c"]
    vec = a.ravel()
    y, squares = _residuals(kernel, incidence, vec)
    squares = squares.tolist()[:None if coverings else walked]
    claim = _claim(routes, squares, 0, a, vec, y, tol_abs)
    while claim is not None:
        f, member = claim
        yield routes[f][0], member
        claim = _claim(routes, squares, f + 1, a, vec, y, tol_abs)


def classify(a_matrix, tol: float = DEFAULT_TOL) -> list[StructureClass]:
    """All structured families containing A, in dispatch-priority order.

    An empty list means no closed-form route applies (the caller falls back
    to a series exponential).
    """
    admitted = _admit(a_matrix, tol)
    if admitted is None:
        return []
    a, _, tol_abs = admitted
    return [instance(tag, member) for tag, member in _walk(a, tol_abs, False)]


def extract_symmetric_rep(a_matrix) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Split a symmetric matrix into (a, p, q, r): trace part plus the three
    pure-pure columns. Rejects asymmetric, non-finite, overflowing and
    complex input."""
    admitted = _admit(a_matrix, 1e-12)
    if admitted is None:
        raise ValueError("matrix has non-finite entries or an overflowing norm")
    a, _, tol_abs = admitted
    if a.dtype.kind == "c":
        raise ValueError("matrix is not real")
    if frobenius(a - a.T) > tol_abs:
        raise ValueError("matrix is not symmetric")
    # the skew part of A is on the slots (0, x) and (x, 0), which these skip
    c = _coefficient_table(a)
    return float(c[0, 0]), c[1:, _I].copy(), c[1:, _J].copy(), c[1:, _K].copy()


def extract_special_normal(a_matrix, tol: float = DEFAULT_TOL) -> Optional[SpecialNormal]:
    """The SpecialNormal fit of A by its forced route, or None (always for a
    complex A and one in no family)."""
    try:
        member = _forced(a_matrix, tol, _FORCED["SpecialNormal"])[0]
    except ForcedClassMismatch:
        return None
    return instance("SpecialNormal", member)
