"""Detection of structured 4x4 families and extraction of the tensor-basis
parameters their closed-form exponentials consume.

A family is one `Family` entry of a table: each parameter of its dataclass
is a slot -> weight pattern in the 4x4 coefficient table c of the tensor
basis (ties among slots are weights, as in the Toeplitz cases), and its
support splits into commuting groups whose squares are scalar.  The patterns
of one family are disjoint, so with B the matrix whose columns they are,
B^+ c reads the parameters off.  The basis matrices are pairwise orthogonal
with Frobenius norm 2, so 2*||(I - B B^+) c|| is the exact matrix-space
distance to the family, and acceptance is one comparison against
tol*max(1, ||A||_F) per family.  Only the rank-one supports of SpecialNormal
and BisymmetricRS need hand-written extractors.

Classification stacks the projectors I - B B^+ of a registry's table
families into one (F*16) x 16 matrix at import, so one product with the flat
c and a norm per 16-row block give every table residual at once.  Matches
are then yielded lazily in dispatch order: a dataclass is built only for an
accepted family, and a hand-written extractor runs only when the caller asks
past the families before it, so expm_auto, which takes the first match,
never fits the rank-one supports of a member of an earlier family.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Optional

import numpy as np

from .hxh import R4, HxHElement, from_matrix

Vec3 = tuple[float, float, float]
CVec3 = tuple[complex, complex, complex]

DEFAULT_TOL = 1e-9

# pure-basis indexes into the coefficient table (0 is the scalar slot)
_I, _J, _K = 1, 2, 3

# symmetric form e_x (x) e_y backing each Lie-family class
LIE_FORMS = {1: (_I, _I), 2: (_J, _J), 3: (_K, _K), 4: (_K, _I),
             5: (_K, _J), 6: (_I, _J), 7: (_I, _K), 8: (_J, _K)}

# skew form backing each Jordan-family class: ("left", x) is e_x (x) 1,
# ("right", y) is 1 (x) e_y
JORDAN_FORMS = {1: ("right", _K), 2: ("right", _I), 3: ("left", _I),
                4: ("left", _J), 5: ("left", _K)}


def _vec(x) -> Vec3:
    return (float(x[0]), float(x[1]), float(x[2]))


class _TableMember:
    """reconstruct() for the families the table describes."""

    def reconstruct(self) -> np.ndarray:
        return HxHElement(FAMILIES[self.tag].coefficients(self)).to_matrix()


@dataclass(frozen=True)
class SkewSymmetric(_TableMember):
    """Coefficient support p(x)1 + 1(x)q with p, q pure."""
    tag: ClassVar[str] = "SkewSymmetric"
    p: Vec3
    q: Vec3


@dataclass(frozen=True)
class Perskewsymmetric(_TableMember):
    """p(x)i + alpha(j(x)1) + j(x)q + beta(1(x)i), p _|_ j, q _|_ i."""
    tag: ClassVar[str] = "Perskewsymmetric"
    p: Vec3
    alpha: float
    q: Vec3
    beta: float


@dataclass(frozen=True)
class SkewHamiltonian(_TableMember):
    """b(1(x)1) + p(x)j + 1(x)(c i + d k)."""
    tag: ClassVar[str] = "SkewHamiltonian"
    b: float
    p: Vec3
    c: float
    d: float


@dataclass(frozen=True)
class Jordan(_TableMember):
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


@dataclass(frozen=True)
class Lie(_TableMember):
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


@dataclass(frozen=True)
class HamSymPersym(_TableMember):
    """beta(j(x)i) + gamma(i(x)k) + delta(k(x)k): simultaneously Hamiltonian,
    symmetric and persymmetric."""
    tag: ClassVar[str] = "HamSymPersym"
    beta: float
    gamma: float
    delta: float


@dataclass(frozen=True)
class SymToeplitzTridiag(_TableMember):
    """Symmetric tridiagonal Toeplitz: a on the diagonal, b beside it."""
    tag: ClassVar[str] = "SymToeplitzTridiag"
    a: float
    b: float


@dataclass(frozen=True)
class SymToeplitzS13Zero(_TableMember):
    """a(1(x)1) + b(j(x)i) + c(i(x)j) + b(k(x)j): the variant whose second
    super- and subdiagonal vanish."""
    tag: ClassVar[str] = "SymToeplitzS13Zero"
    a: float
    b: float
    c: float


@dataclass(frozen=True)
class SpecialNormal:
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

    def reconstruct(self) -> np.ndarray:
        u = HxHElement.zero()
        u.c[0, 0] = self.a
        u.c[1:, 1:] = np.outer(self.s_hat, self.t_hat)
        u.c[1:, 0] += np.asarray(self.s)
        u.c[0, 1:] += np.asarray(self.t)
        return u.to_matrix()


@dataclass(frozen=True)
class BisymmetricRS:
    """A = R4 S with S = a(1(x)1) + eps(j(x)i) + (alpha i + beta k)(x)
    (gamma j + delta k); symmetric, persymmetric, not Toeplitz."""
    tag: ClassVar[str] = "BisymmetricRS"
    a: float
    eps: float
    alpha: float
    beta: float
    gamma: float
    delta: float

    def symmetric_factor(self) -> np.ndarray:
        u = HxHElement.zero()
        u.c[0, 0] = self.a
        u.c[_J, _I] = self.eps
        u.c[_I, _J] = self.alpha * self.gamma
        u.c[_I, _K] = self.alpha * self.delta
        u.c[_K, _J] = self.beta * self.gamma
        u.c[_K, _K] = self.beta * self.delta
        return u.to_matrix()

    def reconstruct(self) -> np.ndarray:
        return R4 @ self.symmetric_factor()


@dataclass(frozen=True)
class SymmetricGeneral(_TableMember):
    """Any symmetric matrix: a(1(x)1) + p(x)i + q(x)j + r(x)k."""
    tag: ClassVar[str] = "SymmetricGeneral"
    a: float
    p: Vec3
    q: Vec3
    r: Vec3


@dataclass(frozen=True)
class ComplexSO4(_TableMember):
    """Complex skew-symmetric: left(x)1 + 1(x)right with complex triples."""
    tag: ClassVar[str] = "ComplexSO4"
    left: CVec3
    right: CVec3


@dataclass(frozen=True)
class ComplexPerskew(_TableMember):
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
    `groups` are slot sets that commute with each other while the slots
    inside one pairwise anticommute, so each group squares to a scalar; they
    cover the support except the scalar slot (0, 0), and `slots` holds each
    group's flat slot indexes 4a + b.  The closed form is then
    exp(c00) * prod_g (phi_c(-mu_g) 1 + phi_s(-mu_g) g).  SymmetricGeneral
    has no fixed groups (its closed form rotates them out with an SVD), so
    its `groups` is empty.
    """

    def __init__(self, cls, params: dict[str, tuple[Pattern, ...]],
                 groups=(), k: Optional[int] = None, complex_scalars: bool = False):
        self.cls, self.k, self.complex_scalars = cls, k, complex_scalars
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
        self.groups = tuple(frozenset(g) for g in groups)
        self.slots = [np.array(sorted(4 * a + b for a, b in g)) for g in self.groups]

    def instance(self, theta):
        """The dataclass holding the flat parameter vector theta."""
        vals = np.asarray(theta, complex if self.complex_scalars else float).tolist()
        args = [] if self.k is None else [self.k]
        i = 0
        for pats in self.params.values():
            n = len(pats)
            args.append(vals[i] if n == 1 else tuple(vals[i:i + n]))
            i += n
        return self.cls(*args)

    def coefficients(self, inst) -> np.ndarray:
        """The 4x4 coefficient table of an instance."""
        theta = []
        for name, pats in self.params.items():
            if len(pats) > 1:
                theta.extend(getattr(inst, name))
            else:
                theta.append(getattr(inst, name))
        return (self.basis @ np.array(theta)).reshape(4, 4)

    def extract(self, a, u, tol, tol_abs):
        """(instance or None, residual), with the signature of every entry
        of REAL_REGISTRY and COMPLEX_REGISTRY."""
        c = u.c.reshape(16)
        res = 2.0 * float(np.linalg.norm(self.projector @ c))
        if not res <= tol_abs:
            return None, res
        return self.instance(self.pinv @ c), res


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


def _slots(*params) -> set:
    return {slot for pats in params for pat in pats for slot in pat}


def _skew(cls, left: str, right: str, complex_scalars: bool = False) -> Family:
    """left (x) 1 + 1 (x) right, one commuting group per side."""
    p, q = _col(0), _row(0)
    return Family(cls, {left: p, right: q}, (_slots(p), _slots(q)),
                  complex_scalars=complex_scalars)


def _lie(cls, x: int, y: int, k: Optional[int] = None, a: str = "a", b: str = "b",
         complex_scalars: bool = False) -> Family:
    """a(1(x)e_y) + p(x)e_y + b(e_x(x)1) + e_x(x)q with p _|_ e_x, q _|_ e_y:
    the element skew for the symmetric form e_x (x) e_y, in the commuting
    groups p(x)e_y + b(e_x(x)1) and e_x(x)q + a(1(x)e_y)."""
    pa, pb, p, q = _one(0, y), _one(x, 0), _col(y, skip=x), _row(x, skip=y)
    return Family(cls, {a: pa, b: pb, "p": p, "q": q},
                  (_slots(p, pb), _slots(q, pa)), k, complex_scalars)


def _jordan(k: int) -> Family:
    """a(1(x)1) plus one group that squares to a scalar (see Jordan)."""
    side, w = JORDAN_FORMS[k]
    m1, m2 = (m for m in (_I, _J, _K) if m != w)
    if side == "left":
        b, c, vec = _one(m1, 0), _one(m2, 0), _row(w)
    else:
        b, c, vec = _one(0, m1), _one(0, m2), _col(w)
    return Family(Jordan, {"a": _one(0, 0), "b": b, "c": c, "vec": vec},
                  (_slots(b, c, vec),), k)


# j(x)i alone, and the i(x)j / k(x)j pair of the two symmetric Toeplitz cases
_TOEPLITZ_GROUPS = ({(_J, _I)}, {(_I, _J), (_K, _J)})

# every family but SpecialNormal and BisymmetricRS, real ones in dispatch order
_TABLE = [
    _skew(SkewSymmetric, "p", "q"),
    Family(SkewHamiltonian,
           {"b": _one(0, 0), "p": _col(_J), "c": _one(0, _I), "d": _one(0, _K)},
           (_slots(_col(_J), _one(0, _I), _one(0, _K)),)),
    _lie(Perskewsymmetric, _J, _I, a="beta", b="alpha"),
    *(_lie(Lie, *LIE_FORMS[k], k=k) for k in LIE_FORMS),
    *(_jordan(k) for k in JORDAN_FORMS),
    Family(HamSymPersym,
           {"beta": _one(_J, _I), "gamma": _one(_I, _K), "delta": _one(_K, _K)},
           ({(_J, _I)}, {(_I, _K), (_K, _K)})),
    # b/2 on the two slots i(x)j, j(x)i and b on k(x)j
    Family(SymToeplitzTridiag,
           {"a": _one(0, 0), "b": ({(_J, _I): 0.5, (_I, _J): 0.5, (_K, _J): 1.0},)},
           _TOEPLITZ_GROUPS),
    Family(SymToeplitzS13Zero,
           {"a": _one(0, 0), "b": ({(_J, _I): 1.0, (_K, _J): 1.0},), "c": _one(_I, _J)},
           _TOEPLITZ_GROUPS),
    Family(SymmetricGeneral,
           {"a": _one(0, 0), "p": _col(_I), "q": _col(_J), "r": _col(_K)}),
    _skew(ComplexSO4, "left", "right", complex_scalars=True),
    _lie(ComplexPerskew, _J, _I, a="beta", b="alpha", complex_scalars=True),
]

FAMILIES: dict[str, Family] = {fam.tag: fam for fam in _TABLE}


def _residual(c: np.ndarray, model: np.ndarray) -> float:
    return 2.0 * float(np.linalg.norm(c - model))


def _x_special_normal(a, u, tol, tol_abs):
    c = u.c
    s = c[1:, 0].copy()
    t = c[0, 1:].copy()
    ns, nt = np.linalg.norm(s), np.linalg.norm(t)
    if abs(ns - nt) <= tol * (ns + nt):
        return None, np.inf

    blk = c[1:, 1:]
    scale = max(1.0, float(np.linalg.norm(c)))
    if ns > 1e-12 * scale:
        s_hat = s
        t_hat = blk.T @ s / (ns * ns)
    else:
        col = int(np.argmax(np.linalg.norm(blk, axis=0)))
        cn = np.linalg.norm(blk[:, col])
        if cn > 1e-14 * scale:
            s_hat = blk[:, col] / cn
            t_hat = blk.T @ s_hat
        else:
            s_hat = np.zeros(3)
            t_hat = np.zeros(3)

    model = np.zeros((4, 4))
    model[0, 0] = c[0, 0]
    model[1:, 0] = s
    model[0, 1:] = t
    model[1:, 1:] = np.outer(s_hat, t_hat)
    res = _residual(c, model)
    if not res <= tol_abs:
        return None, res

    sym = (a + a.T) / 2.0
    skw = (a - a.T) / 2.0
    comm = np.linalg.norm(sym @ skw - skw @ sym)
    if not comm <= tol * (1.0 + np.linalg.norm(a)) ** 2:
        return None, max(res, float(comm))
    inst = SpecialNormal(float(c[0, 0]), _vec(s), _vec(t_hat), _vec(t), _vec(s_hat))
    return inst, res


def _x_bisymmetric_rs(a, u, tol, tol_abs):
    s_mat = R4 @ a
    cs = from_matrix(s_mat).c
    blk = np.array([[cs[_I, _J], cs[_I, _K]], [cs[_K, _J], cs[_K, _K]]])

    col = int(np.argmax(np.linalg.norm(blk, axis=0)))
    cn = np.linalg.norm(blk[:, col])
    if cn > 1e-14 * max(1.0, float(np.linalg.norm(cs))):
        ab = blk[:, col] / cn
        gd = blk.T @ ab
    else:
        ab = np.zeros(2)
        gd = np.zeros(2)

    model = np.zeros((4, 4))
    model[0, 0] = cs[0, 0]
    model[_J, _I] = cs[_J, _I]
    model[_I, _J] = ab[0] * gd[0]
    model[_I, _K] = ab[0] * gd[1]
    model[_K, _J] = ab[1] * gd[0]
    model[_K, _K] = ab[1] * gd[1]
    res = _residual(cs, model)
    if not res <= tol_abs:
        return None, res
    inst = BisymmetricRS(float(cs[0, 0]), float(cs[_J, _I]),
                         float(ab[0]), float(ab[1]), float(gd[0]), float(gd[1]))
    return inst, res


Extractor = Callable[[np.ndarray, HxHElement, float, float],
                     tuple[Optional[StructureClass], float]]

_real = [(fam.tag, fam.extract) for fam in _TABLE if not fam.complex_scalars]

# dispatch priority: cheapest and most specific first, the rank-one fits
# next, the svd3-backed symmetric catch-all last
REAL_REGISTRY: list[tuple[str, Extractor]] = (
    _real[:-1]
    + [("SpecialNormal", _x_special_normal), ("BisymmetricRS", _x_bisymmetric_rs)]
    + _real[-1:]
)

COMPLEX_REGISTRY: list[tuple[str, Extractor]] = [
    (fam.tag, fam.extract) for fam in _TABLE if fam.complex_scalars]

EXTRACTORS: dict[str, Extractor] = dict(REAL_REGISTRY + COMPLEX_REGISTRY)


def as_real_if_possible(a: np.ndarray) -> np.ndarray:
    """Drop a vanishing imaginary part so complex-typed real data takes the
    real classification path."""
    if not np.iscomplexobj(a):
        return a
    scale = max(1.0, float(np.linalg.norm(a)))
    if np.max(np.abs(a.imag)) <= 1e-14 * scale:
        return a.real.copy()
    return a


def _stack(registry) -> tuple[dict[str, int], np.ndarray]:
    """The block index of each table family of the registry, and their
    projectors stacked in registry order."""
    fams = [FAMILIES[tag] for tag, _ in registry if tag in FAMILIES]
    return ({fam.tag: i for i, fam in enumerate(fams)},
            np.vstack([fam.projector for fam in fams]))


_REAL_STACK = _stack(REAL_REGISTRY)
_COMPLEX_STACK = _stack(COMPLEX_REGISTRY)


def _matches(a_matrix, tol: float):
    """The structured families containing A, lazily in dispatch order.

    A non-finite matrix is in no family.  The hand-written extractors are
    read from the registry at each call, not bound at import.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a = np.asarray(a_matrix)
    if a.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if not np.isfinite(a).all():
        return
    a = as_real_if_possible(a)
    u = from_matrix(a)
    c = u.c.reshape(16)
    tol_abs = tol * max(1.0, float(np.linalg.norm(a)))
    if np.iscomplexobj(a):
        registry, (blocks, stack) = COMPLEX_REGISTRY, _COMPLEX_STACK
    else:
        registry, (blocks, stack) = REAL_REGISTRY, _REAL_STACK
    residuals = 2.0 * np.linalg.norm((stack @ c).reshape(-1, 16), axis=1)
    for tag, extract in registry:
        block = blocks.get(tag)
        if block is None:
            inst, _res = extract(a, u, tol, tol_abs)
            if inst is not None:
                yield inst
        elif residuals[block] <= tol_abs:
            fam = FAMILIES[tag]
            yield fam.instance(fam.pinv @ c)


def classify(a_matrix, tol: float = DEFAULT_TOL) -> list[StructureClass]:
    """All structured families containing A, in dispatch-priority order.

    An empty list means no closed-form route applies (the caller falls back
    to a series exponential).
    """
    return list(_matches(a_matrix, tol))


def extract_symmetric_rep(a_matrix) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Split a symmetric matrix into (a, p, q, r): trace part plus the three
    pure-pure columns. Rejects asymmetric and non-finite input."""
    a = np.asarray(a_matrix, dtype=float)
    if a.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    if np.linalg.norm(a - a.T) > 1e-12 * max(1.0, np.linalg.norm(a)):
        raise ValueError("matrix is not symmetric")
    c = from_matrix((a + a.T) / 2.0).c
    return float(c[0, 0]), c[1:, _I].copy(), c[1:, _J].copy(), c[1:, _K].copy()


def extract_special_normal(a_matrix, tol: float = DEFAULT_TOL) -> Optional[SpecialNormal]:
    """The SpecialNormal fit of A, or None (always for a non-finite A)."""
    a = np.asarray(a_matrix, dtype=float)
    if a.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if not np.isfinite(a).all():
        return None
    u = from_matrix(a)
    tol_abs = tol * max(1.0, float(np.linalg.norm(a)))
    inst, _res = _x_special_normal(a, u, tol, tol_abs)
    return inst
