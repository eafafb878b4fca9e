"""The quaternion-pair tensor algebra and its 4x4 matrix realization.

An element sum_{a,b} c[a][b] (e_a (x) e_b) over the basis (e_0..e_3) =
(1, i, j, k) acts on R^4 = H by x -> e_a x conj(e_b).  That action realizes
every real 4x4 matrix exactly once: the 16 images are pairwise orthogonal in
the Frobenius inner product, each with norm 2, so coefficient extraction is a
scaled projection rather than a linear solve.  Products obey

    (p (x) q) (r (x) s) = (p r) (x) (q s)

which is what makes closed-form exponentials of structured matrices possible.
The same coefficient tables work verbatim with complex scalars.

`HxHElement` is the public view of an element.  No route builds one: they
apply the flat projection and basis rows (`_PROJECTION_ROWS`, `_BASIS_ROWS`).
"""

from __future__ import annotations

import numpy as np

from .smalllin import _NOT_NUMERIC, _NUMERIC_KINDS

BASIS_NAMES = ("1", "i", "j", "k")

# Hamilton structure constants: e_a e_b = _MUL_SGN[a,b] * e_{_MUL_IDX[a,b]}
_MUL_IDX = np.array([[0, 1, 2, 3],
                     [1, 0, 3, 2],
                     [2, 3, 0, 1],
                     [3, 2, 1, 0]])
_MUL_SGN = np.array([[1, 1, 1, 1],
                     [1, -1, 1, -1],
                     [1, -1, -1, 1],
                     [1, 1, -1, -1]], dtype=float)

# _STRUCT[a, b, m] = coefficient of e_m in e_a e_b
_STRUCT = np.zeros((4, 4, 4))
for _a in range(4):
    for _b in range(4):
        _STRUCT[_a, _b, _MUL_IDX[_a, _b]] = _MUL_SGN[_a, _b]

_CONJ_SIGN = np.array([1.0, -1.0, -1.0, -1.0])

# left multiplication x -> e_a x and right multiplication x -> x conj(e_b)
_LEFT = np.einsum('acm->amc', _STRUCT)
_RIGHT = np.einsum('b,cbm->bmc', _CONJ_SIGN, _STRUCT)

# _BASIS_MAT[a, b] = matrix of x -> e_a x conj(e_b)
_BASIS_MAT = np.einsum('amn,bnc->abmc', _LEFT, _RIGHT)
_BASIS_MAT.setflags(write=False)

# the 16 basis matrices as rows, indexed by the flat slot 4a + b
_BASIS_ROWS = _BASIS_MAT.reshape(16, 16)
# <e_a (x) e_b, e_c (x) e_d>_F = 4 delta_ac delta_bd, so these rows project a
# flat matrix onto its coefficients; dividing by 4 is exact
_PROJECTION_ROWS = _BASIS_ROWS / 4.0
_PROJECTION_ROWS.setflags(write=False)

R4 = _BASIS_MAT[2, 1].copy()
R4.setflags(write=False)

J4 = _BASIS_MAT[0, 2].copy()
J4.setflags(write=False)

I22 = np.diag([1.0, 1.0, -1.0, -1.0])
I22.setflags(write=False)


def _basis_index(a) -> int:
    if isinstance(a, str):
        try:
            return BASIS_NAMES.index(a)
        except ValueError:
            raise ValueError(f"unknown basis name {a!r}; expected one of {BASIS_NAMES}") from None
    a = int(a)
    if not 0 <= a <= 3:
        raise ValueError("basis index must be in 0..3")
    return a


def basis_matrix(a, b) -> np.ndarray:
    """The 4x4 matrix of x -> e_a x conj(e_b).  Accepts indexes 0..3 or names '1ijk'."""
    return _BASIS_MAT[_basis_index(a), _basis_index(b)].copy()


class HxHElement:
    """An algebra element held as its 4x4 coefficient table c[a][b].

    Real elements use float64 tables, complexified elements complex128; the
    multiplication rule (hxh_mul) is scalar-agnostic.  A table of no numeric
    dtype kind raises TypeError, as every route does (`smalllin._admit`).
    """

    __slots__ = ("c",)

    def __init__(self, c):
        c = np.asarray(c)
        if c.shape != (4, 4):
            raise ValueError("coefficient table must be 4x4")
        if c.dtype.kind not in _NUMERIC_KINDS:
            raise TypeError(_NOT_NUMERIC)
        self.c = c.astype(np.complex128 if c.dtype.kind == "c" else np.float64)

    @classmethod
    def zero(cls, complex_scalars: bool = False) -> "HxHElement":
        dtype = np.complex128 if complex_scalars else np.float64
        return cls(np.zeros((4, 4), dtype=dtype))

    @classmethod
    def one(cls, complex_scalars: bool = False) -> "HxHElement":
        u = cls.zero(complex_scalars)
        u.c[0, 0] = 1.0
        return u

    @classmethod
    def basis(cls, a, b) -> "HxHElement":
        u = cls.zero()
        u.c[_basis_index(a), _basis_index(b)] = 1.0
        return u

    @classmethod
    def from_pair(cls, p, q) -> "HxHElement":
        """The element p (x) q from two coefficient 4-vectors (w, x, y, z)."""
        p = np.asarray(p).reshape(4)
        q = np.asarray(q).reshape(4)
        return cls(np.outer(p, q))

    def norm(self) -> float:
        return float(np.linalg.norm(self.c))

    def to_matrix(self) -> np.ndarray:
        return np.einsum('ab,abmc->mc', self.c, _BASIS_MAT)

    @classmethod
    def from_matrix(cls, m) -> "HxHElement":
        """The element of a 4x4 matrix, by projection of its float64 or
        complex128 copy."""
        m = np.asarray(m)
        if m.shape != (4, 4):
            raise ValueError("expected a 4x4 matrix")
        return cls((_PROJECTION_ROWS @ cls(m).c.reshape(16)).reshape(4, 4))

    def __repr__(self):
        terms = []
        for a in range(4):
            for b in range(4):
                v = self.c[a, b]
                if v != 0:
                    terms.append(f"{v}*({BASIS_NAMES[a]}(x){BASIS_NAMES[b]})")
        return "HxHElement(" + (" + ".join(terms) if terms else "0") + ")"


def hxh_mul(u: HxHElement, v: HxHElement) -> HxHElement:
    """Product in the tensor algebra: (p (x) q)(r (x) s) = (pr) (x) (qs)."""
    c = np.einsum('ab,cd,acm,bdn->mn', u.c, v.c, _STRUCT, _STRUCT)
    return HxHElement(c)


def from_matrix(m) -> HxHElement:
    """Coefficient table of a 4x4 matrix, by Frobenius projection onto the basis."""
    return HxHElement.from_matrix(m)


def to_matrix(u: HxHElement) -> np.ndarray:
    return u.to_matrix()


def scalar_square(u: HxHElement, tol: float = 1e-10):
    """If u*u = mu * (1 (x) 1), return mu; otherwise None.  The off-scalar
    part of u*u is accepted up to tol * (1 + |u|^2) in the coefficient norm,
    half the Frobenius norm of the matrix.  No route calls this: the closed
    forms read mu off their groups' coefficients (see `expm_structured`)."""
    g = u.to_matrix()
    w = g @ g
    mu = w.trace() / 4.0
    w.flat[::5] -= mu
    # |w - mu I|_F / 2 > tol * (1 + |g|_F^2 / 4), doubled and squared as a
    # Python float, which overflows to inf without a warning
    bound = float(tol * (2.0 + 0.5 * np.vdot(g, g).real))
    if np.vdot(w, w).real > bound * bound:
        return None
    if g.dtype.kind == "c":
        return complex(mu)
    return float(mu)
