"""Shared samplers: random members of each structured family, random covering
algebra members, and small independent oracles used across the suite."""

import sys

import numpy as np

from structexp.classify import JORDAN_FORMS, LIE_FORMS
from structexp.hxh import HxHElement, R4

# every real family tag with a closed-form route
REAL_FAMILY_TAGS = (
    ["SkewSymmetric", "Perskewsymmetric", "SkewHamiltonian"]
    + [f"Lie{k}" for k in range(1, 9)]
    + [f"Jordan{k}" for k in range(1, 6)]
    + ["HamSymPersym", "SymToeplitzTridiag", "SymToeplitzS13Zero",
       "SpecialNormal", "BisymmetricRS", "SymmetricGeneral"]
)
COMPLEX_FAMILY_TAGS = ["ComplexSO4", "ComplexPerskew"]


def u17(rng, n=None):
    # uniform in [-1.7, 1.7]: keeps 3-vector parameter norms below 3
    return rng.uniform(-1.7, 1.7) if n is None else rng.uniform(-1.7, 1.7, n)


def cu(rng, n=None):
    if n is None:
        return complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
    return rng.uniform(-1.2, 1.2, n) + 1j * rng.uniform(-1.2, 1.2, n)


def _lie_coeffs(c, x, y, rng):
    c[0, y] = u17(rng)
    c[x, 0] = u17(rng)
    p = u17(rng, 3)
    p[x - 1] = 0.0
    q = u17(rng, 3)
    q[y - 1] = 0.0
    c[1:, y] += p
    c[x, 1:] += q


def sample_family(tag, rng):
    """A random member of the family, parameter norms <= 3."""
    u = HxHElement.zero()
    c = u.c
    if tag == "SkewSymmetric":
        c[1:, 0] = u17(rng, 3)
        c[0, 1:] = u17(rng, 3)
    elif tag == "Perskewsymmetric":
        _lie_coeffs(c, 2, 1, rng)
    elif tag == "SkewHamiltonian":
        c[0, 0] = u17(rng)
        c[1:, 2] = u17(rng, 3)
        c[0, 1] = u17(rng)
        c[0, 3] = u17(rng)
    elif tag.startswith("Lie"):
        x, y = LIE_FORMS[int(tag[3:])]
        _lie_coeffs(c, x, y, rng)
    elif tag.startswith("Jordan"):
        side, w = JORDAN_FORMS[int(tag[6:])]
        m1, m2 = [m for m in (1, 2, 3) if m != w]
        c[0, 0] = u17(rng)
        if side == "left":
            c[m1, 0] = u17(rng)
            c[m2, 0] = u17(rng)
            c[w, 1:] = u17(rng, 3)
        else:
            c[0, m1] = u17(rng)
            c[0, m2] = u17(rng)
            c[1:, w] = u17(rng, 3)
    elif tag == "HamSymPersym":
        c[2, 1] = u17(rng)
        c[1, 3] = u17(rng)
        c[3, 3] = u17(rng)
    elif tag == "SymToeplitzTridiag":
        a, b = u17(rng), u17(rng)
        c[0, 0] = a
        c[2, 1] = b / 2.0
        c[1, 2] = b / 2.0
        c[3, 2] = b
    elif tag == "SymToeplitzS13Zero":
        c[0, 0] = u17(rng)
        b = u17(rng)
        c[2, 1] = b
        c[3, 2] = b
        c[1, 2] = u17(rng)
    elif tag == "SpecialNormal":
        c[0, 0] = u17(rng)
        s = u17(rng, 3)
        while np.linalg.norm(s) < 0.3:
            s = u17(rng, 3)
        t = u17(rng, 3)
        # the family needs a clear skew norm gap
        while (np.linalg.norm(t) < 0.3
               or abs(np.linalg.norm(s) - np.linalg.norm(t))
               <= 0.15 * (np.linalg.norm(s) + np.linalg.norm(t))):
            t = u17(rng, 3)
        c[1:, 0] = s
        c[0, 1:] = t
        # symmetric block must be rank one along s and t for normality
        c[1:, 1:] = u17(rng) * np.outer(s / np.linalg.norm(s),
                                        t / np.linalg.norm(t))
    elif tag == "BisymmetricRS":
        c[0, 0] = u17(rng)
        c[2, 1] = u17(rng)
        ab = u17(rng, 2)
        gd = u17(rng, 2)
        c[1, 2], c[1, 3] = ab[0] * gd[0], ab[0] * gd[1]
        c[3, 2], c[3, 3] = ab[1] * gd[0], ab[1] * gd[1]
        return R4 @ u.to_matrix()
    elif tag == "SymmetricGeneral":
        c[0, 0] = u17(rng)
        c[1:, 1:] = u17(rng, (3, 3))
    elif tag == "ComplexSO4":
        uc = HxHElement.zero(complex_scalars=True)
        uc.c[1:, 0] = cu(rng, 3)
        uc.c[0, 1:] = cu(rng, 3)
        return uc.to_matrix()
    elif tag == "ComplexPerskew":
        uc = HxHElement.zero(complex_scalars=True)
        uc.c[0, 1] = cu(rng)
        uc.c[2, 0] = cu(rng)
        p = cu(rng, 3)
        p[1] = 0.0
        q = cu(rng, 3)
        q[0] = 0.0
        uc.c[1:, 1] += p
        uc.c[2, 1:] += q
        return uc.to_matrix()
    else:
        raise ValueError(f"no sampler for {tag}")
    return u.to_matrix()


def covering_member(alg, rng, scale=1.0):
    """Random element of {A : A^T M + M A = 0}.  All six forms satisfy
    M = M^T and M^2 = I, so A = M K with K skew works."""
    k = rng.standard_normal((alg.dim, alg.dim)) * scale
    k = k - k.T
    return alg.form @ k


def rodrigues(w):
    """Rotation from a 3x3 skew generator: the axis-angle closed form."""
    c = np.sqrt(w[2, 1] ** 2 + w[0, 2] ** 2 + w[1, 0] ** 2)
    if c < 1e-30:
        return np.eye(3)
    return np.eye(3) + (np.sin(c) / c) * w + ((1.0 - np.cos(c)) / c ** 2) * (w @ w)


def _refuse(*args, **kwargs):
    raise AssertionError("called where the test refused it")


def _refuse_everywhere(monkeypatch, fn):
    """Make every structexp binding of fn raise."""
    for name, mod in list(sys.modules.items()):
        if name == "structexp" or name.startswith("structexp."):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, _refuse)
